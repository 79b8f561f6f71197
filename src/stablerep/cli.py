"""Command-line front end: the parser and the dispatch.

One parser reads every command from one table, ``COMMANDS``: a row per
command with its words, its runner, its parameters and its help.  Every
runner lives beside what it computes and is named by its row as
``"module.name"``, and a check's row names the function that returns its
``report.Report``.  A runner returns a string or lines, a
table among them as a (headers, rows) pair for ``_text``: nothing in the
package imports this module, which under ``python -m`` runs as ``__main__``
and would be compiled twice.  ``usage`` makes the ``-h`` text from the rows.

Exit codes: 0 success or verification pass; 1 only for a failing report or
an oracle disagreement (any other ``StableRepError`` a check raises also
gives 1); 2 usage error, including a malformed partition or integer, a
negative or zero size, a ``--budget`` or ``STABLEREP_BUDGET`` below 1,
``stable-cohomology --table`` given with P, Q or ``--degree`` and any other
malformed command line, each reported on one stderr line that begins
``usage error: ``; 3 size budget exceeded; 120, run as a program, when
the reader of stdout closed it before the output was written, as
CPython exits when it cannot flush stdout (no traceback).  ``main``
catches only the package's own errors, so any other exception is a bug and
is not hidden.

Run as a program (``python -m stablerep.cli`` or the ``stablerep``
script), ``main()`` first freezes the heap that start-up built
(``gc.freeze()``), so no collection during the command scans it.  Once
the output is written it flushes stdout and stderr, runs the ``atexit``
handlers, flushes again and ends the process with ``os._exit``: that keeps
the handlers and the flushed output and skips module teardown, the final
collection and C-level exit hooks, which no command needs.  It relies on
no command starting a thread, which ``os._exit`` would not wait for.  An
exception that escapes the command takes the normal interpreter exit.
``main(argv)`` with a list leaves the collector alone and returns.

Each command imports only the modules it runs (``characters`` always with
``counts``):

- ``partitions`` loads ``partitions`` alone;
- ``stable-cohomology`` loads ``stable``, ``counts`` only for ``--table``
  and a cell in its nonzero degree, and ``characters`` (the S_n half) only
  for the latter: a zero cell, as text or as ``--json``, loads neither; no
  ``report``, ``induction``, ``schur``, labeled-partition or linear-algebra
  code, and no ``fractions``;
- only the checks load ``report``; ``verify induction`` loads
  ``characters`` and ``induction``, and no ``stable``;
- ``cauchy``, ``lr`` and ``verify`` ``extension`` and ``step1`` load
  ``schur`` (the GL_d half) and ``functors``, ``schur-weyl`` also
  ``characters``;
- ``hom-dim`` and ``verify rw-prop`` load ``schur`` and ``labeled``,
  ``labeled-partitions`` also ``counts``, ``verify splitting`` also
  ``characters`` and ``induction``; only ``rw-prop`` below d = p loads
  ``linalg`` and ``fractions``, to eliminate its rows;
- text output loads no ``json``; only ``--json`` and ``--cache`` do;
- only ``--cache`` loads ``cache``, and only ``-h`` ``usage``; a cache hit,
  ``-h`` and a malformed command line load no compute module.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys

from .errors import InvalidArgs, SizeBudgetExceeded, StableRepError, budget_cap

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _table(headers: list[str], rows: list[list]) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(x) for x in row] for row in rows]
    widths = [
        max([len(h)] + [len(r[i]) for r in cells]) for i, h in enumerate(headers)
    ]
    def fmt(row):
        return "  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in cells]
    return "\n".join(lines)


def _text(doc: str | list) -> str:
    """A runner's string as it is, or its lines, each a string or a table."""
    if isinstance(doc, str):
        return doc
    return "\n".join(x if isinstance(x, str) else _table(*x) for x in doc)


# One row per command: its words, its runner, its parameters and its help.
# The runner is named module._cmd_name, a function of the parsed Args and
# the parameter values whose result _text prints, or for a check that
# prints a Report, module.function, the function that returns it.  A
# bracketed parameter is optional, and "[--name VALUE ...]" is an option of
# that command alone.
# LAMBDA, MU and NU stay strings, parsed by the runner so that a cache hit
# imports no partitions; every other value is an integer.
COMMANDS = (
    ("partitions", "partitions._cmd_partitions", "N",
     "list partitions of N with Specht dimensions"),
    ("char", "characters._cmd_char", "LAMBDA", "irreducible character table row"),
    ("lr", "functors._cmd_lr", "LAMBDA MU NU", "Littlewood-Richardson coefficient"),
    ("labeled-partitions", "labeled._cmd_labeled_partitions", "P Q",
     "enumerate injectively Q-labeled partitions of {1..P}"),
    ("hom-dim", "labeled._cmd_hom_dim", "P Q D", "GL-equivariant Hom-space dimension"),
    ("stable-cohomology", "stable._cmd_stable_cohomology",
     "[P] [Q] [--degree K] [--table PMAX QMAX]",
     "stable answer for one cell (degree P - Q by default) or a table"),
    ("cauchy", "functors.verify_cauchy", "R DV DW", "verify the Cauchy decomposition"),
    ("schur-weyl", "functors.verify_schur_weyl", "R D", "verify Schur-Weyl duality"),
    ("verify rw-prop", "labeled.verify_rw_prop", "P Q D",
     "the labeled-partition maps span the Hom space"),
    ("verify splitting", "labeled.verify_splitting_lemma", "P Q D",
     "classwise splitting of the labeled-partition character"),
    ("verify extension", "functors.split_extension_filtration_check", "LAMBDA DA DC",
     "Schur-functor filtration of a split extension"),
    ("verify induction", "induction.theorem_a_induction_check", "P Q",
     "the induction step of the stable answer"),
    ("verify step1", "functors.step1_dimension_identity", "P Q D",
     "graded-piece dimension identity"),
)
# The options every command takes, before or after its words.
OPTIONS = "[--json] [--budget N] [--cache DIR]"
_STRINGS = ("LAMBDA", "MU", "NU", "DIR")
_ROWS = {row[0]: row for row in COMMANDS}


def _signature(spec: str) -> tuple[list[str], int, dict[str, list[str]]]:
    """The positional names of a parameter spec, how many of them are
    required, and its options with the names of their values."""
    names, required, options, option = [], 0, {}, None
    for word in spec.split():
        if word.startswith("[--"):
            option = options[word.strip("[]")] = []
        elif option is not None:
            option.append(word.rstrip("]"))
        else:
            names.append(word.strip("[]"))
            required += not word.startswith("[")
        if word.endswith("]"):
            option = None
    return names, required, options


def _is_number(token: str) -> bool:
    """Whether a token that begins with "-" is a negative number, read as a
    value rather than an option."""
    whole, dot, fraction = token[1:].partition(".")
    if dot:
        return fraction.isdecimal() and (whole == "" or whole.isdecimal())
    return whole.isdecimal()


def _option(token: str, options) -> tuple[str, str | None] | None:
    """The option a token names, by its full name or a unique prefix of it,
    with the value given after "=" (None without one); None for a value."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return token, None
    name, eq, value = token.partition("=")
    if token.startswith("--"):
        matches = [option for option in options if option.startswith(name)]
        if len(matches) > 1:
            raise InvalidArgs(f"ambiguous option {name}: {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    if _is_number(token) or " " in token:
        return None
    raise InvalidArgs(f"unrecognized option {token!r}")


class Args:
    """A parsed command line: the command's words, its parameter values in
    the order of its row (None for an optional one not given), and the
    options."""

    def __init__(self):
        self.command = ""
        self.values = []
        self.json = False
        self.budget = self.cache = self.degree = self.table = None


def _value(name: str, token: str):
    if name in _STRINGS:
        return token
    try:
        return int(token)
    except ValueError:
        raise InvalidArgs(f"{name} must be an integer, got {token!r}") from None


def parse_args(argv: list[str]) -> Args | str:
    """Read a command line against COMMANDS: the parsed Args, or the help
    that -h or --help asks for.  Options may come before, between or after
    the command words and values; after "--" every token is a value.
    Raises InvalidArgs on anything malformed."""
    args, words, row, tokens = Args(), "", None, []
    options = {"-h": [], "--help": [], **_signature(OPTIONS)[2]}
    argv = iter(argv)
    for token in argv:
        if token == "--":
            if row is None:
                raise InvalidArgs("-- comes after the command words")
            tokens += argv
            break
        option = _option(token, options)
        if option is None:
            if row is not None:
                tokens.append(token)
                continue
            words = f"{words} {token}".lstrip()
            row = _ROWS.get(words)
            if row is not None:
                options.update(_signature(row[2])[2])
            elif not any(command.startswith(f"{words} ") for command in _ROWS):
                raise InvalidArgs(f"unknown command {words!r}; see stablerep -h")
            continue
        name, value = option
        wanted = options[name]
        if value is None:
            values = [next(argv, None) for _ in wanted]
            if any(v is None or v == "--" or _option(v, options) for v in values):
                raise InvalidArgs(f"{name} expects {' '.join(wanted)}")
        elif len(wanted) != 1:
            raise InvalidArgs(f"{name} takes {' '.join(wanted) or 'no value'}, got {token!r}")
        else:
            values = [value]
        if name in ("-h", "--help"):
            from .usage import help_text

            return help_text(COMMANDS, OPTIONS, words)
        values = tuple(_value(n, v) for n, v in zip(wanted, values))
        # A flag is True, an option of one value that value, --table a pair.
        setattr(args, name[2:], values[0] if len(values) == 1 else values or True)
    if row is None:
        raise InvalidArgs(f"expected a command after {words or 'stablerep'}; see stablerep -h")
    names, required, _ = _signature(row[2])
    if not required <= len(tokens) <= len(names):
        raise InvalidArgs(f"expected {row[0]} {row[2]}, got {len(tokens)} values")
    args.command = row[0]
    args.values = [_value(n, v) for n, v in zip(names, tokens)]
    args.values += [None] * (len(names) - len(tokens))
    return args


# ---------------------------------------------------------------------------
# Entry point


def _run(args: Args) -> tuple[str, int]:
    """Settle the effective budget, then answer from the cache or run the
    command's row."""
    if args.budget is None and os.environ.get("STABLEREP_BUDGET"):
        args.budget = _value("STABLEREP_BUDGET", os.environ["STABLEREP_BUDGET"])
    budget_cap(args.budget)
    if not args.cache:
        return _compute(args)
    from .cache import _cache_key, _cache_lookup, _cache_store

    key = _cache_key(args)
    hit = _cache_lookup(args.cache, key)
    if hit:
        return hit
    output, code = _compute(args)
    _cache_store(args.cache, key, output, code)
    return output, code


def _compute(args: Args) -> tuple[str, int]:
    """Run the command's row: its runner, or the check it names, whose
    Report gives the exit code."""
    from importlib import import_module

    module, name = _ROWS[args.command][1].split(".")
    runner = getattr(import_module(f".{module}", __package__), name)
    if not name.startswith("_cmd_"):
        from .report import run_check

        rep = run_check(runner, args)
        return _text(rep.render(args.json)), EXIT_OK if rep.passed else EXIT_VERIFY_FAIL
    return _text(runner(args, *args.values)), EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code, its output printed.

    Without ``argv`` this is the program route (``python -m stablerep.cli``
    and the ``stablerep`` console script), which reads ``sys.argv`` and
    does not return.  There ``gc.freeze()`` comes first: what start-up
    built lives until exit anyway, so no collection scans it during the
    command.  When the command has printed, stdout and stderr are flushed,
    the ``atexit`` handlers run once, both are flushed again, and
    ``os._exit`` ends the process with the exit code: module teardown, the
    final collection and C-level exit hooks are skipped, which is safe
    because no command starts a thread.  If the reader of stdout has
    closed it, fd 1 is pointed at /dev/null so that no later flush fails,
    and the exit code is 120, with no traceback.  An exception that
    escapes the command (a bug, ``KeyboardInterrupt``) takes the normal
    interpreter exit.  A caller that passes ``argv`` (a test, a library)
    keeps a normal collector and gets the exit code back."""
    if argv is not None:
        return _main(argv)
    gc.freeze()
    try:
        code = _main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        code = _stdout_closed()
    sys.stderr.flush()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _stdout_closed()
    sys.stderr.flush()
    os._exit(code)


def _stdout_closed() -> int:
    """Point fd 1 at /dev/null, so that no later flush of what stdout still
    buffers fails, and give CPython's exit code for an unflushable stdout."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 120


def _main(argv: list[str]) -> int:
    """Parse and run one command line, print its output or its error, and
    return its exit code."""
    try:
        args = parse_args(list(argv))
        output, code = (args, EXIT_OK) if isinstance(args, str) else _run(args)
    except InvalidArgs as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SizeBudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except StableRepError as e:
        # An oracle disagreement or a character that is not one: a check failed.
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    if output:
        print(output)
    return code


if __name__ == "__main__":
    main()
