"""Command-line front end: text/JSON rendering over the library, a verify
suite runner, and an optional on-disk result cache.

One parser reads every command from one table, ``COMMANDS``: a row per
command with its words, its runner, its parameters and its help.  ``-h``
prints a usage made from the rows.  ``cauchy``, ``schur-weyl`` and each
``verify`` check name the module.function that returns their Report, and one
runner renders it.

Exit codes: 0 success or verification pass; 1 only for a failing report or
an oracle disagreement (any other ``StableRepError`` a check raises also
gives 1); 2 usage error, including a malformed partition or integer, a
negative or zero size, a ``--budget`` or ``STABLEREP_BUDGET`` below 1,
``stable-cohomology --table`` given with P, Q or ``--degree`` and any other
malformed command line, each reported on one stderr line that begins
``usage error: ``; 3 size budget exceeded.  ``main`` catches only the
package's own errors, so any other exception is a bug and is not hidden.

Each subcommand imports the modules it runs when it runs, and each module
imports only what its callers run, so a command loads only those:

- ``partitions`` loads ``partitions`` alone;
- ``stable-cohomology`` loads ``characters`` (the S_n half) and ``stable``,
  and no ``induction``, no ``schur``, no labeled-partition or linear-algebra
  code and no ``fractions``;
- ``verify induction`` loads ``characters`` and ``induction``, and no
  ``stable``;
- ``cauchy``, ``verify extension`` and ``lr`` load ``schur`` (the GL_d
  half) and ``functors``, and ``schur-weyl`` also ``characters``;
  ``verify step1`` loads ``schur`` and ``functors`` and no ``characters``;
- ``hom-dim`` and ``verify rw-prop`` load ``schur`` and ``labeled``, and
  ``verify splitting`` also ``characters`` and ``induction``; only
  ``rw-prop`` below d = p loads ``linalg`` and ``fractions``, to eliminate
  its rows;
- text output loads no ``json``; only ``--json`` and ``--cache`` do;
- only ``--cache`` loads ``cache``, and a cache hit, ``-h`` and a malformed
  command line load no compute module.
"""

from __future__ import annotations

import os
import sys

from .errors import InvalidArgs, SizeBudgetExceeded, StableRepError, budget_cap

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _dumps(obj, **kw) -> str:
    """json.dumps, importing json only when something is written as JSON."""
    import json

    return json.dumps(obj, **kw)


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


def _render_report(rep, as_json: bool) -> tuple[str, int]:
    code = EXIT_OK if rep.passed else EXIT_VERIFY_FAIL
    if as_json:
        return _dumps(rep.to_json(), indent=2, sort_keys=True), code
    status = "PASS" if rep.passed else "FAIL"
    lines = [f"{status}: {rep.claim}", f"left  = {rep.left}", f"right = {rep.right}"]
    for k, v in rep.witnesses.items():
        if k == "classwise_table" and isinstance(v, dict):
            lines.append("classwise values:")
            lines.append(
                _table(["class pair", "value"], [[kk, vv] for kk, vv in v.items()])
            )
        elif v not in ({}, [], None):
            lines.append(f"{k}: {v}")
    return "\n".join(lines), code


# ---------------------------------------------------------------------------
# Subcommand implementations, each called with the parsed Args and the
# command's parameter values and returning (output, exit_code)


def _cmd_partitions(args, n) -> tuple[str, int]:
    from .partitions import check_class_budget, enumerate_partitions, specht_dimension

    check_class_budget(args.budget, n, what="partitions")
    parts = enumerate_partitions(n)
    if args.json:
        return _dumps([str(p) for p in parts], indent=2), EXIT_OK
    rows = [[str(p), specht_dimension(p)] for p in parts]
    return _table(["partition", "specht_dim"], rows), EXIT_OK


def _cmd_char(args, lam) -> tuple[str, int]:
    from .characters import cycle_types, irreducible_character
    from .partitions import Partition, check_class_budget

    lam = Partition.parse(lam)
    check_class_budget(args.budget, lam.weight, what="classes")
    chi = irreducible_character(lam)
    classes = cycle_types(lam.weight)
    if args.json:
        return (
            _dumps(
                {
                    "lambda": str(lam),
                    "values": [
                        {"class": str(c), "value": int(chi.values[c])}
                        for c in classes
                    ],
                },
                indent=2,
            ),
            EXIT_OK,
        )
    rows = [[str(c), int(chi.values[c])] for c in classes]
    return _table(["class", f"chi^({lam})"], rows), EXIT_OK


def _cmd_lr(args, *shapes) -> tuple[str, int]:
    from .functors import lr_coefficient
    from .partitions import Partition

    lam, mu, nu = (Partition.parse(x) for x in shapes)
    c = lr_coefficient(lam, mu, nu)
    if args.json:
        return (
            _dumps(
                {"lambda": str(lam), "mu": str(mu), "nu": str(nu), "coefficient": c}
            ),
            EXIT_OK,
        )
    return str(c), EXIT_OK


def _cmd_labeled_partitions(args, p, q) -> tuple[str, int]:
    from .labeled import enumerate_pq

    objs = enumerate_pq(p, q, args.budget)
    if args.json:
        return (
            _dumps(
                {"p": p, "q": q, "count": len(objs),
                 "elements": [x.to_json() for x in objs]},
                indent=2,
            ),
            EXIT_OK,
        )
    lines = [str(x) for x in objs] + [f"total: {len(objs)}"]
    return "\n".join(lines), EXIT_OK


def _cmd_hom_dim(args, p, q, d) -> tuple[str, int]:
    from .labeled import hom_space_dimension_gl

    dim = hom_space_dimension_gl(p, q, d, args.budget)
    if args.json:
        return _dumps({"p": p, "q": q, "d": d, "dimension": dim}), EXIT_OK
    return str(dim), EXIT_OK


def _cmd_stable_cohomology(args, p, q) -> tuple[str, int]:
    if args.table is not None and (p, q, args.degree) != (None, None, None):
        raise InvalidArgs("--table PMAX QMAX takes no P, Q or --degree")
    from .stable import dimension_table, stable_cohomology

    if args.table is not None:
        pmax, qmax = args.table
        rows = dimension_table(pmax, qmax, args.budget)
        if args.json:
            return _dumps(rows, indent=2), EXIT_OK
        return (
            _table(
                ["p", "q", "degree", "dimension", "min_n"],
                [[r["p"], r["q"], r["degree"], r["dimension"], r["min_n"]] for r in rows],
            ),
            EXIT_OK,
        )
    if p is None or q is None:
        raise InvalidArgs("stable-cohomology requires P Q (or --table PMAX QMAX)")
    degree = args.degree if args.degree is not None else p - q
    res = stable_cohomology(p, q, degree, args.budget)
    if args.json:
        return _dumps(res.to_json(), indent=2), EXIT_OK
    lines = [
        f"p={res.p} q={res.q} degree={res.degree}",
        f"dimension: {res.dimension}",
        f"stable range: {res.valid_range} (n >= {res.min_n})",
    ]
    if res.dimension:
        lines.append("decomposition:")
        lines.append(
            _table(
                ["lambda", "mu", "mult"],
                [[str(a), str(b), m] for (a, b), m in res.decomposition.items()],
            )
        )
    else:
        lines.append("zero (nonvanishing only in degree p - q with q <= p)")
    return "\n".join(lines), EXIT_OK


def _cmd_check(check: str, args) -> tuple[str, int]:
    """Run the check named module.function on the parameter values and the
    budget, and render the Report it returns."""
    import importlib

    module, name = check.split(".")
    values = list(args.values)
    if isinstance(values[0], str):  # LAMBDA
        from .partitions import Partition

        values[0] = Partition.parse(values[0])
    run = getattr(importlib.import_module(f".{module}", __package__), name)
    return _render_report(run(*values, args.budget), args.json)


# One row per command: its words, its runner, its parameters and its help.
# The runner is a function of the parsed Args and the parameter values, or,
# for a check that prints a Report, the module.function that returns it.  A
# bracketed parameter is optional, and "[--name VALUE ...]" is an option of
# that command alone.  LAMBDA, MU and NU stay strings, parsed by the runner
# so that a cache hit imports no partitions; every other value is an integer.
COMMANDS = (
    ("partitions", _cmd_partitions, "N", "list partitions of N with Specht dimensions"),
    ("char", _cmd_char, "LAMBDA", "irreducible character table row"),
    ("lr", _cmd_lr, "LAMBDA MU NU", "Littlewood-Richardson coefficient"),
    ("labeled-partitions", _cmd_labeled_partitions, "P Q",
     "enumerate injectively Q-labeled partitions of {1..P}"),
    ("hom-dim", _cmd_hom_dim, "P Q D", "GL-equivariant Hom-space dimension"),
    ("stable-cohomology", _cmd_stable_cohomology,
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
_HELP_OPTIONS = f"""\
options, before or after the command words, also as --budget=N or a unique
prefix such as --js:
  --json        emit JSON
  --budget N    size budget cap (default {budget_cap(None)}, or STABLEREP_BUDGET)
  --cache DIR   result cache directory
  -h, --help    show this help"""

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


def _help(words: str) -> str:
    """Usage of the rows whose words begin with words (every row for "")."""
    rows = [row for row in COMMANDS if f"{row[0]} ".startswith(f"{words} ".lstrip())]
    if len(rows) == 1:
        command, _, params, help_ = rows[0]
        lines = [f"usage: stablerep {OPTIONS} {command} {params}", "", help_]
    else:
        lines = [f"usage: stablerep {OPTIONS} {words or 'COMMAND'} ...", "", "commands:"]
        for command, _, params, help_ in rows:
            usage = f"{command} {params}"
            gap = "  " if len(usage) <= 30 else "\n" + " " * 34
            lines.append(f"  {usage:<30}{gap}{help_}")
    return "\n".join(lines + ["", _HELP_OPTIONS])


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
            return _help(words)
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
    """Run the command's row."""
    runner = _ROWS[args.command][1]
    if isinstance(runner, str):
        return _cmd_check(runner, args)
    return runner(args, *args.values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
    sys.exit(main())
