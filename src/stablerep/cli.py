"""Command-line front end: text/JSON rendering over the library, a verify
suite runner, and an optional on-disk result cache.

One argparse parser reads every command.  ``cauchy``, ``schur-weyl`` and
each ``verify`` check (a sub-parser of ``verify``) are built from a row of
``CHECKS`` and run by one runner, which renders the Report the check
returns.

Exit codes: 0 success or verification pass; 1 only for a failing report or
an oracle disagreement (any other ``StableRepError`` a check raises also
gives 1); 2 usage error, including a malformed partition or integer, a
negative or zero size, a ``--budget`` or ``STABLEREP_BUDGET`` below 1 and
``stable-cohomology --table`` given with P, Q or ``--degree``; 3 size budget
exceeded.  ``main`` catches only the package's own errors, so any other
exception is a bug and is not hidden.

Each subcommand imports the modules it runs when it runs, and each module
imports only what its callers run, so a command loads only those:

- ``partitions`` loads ``partitions`` alone;
- ``stable-cohomology`` and ``verify induction`` load ``characters`` (the
  S_n half) and ``stable``, and no ``schur``, no labeled-partition or
  linear-algebra code and no ``fractions``;
- ``cauchy``, ``verify extension`` and ``lr`` load ``schur`` (the GL_d
  half) alone, and ``schur-weyl`` also ``characters``;
- ``hom-dim`` and ``verify rw-prop`` load ``schur`` and ``labeled``, and
  ``verify splitting`` also ``characters``; at d >= p they load ``linalg``
  and ``fractions`` only for an intertwiner system small enough to solve
  (at most 900 unknowns, as at ``hom-dim 2 1 2``), and below d = p
  ``rw-prop`` also loads them to eliminate its rows;
- ``verify step1`` loads ``schur`` and ``stable``, whose module-level
  imports bring ``characters``;
- text output loads no ``json``; only ``--json`` and ``--cache`` do;
- a cache hit loads no compute module.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InvalidArgs, SizeBudgetExceeded, StableRepError

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
# Subcommand implementations, each returning (output, exit_code)


def _cmd_partitions(args) -> tuple[str, int]:
    from .partitions import check_class_budget, enumerate_partitions, specht_dimension

    check_class_budget(args.budget, args.n, what="partitions")
    parts = enumerate_partitions(args.n)
    if args.json:
        return _dumps([str(p) for p in parts], indent=2), EXIT_OK
    rows = [[str(p), specht_dimension(p)] for p in parts]
    return _table(["partition", "specht_dim"], rows), EXIT_OK


def _cmd_char(args) -> tuple[str, int]:
    from .characters import cycle_types, irreducible_character
    from .partitions import Partition, check_class_budget

    lam = Partition.parse(args.lam)
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


def _cmd_lr(args) -> tuple[str, int]:
    from .partitions import Partition
    from .schur import lr_coefficient

    lam, mu, nu = (Partition.parse(x) for x in (args.lam, args.mu, args.nu))
    c = lr_coefficient(lam, mu, nu)
    if args.json:
        return (
            _dumps(
                {"lambda": str(lam), "mu": str(mu), "nu": str(nu), "coefficient": c}
            ),
            EXIT_OK,
        )
    return str(c), EXIT_OK


def _cmd_labeled_partitions(args) -> tuple[str, int]:
    from .labeled import enumerate_pq

    objs = enumerate_pq(args.p, args.q, args.budget)
    if args.json:
        return (
            _dumps(
                {"p": args.p, "q": args.q, "count": len(objs),
                 "elements": [x.to_json() for x in objs]},
                indent=2,
            ),
            EXIT_OK,
        )
    lines = [str(x) for x in objs] + [f"total: {len(objs)}"]
    return "\n".join(lines), EXIT_OK


def _cmd_hom_dim(args) -> tuple[str, int]:
    from .labeled import hom_space_dimension_gl

    dim = hom_space_dimension_gl(args.p, args.q, args.d, args.budget)
    if args.json:
        return (
            _dumps({"p": args.p, "q": args.q, "d": args.d, "dimension": dim}),
            EXIT_OK,
        )
    return str(dim), EXIT_OK


# One row per check that prints a Report: its command, the module.function
# that returns the Report, its parameters and its help.  Integers are parsed
# by argparse, LAMBDA by the runner, so that a cache hit imports no
# partitions.
CHECKS = (
    ("cauchy", "schur.verify_cauchy", "R DV DW", "verify the Cauchy decomposition"),
    ("schur-weyl", "schur.verify_schur_weyl", "R D", "verify Schur-Weyl duality"),
    ("verify rw-prop", "labeled.verify_rw_prop", "P Q D",
     "the labeled-partition maps span the Hom space"),
    ("verify splitting", "labeled.verify_splitting_lemma", "P Q D",
     "classwise splitting of the labeled-partition character"),
    ("verify extension", "schur.split_extension_filtration_check", "LAMBDA DA DC",
     "Schur-functor filtration of a split extension"),
    ("verify induction", "stable.theorem_a_induction_check", "P Q",
     "the induction step of the stable answer"),
    ("verify step1", "stable.step1_dimension_identity", "P Q D",
     "graded-piece dimension identity"),
)


def _cmd_check(args) -> tuple[str, int]:
    import importlib

    module, name = args.check.split(".")
    values = [getattr(args, param) for param in args.params]
    if args.params[0] == "LAMBDA":
        from .partitions import Partition

        values[0] = Partition.parse(values[0])
    check = getattr(importlib.import_module(f".{module}", __package__), name)
    return _render_report(check(*values, args.budget), args.json)


def _cmd_stable_cohomology(args) -> tuple[str, int]:
    if args.table is not None and (args.p, args.q, args.degree) != (None, None, None):
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
    if args.p is None or args.q is None:
        raise InvalidArgs("stable-cohomology requires P Q (or --table PMAX QMAX)")
    degree = args.degree if args.degree is not None else args.p - args.q
    res = stable_cohomology(args.p, args.q, degree, args.budget)
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


# ---------------------------------------------------------------------------
# Cache


def _cache_lookup(cache_dir: str, key: str) -> tuple[str, int] | None:
    import json

    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return data["output"], data["exit"]
    except (OSError, ValueError, KeyError):
        return None


def _cache_store(cache_dir: str, key: str, output: str, code: int) -> None:
    import tempfile

    os.makedirs(cache_dir, exist_ok=True)
    payload = _dumps({"output": output, "exit": code})
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _cache_key(args: argparse.Namespace) -> str:
    """Hash of the package's .py sources and of every parsed argument,
    including the effective budget, so that a hit returns only what this
    code would print for this command."""
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + hashlib.sha256(fh.read()).digest())
    params = {k: v for k, v in vars(args).items() if k not in ("func", "cache")}
    h.update(_dumps(params, sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Parser / entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stablerep",
        description="Exact computations with partitions, characters, Schur "
        "functors and stable-cohomology dimension tables.",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON")
    ap.add_argument("--budget", type=int, default=None, help="size budget cap")
    ap.add_argument("--cache", metavar="DIR", default=None, help="result cache dir")
    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    common.add_argument("--cache", metavar="DIR", default=argparse.SUPPRESS)

    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("partitions", help="list partitions of N")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_partitions)

    p = add_parser("char", help="irreducible character table row")
    p.add_argument("lam", metavar="LAMBDA")
    p.set_defaults(func=_cmd_char)

    p = add_parser("lr", help="Littlewood-Richardson coefficient")
    p.add_argument("lam", metavar="LAMBDA")
    p.add_argument("mu", metavar="MU")
    p.add_argument("nu", metavar="NU")
    p.set_defaults(func=_cmd_lr)

    p = add_parser("labeled-partitions", help="enumerate q-labeled partitions")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_labeled_partitions)

    p = add_parser("hom-dim", help="equivariant Hom-space dimension")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_hom_dim)

    p = add_parser("stable-cohomology", help="stable cohomology calculator")
    p.add_argument("p", type=int, nargs="?", default=None)
    p.add_argument("q", type=int, nargs="?", default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--table", type=int, nargs=2, metavar=("PMAX", "QMAX"))
    p.set_defaults(func=_cmd_stable_cohomology)

    verify = add_parser("verify", help="run a structural verification")
    verify = verify.add_subparsers(dest="what", required=True)
    for command, check, params, help_ in CHECKS:
        *group, name = command.split()
        p = (verify if group else sub).add_parser(name, parents=[common], help=help_)
        params = params.split()
        for param in params:
            p.add_argument(param, type=str if param == "LAMBDA" else int)
        p.set_defaults(func=_cmd_check, check=check, params=params)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    if args.budget is None and os.environ.get("STABLEREP_BUDGET"):
        try:
            args.budget = int(os.environ["STABLEREP_BUDGET"])
        except ValueError:
            print("invalid STABLEREP_BUDGET", file=sys.stderr)
            return EXIT_USAGE
    if args.budget is not None and args.budget < 1:
        print(f"usage error: budget must be at least 1, got {args.budget}", file=sys.stderr)
        return EXIT_USAGE

    if args.cache:
        key = _cache_key(args)
        hit = _cache_lookup(args.cache, key)
        if hit is not None:
            output, code = hit
            if output:
                print(output)
            return code

    try:
        output, code = args.func(args)
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

    if args.cache:
        _cache_store(args.cache, key, output, code)
    if output:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
