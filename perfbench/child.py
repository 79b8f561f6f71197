"""One benchmark op in a fresh interpreter.

    python3 perfbench/child.py api   '<op json>'   # run a public-API op
    python3 perfbench/child.py trace '<op json>'   # run any op with spans

An op is ``{"kind": "cli" | "api", "args": [...]}``.  A CLI op's stdout is
exactly what ``python3 -m stablerep.cli ARGS`` prints.  An API op prints one
JSON summary holding only basis-independent quantities (dimensions, traces,
decompositions, character values), so the benchmark can check it against
independent formulas.  In ``trace`` mode the span record is written as the
last line of stderr after the ``TRACE_MARK`` prefix.  The package is found
through ``PYTHONPATH``.
"""

# Only sys and time at the top: a traced child times ``import stablerep.cli``
# before anything else is loaded, so every module the package pulls in
# (json, re, dataclasses, ...) counts toward that import.
import sys
import time

TRACE_MARK = "perfbench-trace "


def _specht_module(lam: str) -> dict:
    import stablerep

    m = stablerep.specht_module(stablerep.Partition.parse(lam))
    return {
        "dimension": m.dimension,
        "generator_traces": [str(g.trace()) for g in m.sym_generators],
    }


def _schur_gl(lam: str, d: str) -> dict:
    import stablerep

    m = stablerep.schur_apply(stablerep.Partition.parse(lam), int(d))
    dec = stablerep.gl_decompose(m)
    return {
        "dimension": m.dimension,
        "decomposition": {str(k): v for k, v in dec.items()},
    }


def _specht_character_traces(lam: str) -> dict:
    import stablerep
    import stablerep.modules

    traces = stablerep.modules.specht_character_traces(stablerep.Partition.parse(lam))
    return {"traces": {str(rho): str(v) for rho, v in traces.items()}}


def _character_table(n: str) -> dict:
    import stablerep

    rows = []
    for lam in stablerep.enumerate_partitions(int(n)):
        chi = stablerep.irreducible_character(lam)
        rows.append([str(lam), [int(v) for v in chi.values.values()]])
    return {"classes": [str(c) for c in stablerep.cycle_types(int(n))], "rows": rows}


API = {
    "specht_module": _specht_module,
    "schur_gl": _schur_gl,
    "specht_character_traces": _specht_character_traces,
    "character_table": _character_table,
}


def run_api(args: list[str]) -> int:
    import json

    summary = API[args[0]](*args[1:])
    print(json.dumps(summary, sort_keys=True, separators=(",", ":")))
    return 0


def run_traced(op_json: str) -> int:
    t0 = time.perf_counter()
    import stablerep.cli

    import_s = time.perf_counter() - t0
    import json

    from tracer import Tracer, install

    op = json.loads(op_json)
    tracer = Tracer()
    install(tracer)
    try:
        if op["kind"] == "cli":
            code = stablerep.cli.main(list(op["args"]))
        else:
            code = run_api(list(op["args"]))
        sys.stdout.flush()
    finally:
        record = tracer.record()
        record["import_s"] = import_s
        sys.stderr.write("\n" + TRACE_MARK + json.dumps(record) + "\n")
    return code


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("api", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "trace":
        return run_traced(argv[1])
    import json

    return run_api(list(json.loads(argv[1])["args"]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
