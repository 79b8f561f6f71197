"""Wall-clock spans around the public functions of every stablerep module.

The tracer is installed from the benchmark's own files; the package is not
edited.  Each public module-level function is replaced by a wrapper in every
stablerep module whose namespace holds it, so a call from ``stable`` into
``labeled.permutation_bicharacter`` or from ``labeled`` into
``linalg.sparse_rank`` is timed like a call from the CLI.  A few dense
methods of ``ExactMatrix`` are wrapped on the class.  A name the package no
longer has (a merged method, a dropped cache) is skipped, so its metrics
read 0 and a refactor of the package needs no edit here.

A span's self time is its duration minus the durations of the wrapped
calls it made.  Work the wrapper itself does (counting rows, reading
lengths) is kept out of the self time of both the span and its caller, so it
shows up in the benchmark's untraced remainder.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("partitions", "characters", "linalg", "modules", "labeled", "stable", "cli")

# Per-element helpers that run hundreds of thousands of times per op (for
# example perm_compose inside specht_character_traces); a wrapper would cost
# more than the call and distort every span above it.  Their time counts
# toward the self time of their caller.  kostka is a recursive lru_cache whose
# hit ratio is read from cache_info() instead.
UNWRAPPED = {
    "modules": {
        "perm_compose", "perm_on_index", "perm_inverse", "perm_sign",
        "perm_cycle_type", "perm_identity", "class_representative",
    },
    "characters": {
        "class_size", "centralizer_order", "sign_of_class", "identity_type",
        "merge_types", "sym_dimension", "kostka", "series_mul",
        "series_geom_power",
    },
    "partitions": {"hook_lengths", "transpose"},
}

DENSE_METHODS = ("pivot_columns", "rref", "solve_many")

# lru_caches whose hit ratios are reported: (layer, attribute).  A cache
# the package no longer has is skipped and its hit ratio reads 0.
CACHES = {
    "set_partitions": ("labeled", "set_partitions"),
    "mn": ("characters", "_mn"),
    "kostka": ("characters", "kostka"),
}


class Tracer:
    """Aggregated spans and counters for one process."""

    def __init__(self):
        self.stack: list[list[float]] = []  # per open span: [child seconds]
        self.spans: dict[str, list[float]] = {}  # name -> [calls, self_s, total_s]
        self.counters: dict[str, float] = {}
        self.caches: dict[str, object] = {}

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn timed as span ``name``.  ``before(tracer, args, kwargs)``
        and ``after(tracer, args, kwargs, result)`` update counters outside
        the span."""
        clock = time.perf_counter
        stack = self.stack
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            t0 = clock()
            if before is not None:
                before(tracer, args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t1 = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                entry = spans.get(name)
                if entry is None:
                    entry = spans[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += (t2 - t1) - frame[0]
                entry[2] += t2 - t1
                if stack:
                    stack[-1][0] += t2 - t0
            if after is not None:
                after(tracer, args, kwargs, return_value)
                if stack:
                    stack[-1][0] += clock() - t2
            return return_value

        return functools.update_wrapper(traced, fn)

    def record(self) -> dict:
        caches = {}
        for key, fn in self.caches.items():
            info = fn.cache_info()
            caches[key] = [info.hits, info.misses]
        return {
            "spans": self.spans,
            "counters": self.counters,
            "caches": caches,
        }


# ---------------------------------------------------------------------------
# Counters taken at span boundaries


def _objects(tracer, args, kwargs, result):
    tracer.count("labeled.enumerate.objects", len(result))


def _bicharacter(tracer, args, kwargs, result):
    # Values are fixed-point counts per class pair; the identity pair counts
    # every object, so objects x pairs is the number of act() comparisons.
    values = result.values
    tracer.count("labeled.fixed_point.tests", int(result.dimension) * len(values))
    tracer.count("labeled.fixed_point.fixed", int(sum(values.values())))


def _fw_piece(tracer, args, kwargs, result):
    tracer.count("labeled.build_fw_piece.basis_dim", result.dimension)


def _sparse_rows(tracer, args, kwargs):
    rows = args[0] if args else kwargs.get("rows")
    if isinstance(rows, (list, tuple)):
        tracer.count("linalg.sparse_rank.rows", len(rows))
        tracer.count("linalg.sparse_rank.nnz", sum(len(r) for r in rows))


def _sparse_rank(tracer, args, kwargs, result):
    tracer.count("linalg.sparse_rank.rank", result)


def _dense_cells(tracer, args, kwargs):
    m = args[0]
    tracer.count("linalg.dense.cells", m.rows * m.cols)


def _dense_solve_cells(tracer, args, kwargs):
    m = args[0]
    rhs = args[1] if len(args) > 1 else kwargs.get("rhs_list", ())
    tracer.count("linalg.dense.cells", m.rows * (m.cols + len(rhs)))


HOOKS = {
    "labeled.enumerate_pq": (None, _objects),
    "labeled.enumerate_general": (None, _objects),
    "labeled.permutation_bicharacter": (None, _bicharacter),
    "labeled.build_fw_piece": (None, _fw_piece),
    "linalg.sparse_rank": (_sparse_rows, _sparse_rank),
    "linalg.ExactMatrix.pivot_columns": (_dense_cells, None),
    "linalg.ExactMatrix.rref": (_dense_cells, None),
    "linalg.ExactMatrix.solve_many": (_dense_solve_cells, None),
}


def install(tracer: Tracer) -> None:
    """Import every layer and patch its public functions everywhere they
    are bound inside the package."""
    import importlib

    mods = {layer: importlib.import_module(f"stablerep.{layer}") for layer in LAYERS}
    package = sys.modules["stablerep"]
    namespaces = [package] + list(mods.values())
    for key, (layer, attr) in CACHES.items():
        fn = getattr(mods[layer], attr, None)
        if hasattr(fn, "cache_info"):
            tracer.caches[key] = fn

    for layer, mod in mods.items():
        skip = UNWRAPPED.get(layer, set())
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or name in skip or inspect.isclass(obj):
                continue
            if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isgeneratorfunction(obj):
                continue  # a span would close before the work is done
            span = f"{layer}.{name}"
            before, after = HOOKS.get(span, (None, None))
            wrapped = tracer.wrap(span, obj, before, after)
            for ns in namespaces:
                if vars(ns).get(name) is obj:
                    setattr(ns, name, wrapped)

    matrix = getattr(mods["linalg"], "ExactMatrix", None)
    members = vars(matrix) if matrix is not None else {}
    for name in DENSE_METHODS:
        method = members.get(name)
        if method is None:
            continue  # merged or renamed: its spans read 0
        span = f"linalg.ExactMatrix.{name}"
        before, after = HOOKS.get(span, (None, None))
        setattr(matrix, name, tracer.wrap(span, method, before, after))
