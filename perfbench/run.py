"""Benchmark for stablerep: one closed-loop client, one fresh interpreter per op.

    python3 perfbench/run.py --workload stable_cells --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  Ops run one at a time, each in a new process, so
each pays interpreter start, package import and cold ``lru_cache``s the way a
command-line user does.  The op list (see workloads.py) is cycled until
``--seconds`` would be exceeded; every op runs at least once.  Every op's
exit code and the sha256 of its stdout are checked against golden.json after
the op has finished, and API ops are also checked against independent
formulas.  Times are reported in reference seconds: each op is stopped every
SLICE_S while a fixed probe is timed on its CPU, and each slice is rescaled
by the probe's speed (see run_sliced), so that the host's drifting speed
does not show as a change of the program.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` each op runs untraced and then under the span tracer
(tracer.py), and the last line reports the per-layer metrics.  The line
before it records the machine, the source and the seed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from child import TRACE_MARK  # noqa: E402

SETUP_REPS = 7
SETUP_OP = workloads.cli("partitions 1")
OP_TIMEOUT_S = 120.0
MAX_PROBED_CPUS = 8
SLICE_S = 0.2
PROBE_ITERS = 1800
PROBE_STEPS = 12000
PROBE_WALK = list(range(1 << 19))
PROBE_REF_S = 0.010
PR_SET_CHILD_SUBREAPER = 36


def op_env() -> dict:
    """The caller's environment without anything that changes what stablerep
    computes: no STABLEREP_* settings (budget), and only this checkout's
    source on the import path."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("STABLEREP_") and k not in ("PYTHONPATH", "PYTHONSTARTUP")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def op_command(op: workloads.Op, traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "child.py"), "trace", json.dumps(op.to_json())]
    if op.kind == "cli":
        return [sys.executable, "-m", "stablerep.cli", *op.args]
    return [sys.executable, str(HERE / "child.py"), "api", json.dumps(op.to_json())]


# ---------------------------------------------------------------------------
# Output checks (run after the op has finished, outside its timed interval)


class Checker:
    """Compares op outputs with golden.json and, for API ops, with
    independent formulas from the package's closed-form helpers."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self._pkg = None

    def check(self, op: workloads.Op, code: int, stdout: bytes) -> bool:
        self.attempted += 1
        ok = self._golden_ok(op, code, stdout)
        if ok and op.kind == "api":
            try:
                ok = self._api_ok(op, json.loads(stdout))
            except Exception as e:  # a wrong or missing field is a failed check
                print(f"check error on {op.key}: {e!r}", file=sys.stderr)
                ok = False
        if not ok:
            self.failed += 1
            print(f"FAILED check: {op.key} (exit {code})", file=sys.stderr)
        return ok

    def _golden_ok(self, op, code, stdout) -> bool:
        want = self.golden.get(op.key)
        if want is None:
            print(f"no golden output for {op.key}", file=sys.stderr)
            return False
        return code == want["exit"] and hashlib.sha256(stdout).hexdigest() == want["sha256"]

    def _stablerep(self):
        if self._pkg is None:
            sys.path.insert(0, str(SRC))
            import stablerep

            self._pkg = stablerep
        return self._pkg

    def _api_ok(self, op, out: dict) -> bool:
        sr = self._stablerep()
        fn, *args = op.args
        if fn == "specht_module":
            lam = sr.Partition.parse(args[0])
            chi = sr.irreducible_character(lam)
            r = lam.weight
            transposition = sr.Partition([2] + [1] * (r - 2)) if r >= 2 else None
            return out["dimension"] == sr.specht_dimension(lam) and all(
                tr == str(chi.values[transposition]) for tr in out["generator_traces"]
            ) and len(out["generator_traces"]) == max(r - 1, 0)
        if fn == "schur_gl":
            lam, d = sr.Partition.parse(args[0]), int(args[1])
            return out["dimension"] == sr.schur_gl_dimension(lam, d) and out[
                "decomposition"
            ] == {str(lam): 1}
        if fn == "specht_character_traces":
            chi = sr.irreducible_character(sr.Partition.parse(args[0]))
            return out["traces"] == {str(k): str(v) for k, v in chi.values.items()}
        if fn == "character_table":
            n = int(args[0])
            dims = {row[0]: row[1][-1] for row in out["rows"]}  # class 1^n is last
            want = {str(lam): sr.specht_dimension(lam) for lam in sr.enumerate_partitions(n)}
            return (
                out["classes"][-1] == str(sr.Partition([1] * n))
                and dims == want
                and sum(f * f for f in dims.values()) == math.factorial(n)
            )
        return False


# ---------------------------------------------------------------------------
# Running ops


def probe() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of Python work in the package's
    own idiom, about PROBE_REF_S on a quiet machine: composing permutation
    tuples and counting them in a dict, Gaussian elimination over Fraction
    rows (the Hilbert matrix, whose pivots are never 0), hashing frozensets,
    and a strided walk over PROBE_WALK, which is larger than a core's
    cache, so that a neighbour's cache traffic slows the probe as it slows
    the op.  Under load from a neighbouring vCPU this mix slowed by about as
    much as the package's own kernels did; a pure Fraction loop slowed by
    half as much and the walk alone by more (see README.md)."""
    w0, c0 = time.perf_counter(), time.process_time()
    perms = [tuple((i * k + 1) % 7 for i in range(7)) for k in range(1, 7)]
    acc, seen = perms[0], {}
    for i in range(PROBE_ITERS):
        acc = tuple(acc[x] for x in perms[i % 6])
        seen[acc] = seen.get(acc, 0) + 1
    rows = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]
    for c in range(8):
        for r in range(c + 1, 8):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    {frozenset((i % 5, i % 7, i % 11)) for i in range(3000)}
    walk, n, j, total = PROBE_WALK, len(PROBE_WALK), 0, 0
    for _ in range(PROBE_STEPS):
        j = (j + 7919) % n
        total += walk[j]
    return time.perf_counter() - w0, time.process_time() - c0


def run_sliced(cmd: list[str], env, sliced: bool = True) -> dict:
    """Run ``cmd`` to its end, stopping it every SLICE_S to time the probe
    on the same CPU (the op inherits this process's affinity).

    On a shared host the speed one vCPU gets changes by up to 2x for
    minutes at a time, and other tasks may share the CPU.  Each slice is
    therefore rescaled to reference seconds: the op's time in the slice,
    less the time it waited for the CPU (``/proc/PID/schedstat``), times
    ``PROBE_REF_S / p``, where ``p`` is the mean CPU time of the probes
    before and after the slice.  ``wall_ref`` rescales the op's wall time
    that way and ``cpu_ref`` its CPU time; the raw wall and CPU are kept
    too.  A traced op is not stopped (``sliced=False``: one slice), because
    its spans read its own clock, which runs on while it is stopped."""
    slice_s = SLICE_S if sliced else OP_TIMEOUT_S
    prev = probe()[1]
    t0 = start = time.perf_counter()
    pid, out_fd, err_fd = _spawn(cmd, env)
    pidfd = os.pidfd_open(pid)
    out = {out_fd: [], err_fd: []}
    pipes = [out_fd, err_fd]
    wall = wall_ref = cpu_ref = 0.0
    last = (0.0, 0.0)  # the op's (CPU, run-queue wait) seconds so far
    status = usage = None
    try:
        while status is None:
            exited = False
            while not exited:
                timeout = start + slice_s - time.perf_counter()
                if timeout <= 0:
                    break
                ready, _, _ = select.select(pipes + [pidfd], [], [], timeout)
                for fd in ready:
                    if fd == pidfd:
                        exited = True
                    elif not _read_into(fd, out[fd]):
                        pipes.remove(fd)
            if exited:  # read the ended op's counters before reaping it
                stat = _schedstat(pid)
                _, st, ru = os.wait4(pid, 0)
            else:
                stop = time.perf_counter() - t0 < OP_TIMEOUT_S
                os.kill(pid, signal.SIGSTOP if stop else signal.SIGKILL)
                _, st, ru = os.wait4(pid, os.WUNTRACED)
                stat = _schedstat(pid) if os.WIFSTOPPED(st) else None
            if not os.WIFSTOPPED(st):
                status, usage = st, ru
            w = time.perf_counter() - start
            cur = probe()[1]
            # Without counters (the op ended as it was stopped) the slice
            # counts as all CPU and no wait.
            run, wait = (stat[0] - last[0], stat[1] - last[1]) if stat else (w, 0.0)
            last = stat or (last[0] + w, last[1])
            speed = PROBE_REF_S / ((prev + cur) / 2)
            wall += w
            wall_ref += (w - wait) * speed
            cpu_ref += run * speed
            prev = cur
            if status is None:
                os.kill(pid, signal.SIGCONT)
                start = time.perf_counter()
        for fd in pipes:  # the op has ended: read what it left in the pipes
            while _read_into(fd, out[fd]):
                pass
    finally:
        os.close(pidfd)
        if status is None:  # interrupted: do not leave the op running
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(out_fd)
        os.close(err_fd)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "stdout": b"".join(out[out_fd]),
        "stderr": b"".join(out[err_fd]),
        "wall": wall,
        "wall_ref": wall_ref,
        "cpu": usage.ru_utime + usage.ru_stime,
        "cpu_ref": cpu_ref,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def _spawn(cmd: list[str], env) -> tuple[int, int, int]:
    """Start ``cmd`` as a child of this process; return its pid and the read
    ends of its stdout and stderr pipes.

    A child forked from this process would report this process's peak RSS
    as its own: Linux folds the peak of the memory a process leaves at
    exec() into its max-RSS, and a child started with vfork() leaves its
    parent's.  The probe's memory would then hide every op smaller than
    the harness.  So a shell starts the op in the background and exits; as
    a child subreaper (set in run_ops) this process adopts the op, and can
    stop it, wait for it and read its own max-RSS."""
    pid_r, pid_w = os.pipe()
    try:
        # The shell's stdin is the pipe's write end, where it reports the
        # op's pid; the op itself, run in the background, gets /dev/null.
        shell = subprocess.Popen(
            ["sh", "-c", '"$@" & echo $! >&0', "sh", *cmd],
            stdin=pid_w, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, cwd=ROOT,
        )
    finally:
        os.close(pid_w)
    try:
        with os.fdopen(pid_r, "rb") as fh:
            line = fh.read()
    finally:
        shell.wait()  # the op is this process's child from here on
    out_fd, err_fd = os.dup(shell.stdout.fileno()), os.dup(shell.stderr.fileno())
    shell.stdout.close()
    shell.stderr.close()
    return int(line), out_fd, err_fd


def _become_subreaper() -> None:
    """Adopt orphaned descendants (PR_SET_CHILD_SUBREAPER), see _spawn."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _schedstat(pid: int) -> tuple[float, float] | None:
    """Seconds the task has run on a CPU and waited in a run queue."""
    try:
        with open(f"/proc/{pid}/schedstat", encoding="ascii") as fh:
            run_ns, wait_ns, _ = fh.read().split()
    except (OSError, ValueError):
        return None
    return int(run_ns) / 1e9, int(wait_ns) / 1e9


def _read_into(fd: int, chunks: list[bytes]) -> bool:
    chunk = os.read(fd, 1 << 16)
    if chunk:
        chunks.append(chunk)
    return bool(chunk)


def run_plain(op, env, checker, sliced: bool = True) -> dict:
    """Untraced op: wall, CPU (raw and in reference seconds) and max RSS of
    this one child (os.wait4)."""
    res = run_sliced(op_command(op, traced=False), env, sliced)
    res["ok"] = checker.check(op, res.pop("code"), res.pop("stdout"))
    del res["stderr"]
    return res


def run_traced(op, env, checker) -> dict:
    res = run_sliced(op_command(op, traced=True), env, sliced=False)
    res["ok"] = checker.check(op, res.pop("code"), res.pop("stdout"))
    lines = res.pop("stderr").decode(errors="replace").splitlines()
    marked = [ln for ln in lines if ln.startswith(TRACE_MARK)]
    if not marked:
        raise RuntimeError(f"no trace record from {op.key}")
    res["record"] = json.loads(marked[-1][len(TRACE_MARK):])
    return res


def pin_to_fastest_cpu(cpus: list[int]) -> None:
    """Pin this process, and so the next op it starts, to the allowed CPU
    that runs the probe fastest right now.

    On a shared host a vCPU whose hyperthread sibling is busy runs Python at
    about half speed, for seconds at a time, and the two vCPUs of a small
    virtual machine take turns at it; an op started on the quiet one sees
    far less of that noise.  Only this process and its children are
    affected.
    ``cpus`` is the affinity set the run started with (empty: no pinning)."""
    if len(cpus) < 2:
        return
    speed = {}
    for cpu in cpus[:MAX_PROBED_CPUS]:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = statistics.median(probe()[0] for _ in range(3))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def measure(ops, seconds: float, step) -> dict[str, list[dict]]:
    """Closed loop over the op list: each op runs at least once; after that
    the next op starts only if its previous duration still fits."""
    samples: dict[str, list[dict]] = {op.key: [] for op in ops}
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        if i >= len(ops):
            prev = samples[op.key][-1]["cost"]
            if time.perf_counter() + prev > deadline:
                break
        t0 = time.perf_counter()
        sample = step(op, len(samples[op.key]))
        sample["cost"] = time.perf_counter() - t0
        samples[op.key].append(sample)
        i += 1
    return samples


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(samples, setup_walls) -> dict:
    """Times are in reference seconds (see run_sliced).  ok_frac counts only
    the workload's ops, not the set-up and warm-up runs, so that one failed
    op moves it by 1/ops."""
    ops = [s for ss in samples.values() for s in ss]
    run_s = sum(statistics.median([s["wall_ref"] for s in ss]) for ss in samples.values())
    cpu_s = sum(statistics.median([s["cpu_ref"] for s in ss]) for ss in samples.values())
    rss = max(s["rss_mb"] for s in ops)
    return {
        "run_s": (run_s, "s"),
        "cpu_s": (cpu_s, "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_frac": (sum(s["ok"] for s in ops) / len(ops), "frac"),
    }


# Span groups: metric prefix -> spans whose self time and calls it sums.
SPAN_GROUPS = {
    "labeled.enumerate": (
        "labeled.enumerate_pq", "labeled.enumerate_general", "labeled.set_partitions",
        "labeled.canonical_set_partition", "labeled.count_general", "labeled.bell_number",
    ),
    "linalg.dense.pivot_columns": ("linalg.ExactMatrix.pivot_columns",),
    "linalg.dense.solve_many": ("linalg.ExactMatrix.solve_many",),
}

# Per-layer metrics that are a span group's self time or call count.
SELF_TIMES = (
    "labeled.enumerate", "labeled.permutation_bicharacter", "labeled.phi_columns",
    "labeled.build_fw_piece", "labeled.hom_space_dimension_gl", "labeled.hom_bicharacter",
    "linalg.sparse_rank", "linalg.sparse_nullity_witness", "linalg.dense.pivot_columns",
    "linalg.dense.solve_many", "characters.irreducible_character", "characters.decompose",
    "characters.induce", "characters.lr_coefficient", "modules.specht_module",
    "modules.schur_apply", "modules.specht_character_traces",
    "modules.decompose_weight_multiset", "partitions.enumerate_partitions",
)
CALLS = (
    "labeled.phi_columns", "linalg.sparse_rank", "characters.irreducible_character",
    "characters.decompose", "modules.decompose_weight_multiset",
    "partitions.enumerate_partitions",
)
COUNTERS = (
    "labeled.enumerate.objects", "labeled.fixed_point.tests",
    "labeled.build_fw_piece.basis_dim", "linalg.sparse_rank.rows",
    "linalg.sparse_rank.nnz", "linalg.sparse_rank.rank", "linalg.dense.cells",
)
# Tracer cache key -> hit-ratio metric; a cache the tracer did not find reads 0.
CACHE_RATIOS = (
    ("set_partitions", "labeled.set_partitions.hit_ratio"),
    ("mn", "characters.mn_memo.hit_ratio"),
    ("kostka", "characters.kostka.hit_ratio"),
)
MODULE_LAYERS = ("cli", "stable", "labeled", "linalg", "characters", "modules", "partitions")


def op_quantities(traced: dict, plain: dict) -> dict[str, float]:
    """Additive per-op quantities from one traced run and its untraced twin."""
    rec = traced["record"]
    spans = rec["spans"]
    q: dict[str, float] = {}

    def group(prefix):
        names = SPAN_GROUPS.get(prefix, (prefix,))
        return [spans[n] for n in names if n in spans]

    for prefix in SELF_TIMES:
        q[f"{prefix}.self_s"] = sum(s[1] for s in group(prefix))
    for prefix in CALLS:
        q[f"{prefix}.calls"] = sum(s[0] for s in group(prefix))
    for layer in MODULE_LAYERS:
        q[f"{layer}.self_s"] = sum(s[1] for n, s in spans.items() if n.split(".")[0] == layer)
    counters = rec["counters"]
    for name in COUNTERS + ("labeled.fixed_point.fixed",):
        q[name] = counters.get(name, 0)
    for key, _ in CACHE_RATIOS:
        hits, misses = rec["caches"].get(key, (0, 0))
        q[f"cache.{key}.hits"] = hits
        q[f"cache.{key}.lookups"] = hits + misses
    q["cli.import_s"] = rec["import_s"]
    total_self = sum(q[f"{layer}.self_s"] for layer in MODULE_LAYERS)
    q["trace.untraced_s"] = traced["wall"] - rec["import_s"] - total_self
    q["trace.overhead_s"] = traced["wall_ref"] - plain["wall_ref"]
    return q


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(samples) -> dict:
    """Median of each quantity per op over its repetitions, summed over ops;
    cli.import_s is the median per process, ratios are of the sums."""
    per_op = [
        [op_quantities(s["traced"], s["plain"]) for s in ss] for ss in samples.values()
    ]
    names = per_op[0][0].keys()
    total = {n: sum(statistics.median([q[n] for q in qs]) for qs in per_op) for n in names}
    out = {}
    out["cli.import_s"] = (statistics.median([q["cli.import_s"] for qs in per_op for q in qs]), "s")
    for layer in MODULE_LAYERS:
        out[f"{layer}.self_s"] = (total[f"{layer}.self_s"], "s")
    for prefix in SELF_TIMES:
        out[f"{prefix}.self_s"] = (total[f"{prefix}.self_s"], "s")
    for prefix in CALLS:
        out[f"{prefix}.calls"] = (total[f"{prefix}.calls"], "count")
    for name in COUNTERS:
        out[name] = (total[name], "count")
    out["labeled.fixed_point.hit_ratio"] = (
        _ratio(total["labeled.fixed_point.fixed"], total["labeled.fixed_point.tests"]), "ratio")
    out["linalg.sparse_rank.pivot_ratio"] = (
        _ratio(total["linalg.sparse_rank.rank"], total["linalg.sparse_rank.rows"]), "ratio")
    for key, name in CACHE_RATIOS:
        out[name] = (_ratio(total[f"cache.{key}.hits"], total[f"cache.{key}.lookups"]), "ratio")
    out["trace.overhead_s"] = (total["trace.overhead_s"], "s")
    out["trace.untraced_s"] = (total["trace.untraced_s"], "s")
    return out


# ---------------------------------------------------------------------------
# Entry point


def machine_info(args, workload: str, ops, op_walls) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "stablerep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": [op.key for op in ops],
        "op_walls": op_walls,
    }


def _git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.POOLS) + ["all"],
                    help="one workload, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_ops(ops, seconds: float, trace: bool, golden: dict) -> tuple[dict, Checker, dict]:
    env = op_env()
    checker = Checker(golden)
    _become_subreaper()
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    try:
        return _run_ops(ops, seconds, trace, env, checker, cpus)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def _run_ops(ops, seconds, trace, env, checker, cpus):
    # Untimed warm-up: writes the byte-code caches so that set-up time is
    # what an installed command pays.
    run_plain(SETUP_OP, env, checker)
    if trace:
        def step(op, rep):
            pin_to_fastest_cpu(cpus)
            # Alternate which twin runs first so drift does not bias overhead.
            if rep % 2:
                traced = run_traced(op, env, checker)
                return {"traced": traced, "plain": run_plain(op, env, checker, sliced=False)}
            plain = run_plain(op, env, checker, sliced=False)
            return {"plain": plain, "traced": run_traced(op, env, checker)}

        samples = measure(ops, seconds, step)
        return per_layer(samples), checker, _walls(samples, "traced")
    setup_walls = []

    def step(op, rep):
        # Set-up samples are spread over the run, each next to an op, so a
        # slow phase of the machine cannot cover all of them.
        pin_to_fastest_cpu(cpus)
        setup_walls.append(run_plain(SETUP_OP, env, checker)["wall_ref"])
        return run_plain(op, env, checker)

    samples = measure(ops, seconds, step)
    while len(setup_walls) < SETUP_REPS:
        pin_to_fastest_cpu(cpus)
        setup_walls.append(run_plain(SETUP_OP, env, checker)["wall_ref"])
    return end_to_end(samples, setup_walls), checker, _walls(samples)


def _walls(samples, twin: str | None = None) -> dict[str, list[list[float]]]:
    """Every op's measured [raw wall, reference wall] pairs, for the record
    line."""
    return {
        k: [[round(r["wall"], 4), round(r["wall_ref"], 4)]
            for r in ((s[twin] if twin else s) for s in ss)]
        for k, ss in samples.items()
    }


def result(metrics: dict, checker: Checker) -> dict:
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_sliced, which kills the op


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "stablerep" / "cli.py").is_file():
        print(f"stablerep sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    names = sorted(workloads.POOLS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        ops = workloads.build_ops(name, args.seed)
        metrics, checker, op_walls = run_ops(ops, args.seconds, bool(args.trace), golden)
        info = machine_info(args, name, ops, op_walls)
        print("perfbench-info " + json.dumps(info, sort_keys=True))
        results[name] = result(metrics, checker)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, out in results.items():  # one line per workload, then the total
        print(f"perfbench-result {name} " + json.dumps(out))
    print(json.dumps({
        "correct": all(out["correct"] for out in results.values()),
        "attempted": sum(out["attempted"] for out in results.values()),
        "failed": sum(out["failed"] for out in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, out in results.items()
            for metric, value in out["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
