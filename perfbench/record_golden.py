"""Record golden.json: exit code and stdout sha256 of every op in every pool.

    python3 perfbench/record_golden.py

Run it only at a commit whose outputs are known good; the benchmark counts
any later difference as a failed op.  Each op runs twice with different
PYTHONHASHSEED values and must print identical bytes both times, and API ops
must pass the benchmark's formula checks before they are recorded.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import run
import workloads


def main() -> int:
    golden = {}
    env = run.op_env()
    for op in [run.SETUP_OP] + [op for w in workloads.POOLS for op in workloads.all_ops(w)]:
        outputs = set()
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                run.op_command(op, traced=False), capture_output=True,
                env=dict(env, PYTHONHASHSEED=hash_seed), cwd=run.ROOT,
            )
            outputs.add((proc.returncode, hashlib.sha256(proc.stdout).hexdigest()))
        if len(outputs) != 1:
            print(f"nondeterministic output: {op.key}", file=sys.stderr)
            return 1
        code, sha = outputs.pop()
        golden[op.key] = {"exit": code, "sha256": sha}
        if op.kind == "api":
            checker = run.Checker(golden)
            if not checker.check(op, proc.returncode, proc.stdout):
                return 1
        print(f"{code}  {sha[:12]}  {op.key}")
    with open(run.HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
