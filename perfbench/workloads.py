"""The three benchmark workloads, each a fixed pool of ops.

A pool is a list of slots; a slot is a tuple of alternatives that cost the
same.  The workload seed picks one alternative per slot and the order of the
slots, so every seed runs the same amount of work and run-to-run spread
reflects the machine, not the draw.  Only the zero cells of
``stable_cells`` have alternatives: text and ``--json`` rendering of one
command differ by 2-5%, and two shapes of the same weight by up to 14%,
which is more than the spread the benchmark allows, so each such op is
fixed.  The program only ever receives the generated argv or API arguments.

See README.md for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    kind: str  # "cli": argv for ``python3 -m stablerep.cli``; "api": child.py API op
    args: tuple[str, ...]

    @property
    def key(self) -> str:
        return f"{self.kind}: {' '.join(self.args)}"

    def to_json(self) -> dict:
        return {"kind": self.kind, "args": list(self.args)}


def cli(text: str) -> Op:
    return Op("cli", tuple(text.split()))


def api(*args: str) -> Op:
    return Op("api", args)


POOLS: dict[str, list[tuple[Op, ...]]] = {
    # Stable answer by enumeration: set partitions, QLabeledPartition.act
    # fixed-point counting, decompose.  No linear algebra.
    "stable_cells": [
        (cli("stable-cohomology 7 2"),),
        (cli("--json stable-cohomology 6 3"),),
        (cli("stable-cohomology --table 6 6"),),
        # Off-degree or q > p: the calculator must print zero.
        (
            cli("stable-cohomology 7 2 --degree 3"),
            cli("stable-cohomology 6 3 --degree 2"),
            cli("stable-cohomology 5 5 --degree 1"),
            cli("stable-cohomology 2 4"),
        ),
    ],
    # Verification of the labeled-partition maps: phi columns, the FW piece,
    # sparse Fraction elimination, and the dependency witness of rw-prop 2 1 1
    # (expected exit 1).
    "verify_maps": [
        (cli("verify rw-prop 4 4 4"),),
        (cli("verify rw-prop 4 2 4"),),
        (cli("--json verify rw-prop 2 1 1"),),
        (cli("verify splitting 4 4 4"),),
        (cli("--json verify induction 6 2"),),
        (cli("hom-dim 4 4 4"),),
    ],
    # Explicit modules: dense ExactMatrix Gauss-Jordan, Young symmetrizers,
    # Murnaghan-Nakayama.  Neither labeled partitions nor sparse elimination.
    "explicit_modules": [
        (api("specht_module", "3,3"),),
        (api("schur_gl", "2,2", "4"),),
        (api("specht_character_traces", "4,1,1"),),
        (api("character_table", "14"),),
        (cli("schur-weyl 6 4"),),
        (cli("--json cauchy 4 3 3"),),
        (cli("verify extension 4,3,2,1 3 3"),),
    ],
}

# Flags that would let a cached or budget-refused result stand in for compute.
FORBIDDEN_FLAGS = ("--cache", "--budget")


def all_ops(workload: str) -> list[Op]:
    return [op for slot in POOLS[workload] for op in slot]


def build_ops(workload: str, seed: int) -> list[Op]:
    """One alternative per slot, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = [rng.choice(slot) for slot in POOLS[workload]]
    rng.shuffle(ops)
    for op in ops:
        if any(a.startswith(FORBIDDEN_FLAGS) for a in op.args):
            raise ValueError(f"op {op.key} uses a cache or budget flag")
    return ops
