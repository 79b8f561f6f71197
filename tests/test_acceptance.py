"""Acceptance gate: the seven headline checks, each printed as a single
pass/fail line and held to its runtime budget.  All comparisons are exact
(rational arithmetic, zero tolerance)."""

import itertools
import time
from math import factorial

import pytest

from stablerep.characters import cycle_types, irreducible_character
from stablerep.functors import (
    lr_coefficient,
    split_extension_filtration_check,
    step1_dimension_identity,
    verify_cauchy,
    verify_schur_weyl,
)
from stablerep.induction import induce, theorem_a_induction_check
from stablerep.labeled import verify_rw_prop, verify_splitting_lemma
from stablerep.modules import specht_character_traces
from stablerep.partitions import Partition, enumerate_partitions
from stablerep.stable import dimension_table, stable_cohomology

from conftest import bell_oracle, external_product, inner_product, set_partitions_brute


def _gate(number: int, title: str, limit: float):
    """Time the body, print the single verdict line, enforce the budget."""
    class Gate:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.monotonic() - self.t0
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"{verdict} criterion {number}: {title} ({elapsed:.1f}s)")
            assert elapsed < limit, f"criterion {number} exceeded {limit}s"
            return False

    return Gate()


def test_criterion_1_dimension_table():
    """Main-theorem table: dimensions concentrated in degree p-q."""
    with _gate(1, "stable cohomology dimension table", 10.0):
        rows = {(r["p"], r["q"]): r for r in dimension_table(5, 5)}
        assert rows[(1, 0)]["dimension"] == 1
        assert rows[(2, 1)]["dimension"] == 3
        assert rows[(3, 0)]["dimension"] == bell_oracle(3) == 5
        for p in range(1, 6):
            assert rows[(p, p)]["dimension"] == factorial(p)
            # independent brute-force enumerator: all-singleton partitions
            # with p injective labels = labelings counted directly
            singletons = [
                sp for sp in set_partitions_brute(p) if all(len(b) == 1 for b in sp)
            ]
            assert len(singletons) == 1
            assert rows[(p, p)]["dimension"] == len(
                list(itertools.permutations(range(p)))
            )
        for (p, q), r in rows.items():
            assert r["degree"] == p - q
            for deg in range(-1, p + q + 2):
                if deg != p - q:
                    assert stable_cohomology(p, q, deg).dimension == 0


def test_criterion_2_rw_prop():
    """Stacked labeled-partition maps: isomorphism at d = p; injectivity
    genuinely fails below the stable dimension (witness p=2, q=1, d=1;
    the unlabeled q=0 cell at p=2, d=1 is itself an isomorphism and
    passes, since its two monomial images stay independent)."""
    with _gate(2, "labeled-partition map isomorphism", 60.0):
        for p in range(1, 5):
            for q in range(p + 1):
                rep = verify_rw_prop(p, q, p)
                assert rep.passed
                assert rep.witnesses["rank"] == rep.witnesses["num_labeled_partitions"]
                assert rep.witnesses["rank"] == rep.witnesses["hom_dim"]
        assert verify_rw_prop(2, 0, 1).passed
        failing = verify_rw_prop(2, 1, 1)
        assert not failing.passed
        assert failing.witnesses["dependent_combination"]
        assert not verify_rw_prop(3, 0, 1).passed


def test_criterion_3_splitting_lemma():
    """Classwise character equality of the induced layers and the Hom space."""
    with _gate(3, "induced layers match Hom space classwise", 60.0):
        for p in range(1, 5):
            for q in range(p + 1):
                rep = verify_splitting_lemma(p, q, p)
                assert rep.passed, (p, q)


def test_criterion_4_cauchy_and_schur_weyl():
    with _gate(4, "Cauchy decomposition and Schur-Weyl duality", 30.0):
        for r in range(1, 5):
            for dV in range(1, 4):
                for dW in range(1, 4):
                    assert verify_cauchy(r, dV, dW).passed
        for r in range(1, 5):
            for d in range(1, 5):
                assert verify_schur_weyl(r, d).passed


def test_criterion_5_split_extension_filtration():
    with _gate(5, "split-extension filtration identities", 30.0):
        for n in range(1, 5):
            for lam in enumerate_partitions(n):
                for dA in range(1, 4):
                    for dC in range(1, 4):
                        assert split_extension_filtration_check(lam, dA, dC).passed


def test_criterion_6_pipeline():
    with _gate(6, "dimension identity and induction pipeline", 60.0):
        for p in range(5):
            for q in range(4):
                for d in range(1, 4):
                    assert step1_dimension_identity(p, q, d).passed
        for p in range(1, 5):
            for q in range(p + 1):
                assert theorem_a_induction_check(p, q).passed
        for p in range(5):
            for q in range(4):
                for deg in range(-1, p + q + 2):
                    if deg != p - q or q > p:
                        assert stable_cohomology(p, q, deg).dimension == 0


def test_criterion_7_character_infrastructure():
    with _gate(7, "character tables, LR coefficients, module traces", 120.0):
        # orthonormality through weight 7
        for n in range(1, 8):
            chars = [irreducible_character(l) for l in enumerate_partitions(n)]
            for i, a in enumerate(chars):
                for j in range(i, len(chars)):
                    assert inner_product(a, chars[j]) == (1 if i == j else 0)
        # LR: tableau enumeration vs character inner products through weight 6
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                for k in range(n + 1):
                    for mu in enumerate_partitions(k):
                        if not lam.contains(mu):
                            continue
                        for nu in enumerate_partitions(n - k):
                            tabs = lr_coefficient(lam, mu, nu)
                            f = external_product(
                                irreducible_character(mu),
                                irreducible_character(nu),
                            )
                            chars_val = inner_product(
                                induce(f, n), irreducible_character(lam)
                            )
                            assert tabs == chars_val
        # explicit Specht modules vs Murnaghan-Nakayama through weight 5
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                traces = specht_character_traces(lam)
                chi = irreducible_character(lam)
                for rho in cycle_types(n):
                    assert traces[rho] == chi.values[rho]
