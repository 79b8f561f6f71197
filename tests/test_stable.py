import itertools
from math import factorial

import pytest

from stablerep.characters import ClassFunction, cycle_types, decompose
from stablerep.counts import count_pq
from stablerep import characters, counts, labeled, stable
from stablerep.errors import InvalidArgs, OracleDisagreement, SizeBudgetExceeded
from stablerep.functors import step1_dimension_identity
from stablerep.induction import theorem_a_induction_check
from stablerep.labeled import enumerate_pq
from stablerep.partitions import IrredDecomposition, Partition, specht_dimension, transpose
from stablerep.stable import dimension_table, stable_cohomology

from conftest import (
    bell_oracle,
    hom_side_total,
    permutation_bicharacter,
    series_coefficient_oracle,
    three_way_dimension_agreement,
)


class TestStableCohomology:
    def test_known_dimensions(self):
        assert stable_cohomology(1, 0, 1).dimension == 1
        assert stable_cohomology(2, 1, 1).dimension == 3
        assert stable_cohomology(3, 0, 3).dimension == bell_oracle(3)
        for p in range(1, 5):
            assert stable_cohomology(p, p, 0).dimension == factorial(p)

    def test_bell_numbers_at_q_zero(self):
        for p in range(1, 7):
            assert stable_cohomology(p, 0, p).dimension == bell_oracle(p)

    def test_vanishing_off_degree(self):
        for p in range(5):
            for q in range(p + 1):
                for deg in range(-1, p + q + 2):
                    res = stable_cohomology(p, q, deg)
                    assert (res.dimension == 0) == (deg != p - q)

    def test_q_above_p_is_zero(self):
        for deg in range(-1, 4):
            assert stable_cohomology(1, 2, deg).dimension == 0

    def test_dimension_survives_sign_twist(self):
        for p, q in [(2, 1), (3, 2), (4, 2)]:
            res = stable_cohomology(p, q, p - q)
            untwisted = permutation_bicharacter(p, q, source="pq")
            assert res.dimension == untwisted.dimension

    def test_decomposition_keys_transposed_by_twist(self):
        for p, q in [(2, 1), (3, 1), (3, 2)]:
            twisted = stable_cohomology(p, q, p - q).decomposition
            untwisted = decompose(permutation_bicharacter(p, q, source="pq"))
            assert twisted == {
                (transpose(lam), mu): m for (lam, mu), m in untwisted.items()
            }

    def test_multiplicities_genuine(self):
        for p in range(1, 6):
            for q in range(p + 1):
                dec = stable_cohomology(p, q, p - q).decomposition
                assert all(
                    isinstance(m, int) and m > 0 for m in dec.values()
                )

    def test_json_schema(self):
        data = stable_cohomology(2, 1, 1).to_json()
        assert set(data) == {
            "p", "q", "degree", "dimension", "valid_n_bound",
            "decomposition", "character",
        }
        assert data["dimension"] == 3
        total = sum(e["value"] == 3 for e in data["character"]
                    if e["sigma_class"] == "1,1" and e["tau_class"] == "1")
        assert total == 1

    def test_min_n(self):
        assert stable_cohomology(2, 1, 1).min_n == 8
        assert stable_cohomology(1, 1, 0).min_n == 5

    @pytest.mark.parametrize(
        "a, b",
        [
            # Content sums 2 and -2 in lambda: the Sigma_p transposition check.
            (((3, 1), (2,)), ((2, 1, 1), (2,))),
            # Content sums 1 and -1 in mu: the Sigma_q transposition check.
            (((3, 1), (2,)), ((3, 1), (1, 1))),
        ],
    )
    def test_swapped_components_of_equal_dimension_raise(self, monkeypatch, a, b):
        """Swapping the multiplicities of two components with equal
        f^lam·f^mu keeps every dimension; the content sums still see it."""
        a, b = (tuple(map(Partition, key)) for key in (a, b))
        assert specht_dimension(a[0]) * specht_dimension(a[1]) == (
            specht_dimension(b[0]) * specht_dimension(b[1])
        )

        def swapped(chi):
            mults = dict(decompose(chi))
            assert 0 < mults[a] != mults[b] > 0
            mults[a], mults[b] = mults[b], mults[a]
            return IrredDecomposition(mults)

        monkeypatch.setattr(characters, "decompose", swapped)
        with pytest.raises(OracleDisagreement, match="at transpositions"):
            stable_cohomology(4, 2, 2)

    def test_dimension_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(counts, "count_pq", lambda p, q: count_pq(p, q) + 1)
        with pytest.raises(OracleDisagreement):
            stable_cohomology(3, 1, 2)
        with pytest.raises(OracleDisagreement):
            dimension_table(3, 1)


class TestZeroCell:
    """A zero cell is given no character and builds its all-zero one when
    it is read; the value is the same as when it was built at once."""

    def test_character_is_all_zero_when_read(self):
        assert stable_cohomology(2, 4, -2).bicharacter == ClassFunction((2, 4), {})
        assert stable_cohomology(7, 2, 3).bicharacter.dimension == 0

    def test_equal_results_and_repr(self):
        a, b = stable_cohomology(2, 4, -2), stable_cohomology(2, 4, -2)
        assert a == b and a != stable_cohomology(2, 4, -1)
        # The lazily built character reads as one built at once.
        assert repr(a) == (
            "StableCohomologyResult(p=2, q=4, degree=-2, "
            f"bicharacter={ClassFunction((2, 4), {})!r}, decomposition={{}}, dimension=0)"
        )
        # The stable range is the class's, the same for every cell.
        assert a.valid_range == stable.StableCohomologyResult.valid_range == (
            "2*degree <= n - p - q - 3"
        )


class TestPipeline:
    def test_hom_side_total_trivial_values(self):
        assert hom_side_total(0, 0, 1) == 1
        assert hom_side_total(1, 0, 1) == 1

    def test_hom_side_total_vs_independent_series(self):
        from stablerep.functors import sym_dimension
        for p in range(5):
            for q in range(3):
                for d in (1, 2, 3):
                    factors = [(1, (q + 1) * d)] + [
                        (i, sym_dimension(d, i)) for i in range(2, p + 1)
                    ]
                    assert hom_side_total(p, q, d) == series_coefficient_oracle(
                        factors, p
                    )

    def test_hom_side_total_checks_the_weight_total_within_budget(self, monkeypatch):
        monkeypatch.setattr(
            labeled, "fixed_weights", lambda p, d, cycles: {(p,) + (0,) * (d - 1): 1}
        )
        with pytest.raises(OracleDisagreement, match="weight generating function"):
            hom_side_total(3, 1, 2)
        # C(7, 4) + 2 * C(4, 2) = 47 weight-table steps: over budget, no
        # check runs.
        assert hom_side_total(3, 1, 2, budget=46) == 36

    def test_step1_identity_grid(self):
        for p in range(5):
            for q in range(4):
                for d in (1, 2, 3):
                    assert step1_dimension_identity(p, q, d).passed

    def test_step1_budget_bounds_the_series_steps(self, monkeypatch):
        """The count checked before either series is built (each factor
        (1 - u^i)^(-m) costs the sum over n <= p of n // i + 1, here summed
        term by term) bounds the multiplications series_mul makes by an
        entry of a factor, counted on the entries themselves, and the
        budget refuses at one step fewer."""
        from stablerep import functors

        made = [0]

        class Counted(int):
            def __rmul__(self, other):
                made[0] += 1
                return int(other) * int(self)

        real_geom = functors.series_geom_power
        monkeypatch.setattr(
            functors,
            "series_geom_power",
            lambda step, mult, trunc: [Counted(v) for v in real_geom(step, mult, trunc)],
        )
        for p, q, d in itertools.product(range(-1, 13), range(3), range(1, 4)):
            factors = [1] * (q * d > 0) + [i for i in range(1, p + 1) for _ in "ab"]
            steps = sum(n // i + 1 for i in factors for n in range(p + 1))
            made[0] = 0
            assert step1_dimension_identity(p, q, d, budget=max(steps, 1)).passed
            assert made[0] <= steps and (made[0] or p < 1), (p, q, d)
            # A budget below 1, one step fewer than p <= 0 takes, is a usage error.
            refusal = (SizeBudgetExceeded, "^series steps ") if steps > 1 else (
                InvalidArgs, "^budget must be at least 1, got ")
            with pytest.raises(refusal[0], match=refusal[1]):
                step1_dimension_identity(p, q, d, budget=steps - 1)

    def test_step1_refuses_before_building_a_series(self, monkeypatch):
        # p = 100000 takes C(100002, 2) = 5,000,150,001 steps for its first
        # factor alone: refused from that count, no series built.
        def refuse(*args):
            raise AssertionError("series built")

        from stablerep import functors

        monkeypatch.setattr(functors, "graded_sym_algebra_series", refuse)
        monkeypatch.setattr(functors, "graded_sym_algebra_dimension", refuse)
        with pytest.raises(SizeBudgetExceeded, match="^series steps more than 20000 "):
            step1_dimension_identity(100000, 1, 1)
        with pytest.raises(SizeBudgetExceeded, match="^series steps more than 1 "):
            step1_dimension_identity(200, 1, 1, budget=1)

    def test_induction_grid(self):
        for p in range(1, 5):
            for q in range(p + 1):
                rep = theorem_a_induction_check(p, q)
                assert rep.passed
                assert rep.right == len(enumerate_pq(p, q))

    def test_induction_example(self):
        rep = theorem_a_induction_check(2, 1)
        assert rep.left == 5 - 2 == 3

    def test_induction_budget_counts_class_pairs(self):
        # p(7) * p(3) = 15 * 3 = 45 class pairs; no labeled partition is built.
        with pytest.raises(SizeBudgetExceeded):
            theorem_a_induction_check(7, 3, budget=44)
        assert theorem_a_induction_check(7, 3, budget=45).passed

    def test_induction_rejects_bad_range(self):
        with pytest.raises(InvalidArgs):
            theorem_a_induction_check(1, 2)

    def test_three_way_agreement(self):
        for p in range(1, 5):
            for q in range(p + 1):
                assert three_way_dimension_agreement(p, q).passed


class TestTable:
    def test_spot_rows(self):
        rows = {(r["p"], r["q"]): r for r in dimension_table(5, 5)}
        assert rows[(0, 0)] == {"p": 0, "q": 0, "degree": 0, "dimension": 1, "min_n": 3}
        assert rows[(1, 1)]["dimension"] == 1 and rows[(1, 1)]["degree"] == 0
        assert rows[(2, 1)] == {"p": 2, "q": 1, "degree": 1, "dimension": 3, "min_n": 8}
        assert rows[(3, 0)]["dimension"] == bell_oracle(3)

    def test_rows_equal_count_pq(self):
        rows = dimension_table(7, 7)
        assert len(rows) == sum(p + 1 for p in range(8))
        for r in rows:
            assert r["dimension"] == count_pq(r["p"], r["q"])
            assert r["min_n"] == stable_cohomology(r["p"], r["q"], r["degree"]).min_n

    def test_grid_shape(self):
        rows = dimension_table(4, 2)
        assert all(r["q"] <= min(r["p"], 2) for r in rows)
        assert len(rows) == sum(min(p, 2) + 1 for p in range(5))
