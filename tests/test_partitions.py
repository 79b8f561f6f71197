import pytest
from hypothesis import given, strategies as st

from stablerep.errors import InvalidArgs, SizeBudgetExceeded, check_budget
from stablerep.partitions import (
    Partition,
    check_class_budget,
    enumerate_partitions,
    hook_lengths,
    hook_partials,
    partition_count,
    partition_counts,
    schur_gl_dimension,
    specht_dimension,
    transpose,
)

from conftest import partition_count_oracle, syt_count_oracle, weyl_dimension_oracle

partitions_st = st.integers(0, 8).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n))
)


class TestPartitionBasics:
    def test_normalization_drops_zeros(self):
        assert Partition([3, 1, 0, 0]) == Partition([3, 1])

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    @pytest.mark.parametrize("parts", [(3, 0, 2), (1, 0, 1), (0, 1), (2, -1, 0)])
    def test_only_trailing_zeros_are_dropped(self, parts):
        # An interior zero is a malformed partition, not a shorter one.
        with pytest.raises(ValueError):
            Partition(parts)
        with pytest.raises(InvalidArgs):
            Partition.parse(",".join(map(str, parts)))

    def test_hash_is_structural(self):
        built = [
            Partition.parse("3,1,1"),
            Partition([3, 1, 1]),
            Partition([3, 1, 1, 0, 0]),
            Partition(x for x in (3, 1, 1)),
        ]
        assert len({hash(p) for p in built}) == 1
        table = {built[0]: "found"}
        assert all(table[p] == "found" for p in built)
        assert {Partition.parse("0"): 1}[Partition([0, 0])] == 1
        for name in ("parts", "weight", "length", "_hash"):
            with pytest.raises(AttributeError):
                setattr(built[1], name, (4,))
        assert built[1].parts == (3, 1, 1) and hash(built[1]) == hash(built[2])
        # A Partition is the tuple of its parts: equal to it, hashing as it.
        for lam in [Partition()] + enumerate_partitions(5):
            assert lam == tuple(lam) == lam.parts and hash(lam) == hash(tuple(lam))
            assert {tuple(lam): "found"}[lam] == "found"
            assert (lam.weight, lam.length) == (sum(lam), len(lam))
        assert Partition([3, 1]) != (3, 1, 0) and Partition([3, 1]) != [3, 1]

    def test_implicit_zero_indexing(self):
        lam = Partition([4, 2])
        assert lam[0] == 4 and lam[1] == 2 and lam[5] == 0
        assert lam[:1] == (4,) and lam[1:5] == (2,) and Partition()[0] == 0
        # Only a row past the last reads 0; a negative index reads as on
        # the tuple.
        assert lam[-1] == 2 and lam[-2] == 4
        for i in (-3, -10):
            with pytest.raises(IndexError):
                lam[i]
        with pytest.raises(IndexError):
            Partition()[-1]

    def test_str_and_parse_roundtrip(self):
        for lam in enumerate_partitions(6):
            assert Partition.parse(str(lam)) == lam
        assert Partition.parse("0") == Partition([])

    def test_reverse_lex_order(self):
        ps = enumerate_partitions(4)
        assert [p.parts for p in ps] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
        ]
        assert sorted(reversed(ps)) == ps
        # Every comparison is reverse lexicographic, not only the < that
        # sorted reads: a tuple's own > would be lexicographic.
        for i, a in enumerate(ps):
            for j, b in enumerate(ps):
                assert (a < b, a <= b, a > b, a >= b) == (i < j, i <= j, i > j, i >= j)
        assert min(ps) == Partition([4]) and max(ps) == Partition([1, 1, 1, 1])
        assert sorted(ps, reverse=True) == ps[::-1]


def test_enumeration_count_matches_recurrence():
    for n in range(11):
        assert len(enumerate_partitions(n)) == partition_count_oracle(n)
    assert len(enumerate_partitions(8)) == 22


def test_enumeration_negative_raises():
    with pytest.raises(InvalidArgs):
        enumerate_partitions(-1)


@given(partitions_st)
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam
    assert transpose(lam).weight == lam.weight


@given(partitions_st)
def test_hooks_sum_and_count(lam):
    hooks = hook_lengths(lam)
    assert len(hooks) == lam.weight
    assert all(h >= 1 for h in hooks.values())


def test_specht_dimension_vs_brute_force_syt():
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            assert specht_dimension(lam) == syt_count_oracle(lam.parts)


def _within(count, budget):
    """What check_budget reads under the budget: the count, or the
    refusal's needed, None for "more than"."""
    try:
        return count(budget)
    except SizeBudgetExceeded as e:
        return e.needed


def test_specht_dimension_up_to_stops_past_the_cap():
    """The hook product in lowest terms equals the brute-force count when
    that fits the cap, and is None or exact past it; each shape is tried at
    its own f^lam, one less, and a few fixed caps.  A cap of 0 is a usage
    error."""
    def up_to(lam, cap):
        return _within(lambda budget: check_budget(hook_partials(lam), budget), cap)

    for n in range(10):
        for lam in enumerate_partitions(n):
            f = syt_count_oracle(lam.parts)
            for cap in (0, 1, 5, 100, f - 1, f):
                if cap < 1:
                    with pytest.raises(InvalidArgs):
                        up_to(lam, cap)
                    continue
                got = up_to(lam, cap)
                assert got == f if f <= cap else got in (None, f), (lam, cap)
    assert up_to(Partition([19999, 1]), 20000) == 19999
    assert up_to(Partition([50000, 1]), 20000) is None
    # f = 14: the partial products of (4,4) run 1, 1, 3/2, 2, 10/3, 5, 35/4, 14.
    assert list(hook_partials(Partition([4, 4]))) == [1, 1, 1, 2, 2, 4, 5, 9]
    assert up_to(Partition([4, 4]), 5) is None
    assert up_to(Partition([4, 4]), 13) == 14


def test_specht_dimensions_square_sum():
    # sum of squares over partitions of n is n!
    from math import factorial
    for n in range(1, 8):
        assert sum(specht_dimension(l) ** 2 for l in enumerate_partitions(n)) == factorial(n)


def test_schur_gl_dimension_vs_weyl_formula():
    for n in range(0, 7):
        for lam in enumerate_partitions(n):
            for d in range(1, 5):
                assert schur_gl_dimension(lam, d) == weyl_dimension_oracle(lam.parts, d)


def test_schur_gl_dimension_vanishing_is_sharp():
    # zero exactly when the diagram is taller than d
    lam = Partition([2, 1, 1])
    assert schur_gl_dimension(lam, 2) == 0
    assert schur_gl_dimension(lam, 3) > 0
    # weight exceeding d alone does not force vanishing
    assert schur_gl_dimension(Partition([5]), 1) == 1


def test_partition_count_matches_enumeration():
    assert [partition_count(n) for n in range(31)] == [
        len(enumerate_partitions(n)) for n in range(31)
    ]
    assert partition_count(50) == partition_count_oracle(50) == 204226
    with pytest.raises(InvalidArgs):
        partition_count(-1)


def test_partition_count_stops_past_the_cap():
    # p(36) = 17,977 and p(37) = 21,637: a capped count is p(n) up to the
    # cap and None past it, however large n is; a cap of 0 is a usage error.
    def capped(n, cap):
        return _within(lambda budget: check_class_budget(budget, n, what="partitions"), cap)

    assert capped(36, 17977) == 17977
    assert capped(36, 17976) is None
    assert capped(37, 21637) == 21637
    assert capped(37, 20000) is None
    assert capped(30000, 20000) is None
    assert capped(0, 1) == 1
    for n in range(20):
        assert list(partition_counts(n)) == [partition_count_oracle(m) for m in range(n + 1)]
        with pytest.raises(InvalidArgs):
            capped(n, 0)
        for cap in (1, 5, 100):
            exact = partition_count_oracle(n)
            assert capped(n, cap) == (exact if exact <= cap else None)


