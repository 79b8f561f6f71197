import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stablerep import characters, counts, induction
from stablerep.characters import (
    ClassFunction,
    _beta_mask,
    _hook_removals,
    centralizer_order,
    class_size,
    cycle_types,
    decompose,
    irreducible_character,
    pq_bicharacter,
    sign_of_class,
)
from stablerep.counts import pq_identity_counts
from stablerep.errors import (
    InvalidArgs,
    NegativeMultiplicity,
    NonIntegralMultiplicity,
    OracleDisagreement,
)
from stablerep.functors import graded_sym_algebra_dimension, lr_coefficient
from stablerep.induction import general_bicharacter, induce
from stablerep.partitions import (
    IrredDecomposition,
    Partition,
    enumerate_partitions,
    hook_lengths,
    specht_dimension,
)
from stablerep.schur import kostka
from stablerep.stable import stable_cohomology

from conftest import (
    decomposition_from_json,
    external_product,
    general_bicharacter_oracle,
    inner_product,
    lr_tableaux_count_oracle,
    mn_oracle,
    pq_bicharacter_oracle,
    pq_identity_counts_oracle,
    reconstruct,
    restrict,
    rim_hooks_oracle,
    scale,
    series_coefficient_oracle,
)


def test_class_sizes_sum_to_group_order():
    from math import factorial
    for r in range(1, 8):
        assert sum(class_size(c) for c in cycle_types(r)) == factorial(r)


def test_centralizer_times_class_size():
    from math import factorial
    for r in range(1, 7):
        for c in cycle_types(r):
            assert centralizer_order(c) * class_size(c) == factorial(r)


def test_known_character_values():
    chi = irreducible_character(Partition([2, 1]))
    vals = {str(c): int(chi.values[c]) for c in cycle_types(3)}
    assert vals == {"1,1,1": 2, "2,1": 0, "3": -1}


def test_characters_match_the_uncached_recursion():
    for n in range(11):
        for lam in enumerate_partitions(n):
            chi = irreducible_character(lam)
            for rho in cycle_types(n):
                assert chi.values[rho] == mn_oracle(lam.parts, rho.parts)
    assert irreducible_character(Partition(())).values == {Partition(()): 1}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 30).flatmap(
    lambda n: st.tuples(st.sampled_from(enumerate_partitions(n)), st.integers(1, n + 1))
))
def test_rim_hooks_are_the_r_hooks(case):
    """Moving a bead r places down the beta mask removes the same r-hooks,
    with the same signs, as the beta-number oracle, whose hooks are rim
    hooks."""
    lam, r = case
    hooks = rim_hooks_oracle(lam.parts, r)
    for sign, nu in hooks:
        mu = Partition(nu)
        assert mu.parts == nu and lam.contains(mu)
        assert lam.weight - mu.weight == r
        rows = [i for i in range(len(lam)) if lam[i] != mu[i]]
        assert rows == list(range(rows[0], rows[-1] + 1))
        # Consecutive rows of a rim hook share exactly one column.
        assert all(lam[i + 1] - mu[i] == 1 for i in rows[:-1])
        assert sign == (-1) ** (len(rows) - 1)
    # r-rim hooks are in bijection with the cells of hook length r.
    assert len({nu for _, nu in hooks}) == len(hooks)
    assert len(hooks) == sum(1 for h in hook_lengths(lam).values() if h == r)
    moved = _hook_removals(_beta_mask(lam.parts), r)
    assert len(moved) == len(hooks)
    assert set(moved) == {(sign, _beta_mask(nu)) for sign, nu in hooks}


def test_beta_masks_are_canonical():
    """Zero rows do not change a shape's mask, the empty shape's mask is 0,
    and distinct shapes have distinct masks, none with bit 0 set."""
    assert _beta_mask(()) == _beta_mask((0, 0, 0)) == 0
    assert _beta_mask((2, 1)) == _beta_mask((2, 1, 0)) == 0b1010
    seen = set()
    for n in range(13):
        for lam in enumerate_partitions(n):
            mask = _beta_mask(lam.parts)
            assert mask == _beta_mask(lam.parts + (0,) * 3) and not mask & 1
            seen.add(mask)
    assert len(seen) == sum(len(enumerate_partitions(n)) for n in range(13))
    # A bead landing at 0 leaves zero rows, stripped: removing a whole row
    # or column leaves the empty shape.
    for f in range(1, 8):
        assert _hook_removals(_beta_mask((f,)), f) == [(1, 0)]
        assert _hook_removals(_beta_mask((1,) * f), f) == [((-1) ** (f - 1), 0)]
    # A vertical domino has sign -1, a horizontal one +1.
    assert set(_hook_removals(_beta_mask((2, 2)), 2)) == {
        (-1, _beta_mask((1, 1))), (1, _beta_mask((2,)))
    }
    assert _hook_removals(_beta_mask((2, 2)), 3) == [(-1, _beta_mask((1,)))]
    assert _hook_removals(0, 1) == []


# Classes of at most 12 parts keep the unmemoized oracle's paths few.
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 20).flatmap(
    lambda n: st.tuples(
        st.sampled_from(enumerate_partitions(n)),
        st.sampled_from([rho for rho in cycle_types(n) if len(rho) <= 12]),
        st.integers(0, n),
    )
))
def test_character_rows_match_the_oracle_in_cycle_types_order(case):
    """The row memo _mn(mask, n, r) lists chi^lam on the classes with parts <= r
    in cycle_types order, and irreducible_character reads it at r = |lam|."""
    lam, rho, extra = case
    n = lam.weight
    r = min(n, (rho.parts[0] if rho.parts else 0) + extra)
    classes = [c for c in cycle_types(n) if not c.parts or c.parts[0] <= r]
    row = characters._mn(_beta_mask(lam.parts), n, r)
    assert len(row) == len(classes)
    want = mn_oracle(lam.parts, rho.parts)
    assert row[classes.index(rho)] == want == irreducible_character(lam).values[rho]


def test_character_table_14_pinned():
    # sha256 of "lambda rho value" lines over every (lambda, rho) of S_14, in
    # enumeration order, recorded with the uncached recursion.
    h = hashlib.sha256()
    for lam in enumerate_partitions(14):
        chi = irreducible_character(lam)
        for rho in cycle_types(14):
            h.update(f"{lam} {rho} {int(chi.values[rho])}\n".encode())
    assert h.hexdigest() == (
        "759c790e309cc8990a8b50bc9d2245be85bd8f50fd35ba9a6fad3feb325bc5f7"
    )


def test_orthonormality():
    """First orthogonality: <chi^lam, chi^mu> = delta."""
    for n in range(1, 8):
        chars = [irreducible_character(l) for l in enumerate_partitions(n)]
        for i, a in enumerate(chars):
            for j, b in enumerate(chars):
                assert inner_product(a, b) == (1 if i == j else 0)


def test_character_degree_matches_hook_formula():
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            assert irreducible_character(lam).dimension == specht_dimension(lam)


def test_sign_twist_transposes():
    from stablerep.partitions import transpose
    for n in range(1, 6):
        sgn = ClassFunction(n, {ct: sign_of_class(ct) for ct in cycle_types(n)})
        for lam in enumerate_partitions(n):
            chi = irreducible_character(lam)
            twisted = ClassFunction(n, {ct: v * sgn.values[ct] for ct, v in chi.values.items()})
            assert decompose(twisted) == {transpose(lam): 1}


def test_decompose_reconstruct_roundtrip():
    f = (
        scale(irreducible_character(Partition([3, 1])), 2)
        + irreducible_character(Partition([2, 2]))
    )
    dec = decompose(f)
    assert dec[Partition([3, 1])] == 2 and dec[Partition([2, 2])] == 1
    assert reconstruct(dec, 4) == f


def test_decompose_rejects_non_characters():
    bad = irreducible_character(Partition([2])) - irreducible_character(Partition([1, 1]))
    with pytest.raises(NegativeMultiplicity):
        decompose(bad - irreducible_character(Partition([1, 1])))
    half = scale(irreducible_character(Partition([2])), Fraction(1, 2))
    with pytest.raises(NonIntegralMultiplicity):
        decompose(half)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bi_decompose_matches_external_product_inner_products(data):
    """Multiplicities and the first error raised, against the inner product
    with each external product chi^lam x chi^mu, in (lam, mu) order."""
    p, q = data.draw(st.sampled_from([(2, 1), (3, 2), (4, 2)]))
    irreps = [(lam, mu) for lam in enumerate_partitions(p) for mu in enumerate_partitions(q)]
    mults = data.draw(
        st.lists(st.integers(-2, 3), min_size=len(irreps), max_size=len(irreps))
    )
    factor = data.draw(st.sampled_from([1, Fraction(1), Fraction(1, 2)]))
    base = reconstruct(IrredDecomposition(dict(zip(irreps, mults))), (p, q))
    f = ClassFunction((p, q), {k: factor * v for k, v in base.values.items()})
    expected = {
        key: inner_product(
            f, external_product(irreducible_character(key[0]), irreducible_character(key[1]))
        )
        for key in irreps
    }
    error = None
    for m in expected.values():
        if m.denominator != 1:
            error = NonIntegralMultiplicity
        elif m < 0:
            error = NegativeMultiplicity
        if error:
            break
    if error:
        with pytest.raises(error):
            decompose(f)
    else:
        assert decompose(f) == {k: int(m) for k, m in expected.items() if m}


def test_class_function_sum_needs_equal_degrees():
    f = ClassFunction((2, 1), {})
    g = ClassFunction((2, 2), {})
    assert (f + f).degree == (f - f).degree == (2, 1)
    # Sigma_2 and Sigma_2 x Sigma_0 have the same classes in different
    # keys: their functions do not add.
    for a, b in [(f, g), (ClassFunction(2, {}), ClassFunction((2, 0), {}))]:
        with pytest.raises(InvalidArgs):
            a + b
        with pytest.raises(InvalidArgs):
            a - b


def test_class_function_rejects_classes_of_another_degree():
    for degree, values in [
        (2, {Partition([3]): 1}),
        (2, {(Partition([2]), Partition([])): 1}),
        ((2, 1), {((3,), (1,)): 1}),
        ((2, 1), {Partition([2]): 1}),
        ((2, 1), {Partition([1, 1]): 1}),
    ]:
        with pytest.raises(InvalidArgs):
            ClassFunction(degree, values)


def test_dimension_is_the_value_at_the_identity():
    ones = [Partition([1] * n) for n in range(4)]
    for n in range(4):
        f = ClassFunction(n, {ct: 10 + i for i, ct in enumerate(cycle_types(n))})
        assert f.dimension == f.values[ones[n]] == 9 + len(cycle_types(n))
    for p, q in [(0, 0), (2, 1), (3, 2)]:
        pairs = [(s, t) for s in cycle_types(p) for t in cycle_types(q)]
        f = ClassFunction((p, q), {k: 10 + i for i, k in enumerate(pairs)})
        assert f.dimension == f.values[(ones[p], ones[q])] == 9 + len(pairs)
    assert pq_bicharacter(4, 2).dimension == counts.count_pq(4, 2)


def test_repr_lists_degree_and_values():
    assert repr(ClassFunction(2, {Partition([1, 1]): 2})) == (
        "ClassFunction(2, {Partition([2]): 0, Partition([1, 1]): 2})"
    )
    assert repr(ClassFunction((1, 0), {})) == (
        "ClassFunction((1, 0), {(Partition([1]), Partition([])): 0})"
    )


def test_induction_frobenius_reciprocity():
    """<Ind f, chi> = <f, Res chi> for all irreducibles, small ranks."""
    for i, j in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        q = i + j
        for a in enumerate_partitions(i):
            for b in enumerate_partitions(j):
                f = external_product(irreducible_character(a), irreducible_character(b))
                ind = induce(f, q)
                for lam in enumerate_partitions(q):
                    chi = irreducible_character(lam)
                    lhs = inner_product(ind, chi)
                    rhs = inner_product(f, restrict(chi, i, j))
                    assert lhs == rhs == lr_coefficient(lam, a, b)


def test_induction_dimension():
    from math import comb
    trivial = ClassFunction(2, {ct: 1 for ct in cycle_types(2)})
    sign = ClassFunction(1, {ct: sign_of_class(ct) for ct in cycle_types(1)})
    f = external_product(trivial, sign)
    assert induce(f, 3).dimension == comb(3, 2) * 1


def test_lr_known_values():
    assert lr_coefficient(Partition([2, 1]), Partition([1]), Partition([1, 1])) == 1
    assert lr_coefficient(Partition([2, 1]), Partition([1]), Partition([2])) == 1
    assert lr_coefficient(Partition([4, 2]), Partition([2, 1]), Partition([2, 1])) == 1
    assert lr_coefficient(Partition([3, 2, 1]), Partition([2, 1]), Partition([2, 1])) == 2
    # weight mismatch
    assert lr_coefficient(Partition([3]), Partition([1]), Partition([1])) == 0


def test_lr_vs_character_inner_products():
    """Tableau count equals the induction-product multiplicity."""
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            for k in range(n + 1):
                for mu in enumerate_partitions(k):
                    if not lam.contains(mu):
                        continue
                    for nu in enumerate_partitions(n - k):
                        by_tableaux = lr_coefficient(lam, mu, nu)
                        f = external_product(
                            irreducible_character(mu), irreducible_character(nu)
                        )
                        by_chars = inner_product(
                            induce(f, n), irreducible_character(lam)
                        )
                        assert by_tableaux == by_chars


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10).flatmap(
    lambda n: st.integers(0, n).flatmap(
        lambda k: st.tuples(
            st.sampled_from(enumerate_partitions(n)),
            st.sampled_from(enumerate_partitions(k)),
            st.sampled_from(enumerate_partitions(n - k)),
        )
    )
))
def test_lr_counter_matches_the_cell_by_cell_oracle(case):
    lam, mu, nu = case
    if not lam.contains(mu):
        assert lr_coefficient(lam, mu, nu) == 0
        return
    assert lr_coefficient(lam, mu, nu) == lr_tableaux_count_oracle(lam, mu, nu)


def test_kostka_basics():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((2, 1), (1, 2)) == 1  # composition content allowed
    assert kostka((1, 1), (2,)) == 0
    assert kostka((3,), (1, 1, 1)) == 1


def test_kostka_is_symmetric_in_the_content():
    # decompose_weight_multiset looks every weight up by its sorted form.
    from stablerep.schur import _compositions

    for n in range(7):
        for lam in enumerate_partitions(n):
            for d in range(1, 5):
                for w in _compositions(n, d):
                    assert kostka(lam.parts, w) == kostka(
                        lam.parts, tuple(sorted(w, reverse=True))
                    ), (lam, w)


def test_kostka_row_sums_give_tensor_dimension():
    # sum over weights of K_{lam,w} = dim S_lam(Q^d) for weights with d parts
    import itertools
    from stablerep.partitions import schur_gl_dimension
    for lam in [(2, 1), (3,), (2, 2)]:
        n = sum(lam)
        for d in (2, 3):
            total = sum(
                kostka(lam, w)
                for w in itertools.product(range(n + 1), repeat=d)
                if sum(w) == n
            )
            assert total == schur_gl_dimension(Partition(lam), d)


def test_irred_decomposition_is_the_dict_in_canonical_order():
    shapes = enumerate_partitions(4)
    # Inserted last shape first, with a zero multiplicity for (4).
    dec = IrredDecomposition({lam: i for i, lam in reversed(list(enumerate(shapes)))})
    assert list(dec) == shapes[1:] and dec == {lam: i for i, lam in enumerate(shapes) if i}
    assert dec[shapes[0]] == 0 and shapes[0] not in dec
    assert repr(dec) == "{3,1: 1, 2,2: 2, 2,1,1: 3, 1,1,1,1: 4}"
    pairs = [(a, b) for a in enumerate_partitions(3) for b in enumerate_partitions(2)]
    bi = IrredDecomposition({pair: 1 for pair in reversed(pairs)})
    assert list(bi) == pairs and bi[(shapes[0], Partition([2]))] == 0
    with pytest.raises(AttributeError):
        dec.mults = {}


def test_irred_decomposition_json_roundtrip():
    dec = IrredDecomposition({Partition([2, 1]): 3, Partition([3]): 1})
    assert decomposition_from_json(dec.to_json()) == dec
    bi = IrredDecomposition({(Partition([2]), Partition([1])): 2})
    assert decomposition_from_json(bi.to_json()) == bi


def test_graded_sym_algebra_dimension_vs_series_oracle():
    from stablerep.functors import sym_dimension
    for d in (1, 2, 3):
        for q in (0, 1, 2):
            for p in range(0, 6):
                factors = [(1, q * d)] + [
                    (i, sym_dimension(d, i)) for i in range(1, p + 1)
                ]
                assert graded_sym_algebra_dimension(d, q, p) == \
                    series_coefficient_oracle(factors, p)


def test_graded_sym_algebra_known_coefficients():
    # d=1, q=1, degree 2: coefficient of u^2 in (1-u)^{-2}(1-u^2)^{-1} = 4
    assert graded_sym_algebra_dimension(1, 1, 2) == 4
    # d=1, q=0: plain partition count
    from conftest import partition_count_oracle
    for p in range(8):
        assert graded_sym_algebra_dimension(1, 0, p) == partition_count_oracle(p)


@given(st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_regular_character_decomposition(n):
    """Regular character decomposes with multiplicity = dimension."""
    from math import factorial

    reg = ClassFunction(n, {Partition([1] * n): factorial(n)})
    dec = decompose(reg)
    for lam in enumerate_partitions(n):
        assert dec[lam] == specht_dimension(lam)


class TestIntegerCycleIndex:
    """The integer closed forms against the Fraction two-sort cycle index
    (tests/conftest.py): the orbit count and the identity-count recurrence
    on every cell p <= 12, q <= p, the scaled Z_tau series on p <= 8;
    enumeration reaches only p <= 6."""

    CELLS = [(p, q) for p in range(9) for q in range(p + 1)]
    WIDE_CELLS = [(p, q) for p in range(13) for q in range(p + 1)]

    @pytest.mark.parametrize(
        "closed, oracle",
        [(pq_bicharacter, pq_bicharacter_oracle), (general_bicharacter, general_bicharacter_oracle)],
    )
    def test_bicharacters_match_the_fraction_engine(self, closed, oracle):
        for p, q in self.WIDE_CELLS if closed is pq_bicharacter else self.CELLS:
            got = closed(p, q)
            assert got == oracle(p, q), (p, q)
            assert {type(v) for v in got.values.values()} == {int}

    def test_identity_counts_match_the_fraction_engine(self):
        got = pq_identity_counts(12, 12)
        assert got == pq_identity_counts_oracle(12, 12)
        assert set(got) == set(self.WIDE_CELLS)

    @pytest.mark.parametrize("build, q", [(pq_bicharacter, 0), (general_bicharacter, 1)])
    def test_an_off_by_one_log_term_raises(self, monkeypatch, build, q):
        """general_bicharacter: the scaled log term at x_3 is 3!/3 + 3!/3 = 4
        (from k = 1, lam = (3) and k = 3, lam = (1)); at 5, the coefficient
        of x_3 is odd, and the class of 3-cycles in Sigma_3 has 2 elements.
        pq_bicharacter: G_2(1, 0) = 1 (one 2-cycle alone on an orbit of 2
        blocks); at 2, every class of sigma with a 2-cycle gains fixed
        points, and the stable answer must refuse them."""
        if build is general_bicharacter:
            real = induction._cycle_index_log

            def shifted(j):
                out = real(j)
                if j == 3:
                    out[(3,)] += 1
                return out

            monkeypatch.setattr(induction, "_cycle_index_log", shifted)
            with pytest.raises(OracleDisagreement, match="not a multiple of the class size 2$"):
                build(3, q)
            return
        real_ways = counts._orbit_ways
        monkeypatch.setattr(
            counts, "_orbit_ways", lambda k, n, c: real_ways(k, n, c) + ((k, n, c) == (2, 1, 0))
        )
        # A transposition fixes 3 set partitions of {1, 2, 3}; the shift counts 4.
        assert build(3, q).values[(Partition([2, 1]), Partition([]))] == 4
        for p in range(3, 7):
            with pytest.raises((OracleDisagreement, NonIntegralMultiplicity)):
                stable_cohomology(p, q, p - q)
