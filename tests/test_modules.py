from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from stablerep.characters import cycle_types, irreducible_character
from stablerep.errors import NonPolynomialAction, SizeBudgetExceeded
from stablerep.linalg import (
    MODULAR_PRIME as P,
    ExactMatrix,
    sparse_nullity_witness,
    sparse_rank,
)
from stablerep.modules import (
    ExplicitModule,
    all_perms,
    gl_decompose,
    perm_compose,
    perm_cycle_type,
    perm_inverse,
    perm_sign,
    schur_apply,
    specht_character_traces,
    specht_module,
    split_extension_filtration_check,
    tensor_power_module,
    verify_cauchy,
    verify_schur_weyl,
    young_symmetrizer,
)
from stablerep.partitions import (
    Partition,
    enumerate_partitions,
    schur_gl_dimension,
    specht_dimension,
)

small_ints = st.integers(min_value=-3, max_value=3)
# Entries shifted by a multiple of sparse_rank's prime, and fractions: they
# reach its rational fallback and its denominator scaling.
wide_entries = st.one_of(
    small_ints,
    st.builds(lambda a, b: a + b * P, small_ints, st.integers(min_value=-1, max_value=1)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
wide_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda cols: st.lists(
        st.lists(wide_entries, min_size=cols, max_size=cols), min_size=1, max_size=5
    )
)


class TestExactMatrix:
    def test_rank_and_nullspace(self):
        m = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert m.rank() == 2
        assert m.pivot_columns() == [0, 1]
        # The free column in terms of the pivot columns gives the kernel
        # vector (x0, x1, -1).
        pivots = ExactMatrix.from_columns([m.column(0), m.column(1)])
        [x] = pivots.solve_many([m.column(2)])
        v = x + [-1]
        assert v == [1, 1, -1]
        assert m @ ExactMatrix.from_columns([v]) == ExactMatrix.zero(3, 1)

    def test_solve(self):
        m = ExactMatrix([[2, 0], [0, 3]])
        assert m.solve_many([[1, 1]]) == [[Fraction(1, 2), Fraction(1, 3)]]
        inconsistent = ExactMatrix([[1, 0], [1, 0]])
        assert inconsistent.solve_many([[0, 1], [2, 2]]) == [None, [2, 0]]

    @settings(max_examples=150, deadline=None)
    @given(
        wide_matrices,
        st.booleans(),
        st.lists(st.lists(small_ints, min_size=5, max_size=5), max_size=3),
    )
    # Each example but the last has a lower rank mod P than over Q.  The
    # last has rank 1, but rank 2 if each entry is replaced by its
    # numerator instead of scaling the row by its common denominator.
    @example([[P]], False, [])
    @example([[1, 1], [1, 1 + P]], False, [])
    @example(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), Fraction(1 + P, 3)]], False, []
    )
    @example([[P, 0], [0, 1]], True, [])
    @example([[Fraction(1, 2), 1], [1, 2]], False, [])
    def test_sparse_rank_matches_dense(self, entries, tuple_keys, rhs_rows):
        """sparse_rank equals the dense rank, with int or tuple column keys;
        a dependency witness exists exactly when the rows are dependent and
        is a nonzero vanishing combination; solve_many returns None exactly
        for right-hand sides outside the column space."""
        m = ExactMatrix(entries)
        key = (lambda j: (j % 2, -j)) if tuple_keys else (lambda j: j)
        rows = [{key(j): v for j, v in enumerate(r) if v} for r in entries]
        rank = m.rank()
        assert sparse_rank(rows) == rank

        combo = sparse_nullity_witness(rows)
        assert (combo is not None) == (rank < m.rows)
        if combo is not None:
            assert any(combo)
            for j in range(m.cols):
                assert sum(c * r[j] for c, r in zip(combo, entries)) == 0

        rhs_list = [rhs[: m.rows] for rhs in rhs_rows]
        for rhs, x in zip(rhs_list, m.solve_many(rhs_list)):
            consistent = ExactMatrix([r + [b] for r, b in zip(entries, rhs)]).rank() == rank
            assert (x is not None) == consistent
            if x is not None:
                assert m @ ExactMatrix.from_columns([x]) == ExactMatrix.from_columns([rhs])


def test_perm_helpers():
    g = (1, 2, 0, 4, 3)
    assert perm_compose(g, perm_inverse(g)) == (0, 1, 2, 3, 4)
    assert perm_cycle_type(g) == Partition([3, 2])
    assert perm_sign(g) == -1  # 3-cycle even, transposition odd


def test_young_symmetrizer_quasi_idempotent():
    """c * c = (r!/f^lam) * c in the group algebra."""
    for lam in [Partition([2, 1]), Partition([2, 2]), Partition([3, 1])]:
        r = lam.weight
        c = dict()
        for coeff, g in young_symmetrizer(lam):
            c[g] = c.get(g, 0) + coeff
        square: dict = {}
        for a, ca in c.items():
            for b, cb in c.items():
                ab = perm_compose(a, b)
                square[ab] = square.get(ab, 0) + ca * cb
        from math import factorial
        scale = Fraction(factorial(r), specht_dimension(lam))
        for g in c:
            assert square.get(g, 0) == scale * c[g]


def test_specht_module_dimensions_and_relations():
    for n in range(1, 5):
        for lam in enumerate_partitions(n):
            mod = specht_module(lam)
            assert mod.dimension == specht_dimension(lam)
            assert mod.check_coxeter_relations()


def test_specht_traces_match_murnaghan_nakayama():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            traces = specht_character_traces(lam)
            chi = irreducible_character(lam)
            for rho in cycle_types(n):
                assert traces[rho] == chi.values[rho]


def test_tensor_power_module_budget():
    with pytest.raises(SizeBudgetExceeded):
        tensor_power_module(10, 10)


def test_schur_apply_dimensions_and_decomposition():
    for n in range(1, 5):
        for lam in enumerate_partitions(n):
            for d in range(1, 4):
                mod = schur_apply(lam, d)
                assert mod.dimension == schur_gl_dimension(lam, d)
                if mod.dimension:
                    assert mod.check_gl_relations()
                    assert gl_decompose(mod).mults == {lam: 1}


def test_gl_decompose_rejects_non_diagonal_torus():
    swap = ExactMatrix([[0, 1], [1, 0]])
    mod = ExplicitModule(dimension=2, gl_generators={(0, 0): swap}, grading=1)
    with pytest.raises(NonPolynomialAction):
        gl_decompose(mod)


def test_verify_cauchy_grid():
    for r in range(1, 5):
        for dV in range(1, 4):
            for dW in range(1, 4):
                assert verify_cauchy(r, dV, dW).passed


def test_verify_schur_weyl_grid():
    for r in range(1, 5):
        for d in range(1, 5):
            assert verify_schur_weyl(r, d).passed


def test_split_extension_small_example():
    rep = split_extension_filtration_check(Partition([2]), 1, 1)
    # Sym^2 of a 2-dim space: 3 = 1 + 1 + 1 filtration pieces; the
    # alternating identity recovers the 1-dim sub-side term.
    assert rep.passed
    assert rep.left == rep.right


def test_split_extension_grid():
    for n in range(1, 5):
        for lam in enumerate_partitions(n):
            for dA in range(1, 4):
                for dC in range(1, 4):
                    assert split_extension_filtration_check(lam, dA, dC).passed
