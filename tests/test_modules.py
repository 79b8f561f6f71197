import hashlib
import itertools
import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    dense_matrix_oracle,
    dense_product_oracle,
    dense_rank_oracle,
    specht_trace_oracle,
)
from stablerep import modules
from stablerep.characters import cycle_types, irreducible_character
from stablerep.errors import NonPolynomialAction, OracleDisagreement, SizeBudgetExceeded
from stablerep.linalg import MODULAR_PRIME as P, SparseMatrix, sparse_rank_and_witness
from stablerep.modules import (
    ExplicitModule,
    class_representative,
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
# Entries shifted by a multiple of the modular prime, and fractions: they
# reach sparse_rank_and_witness's rational pass and its denominator scaling.
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


class TestSparseRankAndWitness:
    def test_rank_and_nullspace(self):
        """The columns of m as sparse rows: their dependency witness is a
        kernel vector of m."""
        m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        columns = [{i: m[i][j] for i in range(3) if m[i][j]} for j in range(3)]
        rank, v = sparse_rank_and_witness(columns)
        assert rank == 2
        assert v == [-1, -1, 1]
        for row in m:
            assert sum(x * c for x, c in zip(row, v)) == 0

    @settings(max_examples=150, deadline=None)
    @given(wide_matrices, st.booleans())
    # Each example but the last has a lower rank mod P than over Q.  The
    # last has rank 1, but rank 2 if each entry is replaced by its
    # numerator instead of scaling the row by its common denominator.
    @example([[P]], False)
    @example([[1, 1], [1, 1 + P]], False)
    @example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), Fraction(1 + P, 3)]], False)
    @example([[P, 0], [0, 1]], True)
    @example([[Fraction(1, 2), 1], [1, 2]], False)
    def test_sparse_rank_matches_dense(self, entries, tuple_keys):
        """sparse_rank_and_witness equals the dense rank, with int or tuple
        column keys; a dependency witness exists exactly when the rows are
        dependent and is a nonzero vanishing combination."""
        key = (lambda j: (j % 2, -j)) if tuple_keys else (lambda j: j)
        rows = [{key(j): v for j, v in enumerate(r) if v} for r in entries]
        rank, combo = sparse_rank_and_witness(rows)
        assert rank == dense_rank_oracle(entries)
        assert (combo is not None) == (rank < len(entries))
        if combo is not None:
            assert any(combo)
            for j in range(len(entries[0])):
                assert sum(c * r[j] for c, r in zip(combo, entries)) == 0


@st.composite
def sparse_matrix_pairs(draw):
    """Two n x n SparseMatrix values with small nonzero entries, so sums of
    products often cancel."""
    n = draw(st.integers(min_value=1, max_value=4))
    cell = st.tuples(st.integers(min_value=0, max_value=n - 1), st.integers(min_value=0, max_value=n - 1))
    value = st.sampled_from([-2, -1, 1, 2, Fraction(1, 2), Fraction(-1, 2)])
    matrix = st.dictionaries(cell, value, max_size=n * n).map(SparseMatrix)
    return n, draw(matrix), draw(matrix)


@settings(max_examples=200, deadline=None)
@given(sparse_matrix_pairs())
# Both entries of the product's (0, 0) cell cancel: 1 * 1 + 1 * -1.
@example((2, SparseMatrix({(0, 0): 1, (0, 1): 1}), SparseMatrix({(0, 0): 1, (1, 0): -1})))
def test_sparse_matrix_matches_dense(case):
    """@, - and trace() equal the naive dense results, and no result stores
    a 0, so == on the dicts is equality of matrices."""
    n, a, b = case
    dense_a, dense_b = dense_matrix_oracle(a, n), dense_matrix_oracle(b, n)
    difference = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(dense_a, dense_b)]
    for out, want in [(a @ b, dense_product_oracle(dense_a, dense_b)), (a - b, difference)]:
        assert isinstance(out, SparseMatrix)
        assert 0 not in out.values()
        assert all(0 <= i < n and 0 <= j < n for i, j in out)
        assert dense_matrix_oracle(out, n) == want
    assert a.trace() == sum(dense_a[i][i] for i in range(n))
    assert a - a == {}


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
        scale = Fraction(factorial(r), specht_dimension(lam))
        for g in c:
            assert square.get(g, 0) == scale * c[g]


def test_specht_module_dimensions_and_relations():
    """Every generator s_i is a transposition, so its trace is the
    character value on the class (2, 1^(n-2))."""
    for n in range(1, 7):
        transposition = Partition([2] + [1] * (n - 2)) if n > 1 else None
        for lam in enumerate_partitions(n):
            mod = specht_module(lam)
            assert mod.dimension == specht_dimension(lam)
            assert mod.check_coxeter_relations()
            assert len(mod.sym_generators) == n - 1
            if transposition is not None:
                chi = irreducible_character(lam).values[transposition]
                assert all(s.trace() == chi for s in mod.sym_generators)


def test_specht_traces_match_murnaghan_nakayama():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            traces = specht_character_traces(lam)
            chi = irreducible_character(lam)
            for rho in cycle_types(n):
                assert traces[rho] == chi.values[rho]


def test_specht_traces_match_fixed_point_count():
    """The centralizer count equals (f/r!) tr(L_g R_c) counted by
    enumerating the group."""
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            traces = specht_character_traces(lam)
            c = young_symmetrizer(lam)
            for rho in cycle_types(n):
                count = specht_trace_oracle(c, class_representative(rho))
                assert traces[rho] == Fraction(specht_dimension(lam) * count, factorial(n))


def test_constructors_raise_on_dimension_mismatch(monkeypatch):
    monkeypatch.setattr(modules, "specht_dimension", lambda lam: specht_dimension(lam) + 1)
    monkeypatch.setattr(
        modules, "schur_gl_dimension", lambda lam, d: schur_gl_dimension(lam, d) + 1
    )
    with pytest.raises(OracleDisagreement):
        specht_module(Partition([2, 1]))
    with pytest.raises(OracleDisagreement):
        schur_apply(Partition([2, 1]), 2)


def test_spin_checks_images_against_the_span():
    """Without spin a map may leave the span of the picked vectors, and the
    full-image check refuses it; with spin the span closes under the map."""
    cycle = lambda v: {(k + 1) % 3: x for k, x in v.items()}
    with pytest.raises(OracleDisagreement):
        modules._spin([{0: 1}, {0: 2}], [cycle], spin=False)
    picked, [m] = modules._spin([{0: 1}], [cycle], spin=True)
    assert picked == [0, 1, 2]
    assert m == {(0, 2): 1, (1, 0): 1, (2, 1): 1}


@st.composite
def spin_cases(draw):
    """Sparse integer vectors on the keys 0..n-1 and the maps of small
    integer n x n matrices."""
    n = draw(st.integers(min_value=1, max_value=4))
    vector = st.dictionaries(
        st.integers(min_value=0, max_value=n - 1), st.sampled_from([-2, -1, 1, 2]), max_size=n
    )
    square = st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n)
    vectors = draw(st.lists(vector, min_size=1, max_size=4))
    return n, vectors, draw(st.lists(square, max_size=2))


@settings(max_examples=200, deadline=None)
@given(spin_cases(), st.booleans())
def test_spin_writes_every_image_in_its_basis(case, spin):
    """Every M_i satisfies map_i(b_j) = sum_k M_i[k][j] b_k exactly.  The
    basis is independent and spans the input vectors.  Without spin it is
    the inputs independent of the earlier ones, and OracleDisagreement is
    raised exactly when some image leaves their span (dense rank oracle)."""
    n, vectors, matrices = case
    maps = [
        lambda v, a=a: {i: x for i in range(n) if (x := sum(a[i][k] * c for k, c in v.items()))}
        for a in matrices
    ]
    dense = lambda v: [v.get(k, 0) for k in range(n)]
    rank = dense_rank_oracle([dense(v) for v in vectors])
    images = [m(v) for v in vectors for m in maps]
    leaves = dense_rank_oracle([dense(v) for v in vectors + images]) > rank
    if leaves and not spin:
        with pytest.raises(OracleDisagreement):
            modules._spin(vectors, maps, spin=False)
        return
    picked, mats = modules._spin(vectors, maps, spin)
    queue, basis = list(vectors), []
    for pos in picked:
        basis.append(queue[pos])
        queue.extend(m(queue[pos]) for m in maps)
    assert dense_rank_oracle([dense(b) for b in basis]) == len(basis)
    assert dense_rank_oracle([dense(v) for v in basis + vectors]) == len(basis)
    if not spin:
        assert picked == [
            pos
            for pos in range(len(vectors))
            if dense_rank_oracle([dense(v) for v in vectors[: pos + 1]])
            > dense_rank_oracle([dense(v) for v in vectors[:pos]])
        ]
    assert len(mats) == len(maps)
    for m, mat in zip(maps, mats):
        assert 0 not in mat.values()
        assert all(0 <= k < len(basis) and 0 <= j < len(basis) for k, j in mat)
        for j, b in enumerate(basis):
            column = [mat.get((k, j), 0) for k in range(len(basis))]
            combo = [sum(c * bk.get(key, 0) for c, bk in zip(column, basis)) for key in range(n)]
            assert combo == dense(m(b))


def _matrix_entries(m: SparseMatrix, n: int) -> list[list[str]]:
    """Every entry of the n x n matrix, zeros included, row by row."""
    return [[str(x) for x in row] for row in dense_matrix_oracle(m, n)]


def test_generator_matrices_pinned():
    """One sha256 over every entry of the generator matrices: specht_module
    for all lam of n <= 6, and schur_apply with its torus weights (read off
    the E_aa diagonals) for all lam of n <= 5 and d <= 3."""
    out = []
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            mod = specht_module(lam)
            out.append([str(lam), [_matrix_entries(s, mod.dimension) for s in mod.sym_generators]])
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for d in range(1, 4):
                mod = schur_apply(lam, d)
                E, dim = mod.gl_generators, mod.dimension
                gl = [[list(k), _matrix_entries(m, dim)] for k, m in sorted(E.items())]
                weights = [[int(E[(a, a)].get((i, i), 0)) for a in range(d)] for i in range(dim)]
                out.append([str(lam), d, gl, weights])
    text = json.dumps(out, separators=(",", ":"))
    digest = "51e477981235afc4236788f985e2b7a6721a959e9f67476cbb26f79e73cb1842"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_constructor_budgets():
    lam = Partition([2, 1, 1])
    for build in (specht_module, specht_character_traces):
        with pytest.raises(SizeBudgetExceeded):
            build(lam, budget=factorial(4) - 1)
        build(lam, budget=factorial(4))
    with pytest.raises(SizeBudgetExceeded):
        schur_apply(lam, 3, budget=3**4 - 1)
    assert schur_apply(lam, 3, budget=3**4).dimension == schur_gl_dimension(lam, 3)


def test_tensor_power_module_budget():
    """The budget counts the generator entries written, (r-1) d^r for the
    transpositions and r d^(r+1) for the E_ab: 2 * 8 + 3 * 16 = 64 at
    (2, 3), of which 54 are stored once the E_aa merge on the diagonal.
    (3, 7) needs 59,049 > 20,000 under the default cap."""
    with pytest.raises(SizeBudgetExceeded):
        tensor_power_module(2, 3, budget=63)
    mod = tensor_power_module(2, 3, budget=64)
    assert mod.dimension == 8
    assert sum(map(len, mod.sym_generators)) + sum(map(len, mod.gl_generators.values())) == 54
    assert mod.check_coxeter_relations() and mod.check_gl_relations()
    for d, r in [(10, 10), (3, 7)]:
        with pytest.raises(SizeBudgetExceeded):
            tensor_power_module(d, r)


def test_schur_apply_dimensions_and_decomposition():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for d in range(1, 4):
                mod = schur_apply(lam, d)
                assert mod.dimension == schur_gl_dimension(lam, d)
                if mod.dimension:
                    assert mod.check_gl_relations()
                    assert gl_decompose(mod).mults == {lam: 1}


def _specht_summary():
    m = specht_module(Partition([3, 3]))
    return {
        "dimension": m.dimension,
        "generator_traces": [str(g.trace()) for g in m.sym_generators],
    }


def _schur_summary():
    m = schur_apply(Partition([2, 2]), 4)
    dec = gl_decompose(m)
    return {"dimension": m.dimension, "decomposition": {str(k): v for k, v in dec.items()}}


def _traces_summary():
    traces = specht_character_traces(Partition([4, 1, 1]))
    return {"traces": {str(rho): str(v) for rho, v in traces.items()}}


def _character_table_summary():
    rows = [
        [str(lam), [int(v) for v in irreducible_character(lam).values.values()]]
        for lam in enumerate_partitions(14)
    ]
    return {"classes": [str(c) for c in cycle_types(14)], "rows": rows}


@pytest.mark.parametrize(
    "summary, digest",
    [
        (_specht_summary, "217b3445b1652134593ae827ae5ba4060fe6f72483e9959294d7cacb86ea9f70"),
        (_schur_summary, "b0f943b25ba1e473846578b3a6455b9121ab2f656dd55579165e59c44cfb790d"),
        (_traces_summary, "b4c99a6fbb9f8e6fe397e8f27de24e8fec1a408d6cc7c41cb9f70dacfe241a1e"),
        (_character_table_summary, "facb19be5177d60f4baff1469a8e78280718d4c911529083f600cff5c494f7c3"),
    ],
    ids=["specht_module 3,3", "schur_gl 2,2 4", "specht_character_traces 4,1,1", "character_table 14"],
)
def test_api_summaries_pinned(summary, digest):
    """The benchmark's API summaries: sorted-key compact JSON plus a
    newline, as printed by the benchmark's child process."""
    text = json.dumps(summary(), sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_relation_checks_catch_a_perturbed_entry():
    """Doubling any one stored entry of any generator breaks the Coxeter
    relations of a Specht module and the gl relations of a Schur module."""
    specht = specht_module(Partition([3, 1]))
    schur = schur_apply(Partition([2, 1]), 2)
    cases = [
        (specht.sym_generators, specht.check_coxeter_relations),
        (list(schur.gl_generators.values()), schur.check_gl_relations),
    ]
    for gens, check in cases:
        assert check()
        for g in gens:
            for key, value in list(g.items()):
                g[key] = 2 * value
                assert not check()
                g[key] = value
        assert check()


def test_gl_decompose_rejects_non_diagonal_torus():
    swap = SparseMatrix({(0, 1): 1, (1, 0): 1})
    mod = ExplicitModule(dimension=2, gl_generators={(0, 0): swap}, grading=1)
    with pytest.raises(NonPolynomialAction):
        gl_decompose(mod)


def test_compositions_are_the_filtered_product():
    for n in range(7):
        for d in range(5):
            product = [w for w in itertools.product(range(n + 1), repeat=d) if sum(w) == n]
            assert sorted(modules._compositions(n, d)) == product


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
