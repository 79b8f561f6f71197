import hashlib
import itertools
import json
from fractions import Fraction
from functools import partial
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    check_coxeter_relations,
    check_gl_relations,
    class_representative,
    dense_matrix_oracle,
    dense_product_oracle,
    dense_rank_oracle,
    perm_inverse,
    schur_image_oracle,
    specht_spin_oracle,
    specht_trace_oracle,
    spin_oracle,
    standard_tableaux_bfs,
    tensor_power_module,
    tensor_trace_oracle,
)
from stablerep import functors, modules, schur
from stablerep.characters import cycle_types, irreducible_character
from stablerep.errors import (
    InvalidArgs, NonPolynomialAction, OracleDisagreement, SizeBudgetExceeded,
)
from stablerep.functors import (
    split_extension_filtration_check,
    verify_cauchy,
    verify_schur_weyl,
)
from stablerep.linalg import MODULAR_PRIME as P, SparseMatrix, sparse_rank_and_witness
from stablerep.modules import (
    ExplicitModule,
    gl_decompose,
    module_weight_multiset,
    perm_compose,
    perm_cycle_type,
    perm_sign,
    schur_apply,
    specht_character_traces,
    specht_module,
    young_symmetrizer,
)
from stablerep.partitions import (
    Partition,
    enumerate_partitions,
    schur_gl_dimension,
    specht_dimension,
)
from stablerep.schur import _compositions

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
    character value on the class (2, 1^(n-2)).  The class representative
    of rho, one cycle (k k+1 ... k+l-1) = s_k s_{k+1} ... s_{k+l-2} per part
    l, acts as the product of those generators, whose trace is chi^lam(rho)."""
    for n in range(1, 8):
        transposition = Partition([2] + [1] * (n - 2)) if n > 1 else None
        for lam in enumerate_partitions(n):
            mod = specht_module(lam)
            assert mod.dimension == specht_dimension(lam)
            assert check_coxeter_relations(mod)
            assert len(mod.sym_generators) == n - 1
            chi = irreducible_character(lam)
            if transposition is not None:
                assert all(s.trace() == chi.values[transposition] for s in mod.sym_generators)
            for rho in cycle_types(n):
                word = SparseMatrix({(i, i): 1 for i in range(mod.dimension)})
                start = 0
                for part in rho:
                    for k in range(start, start + part - 1):
                        word = word @ mod.sym_generators[k]
                    start += part
                assert word.trace() == chi.values[rho], (lam, rho)


def test_specht_modules_of_weight_10_build_under_the_default_budget():
    """The budget counts the f^lam tableaux times the 9 generators, at most
    768 * 9 = 6,912 at n = 10, where 10! = 3,628,800 is far past the
    default cap; a hook (r-1, 1) of weight r = 20,000 is refused."""
    transposition = Partition([2] + [1] * 8)
    for lam in enumerate_partitions(10):
        mod = specht_module(lam)
        assert mod.dimension == specht_dimension(lam)
        assert len(mod.sym_generators) == 9
        chi = irreducible_character(lam).values[transposition]
        assert mod.sym_generators[0].trace() == chi
    with pytest.raises(SizeBudgetExceeded):
        specht_module(Partition([19999, 1]))


def test_long_row_and_column_build_without_a_factorial(monkeypatch):
    """(20000) and (1^20000) fit the default budget (one tableau times
    19,999 generators).  Their tableau is checked against the f^lam = 1
    that the budget read off the hook product, so the factorial hook
    formula, here made to fail, is never called; s_i is +1 on the row
    and -1 on the column."""
    def refuse(*args):
        raise AssertionError(f"called on {args}")

    monkeypatch.setattr(modules, "specht_dimension", refuse)
    for lam, sign in (([20000], 1), ([1] * 20000, -1)):
        mod = specht_module(Partition(lam))
        assert mod.dimension == 1 and len(mod.sym_generators) == 19999
        assert all(s == {(0, 0): sign} for s in mod.sym_generators)


def test_standard_tableaux_match_breadth_first_growth():
    """The depth-first words are the breadth-first ones, in the same
    lexicographic order, for every shape of weight at most 8."""
    for n in range(9):
        for lam in enumerate_partitions(n):
            assert modules._standard_tableaux(lam) == standard_tableaux_bfs(lam), lam


def test_seminormal_entries_of_2_1():
    """The tableaux of (2,1) are 12/3 and 13/2 (Yamanouchi words 001 and
    010).  s_1 swaps 1 and 2, which share a row in the first (+1) and a
    column in the second (-1).  For s_2 the axial distance of 2 and 3 is
    -2 in the first and 2 in the second, so on the pair (13/2, 12/3) s_2 is
    [[1/2, 3/4], [1, -1/2]]: the 1 in the column of the tableau with a > 0."""
    s1, s2 = specht_module(Partition([2, 1])).sym_generators
    assert s1 == {(0, 0): 1, (1, 1): -1}
    assert s2 == {
        (1, 1): Fraction(1, 2), (0, 1): 1, (0, 0): Fraction(-1, 2), (1, 0): Fraction(3, 4)
    }


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
    # specht_module checks its tableaux against the f^lam that its budget
    # read off the hook partials, so the shifted count sits there.
    real_partials = modules.hook_partials

    def shifted(lam):
        return (yield from real_partials(lam)) + 1

    monkeypatch.setattr(modules, "hook_partials", shifted)
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
        spin_oracle([{0: 1}, {0: 2}], [cycle], spin=False)
    picked, [m] = spin_oracle([{0: 1}], [cycle], spin=True)
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
            spin_oracle(vectors, maps, spin=False)
        return
    picked, mats = spin_oracle(vectors, maps, spin)
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


def _generator_matrices_digest(specht, schur) -> str:
    """One sha256 over every entry of the generator matrices: specht(lam)
    for all lam of n <= 6, and schur(lam, d) with its torus weights (read
    off the E_aa diagonals) for all lam of n <= 5 and d <= 3."""
    out = []
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            mod = specht(lam)
            out.append([str(lam), [_matrix_entries(s, mod.dimension) for s in mod.sym_generators]])
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for d in range(1, 4):
                mod = schur(lam, d)
                E, dim = mod.gl_generators, mod.dimension
                gl = [[list(k), _matrix_entries(m, dim)] for k, m in sorted(E.items())]
                weights = [[int(E[(a, a)].get((i, i), 0)) for a in range(d)] for i in range(dim)]
                out.append([str(lam), d, gl, weights])
    text = json.dumps(out, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_generator_matrices_pinned():
    """The symmetrizer-image oracles: the spun Specht ideals and the
    symmetrizer images on tensor space."""
    digest = "51e477981235afc4236788f985e2b7a6721a959e9f67476cbb26f79e73cb1842"
    assert _generator_matrices_digest(specht_spin_oracle, schur_image_oracle) == digest


def test_closed_form_matrices_pinned():
    """The production bases: Young's seminormal form and Gelfand-Tsetlin."""
    digest = "060c188f01d42d1c3c195f8c3740729eb5d6bee41d6d48bdb22090ba10b58ec1"
    assert _generator_matrices_digest(specht_module, schur_apply) == digest


def test_constructor_budgets():
    """specht_module counts its f^lam = 3 standard tableaux times the 3
    generators, schur_apply its 3 GT patterns times the 3^2 generators, and
    specht_character_traces the |R_lam|·|C_lam| = 2!·3! = 12 terms of the
    Young symmetrizer it sums; each unit is named."""
    lam = Partition([2, 1, 1])
    for build, needed, unit in (
        (specht_module, 9, "standard Young tableaux times generators"),
        (lambda lam, budget: schur_apply(lam, 3, budget), 27, "GT patterns times gl generators"),
        (specht_character_traces, 12, "Young symmetrizer terms"),
    ):
        with pytest.raises(SizeBudgetExceeded, match=f"^{unit} {needed} exceeds budget {needed - 1}$"):
            build(lam, budget=needed - 1)
        build(lam, budget=needed)
    assert schur_apply(lam, 3, budget=27).dimension == schur_gl_dimension(lam, 3)


def test_budgets_refuse_without_forming_r_factorial(monkeypatch):
    """specht_module decides its budget from the hook product counted up to
    the cap, so a refused shape never reaches the factorial hook formula:
    (19999, 1) with its exact count 19,999 * 19,999, (50000, 1) and
    (100, 100) with f^lam past the cap.  specht_character_traces stops its
    product of factorials once it passes the cap, before any symmetrizer
    term."""
    def refuse(*args):
        raise AssertionError(f"called on {args}")

    with monkeypatch.context() as m:
        m.setattr(modules, "specht_dimension", refuse)
        m.setattr(modules, "young_symmetrizer", refuse)
        unit = "standard Young tableaux times generators"
        for lam, needed in (([19999, 1], "399960001"), ([50000, 1], "more than 20000"),
                            ([100, 100], "more than 20000")):
            with pytest.raises(SizeBudgetExceeded, match=f"^{unit} {needed} exceeds budget 20000$"):
                specht_module(Partition(lam))
        for lam in ([50000], [8], [3, 3, 3]):
            with pytest.raises(SizeBudgetExceeded, match="^Young symmetrizer terms "):
                specht_character_traces(Partition(lam))
    for lam in ([4, 4], [3, 3, 2]):  # 9,216 and 5,184 terms, 8! = 40,320
        traces = specht_character_traces(Partition(lam), budget=9216)
        assert traces == irreducible_character(Partition(lam)).values


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
    assert check_coxeter_relations(mod) and check_gl_relations(mod)
    for d, r in [(10, 10), (3, 7)]:
        with pytest.raises(SizeBudgetExceeded):
            tensor_power_module(d, r)


def test_schur_apply_dimensions_and_decomposition():
    """The Gelfand-Tsetlin module and the symmetrizer image (the oracle)
    have the same dimension, torus weights and decomposition, and both
    satisfy the gl relations."""
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for d in range(1, 4):
                mod = schur_apply(lam, d)
                oracle = schur_image_oracle(lam, d)
                assert mod.dimension == oracle.dimension == schur_gl_dimension(lam, d)
                if mod.dimension:
                    assert check_gl_relations(mod) and check_gl_relations(oracle)
                    assert module_weight_multiset(mod) == module_weight_multiset(oracle)
                    assert gl_decompose(mod) == gl_decompose(oracle) == {lam: 1}


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
    relations of a Specht module and the gl relations of a Schur module,
    in the seminormal and Gelfand-Tsetlin bases (the d = 3 module has
    commutator generators E_02 and E_20) and in the symmetrizer bases."""
    spechts = [specht_module(Partition(lam)) for lam in ([3, 1], [3, 2], [2, 2, 1])]
    spechts.append(specht_spin_oracle(Partition([3, 1])))
    schurs = [schur_apply(Partition([2, 1]), d) for d in (2, 3)]
    schurs.append(schur_image_oracle(Partition([2, 1]), 2))
    cases = [(m.sym_generators, partial(check_coxeter_relations, m)) for m in spechts]
    cases += [(list(m.gl_generators.values()), partial(check_gl_relations, m)) for m in schurs]
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
    mod = ExplicitModule(dimension=2, gl_generators={(0, 0): swap})
    with pytest.raises(NonPolynomialAction):
        gl_decompose(mod)


def test_gl_decompose_rejects_a_module_with_no_gl_action():
    """A Specht module, of any shape, has no gl action to decompose; the
    zero module decomposes as nothing."""
    for lam in ([2, 1], [2], []):
        with pytest.raises(InvalidArgs, match="no gl action"):
            gl_decompose(specht_module(Partition(lam)))
    assert gl_decompose(ExplicitModule(0)) == {}


def test_compositions_are_the_filtered_product():
    for n in range(7):
        for d in range(5):
            product = [w for w in itertools.product(range(n + 1), repeat=d) if sum(w) == n]
            assert list(_compositions(n, d)) == product


def test_verify_cauchy_grid():
    for r in range(1, 5):
        for dV in range(1, 4):
            for dW in range(1, 4):
                assert verify_cauchy(r, dV, dW).passed


def test_verify_schur_weyl_grid():
    for r in range(1, 5):
        for d in range(1, 5):
            assert verify_schur_weyl(r, d).passed


def test_schur_weyl_traces_are_power_sum_products():
    """verify_schur_weyl's left side multiplies one power sum per cycle;
    it is the enumeration of the fixed basis tensors for every cycle type
    of weight <= 7 and every d <= 5."""
    for r in range(8):
        for rho in cycle_types(r):
            for d in range(1, 6):
                got = functors._power_sum_product(rho.parts, d)
                assert got == tensor_trace_oracle(rho.parts, d), (rho, d)
                assert sum(got.values()) == d**rho.length


def test_schur_weyl_looks_up_kostka_by_sorted_content():
    """Kostka numbers are symmetric in the content, so the weight counters
    of schur-weyl 6 4 look them up by the sorted weight: 287 distinct
    (shape, content) pairs reach the cache, against 1,696 by the weight as
    listed, and every counter is the one the listed weights give."""
    schur.kostka.cache_clear()
    assert verify_schur_weyl(6, 4).passed
    assert schur.kostka.cache_info().misses == 287
    for lam in enumerate_partitions(6):
        listed = {w: schur.kostka(lam.parts, w) for w in _compositions(6, 4)}
        assert schur._schur_weight_counter(lam, 4) == {w: k for w, k in listed.items() if k}


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


@pytest.mark.parametrize(
    "lam, count",
    [((1,), 2), ((2, 1), 8), ((3, 1, 1), 27), ((3, 3), 40), ((4, 3, 2, 1), 324)],
)
def test_split_extension_budget_counts_its_lr_evaluations(monkeypatch, lam, count):
    """The count checked before any subdiagram is listed, the sum over
    mu ⊆ lam of p(|lam| - |mu|), is the number of distinct LR coefficients
    the check asks for, so the check runs at exactly that budget and is
    refused at one less."""
    asked = set()
    real = functors.lr_coefficient

    def recorded(outer, inner, nu):
        asked.add((inner, nu))
        return real(outer, inner, nu)

    monkeypatch.setattr(functors, "lr_coefficient", recorded)
    lam = Partition(lam)
    assert split_extension_filtration_check(lam, 2, 1, budget=count).passed
    assert len(asked) == count
    with pytest.raises(SizeBudgetExceeded, match=f"^LR coefficient evaluations {count} "):
        split_extension_filtration_check(lam, 1, 2, budget=count - 1)
