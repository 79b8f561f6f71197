"""Explicit finite-dimensional rational modules with exact matrix actions.

Specht modules are built in Young's seminormal form on standard Young
tableaux, and Schur functors S_lam(Q^d) in the Gelfand-Tsetlin basis of
interlacing patterns: every generator entry is a closed-form rational,
written once per basis vector, and no r!-term or d^r-term object is built.
Also here: Specht characters from the Young symmetrizer's coefficients by
a centralizer count, and the weight-space decomposition of polynomial gl_d
actions, whose Kostka subtraction ``gl_decompose`` imports from ``schur``
when it runs.  Every generator matrix is a sparse linalg.SparseMatrix.  The
symmetrizer images that the closed forms replaced, the tensor powers and
the relation checks on generators are the tests' oracles.

No command of the CLI and no verification uses this layer, only the
benchmark's explicit-module ops: the Schur-functor checks read weights and
dimensions in ``functors``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod

from .errors import InvalidArgs, NonPolynomialAction, OracleDisagreement, check_budget
from .linalg import SparseMatrix, _sparse
from .partitions import (
    IrredDecomposition,
    Partition,
    Record,
    hook_partials,
    schur_gl_dimension,
    specht_dimension,
    transpose,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .characters import Perm

# ---------------------------------------------------------------------------
# Permutations (tuples of images, 0-indexed)


def perm_compose(a: Perm, b: Perm) -> Perm:
    """(a b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def perm_sign(a: Perm) -> int:
    return (-1) ** (len(a) - perm_cycle_type(a).length)


def perm_cycle_type(a: Perm) -> Partition:
    seen = [False] * len(a)
    lens = []
    for i in range(len(a)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            ln += 1
        lens.append(ln)
    return Partition(sorted(lens, reverse=True))


def perms_of_blocks(blocks: list[list[int]], r: int) -> list[Perm]:
    """All permutations of {0..r-1} permuting each block within itself."""
    out = []
    for combo in itertools.product(
        *[itertools.permutations(b) for b in blocks]
    ):
        img = list(range(r))
        for block, perm in zip(blocks, combo):
            for src, dst in zip(block, perm):
                img[src] = dst
        out.append(tuple(img))
    return out


def young_symmetrizer(lam: Partition) -> list[tuple[int, Perm]]:
    """The group-algebra element a_lam * b_lam for the canonical tableau
    (fill the diagram with 0..r-1 row by row), as (coefficient, perm) terms."""
    r = lam.weight
    rows: list[list[int]] = []
    k = 0
    for ln in lam:
        rows.append(list(range(k, k + ln)))
        k += ln
    cols: list[list[int]] = []
    width = lam[0] if lam.length else 0
    for j in range(width):
        cols.append([rows[i][j] for i in range(lam.length) if lam[i] > j])
    terms = _sparse(
        (perm_compose(p, q), perm_sign(q))
        for p in perms_of_blocks(rows, r)
        for q in perms_of_blocks(cols, r)
    )
    return [(c, g) for g, c in terms.items()]


# ---------------------------------------------------------------------------
# ExplicitModule


class ExplicitModule(Record):
    """A finite-dimensional rational vector space with exact generator
    actions.  sym_generators are the adjacent transpositions s_1..s_{r-1}
    when a symmetric-group action is present; gl_generators map (a, b) to
    the action of the elementary matrix E_{ab} when a polynomial gl_d
    action is present.  Each generator is a SparseMatrix on basis indices
    0..dimension-1."""

    __slots__ = FIELDS = ("dimension", "sym_generators", "gl_generators")

    def __init__(
        self,
        dimension: int,
        sym_generators: list[SparseMatrix] | None = None,
        gl_generators: dict[tuple[int, int], SparseMatrix] | None = None,
    ):
        self.dimension = dimension
        self.sym_generators = [] if sym_generators is None else sym_generators
        self.gl_generators = {} if gl_generators is None else gl_generators


# ---------------------------------------------------------------------------
# Specht modules


def _standard_tableaux(lam: Partition) -> list[tuple[int, ...]]:
    """The standard Young tableaux of shape lam, each as its Yamanouchi
    word (entry k, counting from 0, sits in row word[k]), in lexicographic
    order.  They grow depth-first in one word, each next entry tried in the
    addable rows in increasing order, and a word is copied only once it is
    complete; every partial tableau completes.  The addable cells end the
    filled rows or the filled columns, and the shorter list is scanned, so
    a long row or a long column costs O(r), not O(r^2)."""
    r, parts, conj = lam.weight, lam.parts, transpose(lam).parts
    rows, cols = [0] * len(parts), [0] * len(conj)  # lengths filled

    def addable() -> list[int]:
        # Row i can take the next entry when it is short of lam_i and
        # shorter than row i - 1, so only rows up to cols[0] can; likewise
        # column j, in row cols[j], and right to left those rows increase.
        if cols[0] <= rows[0]:
            return [
                i
                for i in range(min(cols[0] + 1, len(parts)))
                if rows[i] < parts[i] and (i == 0 or rows[i - 1] > rows[i])
            ]
        return [
            cols[j]
            for j in range(min(rows[0], len(conj) - 1), -1, -1)
            if cols[j] < conj[j] and (j == 0 or cols[j - 1] > cols[j])
        ]

    if not parts:
        return [()]
    word: list[int] = []
    out = []
    stack = [iter(addable())]
    while True:
        i = next(stack[-1], None)
        if i is not None:
            word.append(i)
            cols[rows[i]] += 1
            rows[i] += 1
            if len(word) < r:
                stack.append(iter(addable()))
                continue
            out.append(tuple(word))
        else:
            stack.pop()
            if not word:
                break
        i = word.pop()
        rows[i] -= 1
        cols[rows[i]] -= 1
    return out


def specht_module(lam: Partition, budget: int | None = None) -> ExplicitModule:
    """S^lam in Young's seminormal form (Young 1931; Okounkov-Vershik 1996)
    on the standard Young tableaux, which are counted against the hook
    formula.  With a = c(i+1) - c(i) the axial distance of the entries i
    and i+1 of T (c = column - row), s_i T = T if they share a row (a = 1)
    and -T if they share a column (a = -1); two consecutive entries have
    adjacent contents only then.  Otherwise s_i T is standard, and s_i acts
    on the pair (T, s_i T), T the one with a > 0, as
    [[1/a, 1 - 1/a^2], [1, -1/a]].  The budget counts the f^lam tableaux
    times the r - 1 generators, a bound on the columns written: f^lam
    alone would admit (19999, 1), whose generators hold 4e8 entries.
    The budget reads f^lam off the hook partials, which form no r!, so no
    shape costs a factorial; the tableaux of an admitted shape are checked
    against that exact f^lam."""
    r = lam.weight

    def bounds():
        f = yield from hook_partials(lam)
        return f * max(r - 1, 0)

    count = check_budget(bounds(), budget, "standard Young tableaux times generators")
    f = count // (r - 1) if r > 1 else 1
    tableaux = _standard_tableaux(lam)
    if len(tableaux) != f:
        raise OracleDisagreement(
            f"{len(tableaux)} standard tableaux of shape {lam}, hook formula {f}"
        )
    index = {T: j for j, T in enumerate(tableaux)}
    sym = [SparseMatrix() for _ in range(r - 1)]
    for j, T in enumerate(tableaux):
        content, filled = [], [0] * lam.length
        for row in T:
            content.append(filled[row] - row)
            filled[row] += 1
        for i, s in enumerate(sym):
            a = content[i + 1] - content[i]
            if a in (1, -1):
                s[j, j] = a
                continue
            s[j, j] = Fraction(1, a)
            partner = index[T[:i] + (T[i + 1], T[i]) + T[i + 2 :]]
            s[partner, j] = 1 if a > 0 else Fraction(a * a - 1, a * a)
    return ExplicitModule(dimension=f, sym_generators=sym)


def specht_character_traces(lam: Partition, budget: int | None = None) -> dict[Partition, Fraction]:
    """Traces of class representatives on the Specht module; the oracle
    against Murnaghan-Nakayama.  With c^2 = (r!/f) c the trace of g is
    (f/r!) tr(L_g R_c), the sum of coeff_h over the x with g x h = x, i.e.
    h = x^-1 g^-1 x: z_rho such x when h has the cycle type rho of g, else
    none.  So it is f z_rho / r! times the sum of c's coefficients on rho.
    The budget counts the terms of c, |R_lam|·|C_lam| = prod lam_i! times
    prod lam'_j! (12 for (2,1,1), 9,216 for (4,4)), read off the running
    product before each factor."""
    r = lam.weight

    def bounds():
        terms = 1
        for part in lam.parts + transpose(lam).parts:
            for k in range(2, part + 1):
                yield terms
                terms *= k
        return terms

    check_budget(bounds(), budget, "Young symmetrizer terms")
    from .characters import centralizer_order, cycle_types

    f = specht_dimension(lam)
    on_class = _sparse((perm_cycle_type(h), c) for c, h in young_symmetrizer(lam))
    return {
        rho: Fraction(f * centralizer_order(rho) * on_class.get(rho, 0), factorial(r))
        for rho in cycle_types(r)
    }


# ---------------------------------------------------------------------------
# Schur functors in the Gelfand-Tsetlin basis


def _gt_patterns(lam: Partition, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """The Gelfand-Tsetlin patterns with top row lam padded to d entries,
    each as its rows from the top: row k (k = d..1) has k entries, and
    lam_{k,i} >= lam_{k-1,i} >= lam_{k,i+1}.  Rows are chosen from the top
    down, and every partial pattern completes, so no step holds more
    patterns than the module's dimension."""
    level = [(tuple(lam[i] for i in range(d)),)]
    for k in range(d - 1, 0, -1):
        level = [
            rows + (below,)
            for rows in level
            for below in itertools.product(
                *(range(rows[-1][i + 1], rows[-1][i] + 1) for i in range(k))
            )
        ]
    return level


def schur_apply(lam: Partition, d: int, budget: int | None = None) -> ExplicitModule:
    """S_lam(Q^d) in the Gelfand-Tsetlin basis of patterns with top row lam,
    which are counted against the hook-content formula, with the
    normalisation of Molev (arXiv:math/0211289, Thm 2.3).  With
    l_ki = lam_ki - i + 1 on row k (i = 1..k):

        E_kk xi = (sum of row k - sum of row k-1) xi,
        E_{k,k+1} xi = -sum_i prod_j (l_ki - l_{k+1,j}) / prod_{j != i} (l_ki - l_kj) xi^{+ki},
        E_{k+1,k} xi = sum_i prod_j (l_ki - l_{k-1,j}) / prod_{j != i} (l_ki - l_kj) xi^{-ki},

    where xi^{+-ki} changes lam_ki by +-1 and is 0 unless still a pattern.
    Each other E_ab is a commutator, [E_{a,b-1}, E_{b-1,b}] above the
    diagonal and [E_{b,b-1}, E_{b-1,a}] below it.  The budget counts the
    patterns times the d^2 generators."""
    dim = schur_gl_dimension(lam, d)
    check_budget(dim * d * d, budget, "GT patterns times gl generators")
    if lam.length > d:
        return ExplicitModule(0)
    patterns = _gt_patterns(lam, d)
    if len(patterns) != dim:
        raise OracleDisagreement(
            f"{len(patterns)} GT patterns with top row {lam} in {d} rows, formula {dim}"
        )
    index = {P: j for j, P in enumerate(patterns)}
    gl = {(a, b): SparseMatrix() for a in range(d) for b in range(d) if abs(a - b) < 2}
    for j, P in enumerate(patterns):
        sums = [0] + [sum(row) for row in reversed(P)]  # rows 0..d
        for a in range(d):
            if sums[a + 1] - sums[a]:
                gl[a, a][j, j] = sums[a + 1] - sums[a]
        for k in range(1, d):
            row = P[d - k]
            l = [x - i for i, x in enumerate(row)]
            above = [x - i for i, x in enumerate(P[d - k - 1])]
            below = [x - i for i, x in enumerate(P[d - k + 1])] if k > 1 else []
            for i in range(k):
                den = prod(l[i] - l[m] for m in range(k) if m != i)
                for step, key, num in (
                    (1, (k - 1, k), -prod(l[i] - x for x in above)),
                    (-1, (k, k - 1), prod(l[i] - x for x in below)),
                ):
                    moved = row[:i] + (row[i] + step,) + row[i + 1 :]
                    t = index.get(P[: d - k] + (moved,) + P[d - k + 1 :])
                    if t is not None and num:
                        gl[key][t, j] = Fraction(num, den)
    for gap in range(2, d):
        for a in range(d - gap):
            b = a + gap
            up, step_up = gl[a, b - 1], gl[b - 1, b]
            gl[a, b] = up @ step_up - step_up @ up
            down, step_down = gl[b - 1, a], gl[b, b - 1]
            gl[b, a] = step_down @ down - down @ step_down
    return ExplicitModule(dim, gl_generators=gl)


# ---------------------------------------------------------------------------
# Weight-space decomposition


def module_weight_multiset(m: ExplicitModule) -> Counter:
    """Multiset of torus weights of a polynomial gl_d module whose torus
    generators E_aa are diagonal in its basis (every constructor here gives
    such a basis); anything else raises NonPolynomialAction."""
    if m.dimension == 0:
        return Counter()
    d = max(k[0] for k in m.gl_generators) + 1 if m.gl_generators else 0
    if d == 0:
        raise InvalidArgs("module carries no gl action")
    diag = [m.gl_generators[(a, a)] for a in range(d)]
    if any(i != j for t in diag for i, j in t):
        raise NonPolynomialAction("torus generators are not diagonal")
    weights = []
    for i in range(m.dimension):
        w = tuple(int(t.get((i, i), 0)) for t in diag)
        if any(t.get((i, i), 0) != w[a] for a, t in enumerate(diag)):
            raise NonPolynomialAction("non-integral torus eigenvalue")
        weights.append(w)
    cnt = Counter(weights)
    for w in cnt:
        if any(x < 0 for x in w):
            raise NonPolynomialAction(f"negative weight {w}")
    return cnt


def gl_decompose(m: ExplicitModule):
    """Decompose a polynomial gl_d module into Schur functors by torus
    weight enumeration and greedy Kostka subtraction.  A nonzero module
    with no gl action, a Specht module say, raises InvalidArgs."""
    cnt = module_weight_multiset(m)
    if m.dimension == 0:
        return IrredDecomposition({})
    from .schur import decompose_weight_multiset

    d = max(k[0] for k in m.gl_generators) + 1
    dec = decompose_weight_multiset(cnt, d)
    # Consistency: dimensions and reconstructed weights must match exactly.
    dim = sum(mult * schur_gl_dimension(lam, d) for lam, mult in dec.items())
    if dim != m.dimension:
        raise OracleDisagreement(f"dimension mismatch {dim} != {m.dimension}")
    return dec
