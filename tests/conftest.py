"""Shared independent oracles.

Everything here is deliberately naive and separate from the library code:
recurrence counters, brute-force enumerations, product formulas, the
rim-hook removal on beta-number lists that the bead moves on a bitmask
replaced, the cell-by-cell Littlewood-Richardson counter that the row-array
one replaced, the Fraction cycle-index engine that the integer one replaced,
and the symmetrizer-image modules that the closed-form Specht and Schur
bases replaced, and the fixed-tensor enumeration that the power-sum traces of
``functors.verify_schur_weyl`` replaced, which the main implementations are
checked against.  Helpers that only the tests call live here too:
``inner_product``, ``scale``, ``external_product``, ``restrict``,
``reconstruct`` and ``decomposition_from_json`` for class functions, the
permutation helpers ``perm_inverse``, ``class_representative``,
``all_perms`` and ``perm_on_index``, the tensor powers
(``tensor_power_module``) and the Coxeter and gl relation checks on
generators, and the labeled-partition action, the splitting map, the
enumerated FW piece (``FWGradedPiece``, the oracle of
``labeled.fixed_weights``), the phi equivariance check, the intertwiner
solve of the Hom dimension on that piece (``intertwiner_solve_dimension``)
and the two dimension cross-checks (``hom_side_total``,
``three_way_dimension_agreement``).  ``build_parser`` is
the argparse parser that the CLI's command-table parser replaced, kept as the
reference for what a command line means.  The hand-written budget loops that
``errors.check_budget``'s bound sequences replaced are kept as the
reference for what each budget admits and how it refuses.
"""

from __future__ import annotations

import argparse
import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, prod


@lru_cache(maxsize=None)
def partition_count_oracle(n: int, maxpart: int | None = None) -> int:
    """p(n) by the elementary bounded-largest-part recurrence."""
    if maxpart is None:
        maxpart = n
    if n == 0:
        return 1
    if maxpart == 0:
        return 0
    return sum(
        partition_count_oracle(n - k, min(k, n - k)) for k in range(1, maxpart + 1)
    )


@lru_cache(maxsize=None)
def mn_oracle(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """chi^lam(rho), rho weakly decreasing, by Murnaghan-Nakayama on
    beta-numbers, every rim hook re-derived with a sort on every call: the
    library's recursion before it cached its rim hooks."""
    if not rho:
        return 1
    r = rho[0]
    rest = rho[1:]
    k = len(lam)
    beta = tuple(lam[i] + (k - 1 - i) for i in range(k))
    total = 0
    bset = set(beta)
    for f in beta:
        g = f - r
        if g < 0 or g in bset:
            continue
        height = sum(1 for x in beta if g < x < f)
        nb = sorted((x if x != f else g) for x in beta)
        nb.reverse()
        new_lam = tuple(
            nb[i] - (k - 1 - i) for i in range(k)
        )
        new_lam = tuple(x for x in new_lam if x > 0)
        total += (-1) ** height * mn_oracle(new_lam, rest)
    return total


def rim_hooks_oracle(lam: tuple[int, ...], r: int) -> list[tuple[int, tuple[int, ...]]]:
    """(sign, lam minus the hook) for every rim hook of length r of lam, on
    beta-number lists: the library's rim-hook step before it moved beads on
    a bitmask.

    On the beta-numbers b_i = lam_i + (k-1-i), removing an r-hook moves some
    b_i to the free value b_i - r >= 0.  If rows i+1..j-1 hold the
    beta-numbers passed over, those rows lose one cell and shift up, row j-1
    gets lam_i - r + (j-1-i), and the sign is (-1)^(j-1-i), the hook having
    j-i rows."""
    k = len(lam)
    beta = [x + k - 1 - i for i, x in enumerate(lam)]
    taken = set(beta)
    out = []
    for i, b in enumerate(beta):
        if b < r or b - r in taken:
            continue
        j = i + 1
        while j < k and beta[j] > b - r:
            j += 1
        nu = lam[:i] + tuple(x - 1 for x in lam[i + 1 : j])
        nu += (lam[i] - r + j - 1 - i,) + lam[j:]
        out.append(((-1) ** (j - 1 - i), tuple(x for x in nu if x)))
    return out


def lr_tableaux_count_oracle(outer, inner, content) -> int:
    """Littlewood-Richardson tableaux of the skew shape outer/inner, inner
    inside outer, with a Partition content, filled cell by cell through an
    (i, j) dict: the library's counter before it filled row arrays."""
    cells = [(i, j) for i in range(len(outer)) for j in range(outer[i] - 1, inner[i] - 1, -1)]
    n = len(content)
    if outer.weight - inner.weight != content.weight:
        return 0

    filling: dict[tuple[int, int], int] = {}

    def ok(i: int, j: int, v: int, counts: list[int]) -> bool:
        # Semistandard: rows weakly increase, columns strictly increase.
        # Cells are visited right-to-left within a row, top to bottom, so
        # the right and upper neighbours are already filled.
        if (i, j + 1) in filling and v > filling[(i, j + 1)]:
            return False
        if (i - 1, j) in filling and filling[(i - 1, j)] >= v:
            return False
        if counts[v] + 1 > content[v]:
            return False
        # Lattice condition on the reverse reading word, which is read in
        # exactly our cell order.
        if v > 0 and counts[v] + 1 > counts[v - 1]:
            return False
        return True

    def rec(idx: int, counts: list[int]) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        total = 0
        for v in range(n):
            if ok(i, j, v, counts):
                filling[(i, j)] = v
                counts[v] += 1
                total += rec(idx + 1, counts)
                counts[v] -= 1
                del filling[(i, j)]
        return total

    return rec(0, [0] * n)


def syt_count_oracle(lam: tuple[int, ...]) -> int:
    """Standard Young tableaux by brute-force growth: add cells 1..n one at
    a time, keeping the shape a partition at every step."""
    n = sum(lam)

    def grow(shape: tuple[int, ...], k: int) -> int:
        if k == n:
            return 1
        total = 0
        for i in range(len(lam)):
            row = shape[i] if i < len(shape) else 0
            if i == 0:
                above = n + 1
            else:
                above = shape[i - 1] if i - 1 < len(shape) else 0
            if row < lam[i] and row < above:
                new = list(shape) + [0] * (i + 1 - len(shape))
                new[i] += 1
                total += grow(tuple(new), k + 1)
        return total

    return grow((), 0)


def weyl_dimension_oracle(lam: tuple[int, ...], d: int) -> int:
    """GL_d irreducible dimension by the Weyl product formula."""
    if len(lam) > d:
        return 0
    l = list(lam) + [0] * (d - len(lam))
    num = den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= l[i] - l[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


@lru_cache(maxsize=None)
def bell_oracle(n: int) -> int:
    """Bell numbers by the binomial recurrence."""
    if n == 0:
        return 1
    return sum(comb(n - 1, k) * bell_oracle(k) for k in range(n))


def set_partitions_brute(p: int) -> list[tuple[tuple[int, ...], ...]]:
    """Set partitions of {0..p-1} by filtering restricted-growth strings."""
    out = []
    for code in itertools.product(range(p), repeat=p):
        if p and code[0] != 0:
            continue
        if any(code[i] > max(code[:i], default=-1) + 1 for i in range(1, p)):
            continue
        blocks: dict[int, list[int]] = {}
        for x, b in enumerate(code):
            blocks.setdefault(b, []).append(x)
        out.append(tuple(tuple(b) for b in blocks.values()))
    return out if p else [()]


def series_coefficient_oracle(factors: list[tuple[int, int]], n: int) -> int:
    """Coefficient of u^n in prod (1 - u^step)^(-mult), multiplied out
    term by term with plain lists."""
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[0] = Fraction(1)
    for step, mult in factors:
        for _ in range(mult):
            # multiply by 1/(1-u^step) = 1 + u^step + u^{2 step} + ...
            new = list(coeffs)
            for i in range(step, n + 1):
                new[i] += new[i - step]
            coeffs = new
    assert coeffs[n].denominator == 1
    return int(coeffs[n])


def dense_rank_oracle(entries) -> int:
    """Rank of a list of rows of rationals by dense elimination over
    Fraction: clear each column below its first nonzero entry."""
    rows = [[Fraction(x) for x in row] for row in entries]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot = rows[rank]
        for r in rows[rank + 1 :]:
            f = r[c] / pivot[c]
            r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def dense_matrix_oracle(m: dict, n: int) -> list[list]:
    """The n x n dense rows of a sparse {(row, col): value} matrix."""
    return [[m.get((i, j), 0) for j in range(n)] for i in range(n)]


def dense_product_oracle(a: list[list], b: list[list]) -> list[list]:
    """The product of two dense matrices, each entry the plain sum of row
    times column."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def specht_trace_oracle(c: list[tuple[int, tuple[int, ...]]], g: tuple[int, ...]) -> int:
    """tr(L_g R_c) on the group algebra Q[Sigma_r], by counting fixed
    points: the sum of coeff over the terms (coeff, h) of c and the
    permutations x with g x h = x.  Permutations are image tuples composed
    as (a b)(i) = a(b(i))."""
    def compose(a, b):
        return tuple(a[i] for i in b)

    return sum(
        coeff
        for coeff, h in c
        for x in itertools.permutations(range(len(g)))
        if compose(compose(g, x), h) == x
    )


def permutation_bicharacter(p: int, q: int, source: str = "general", budget: int | None = None):
    """Fixed-point character of Sigma_p x Sigma_q by enumeration: 'general'
    for labeled partitions with repeatable labels, 'pq' for the injectively
    labeled family.  The oracle for the cycle-index closed forms.

    Each object is encoded once as two integer tuples, the block of every
    element and the label of its block, and each class pair's
    representatives once as tables; every object is then tested once per
    class pair.  (sigma, tau) fixes an object when e -> sigma(e) maps blocks
    to blocks (the pairs (block of e, block of sigma(e)) are as many as the
    blocks) and the label of sigma(e) is tau of the label of e."""
    from stablerep.characters import ClassFunction, cycle_types
    from stablerep.labeled import enumerate_general, enumerate_pq

    if source == "general":
        objs = enumerate_general(p, q, budget)
    elif source == "pq":
        objs = enumerate_pq(p, q, budget)
    else:
        raise ValueError(f"unknown source {source!r}")
    codes = []
    for x in objs:
        block, label = [0] * p, [0] * p
        for i, (part, lab) in enumerate(zip(x.parts, x.labels)):
            for e in part:
                block[e], label[e] = i, lab
        codes.append((tuple(block), tuple(label), len(x.parts)))
    vals = {}
    for s in cycle_types(p):
        sig = class_representative(s)
        for t in cycle_types(q):
            relabel = (0,) + tuple(x + 1 for x in class_representative(t))
            vals[(s, t)] = sum(
                1
                for block, label, blocks in codes
                if tuple(map(label.__getitem__, sig)) == tuple(map(relabel.__getitem__, label))
                and len(set(zip(block, map(block.__getitem__, sig)))) == blocks
            )
    return ClassFunction((p, q), vals)


# ---------------------------------------------------------------------------
# The Fraction cycle-index engine: the closed forms before they were scaled
# to integers, with every coefficient of x^rho y^pi the plain rational one.


def _fraction_cycle_index_log(j: int, q_max: int) -> dict:
    """x-weight j part of the exponent of Z_F, dropping y_k for k > q_max."""
    from stablerep.characters import centralizer_order
    from stablerep.partitions import enumerate_partitions

    out: dict = {}
    for k in range(1, j + 1):
        if j % k:
            continue
        for lam in enumerate_partitions(j // k):
            c = Fraction(1, k * centralizer_order(lam))
            xs = tuple(k * s for s in lam)
            keys = [(xs, ())] + ([(xs, (k,))] if k <= q_max else [])
            for key in keys:
                out[key] = out.get(key, 0) + c
    return out


def _fraction_exp_series(logs: list[dict], q_max: int) -> list[dict]:
    """Pieces of x-weight 0..len(logs)-1 of Z = exp(A), given the x-weight
    pieces A_j = logs[j] (logs[0] is ignored), truncated at y-weight q_max,
    by the degree recurrence n*Z_n = sum_j j*A_j*Z_{n-j}."""
    def merge(a, b):
        return tuple(sorted(a + b, reverse=True))

    terms = [[(m, sum(m[1]), j * c) for m, c in a.items()] for j, a in enumerate(logs)]
    z: list[dict] = [{((), ()): Fraction(1)}]
    for n in range(1, len(logs)):
        acc: dict = {}
        for j in range(1, n + 1):
            for (ax, ay), ay_weight, a in terms[j]:
                for (bx, by), b in z[n - j].items():
                    if ay_weight + sum(by) > q_max:
                        continue
                    key = (merge(ax, bx), merge(ay, by))
                    acc[key] = acc.get(key, 0) + a * b
        z.append({m: c / n for m, c in acc.items()})
    return z


def pq_bicharacter_oracle(p: int, q: int):
    """pq_bicharacter in Fraction arithmetic: z_rho·z_pi·[x^rho y^pi] Z_F."""
    from stablerep.characters import ClassFunction, centralizer_order, cycle_types

    logs = [_fraction_cycle_index_log(j, q) for j in range(p + 1)]
    top = _fraction_exp_series(logs, q)[p]
    return ClassFunction((p, q), {
        (s, t): top.get((s.parts, t.parts), 0) * centralizer_order(s) * centralizer_order(t)
        for s in cycle_types(p)
        for t in cycle_types(q)
    })


def general_bicharacter_oracle(p: int, q: int):
    """general_bicharacter in Fraction arithmetic: z_rho·[x^rho] Z_tau, with
    f_k/k added at x_k for the f_k labels that tau^k fixes."""
    from stablerep.characters import ClassFunction, centralizer_order, cycle_types

    vals = {}
    for t in cycle_types(q):
        logs = [_fraction_cycle_index_log(j, 0) for j in range(p + 1)]
        for k in range(1, p + 1):
            f_k = sum(c for c in t.parts if k % c == 0)
            logs[k][((k,), ())] += Fraction(f_k, k)
        top = _fraction_exp_series(logs, 0)[p]
        for s in cycle_types(p):
            vals[(s, t)] = top.get((s.parts, ()), 0) * centralizer_order(s)
    return ClassFunction((p, q), vals)


def pq_identity_counts_oracle(p_max: int, q_max: int) -> dict:
    """pq_identity_counts in Fraction arithmetic: p!·q!·[x_1^p y_1^q] Z_F."""
    logs = [_fraction_cycle_index_log(j, q_max) for j in range(p_max + 1)]
    z = _fraction_exp_series(logs, q_max)
    return {
        (p, q): z[p].get(((1,) * p, (1,) * q), 0) * factorial(p) * factorial(q)
        for p in range(p_max + 1)
        for q in range(min(p, q_max) + 1)
    }


# ---------------------------------------------------------------------------
# Class-function helpers only the tests call


def inner_product(a, b) -> Fraction:
    """<a, b> of two class functions on Sigma_r, or of two on Sigma_p x
    Sigma_q: the sum over the classes of class size times a·b, over the
    group order, the sum of the class sizes."""
    from stablerep.characters import class_size
    from stablerep.errors import InvalidArgs

    if a.degree != b.degree:
        raise InvalidArgs(f"degree mismatch: {a.degree} vs {b.degree}")
    # A class of Sigma_p x Sigma_q is a pair of cycle types.
    sizes = {
        key: class_size(key) if isinstance(a.degree, int) else prod(map(class_size, key))
        for key in a.values
    }
    total = sum(sizes[key] * v * b.values[key] for key, v in a.values.items())
    return Fraction(total, sum(sizes.values()))


def scale(f, c):
    """The class function c·f."""
    from stablerep.characters import ClassFunction

    return ClassFunction(f.degree, {ct: c * v for ct, v in f.values.items()})


def external_product(a, b):
    from stablerep.characters import ClassFunction

    return ClassFunction(
        (a.degree, b.degree),
        {(s, t): x * y for s, x in a.values.items() for t, y in b.values.items()},
    )


def merge_types(a, b):
    from stablerep.partitions import Partition

    return Partition(sorted(tuple(a) + tuple(b), reverse=True))


def restrict(f, i: int, j: int):
    """Restrict a class function on Sigma_{i+j} to Sigma_i x Sigma_j."""
    from stablerep.characters import ClassFunction, cycle_types
    from stablerep.errors import InvalidArgs

    if f.degree != i + j:
        raise InvalidArgs(f"cannot restrict degree {f.degree} to ({i},{j})")
    return ClassFunction(
        (i, j),
        {
            (a, b): f.values[merge_types(a, b)]
            for a in cycle_types(i)
            for b in cycle_types(j)
        },
    )


def reconstruct(dec, degree):
    """Character with the given decomposition; inverse of ``decompose``."""
    from stablerep.characters import ClassFunction, irreducible_character

    out = ClassFunction(degree, {})
    for key, m in dec.items():
        if isinstance(degree, int):
            chi = irreducible_character(key)
        else:
            chi = external_product(*map(irreducible_character, key))
        out = out + scale(chi, m)
    return out


def decomposition_from_json(data: list[dict]):
    """The IrredDecomposition whose to_json is data."""
    from stablerep.partitions import IrredDecomposition, Partition

    return IrredDecomposition({
        Partition.parse(e["key"]) if isinstance(e["key"], str)
        else tuple(Partition.parse(x) for x in e["key"]): e["multiplicity"]
        for e in data
    })


# ---------------------------------------------------------------------------
# Permutations (tuples of images, 0-indexed) only the tests call


def perm_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v] = i
    return tuple(inv)


def class_representative(rho) -> tuple[int, ...]:
    """A permutation with the given cycle type: consecutive cycles."""
    img = []
    start = 0
    for ln in rho:
        img += list(range(start + 1, start + ln)) + [start]
        start += ln
    return tuple(img)


def all_perms(r: int) -> list[tuple[int, ...]]:
    return [tuple(p) for p in itertools.permutations(range(r))]


def _adjacent_transposition(i: int, r: int) -> tuple[int, ...]:
    g = list(range(r))
    g[i], g[i + 1] = g[i + 1], g[i]
    return tuple(g)


def perm_on_index(g: tuple[int, ...], J: tuple[int, ...]) -> tuple[int, ...]:
    """g moves the tensor factor in slot i to slot g(i)."""
    out = [0] * len(J)
    for i, v in enumerate(J):
        out[g[i]] = v
    return tuple(out)


# ---------------------------------------------------------------------------
# Tensor powers and the generator relations, only the tests build or check


def _tensor_basis(d: int, r: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(d), repeat=r))


def _tensor_weight(J, d: int) -> tuple[int, ...]:
    """Torus weight of the basis tensor with indices J: how often each of
    the d indices occurs."""
    w = [0] * d
    for v in J:
        w[v] += 1
    return tuple(w)


def tensor_power_module(d: int, r: int, budget: int | None = None):
    """V^{⊗r} for V = Q^d, with Sigma_r permuting factors and gl_d acting
    by derivations, on sparse generator matrices.  The budget counts the
    entries written: d^r for each of the max(r-1, 0) transpositions and
    r d^(r-1) for each of the d^2 elementary matrices, 64 at d = 2, r = 3;
    E_aa stores fewer, as its entries merge on the diagonal."""
    from stablerep.errors import InvalidArgs, check_budget
    from stablerep.linalg import SparseMatrix, _sparse
    from stablerep.modules import ExplicitModule

    if d < 1 or r < 0:
        raise InvalidArgs(f"bad tensor power parameters d={d}, r={r}")
    check_budget(max(r - 1, 0) * d**r + r * d ** (r + 1), budget, "sparse matrix entries")
    index = {J: i for i, J in enumerate(_tensor_basis(d, r))}
    transpositions = [_adjacent_transposition(i, r) for i in range(r - 1)]
    sym = [
        SparseMatrix({(index[perm_on_index(g, J)], col): 1 for J, col in index.items()})
        for g in transpositions
    ]
    gl = {
        (a, b): SparseMatrix(
            _sparse(
                ((index[J[:t] + (a,) + J[t + 1 :]], col), 1)
                for J, col in index.items()
                for t, v in enumerate(J)
                if v == b
            )
        )
        for a in range(d)
        for b in range(d)
    }
    return ExplicitModule(dimension=d**r, sym_generators=sym, gl_generators=gl)


def check_coxeter_relations(m) -> bool:
    """The sym_generators of an ExplicitModule satisfy the Coxeter relations."""
    from stablerep.linalg import SparseMatrix

    gens = m.sym_generators
    eye = SparseMatrix({(i, i): 1 for i in range(m.dimension)})
    for i, s in enumerate(gens):
        if s @ s != eye:
            return False
        if i + 1 < len(gens):
            lhs = s @ gens[i + 1] @ s
            rhs = gens[i + 1] @ s @ gens[i + 1]
            if lhs != rhs:
                return False
        for j in range(i + 2, len(gens)):
            if s @ gens[j] != gens[j] @ s:
                return False
    return True


def check_gl_relations(m) -> bool:
    """[E_ab, E_cd] = delta_bc E_ad - delta_da E_cb on the gl_generators of
    an ExplicitModule."""
    from stablerep.linalg import SparseMatrix

    E = m.gl_generators
    keys = sorted(E)
    zero = SparseMatrix()
    for (a, b) in keys:
        for (c, d) in keys:
            comm = E[(a, b)] @ E[(c, d)] - E[(c, d)] @ E[(a, b)]
            want = (E[(a, d)] if b == c else zero) - (E[(c, b)] if d == a else zero)
            if comm != want:
                return False
    return True


def rw_prop_rank_oracle(p: int, q: int, d: int) -> tuple[int, dict | None]:
    """Rank of the stacked maps phi_x of the labeled partitions of {1..p}
    over q repeatable labels, by building one sparse row per x, keyed by
    the (tensor, monomial) pairs themselves, and eliminating; with the
    dependency witness keyed as verify_rw_prop prints it (None if the rows
    are independent)."""
    from stablerep.labeled import enumerate_general, phi_columns
    from stablerep.linalg import sparse_rank_and_witness

    objs = enumerate_general(p, q)
    rows = [{col: 1 for col in phi_columns(x, d).items()} for x in objs]
    rank, combo = sparse_rank_and_witness(rows)
    if combo is None:
        return rank, None
    return rank, {str(objs[i]): str(c) for i, c in enumerate(combo) if c}


class FWGradedPiece:
    """Degree-p part (in V) of Sym(⊕_i W_i ⊗ Sym^i V) for the standard
    alphabet with q repeatable singleton labels, over V = Q^d.

    Basis elements are commutative monomials in symbols (label, m) with m a
    monomial in the d variables; the gl_d action is by derivations.  The
    basis that labeled.fixed_weights counts by weight without building."""

    def __init__(self, p: int, q: int, d: int, budget: int | None = None):
        from stablerep.errors import InvalidArgs, OracleDisagreement, check_budget
        from stablerep.functors import sym_algebra_partials

        if p < 0 or q < 0 or d < 1:
            raise InvalidArgs(f"bad parameters p={p}, q={q}, d={d}")
        self.p, self.q, self.d = p, q, d

        def bounds():
            return (yield from sym_algebra_partials(d, q, p))[p]

        # Refused once a running product passes the cap, before any weight
        # table is filled; the series, formed once, checks the enumeration.
        est = check_budget(bounds(), budget)
        self.basis = self._enumerate()
        if len(self.basis) != est:
            raise OracleDisagreement(
                f"enumerated {len(self.basis)} FW monomials, series gives {est}"
            )
        self.index = {m: i for i, m in enumerate(self.basis)}

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def _enumerate(self) -> list:
        from stablerep.labeled import UNLABELED
        from stablerep.partitions import enumerate_partitions

        p, q, d = self.p, self.q, self.d
        symbols_by_size: dict[int, list] = {}
        for i in range(1, p + 1):
            monos = list(itertools.combinations_with_replacement(range(d), i))
            if i == 1:
                symbols_by_size[i] = [
                    (lab, m) for lab in range(q + 1) for m in monos
                ]
            else:
                symbols_by_size[i] = [(UNLABELED, m) for m in monos]
        out = []
        for lam in enumerate_partitions(p):
            mult: dict[int, int] = {}
            for s in lam:
                mult[s] = mult.get(s, 0) + 1
            pools = [
                list(
                    itertools.combinations_with_replacement(
                        symbols_by_size[s], m
                    )
                )
                for s, m in sorted(mult.items())
            ]
            for combo in itertools.product(*pools):
                mono = tuple(sorted(sym for group in combo for sym in group))
                out.append(mono)
        return sorted(out)

    def weight(self, mono) -> tuple[int, ...]:
        return _tensor_weight([v for _, vars_ in mono for v in vars_], self.d)

    def gl_apply(self, a: int, b: int, mono) -> dict:
        """E_{ab} acting by derivation across symbol factors."""
        out: dict = {}
        for pos, (lab, vars_) in enumerate(mono):
            nb = vars_.count(b)
            if nb == 0:
                continue
            i = vars_.index(b)
            newvars = tuple(sorted(vars_[:i] + (a,) + vars_[i + 1 :]))
            newsym = (lab, newvars)
            newmono = tuple(sorted(mono[:pos] + (newsym,) + mono[pos + 1 :]))
            out[newmono] = out.get(newmono, 0) + nb
        return {m: c for m, c in out.items() if c}


def label_action(tau: tuple[int, ...], mono):
    """Sigma_q permuting the singleton labels 1..q of an FW monomial, by
    relabeling every symbol and sorting."""
    return tuple(
        sorted(((tau[lab - 1] + 1) if lab > 0 else 0, vars_) for lab, vars_ in mono)
    )


def fixed_weights_oracle(piece, tau: tuple[int, ...]):
    """Torus-weight multiset of the FW monomials fixed by tau, by scanning
    the enumerated basis.  The oracle for labeled.fixed_weights."""
    from collections import Counter

    return Counter(
        piece.weight(mono) for mono in piece.basis if label_action(tau, mono) == mono
    )


def intertwiner_solve_dimension(p: int, q: int, d: int, budget: int | None = None) -> int:
    """dim Hom_GL((Q^d)^{⊗p}, FW piece) as the kernel dimension of the
    'commutes with every adjacent gl generator and preserves torus weight'
    system, on the enumerated FW piece (built within the budget).  The
    unknowns are the pairs of a tensor J and an FW monomial of weight(J).
    Rank-deficient by design, so no rank mod a prime certifies it: it runs
    over Fraction.  The Hom side's direct solve before Weyl's alternant
    became its second path, now an oracle."""
    from collections import Counter, defaultdict

    from stablerep.linalg import _reduce_rows

    piece = FWGradedPiece(p, q, d, budget)
    src = list(itertools.product(range(d), repeat=p))
    src_weight = {J: _tensor_weight(J, d) for J in src}
    tgt_by_weight: dict[tuple[int, ...], list[int]] = {}
    for i, mono in enumerate(piece.basis):
        tgt_by_weight.setdefault(piece.weight(mono), []).append(i)

    unknowns = [(J, t) for J in src for t in tgt_by_weight.get(src_weight[J], [])]
    uindex = {u: i for i, u in enumerate(unknowns)}

    gens = [(a, a + 1) for a in range(d - 1)] + [(a + 1, a) for a in range(d - 1)]
    rows = []
    for (a, b) in gens:
        for J in src:
            # T(E.J) - E.T(J) = 0, one equation per target coordinate.
            eqs: dict[int, Counter] = defaultdict(Counter)
            for t, v in enumerate(J):
                if v == b:
                    J2 = J[:t] + (a,) + J[t + 1 :]
                    for tgt in tgt_by_weight.get(src_weight[J2], []):
                        eqs[tgt][uindex[(J2, tgt)]] += 1
            for tgt in tgt_by_weight.get(src_weight[J], []):
                for m2, c in piece.gl_apply(a, b, piece.basis[tgt]).items():
                    eqs[piece.index[m2]][uindex[(J, tgt)]] -= c
            rows.extend(eqs.values())  # _reduce_rows drops zero entries
    return len(unknowns) - sum(1 for rest in _reduce_rows(rows) if rest)


def spin_oracle(vectors: list[dict], maps: list, spin: bool):
    """Pick a basis from sparse vectors, in order, and write each map's image
    of every basis vector in that basis, in one sparse elimination.

    The vector at queue position pos is reduced as {(0, k): v, ...,
    (1, -pos): 1}: its tag sorts after every real key and before the tags
    of earlier vectors.  A remainder led by a real key makes the vector a
    new basis vector, and its images under the maps join the queue.  A
    remainder led by its own tag is the vector plus a vanishing combination
    of basis vectors, so its entries on the basis tags are minus the
    vector's coordinates; no pivot sits on a basis tag, so nothing is left
    to solve.  An image led by a real key leaves the span: with spin it
    joins the basis, so the basis spans the smallest map-stable subspace
    containing the first vectors; without spin it raises
    OracleDisagreement.  Returns the basis positions and each map's
    SparseMatrix.  The oracle behind the symmetrizer-image modules below."""
    from stablerep.errors import OracleDisagreement
    from stablerep.linalg import SparseMatrix, _reduce_rows

    vectors = list(vectors)
    picked: list[int] = []
    slot: dict[int, int] = {}  # queue position of a basis vector -> its index
    origin: dict[int, tuple[int, int]] = {}  # image position -> (map, basis index)
    mats = [SparseMatrix() for _ in maps]

    def tagged():
        pos = 0
        while pos < len(vectors):
            yield {**{(0, k): v for k, v in vectors[pos].items()}, (1, -pos): 1}
            pos += 1

    for pos, rest in enumerate(_reduce_rows(tagged())):
        new = min(rest)[0] == 0
        if new:
            if pos in origin and not spin:
                raise OracleDisagreement("a generator image leaves the span of the basis")
            slot[pos] = len(picked)
            for i, m in enumerate(maps):
                origin[len(vectors)] = (i, len(picked))
                vectors.append(m(vectors[pos]))
            picked.append(pos)
        if pos in origin:
            i, j = origin[pos]
            if new:
                mats[i][slot[pos], j] = 1
            else:
                mats[i].update(((slot[-t], j), -c) for (_, t), c in rest.items() if t != -pos)
    return picked, mats


def specht_spin_oracle(lam):
    """The left ideal Q[Sigma_r] c_lam, with Sigma_r acting by left
    multiplication, spun from the Young symmetrizer c_lam under
    s_1..s_{r-1}: the smallest subspace containing c_lam and stable under
    them is the ideal.  Exponential in r; the oracle for the seminormal
    specht_module."""
    from stablerep.modules import ExplicitModule, perm_compose, young_symmetrizer

    r = lam.weight
    maps = [
        lambda v, s=_adjacent_transposition(i, r): {perm_compose(s, x): a for x, a in v.items()}
        for i in range(r - 1)
    ]
    picked, sym = spin_oracle([{g: c for c, g in young_symmetrizer(lam)}], maps, spin=True)
    return ExplicitModule(dimension=len(picked), sym_generators=sym)


def schur_image_oracle(lam, d: int):
    """S_lam(Q^d) as the image of the Young symmetrizer on (Q^d)^{⊗r}, with
    the restricted gl_d action.  Its basis is the sparse images c e_J, in
    the order of J, independent of the earlier ones.  Builds d^r images of
    r! terms each; the oracle for the Gelfand-Tsetlin schur_apply."""
    from stablerep.linalg import _sparse
    from stablerep.modules import ExplicitModule, young_symmetrizer

    def gl_generator(a: int, b: int):
        """E_ab on sparse tensors: each index b in turn becomes a."""
        return lambda v: _sparse(
            (J[:t] + (a,) + J[t + 1 :], c) for J, c in v.items() for t, x in enumerate(J) if x == b
        )

    r = lam.weight
    c = young_symmetrizer(lam)
    images = [
        _sparse((perm_on_index(g, J), coeff) for coeff, g in c)
        for J in itertools.product(range(d), repeat=r)
    ]
    pairs = [(a, b) for a in range(d) for b in range(d)]
    picked, mats = spin_oracle(images, [gl_generator(a, b) for a, b in pairs], spin=False)
    gl = dict(zip(pairs, mats)) if picked else {}
    return ExplicitModule(len(picked), gl_generators=gl)


def standard_tableaux_bfs(lam) -> list[tuple[int, ...]]:
    """The Yamanouchi words of the standard tableaux of shape lam, grown
    breadth-first, every partial word and its row lengths copied at each
    step, in lexicographic order: modules._standard_tableaux before it grew
    them depth-first."""
    level = [((), (0,) * lam.length)]  # (word, row lengths filled)
    for _ in range(lam.weight):
        level = [
            (word + (i,), filled[:i] + (filled[i] + 1,) + filled[i + 1 :])
            for word, filled in level
            for i in range(lam.length)
            if filled[i] < lam[i] and (i == 0 or filled[i - 1] > filled[i])
        ]
    return [word for word, _ in level]


# ---------------------------------------------------------------------------
# Labeled-partition helpers only the tests call


def act(x, sigma: tuple[int, ...], tau: tuple[int, ...] | None = None):
    """A labeled partition with its elements relabeled by sigma and its
    labels 1..q by tau, of the same type as x."""
    moved = [tuple(sorted(sigma[e] for e in part)) for part in x.parts]
    labs = list(x.labels)
    if tau is not None:
        labs = [(tau[l - 1] + 1) if l > 0 else 0 for l in labs]
    order = sorted(range(len(moved)), key=lambda i: moved[i][0])
    # A permutation action keeps one label per part and keeps the labels
    # injective, so the image skips the validating __new__.
    parts, labels = tuple(moved[i] for i in order), tuple(labs[i] for i in order)
    return tuple.__new__(type(x), (parts, labels))


def splitting_map(x):
    """Split each labeled part of an injectively labeled partition into
    singletons carrying that part's label; unlabeled parts pass through."""
    from stablerep.labeled import GeneralLabeledPartition

    parts, labels = [], []
    for part, lab in zip(x.parts, x.labels):
        if lab == 0:
            parts.append(part)
            labels.append(0)
        else:
            for e in part:
                parts.append((e,))
                labels.append(lab)
    order = sorted(range(len(parts)), key=lambda i: parts[i][0])
    return GeneralLabeledPartition(
        tuple(parts[i] for i in order), tuple(labels[i] for i in order)
    )


def check_phi_equivariance(x, d: int, piece) -> bool:
    """Exact intertwining of phi_x with every derivation generator E_ab."""
    from stablerep.labeled import phi_columns

    cols = phi_columns(x, d)
    for a in range(d):
        for b in range(d):
            if a == b:
                continue
            for J in itertools.product(range(d), repeat=x.p):
                lhs: dict = {}
                for t, v in enumerate(J):
                    if v == b:
                        m2 = cols[J[:t] + (a,) + J[t + 1 :]]
                        lhs[m2] = lhs.get(m2, 0) + 1
                if {k: v for k, v in lhs.items() if v} != piece.gl_apply(a, b, cols[J]):
                    return False
    return True


def hom_side_total(p: int, q: int, d: int, budget: int | None = None) -> int:
    """Dimension of the degree-2p graded piece of the symmetric algebra on
    q+1 shifted copies of V plus the higher symmetric powers of V, computed
    by univariate series coefficient and cross-checked, as far as the budget
    admits their weight-table steps and basis, by the total of its
    torus-weight generating function (fixed_weights at the identity) and by
    direct basis enumeration."""
    from stablerep import labeled
    from stablerep.errors import OracleDisagreement, SizeBudgetExceeded
    from stablerep.functors import graded_sym_algebra_dimension

    others = {}
    try:
        labeled._check_weight_table(p, q, d, budget)
        # Unit cycles are orbits only when p >= 1.
        weights = labeled.fixed_weights(p, d, (1,) * q if p else ())
        others["weight generating function"] = sum(weights.values())
        others["enumeration"] = FWGradedPiece(p, q, d, budget).dimension
    except SizeBudgetExceeded:
        pass
    by_series = graded_sym_algebra_dimension(d, q, p)
    for what, total in others.items():
        if total != by_series:
            raise OracleDisagreement(f"{what} gives {total}, series gives {by_series}")
    return by_series


def three_way_dimension_agreement(p: int, q: int, budget: int | None = None):
    """The labeled-partition count (count_general), the Hom-space dimension
    at d = p and the binomial-weighted sum of injectively labeled counts
    agree; a Report."""
    from stablerep.labeled import count_general, enumerate_pq, hom_space_dimension_gl
    from stablerep.report import Report

    by_enum = count_general(p, q)
    by_hom = hom_space_dimension_gl(p, q, p, budget)
    by_induction = sum(comb(q, i) * len(enumerate_pq(p, i, budget)) for i in range(q + 1))
    return Report(
        claim=f"labeled-partition count = Hom dimension = induced sum, p={p}, q={q}",
        left=by_enum,
        right=by_hom,
        passed=by_enum == by_hom == by_induction,
        witnesses={"induced_sum": by_induction},
    )


def tensor_trace_oracle(cycles, d: int):
    """Weight-graded trace of a permutation with the given cycle lengths on
    (Q^d)^{⊗r}, by enumerating the fixed basis tensors: a fixed tensor is
    constant on each cycle, so it is one colour in 0..d-1 per cycle, and it
    contributes x^{weight}.  The enumeration that schur's power-sum product
    replaced: d^ℓ(ρ) colourings."""
    from collections import Counter

    out = Counter()
    for assign in itertools.product(range(d), repeat=len(cycles)):
        w = [0] * d
        for ln, v in zip(cycles, assign):
            w[v] += ln
        out[tuple(w)] += 1
    return out


# The argparse front end of stablerep.cli, verbatim, before COMMANDS replaced
# it, with each func the runner its COMMANDS row names; its check rows are
# the rows that name a module.function, not a runner.
from stablerep.cli import COMMANDS  # noqa: E402

RUNNERS = {row[0]: row[1] for row in COMMANDS}
CHECKS = tuple(row for row in COMMANDS if isinstance(row[1], str) and "._cmd_" not in row[1])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stablerep",
        description="Exact computations with partitions, characters, Schur "
        "functors and stable-cohomology dimension tables.",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON")
    ap.add_argument("--budget", type=int, default=None, help="size budget cap")
    ap.add_argument("--cache", metavar="DIR", default=None, help="result cache dir")
    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    common.add_argument("--cache", metavar="DIR", default=argparse.SUPPRESS)

    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("partitions", help="list partitions of N")
    p.add_argument("n", type=int)
    p.set_defaults(func=RUNNERS["partitions"])

    p = add_parser("char", help="irreducible character table row")
    p.add_argument("lam", metavar="LAMBDA")
    p.set_defaults(func=RUNNERS["char"])

    p = add_parser("lr", help="Littlewood-Richardson coefficient")
    p.add_argument("lam", metavar="LAMBDA")
    p.add_argument("mu", metavar="MU")
    p.add_argument("nu", metavar="NU")
    p.set_defaults(func=RUNNERS["lr"])

    p = add_parser("labeled-partitions", help="enumerate q-labeled partitions")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=RUNNERS["labeled-partitions"])

    p = add_parser("hom-dim", help="equivariant Hom-space dimension")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=RUNNERS["hom-dim"])

    p = add_parser("stable-cohomology", help="stable cohomology calculator")
    p.add_argument("p", type=int, nargs="?", default=None)
    p.add_argument("q", type=int, nargs="?", default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--table", type=int, nargs=2, metavar=("PMAX", "QMAX"))
    p.set_defaults(func=RUNNERS["stable-cohomology"])

    verify = add_parser("verify", help="run a structural verification")
    verify = verify.add_subparsers(dest="what", required=True)
    for command, check, params, help_ in CHECKS:
        *group, name = command.split()
        p = (verify if group else sub).add_parser(name, parents=[common], help=help_)
        params = params.split()
        for param in params:
            p.add_argument(param, type=str if param == "LAMBDA" else int)
        p.set_defaults(func=check, check=check, params=params)
    return ap


# The budget checks of stablerep before errors.check_budget read bound
# sequences, verbatim; the ones that were inline in specht_module and
# specht_character_traces are wrapped in a function each.  They name the
# package's errors but none of its budget code.
from stablerep.errors import DEFAULT_BUDGET, InvalidArgs, SizeBudgetExceeded  # noqa: E402
from stablerep.partitions import hook_lengths, transpose  # noqa: E402
from stablerep.functors import _sym_algebra_factors, series_mul  # noqa: E402


def check_budget(needed: int, budget: int | None, what: str = "ambient dimension"):
    cap = DEFAULT_BUDGET if budget is None else budget
    if needed > cap:
        raise SizeBudgetExceeded(needed, cap, what)


@lru_cache(maxsize=None)
def partition_count(n: int, cap: int | None = None) -> int | None:
    """p(n), the number of partitions of n, without enumerating them: Euler's
    pentagonal-number recurrence p(m) = sum_k (-1)^(k+1) (p(m - k(3k-1)/2)
    + p(m - k(3k+1)/2)), filled bottom-up over m = 0..n in integers.  With a
    cap, None as soon as some p(m) exceeds it: p is nondecreasing, so then
    p(n) > cap, and the fill stops before the numbers grow long."""
    if n < 0:
        raise InvalidArgs(f"n must be non-negative, got {n}")
    counts: list[int] = []
    for m in range(n + 1):
        total, k = int(m == 0), 1  # p(0) = 1, an empty sum
        while k * (3 * k - 1) // 2 <= m:
            term = counts[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                term += counts[m - k * (3 * k + 1) // 2]
            total += term if k % 2 else -term
            k += 1
        if cap is not None and total > cap:
            return None
        counts.append(total)
    return counts[n]


def check_class_budget(budget: int | None, *degrees: int, what: str = "class pairs"):
    """Refuse when the classes of the product of Sigma_n over n in degrees,
    prod p(n) of them, exceed the budget: counted before any class is listed,
    each p(n) only up to the cap."""
    cap = DEFAULT_BUDGET if budget is None else budget
    counts = [partition_count(n, cap) for n in degrees]
    if None in counts:
        raise SizeBudgetExceeded(None, cap, what)
    check_budget(prod(counts), cap, what)


def specht_dimension_up_to(lam, cap: int) -> int | None:
    """f^lam by the hook-length formula with no factorial formed, or None
    once it is known to exceed cap.  With h_1 <= h_2 <= ... the hook lengths
    in order, f^lam = prod_k k / h_k, kept in lowest terms.  Each factor is
    at least 1: the arm and leg of a cell of hook h hold h - 1 cells of
    smaller hook, so h_k <= k.  So every partial product bounds f^lam from
    below, and the product stops once one passes the cap with factors
    left."""
    num = den = 1
    for k, h in enumerate(sorted(hook_lengths(lam).values()), 1):
        if num > cap * den:
            return None
        num, den = num * k, den * h
        g = gcd(num, den)
        num, den = num // g, den // g
    return num


def specht_module_budget(lam, budget: int | None = None):
    """The budget check at the head of specht_module."""
    r = lam.weight
    cap = DEFAULT_BUDGET if budget is None else budget
    unit = "standard Young tableaux times generators"
    f = specht_dimension_up_to(lam, max(cap, 1))
    if f is None:
        raise SizeBudgetExceeded(None, cap, unit)
    check_budget(f * max(r - 1, 0), cap, unit)


def young_symmetrizer_terms_budget(lam, budget: int | None = None):
    """The Young symmetrizer term loop at the head of
    specht_character_traces."""
    cap = DEFAULT_BUDGET if budget is None else budget
    terms = 1
    for part in lam.parts + transpose(lam).parts:
        for k in range(2, part + 1):
            if terms > cap:
                raise SizeBudgetExceeded(None, cap, "Young symmetrizer terms")
            terms *= k
    check_budget(terms, cap, "Young symmetrizer terms")


def _check_sym_algebra_budget(d: int, q: int, p: int, budget: int | None):
    """Refuse when graded_sym_algebra_dimension(d, q, p), an ambient
    dimension, passes the cap, and stop the product as soon as its degree-p
    coefficient has passed it: each factor has constant term 1 and
    nonnegative coefficients, so that coefficient never falls as factors are
    multiplied in, and the refusal is exact."""
    cap = DEFAULT_BUDGET if budget is None else budget
    partial = [1] + [0] * p
    for factor in _sym_algebra_factors(d, q, p):
        if partial[p] > cap:
            raise SizeBudgetExceeded(None, cap)
        partial = series_mul(partial, factor, p)
    check_budget(partial[p], cap)


def _check_series_steps(p: int, linear: bool, budget: int | None):
    """Refuse when step1_dimension_identity's two series, truncated at p,
    would take more multiply-adds than the budget.  series_mul walks only
    the nonzero entries of a factor (1 - u^i)^(-m), its multiples of i, so
    the factor costs at most S(i) = sum over n <= p of (n // i + 1) steps,
    which is p + 1 + i*k*(k-1)/2 + r*k with p + 1 = k*i + r.  Each series
    has the factors i = 1..p, and the direct one also the linear summands'
    i = 1 when q*d > 0.  Every S(i) is at least p + 1, so the sum stops
    once it passes the cap, before it grows long."""
    cap = DEFAULT_BUDGET if budget is None else budget
    unit = "series steps"
    steps = (p + 1) * (p + 2) // 2 if linear and p >= 0 else 0
    for i in range(1, p + 1):
        if steps > cap:
            raise SizeBudgetExceeded(None, cap, unit)
        k, r = divmod(p + 1, i)
        steps += 2 * (p + 1 + i * k * (k - 1) // 2 + r * k)
    check_budget(steps, cap, unit)


def _check_lr_evaluations(lam: tuple[int, ...], budget: int | None):
    """Refuse when split_extension_filtration_check would evaluate more LR
    coefficients than the budget: one per mu ⊆ lam and nu ⊢ |lam| - |mu|,
    so sum over k of N_k·p(|lam| - k), with N_k the subdiagrams of weight k
    counted row by row without listing them.  The empty subdiagram alone
    takes p(|lam|), which is counted first, only up to the cap."""
    unit = "LR coefficient evaluations"
    n = sum(lam)
    check_class_budget(budget, n, what=unit)
    # (last row, weight) -> subdiagrams of the rows so far
    ends = {(lam[0] if lam else 0, 0): 1}
    for part in lam:
        step: dict[tuple[int, int], int] = {}
        for (last, k), c in ends.items():
            for v in range(min(last, part) + 1):
                step[v, k + v] = step.get((v, k + v), 0) + c
        ends = step
    check_budget(sum(c * partition_count(n - k) for (_, k), c in ends.items()), budget, unit)
