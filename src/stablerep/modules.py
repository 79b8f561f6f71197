"""Explicit finite-dimensional rational modules with exact matrix actions.

This is the explicit oracle layer: Specht modules as left ideals spun from
the Young symmetrizer under s_1..s_{r-1} and Schur functors as symmetrizer
images on tensor space, each with its basis and generator matrices read
off one sparse elimination (_spin); Specht characters from the
symmetrizer's coefficients by a centralizer count; weight-space
decomposition of polynomial gl_d actions; and the dimension / trace
verifications for Cauchy's lemma, Schur-Weyl duality and the split
extension filtration.  Every generator matrix is a sparse
linalg.SparseMatrix, and no r! x r! or d^r x d^r dense matrix is built.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .errors import InvalidArgs, NonPolynomialAction, OracleDisagreement, check_budget
from .linalg import SparseMatrix, _reduce_rows, _sparse
from .characters import (
    centralizer_order,
    cycle_types,
    irreducible_character,
    kostka,
    sign_of_class,
)
from .partitions import (
    Partition,
    enumerate_partitions,
    schur_gl_dimension,
    specht_dimension,
    transpose,
)

# ---------------------------------------------------------------------------
# Permutations (tuples of images, 0-indexed)

Perm = tuple[int, ...]


def perm_compose(a: Perm, b: Perm) -> Perm:
    """(a b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def perm_inverse(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v] = i
    return tuple(inv)


def perm_sign(a: Perm) -> int:
    return sign_of_class(perm_cycle_type(a))


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


def class_representative(rho: Partition) -> Perm:
    """A permutation with the given cycle type: consecutive cycles."""
    img = []
    start = 0
    for ln in rho:
        img += list(range(start + 1, start + ln)) + [start]
        start += ln
    return tuple(img)


def _adjacent_transposition(i: int, r: int) -> Perm:
    g = list(range(r))
    g[i], g[i + 1] = g[i + 1], g[i]
    return tuple(g)


def all_perms(r: int) -> list[Perm]:
    return [tuple(p) for p in itertools.permutations(range(r))]


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


@dataclass
class ExplicitModule:
    """A finite-dimensional rational vector space with exact generator
    actions.  sym_generators are the adjacent transpositions s_1..s_{r-1}
    when a symmetric-group action is present; gl_generators map (a, b) to
    the action of the elementary matrix E_{ab} when a polynomial gl_d
    action is present.  Each generator is a SparseMatrix on basis indices
    0..dimension-1."""

    dimension: int
    sym_generators: list[SparseMatrix] = field(default_factory=list)
    gl_generators: dict[tuple[int, int], SparseMatrix] = field(default_factory=dict)
    grading: int | None = None

    def check_coxeter_relations(self) -> bool:
        gens = self.sym_generators
        eye = SparseMatrix({(i, i): 1 for i in range(self.dimension)})
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

    def check_gl_relations(self) -> bool:
        """[E_ab, E_cd] = delta_bc E_ad - delta_da E_cb."""
        E = self.gl_generators
        keys = sorted(E)
        zero = SparseMatrix()
        for (a, b) in keys:
            for (c, d) in keys:
                comm = E[(a, b)] @ E[(c, d)] - E[(c, d)] @ E[(a, b)]
                want = (E[(a, d)] if b == c else zero) - (E[(c, b)] if d == a else zero)
                if comm != want:
                    return False
        return True


# ---------------------------------------------------------------------------
# Tensor powers


def _tensor_basis(d: int, r: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(d), repeat=r))


def perm_on_index(g: Perm, J: tuple[int, ...]) -> tuple[int, ...]:
    """g moves the tensor factor in slot i to slot g(i)."""
    out = [0] * len(J)
    for i, v in enumerate(J):
        out[g[i]] = v
    return tuple(out)


def tensor_power_module(d: int, r: int, budget: int | None = None) -> ExplicitModule:
    """V^{⊗r} for V = Q^d, with Sigma_r permuting factors and gl_d acting
    by derivations, on sparse generator matrices.  The budget counts the
    entries written: d^r for each of the max(r-1, 0) transpositions and
    r d^(r-1) for each of the d^2 elementary matrices, 64 at d = 2, r = 3;
    E_aa stores fewer, as its entries merge on the diagonal."""
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
    return ExplicitModule(dimension=d**r, sym_generators=sym, gl_generators=gl, grading=r)


def _tensor_weight(J, d: int) -> tuple[int, ...]:
    """Torus weight of the basis tensor with indices J: how often each of
    the d indices occurs."""
    w = [0] * d
    for v in J:
        w[v] += 1
    return tuple(w)


# ---------------------------------------------------------------------------
# Spun bases and generator matrices


def _spin(vectors: list[dict], maps: list, spin: bool):
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
    SparseMatrix."""
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


# ---------------------------------------------------------------------------
# Specht modules


def specht_module(lam: Partition, budget: int | None = None) -> ExplicitModule:
    """The left ideal Q[Sigma_r] c_lam, with Sigma_r acting by left
    multiplication, spun from c_lam: the smallest subspace containing c_lam
    and stable under s_1..s_{r-1} is the ideal.  So closure certifies the
    dimension, and the hook formula checks it independently."""
    r = lam.weight
    check_budget(factorial(r), budget, "group algebra dimension")
    maps = [
        lambda v, s=_adjacent_transposition(i, r): {perm_compose(s, x): a for x, a in v.items()}
        for i in range(r - 1)
    ]
    picked, sym = _spin([{g: c for c, g in young_symmetrizer(lam)}], maps, spin=True)
    if len(picked) != specht_dimension(lam):
        raise OracleDisagreement(
            f"spun Specht module of {lam} has dimension {len(picked)}, "
            f"hook formula {specht_dimension(lam)}"
        )
    return ExplicitModule(dimension=len(picked), sym_generators=sym)


def specht_character_traces(lam: Partition, budget: int | None = None) -> dict[Partition, Fraction]:
    """Traces of class representatives on the Specht module; the oracle
    against Murnaghan-Nakayama.  With c^2 = (r!/f) c the trace of g is
    (f/r!) tr(L_g R_c), the sum of coeff_h over the x with g x h = x, i.e.
    h = x^-1 g^-1 x: z_rho such x when h has the cycle type rho of g, else
    none.  So it is f z_rho / r! times the sum of c's coefficients on rho."""
    r = lam.weight
    check_budget(factorial(r), budget, "group algebra dimension")
    f = specht_dimension(lam)
    on_class = _sparse((perm_cycle_type(h), c) for c, h in young_symmetrizer(lam))
    return {
        rho: Fraction(f * centralizer_order(rho) * on_class.get(rho, 0), factorial(r))
        for rho in cycle_types(r)
    }


# ---------------------------------------------------------------------------
# Schur functors on tensor space


def _gl_generator(a: int, b: int):
    """E_ab on sparse tensors: each index b in turn becomes a."""
    return lambda v: _sparse(
        (J[:t] + (a,) + J[t + 1 :], c) for J, c in v.items() for t, x in enumerate(J) if x == b
    )


def schur_apply(lam: Partition, d: int, budget: int | None = None) -> ExplicitModule:
    """S_lam(Q^d) realized as the image of the Young symmetrizer on
    (Q^d)^{⊗r}; carries the restricted gl_d action.  Its basis is the sparse
    images c e_J, in the order of J, independent of the earlier ones: the
    pivot columns of the image matrix."""
    r = lam.weight
    check_budget(d**r, budget)
    c = young_symmetrizer(lam)
    images = [_sparse((perm_on_index(g, J), coeff) for coeff, g in c) for J in _tensor_basis(d, r)]
    pairs = [(a, b) for a in range(d) for b in range(d)]
    picked, mats = _spin(images, [_gl_generator(a, b) for a, b in pairs], spin=False)
    if len(picked) != schur_gl_dimension(lam, d):
        raise OracleDisagreement(
            f"symmetrizer image S_{lam}(Q^{d}) has dimension {len(picked)}, "
            f"formula {schur_gl_dimension(lam, d)}"
        )
    gl = dict(zip(pairs, mats)) if picked else {}
    return ExplicitModule(len(picked), gl_generators=gl, grading=r)


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


def _compositions(n: int, d: int):
    """The weights of total n in d variables (stars and bars), in
    lexicographic order; one empty weight at d = 0 when n = 0."""
    if d == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, d - 1):
            yield (first,) + rest


def decompose_weight_multiset(cnt: Counter, d: int):
    """Greedy subtraction of Schur weight multisets (Kostka vectors) from a
    symmetric weight multiset; returns {Partition: multiplicity} with signed
    multiplicities allowed (virtual input)."""
    from .characters import IrredDecomposition

    rem = {w: int(c) for w, c in cnt.items() if c}
    mults: dict[Partition, int] = {}
    while rem:
        top = max(rem)
        if list(top) != sorted(top, reverse=True):
            raise OracleDisagreement(
                f"lex-maximal weight {top} is not dominant; multiset not "
                "a virtual polynomial character"
            )
        lam = Partition(top)
        mult = rem[top]
        mults[lam] = mults.get(lam, 0) + mult
        for w in _compositions(lam.weight, d):
            # Kostka numbers are symmetric in the content, so the cache
            # serves every permutation of w from its sorted form.
            k = kostka(lam.parts, tuple(sorted(w, reverse=True)))
            if k:
                nv = rem.get(w, 0) - mult * k
                if nv:
                    rem[w] = nv
                else:
                    rem.pop(w, None)
    return IrredDecomposition(mults)


def gl_decompose(m: ExplicitModule):
    """Decompose a polynomial gl_d module into Schur functors by torus
    weight enumeration and greedy Kostka subtraction."""
    from .characters import IrredDecomposition

    if m.dimension == 0:
        return IrredDecomposition({})
    if not m.gl_generators:
        if m.grading in (None, 0):
            return IrredDecomposition({Partition(()): m.dimension})
        raise InvalidArgs("module carries no gl action")
    d = max(k[0] for k in m.gl_generators) + 1
    cnt = module_weight_multiset(m)
    dec = decompose_weight_multiset(cnt, d)
    # Consistency: dimensions and reconstructed weights must match exactly.
    dim = sum(mult * schur_gl_dimension(lam, d) for lam, mult in dec.mults.items())
    if dim != m.dimension:
        raise OracleDisagreement(f"dimension mismatch {dim} != {m.dimension}")
    return dec


# ---------------------------------------------------------------------------
# Verification reports


@dataclass
class Report:
    claim: str
    left: object
    right: object
    passed: bool
    witnesses: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "left": _jsonable(self.left),
            "right": _jsonable(self.right),
            "pass": self.passed,
            "witnesses": _jsonable(self.witnesses),
        }


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, Partition):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "to_json"):
        return x.to_json()
    return x


def verify_cauchy(r: int, dV: int, dW: int, budget: int | None = None) -> Report:
    """Lambda^r(V ⊗ W) vs the sum of S_lam(V) ⊗ S_{lam^T}(W): dimensions
    and full bi-weight multisets."""
    check_budget(comb(dV * dW, r) if r <= dV * dW else 0, budget)
    left_dim = comb(dV * dW, r) if r <= dV * dW else 0
    right_dim = sum(
        schur_gl_dimension(lam, dV) * schur_gl_dimension(transpose(lam), dW)
        for lam in enumerate_partitions(r)
    )

    left_weights: Counter = Counter()
    pairs = list(itertools.product(range(dV), range(dW)))
    for sub in itertools.combinations(pairs, r):
        wv = [0] * dV
        ww = [0] * dW
        for (i, j) in sub:
            wv[i] += 1
            ww[j] += 1
        left_weights[(tuple(wv), tuple(ww))] += 1

    right_weights: Counter = Counter()
    for lam in enumerate_partitions(r):
        lv = _schur_weight_counter(lam, dV)
        lw = _schur_weight_counter(transpose(lam), dW)
        for wv, cv in lv.items():
            for ww, cw in lw.items():
                right_weights[(wv, ww)] += cv * cw

    passed = left_dim == right_dim and left_weights == right_weights
    return Report(
        claim=f"exterior power of tensor product splits, r={r}, dims=({dV},{dW})",
        left=left_dim,
        right=right_dim,
        passed=passed,
        witnesses={
            "weight_multisets_equal": left_weights == right_weights,
            "num_weights": len(left_weights),
        },
    )


def _schur_weight_counter(lam: Partition, d: int) -> Counter:
    out: Counter = Counter()
    for w in _compositions(lam.weight, d):
        k = kostka(lam.parts, w)
        if k:
            out[w] = k
    return out


def verify_schur_weyl(r: int, d: int, budget: int | None = None) -> Report:
    """V^{⊗r} vs the sum of S_lam(V) ⊠ S^lam: for every cycle type the
    weight-graded trace of a permutation matches the character-side sum,
    as exact polynomials in the torus variables."""
    check_budget(d**r, budget)
    chars = {lam: irreducible_character(lam) for lam in enumerate_partitions(r)}
    weightgens = {lam: _schur_weight_counter(lam, d) for lam in chars}

    all_ok = True
    per_class = {}
    for rho in cycle_types(r):
        # Trace of (permutation with type rho) o diag(x) on V^{⊗r}: fixed
        # tensor indices are constant on cycles, contributing x^{weight}.
        lhs: Counter = Counter()
        for assign in itertools.product(range(d), repeat=rho.length):
            w = [0] * d
            for ln, v in zip(rho, assign):
                w[v] += ln
            lhs[tuple(w)] += 1
        rhs: Counter = Counter()
        for lam, ch in chars.items():
            cv = ch.values[rho]
            if cv:
                for w, k in weightgens[lam].items():
                    rhs[w] += cv * k
        rhs = Counter({w: c for w, c in rhs.items() if c})
        ok = lhs == rhs
        per_class[str(rho)] = ok
        all_ok = all_ok and ok

    right = sum(schur_gl_dimension(lam, d) * specht_dimension(lam) for lam in chars)
    recovered = {lam: 1 for lam in chars if schur_gl_dimension(lam, d) > 0}
    return Report(
        claim=f"tensor power decomposes under commuting actions, r={r}, d={d}",
        left=d**r,
        right=right,
        passed=all_ok and d**r == right,
        witnesses={
            "trace_identity_by_class": per_class,
            "constituents": {str(lam): m for lam, m in recovered.items()},
        },
    )


def split_extension_filtration_check(
    lam: Partition, dA: int, dC: int, budget: int | None = None
) -> Report:
    """Dimension shadows of the Schur-functor filtration for a split
    extension with sub of dimension dA and quotient of dimension dC:

    (i)  dim S_lam(Q^{dA+dC}) = sum over mu ⊆ lam of
         dim S_{lam/mu}(Q^{dA}) * dim S_mu(Q^{dC});
    (ii) dim S_lam(Q^{dA}) = alternating sum over mu ⊆ lam of
         dim S_{lam/mu}(Q^{dA+dC}) * dim S_{mu^T}(Q^{dC})."""
    from .characters import lr_coefficient

    def skew_dim(outer: Partition, inner: Partition, d: int) -> int:
        return sum(
            lr_coefficient(outer, inner, nu) * schur_gl_dimension(nu, d)
            for nu in enumerate_partitions(outer.weight - inner.weight)
        )

    subs = [
        mu
        for k in range(lam.weight + 1)
        for mu in enumerate_partitions(k)
        if lam.contains(mu)
    ]
    lhs_i = schur_gl_dimension(lam, dA + dC)
    rhs_i = sum(
        skew_dim(lam, mu, dA) * schur_gl_dimension(mu, dC) for mu in subs
    )
    lhs_ii = schur_gl_dimension(lam, dA)
    rhs_ii = sum(
        (-1) ** mu.weight
        * skew_dim(lam, mu, dA + dC)
        * schur_gl_dimension(transpose(mu), dC)
        for mu in subs
    )
    passed = lhs_i == rhs_i and lhs_ii == rhs_ii
    return Report(
        claim=f"split extension filtration shadow, lam={lam}, dA={dA}, dC={dC}",
        left={"filtration": lhs_i, "euler": lhs_ii},
        right={"filtration": rhs_i, "euler": rhs_ii},
        passed=passed,
        witnesses={"num_subdiagrams": len(subs)},
    )
