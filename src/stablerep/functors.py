"""The Schur-functor identities: Littlewood-Richardson numbers (lattice
skew tableaux), the graded dimensions of Sym(V[2]^{⊕q} ⊕ Sym^{>0}(V[2]))
with the step-1 identity on them, and the Cauchy, Schur-Weyl and
split-extension checks, which compare ``schur``'s weight multisets and
dimensions and build no explicit module.  Only
``verify_schur_weyl`` needs S_n characters, and it imports ``characters``
itself; each check imports its ``Report`` itself, so ``lr``, whose runner
``_cmd_lr`` is here, loads no ``report``."""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import comb
from operator import gt

from .errors import InvalidArgs, check_budget, final_count
from .partitions import (
    Partition, enumerate_partitions, partition_count, partition_counts,
    schur_gl_dimension, specht_dimension, transpose,
)
from .schur import _schur_weight_counter

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .report import Report

# ---------------------------------------------------------------------------
# Littlewood-Richardson rule


def _lr_fillings(outer: tuple, inner: tuple, content: tuple) -> int:
    """Number of Littlewood-Richardson tableaux of the skew shape
    outer/inner, part tuples with |outer/inner| = |content|: semistandard
    fillings with the given content whose reverse reading word is a lattice
    word.  Each row of outer is an int array; cells are filled in the
    reverse reading order, right to left within a row and rows top to
    bottom, so a cell's right neighbour and the cell above it are already
    filled, and the lattice condition is checked on the counts of the
    entries read so far."""
    n = len(content)
    inner = inner + (0,) * (len(outer) - len(inner))
    rows = [[0] * w for w in outer]
    # Per cell: its row, its column, whether its right neighbour is in the
    # skew shape, and the row above when the cell above is.
    cells = [
        (rows[i], j, j + 1 < w, rows[i - 1] if i and j >= inner[i - 1] else None)
        for i, w in enumerate(outer)
        for j in range(w - 1, inner[i] - 1, -1)
    ]
    counts = [0] * n

    def rec(k: int) -> int:
        if k == len(cells):
            return 1
        row, j, right, above = cells[k]
        total = 0
        # Semistandard: at most the right neighbour, above the cell above.
        for v in range(above[j] + 1 if above else 0, row[j + 1] + 1 if right else n):
            c = counts[v]
            if c < content[v] and (not v or c < counts[v - 1]):
                row[j] = v
                counts[v] = c + 1
                total += rec(k + 1)
                counts[v] = c
        return total

    return rec(0)


@lru_cache(maxsize=None)
def _lr(lam: tuple, mu: tuple, nu: tuple) -> int:
    if sum(mu) + sum(nu) != sum(lam) or len(mu) > len(lam) or any(map(gt, mu, lam)):
        return 0
    return _lr_fillings(lam, mu, nu)


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu,nu}."""
    return _lr(lam.parts, mu.parts, nu.parts)


def _cmd_lr(args, *shapes: str) -> str:
    """The lr command: the LR coefficient c^nu_{lambda mu}."""
    lam, mu, nu = (Partition.parse(x) for x in shapes)
    c = lr_coefficient(lam, mu, nu)
    if args.json:
        import json

        return json.dumps({"lambda": str(lam), "mu": str(mu), "nu": str(nu), "coefficient": c})
    return str(c)


# ---------------------------------------------------------------------------
# Graded symmetric-algebra dimensions and the step-1 identity


def sym_dimension(d: int, i: int) -> int:
    """dim Sym^i(Q^d)."""
    if d == 0:
        return 1 if i == 0 else 0
    return comb(d + i - 1, i)


def series_mul(a: list[int], b: list[int], trunc: int) -> list[int]:
    """The product of two series truncated at trunc, walking only the
    nonzero entries of both: a factor (1 - u^step)^(-mult) is nonzero at
    the multiples of step alone."""
    out = [0] * (trunc + 1)
    terms = [(j, y) for j, y in enumerate(b[: trunc + 1]) if y]
    for i, x in enumerate(a[: trunc + 1]):
        if x:
            for j, y in terms:
                if i + j > trunc:
                    break
                out[i + j] += x * y
    return out


def series_geom_power(step: int, mult: int, trunc: int) -> list[int]:
    """Truncated series of (1 - u^step)^(-mult)."""
    out = [0] * (trunc + 1)
    for k in range(0, trunc // step + 1):
        out[k * step] = comb(mult + k - 1, k)
    return out


def _sym_algebra_factors(d: int, q: int, trunc: int):
    """The factors (1 - u^i)^(-m) of the truncated series (in u = t^2) of
    Sym(q linear d-dim summands + Sym^{i>=1}(Q^d) summands), each built
    when it is asked for: the q*d linear generators, then Sym^i(Q^d)."""
    if q * d:
        yield series_geom_power(1, q * d, trunc)
    for i in range(1, trunc + 1):
        yield series_geom_power(i, sym_dimension(d, i), trunc)


def sym_algebra_partials(d: int, q: int, trunc: int):
    """The running products of _sym_algebra_factors, a bound sequence (see
    errors.check_budget) of the series' degree-trunc coefficient, returning
    the whole series: each factor has constant term 1 and nonnegative
    coefficients, so that coefficient never falls as factors come in."""
    out = [1] + [0] * trunc
    for factor in _sym_algebra_factors(d, q, trunc):
        yield out[trunc]
        out = series_mul(out, factor, trunc)
    return out


def graded_sym_algebra_series(d: int, q: int, trunc: int) -> list[int]:
    """Truncated series (in u = t^2) of
    Sym( q linear d-dim summands  +  Sym^{i>=1}(Q^d) summands )."""
    return final_count(sym_algebra_partials(d, q, trunc))


def graded_sym_algebra_dimension(d: int, q: int, p: int) -> int:
    """Coefficient of t^{2p} in the graded dimension series of
    Sym(V[2]^{⊕q} ⊕ Sym^{>0}(V[2])) with dim V = d.  All generators sit in
    even degrees, so no signs enter."""
    if p < 0:
        return 0
    return graded_sym_algebra_series(d, q, p)[p]


def step1_dimension_identity(p: int, q: int, d: int, budget: int | None = None) -> Report:
    """Collapsing-spectral-sequence identity: the q-fold linear summands can
    be split off, so the graded piece equals the convolution of the q=0
    series with the symmetric powers of the q*d linear generators.  The
    direct series and the q=0 one are built once each, within the budget's
    series steps (_series_steps), counted before either is built.
    Needs q >= 0 and d >= 1; p < 0 gives an empty piece on both sides."""
    if q < 0 or d < 1:
        raise InvalidArgs(f"bad parameters p={p}, q={q}, d={d}")
    check_budget(_series_steps(p, q * d > 0), budget, "series steps")
    direct = graded_sym_algebra_dimension(d, q, p)
    base = graded_sym_algebra_series(d, 0, p) if p >= 0 else []
    convolved = sum(base[p - k] * sym_dimension(q * d, k) for k in range(p + 1))
    from .report import Report

    return Report(
        claim=f"graded-piece dimension identity, p={p}, q={q}, d={d}",
        left=direct,
        right=convolved,
        passed=direct == convolved,
        witnesses={},
    )


def _series_steps(p: int, linear: bool):
    """The bound sequence (see errors.check_budget) of the multiply-adds
    that step1_dimension_identity's two series, truncated at p, take.
    series_mul walks only the nonzero entries of a factor (1 - u^i)^(-m),
    its multiples of i, so the factor costs at most S(i) = sum over n <= p
    of (n // i + 1) steps, which is p + 1 + i*k*(k-1)/2 + r*k with
    p + 1 = k*i + r.  Each series has the factors i = 1..p, and the direct
    one also the linear summands' i = 1 when q*d > 0; the sum before each i
    is a bound."""
    steps = (p + 1) * (p + 2) // 2 if linear and p >= 0 else 0
    for i in range(1, p + 1):
        yield steps
        k, r = divmod(p + 1, i)
        steps += 2 * (p + 1 + i * k * (k - 1) // 2 + r * k)
    return steps


# ---------------------------------------------------------------------------
# Schur-functor checks


def verify_cauchy(r: int, dV: int, dW: int, budget: int | None = None) -> Report:
    """Lambda^r(V ⊗ W) vs the sum of S_lam(V) ⊗ S_{lam^T}(W): dimensions
    and full bi-weight multisets.  Needs r >= 0, dV >= 1 and dW >= 1."""
    if r < 0 or dV < 1 or dW < 1:
        raise InvalidArgs(f"bad parameters r={r}, dV={dV}, dW={dW}")
    left_dim = comb(dV * dW, r)
    check_budget(left_dim, budget)
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
    from .report import Report

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


def _power_sum_product(parts: tuple[int, ...], d: int) -> Counter:
    """prod over the parts k of the power sums p_k(x_1..x_d), as {weight:
    coefficient}: the weight-graded trace of a permutation with these cycle
    lengths on (Q^d)^{⊗r}, one factor multiplied in per cycle."""
    out = Counter({(0,) * d: 1})
    for k in parts:
        step: Counter = Counter()
        for w, c in out.items():
            for a in range(d):
                step[w[:a] + (w[a] + k,) + w[a + 1 :]] += c
        out = step
    return out


def verify_schur_weyl(r: int, d: int, budget: int | None = None) -> Report:
    """V^{⊗r} vs the sum of S_lam(V) ⊠ S^lam: for every cycle type the
    weight-graded trace of a permutation matches the character-side sum,
    as exact polynomials in the torus variables.  Needs r >= 0 and d >= 1.

    The constituents witness is set by construction, not read off the
    traces: it is {λ: 1} for every λ ⊢ r with ℓ(λ) <= d, the decomposition
    the duality asserts.  The trace identity by class is the check."""
    if r < 0 or d < 1:
        raise InvalidArgs(f"bad parameters r={r}, d={d}")
    check_budget(d**r, budget)
    from .characters import cycle_types, irreducible_character
    from .report import Report

    chars = {lam: irreducible_character(lam) for lam in enumerate_partitions(r)}
    weightgens = {lam: _schur_weight_counter(lam, d) for lam in chars}

    all_ok = True
    per_class = {}
    for rho in cycle_types(r):
        # Trace of (permutation with type rho) o diag(x) on V^{⊗r}: fixed
        # tensor indices are constant on cycles, so it is a product of
        # power sums, one per cycle.
        lhs = _power_sum_product(rho.parts, d)
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
         dim S_{lam/mu}(Q^{dA+dC}) * dim S_{mu^T}(Q^{dC}).

    Needs dA >= 1 and dC >= 1.  The budget bounds the LR coefficient
    evaluations (_lr_evaluations), and each hook-content dimension is
    computed once per (partition, d)."""
    if dA < 1 or dC < 1:
        raise InvalidArgs(f"bad parameters dA={dA}, dC={dC}")
    check_budget(_lr_evaluations(lam.parts), budget, "LR coefficient evaluations")
    dim = lru_cache(maxsize=None)(schur_gl_dimension)

    def skew_dim(outer: Partition, inner: Partition, d: int) -> int:
        total = 0
        for nu in enumerate_partitions(outer.weight - inner.weight):
            c = lr_coefficient(outer, inner, nu)
            if c:
                total += c * dim(nu, d)
        return total

    subs = [
        mu
        for k in range(lam.weight + 1)
        for mu in enumerate_partitions(k)
        if lam.contains(mu)
    ]
    lhs_i = dim(lam, dA + dC)
    rhs_i = sum(skew_dim(lam, mu, dA) * dim(mu, dC) for mu in subs)
    lhs_ii = dim(lam, dA)
    rhs_ii = sum(
        (-1) ** mu.weight * skew_dim(lam, mu, dA + dC) * dim(transpose(mu), dC)
        for mu in subs
    )
    passed = lhs_i == rhs_i and lhs_ii == rhs_ii
    from .report import Report

    return Report(
        claim=f"split extension filtration shadow, lam={lam}, dA={dA}, dC={dC}",
        left={"filtration": lhs_i, "euler": lhs_ii},
        right={"filtration": rhs_i, "euler": rhs_ii},
        passed=passed,
        witnesses={"num_subdiagrams": len(subs)},
    )


def _lr_evaluations(lam: tuple[int, ...]):
    """The bound sequence (see errors.check_budget) of the LR coefficients
    split_extension_filtration_check evaluates, one per mu ⊆ lam and
    nu ⊢ |lam| - |mu|: first the fill of p(|lam|), the empty mu's share, then
    sum over k of N_k·p(|lam| - k), N_k the mu of weight k, counted by rows."""
    n = sum(lam)
    yield from partition_counts(n)
    # (last row, weight) -> subdiagrams of the rows so far
    ends = {(lam[0] if lam else 0, 0): 1}
    for part in lam:
        step: dict[tuple[int, int], int] = {}
        for (last, k), c in ends.items():
            for v in range(min(last, part) + 1):
                step[v, k + v] = step.get((v, k + v), 0) + c
        ends = step
    return sum(c * partition_count(n - k) for (_, k), c in ends.items())
