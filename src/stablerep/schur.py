"""The GL_d half of the package: Kostka numbers (horizontal strips), torus
weights and their greedy Kostka decomposition, which ``labeled``'s Hom side
and ``modules.gl_decompose`` share.  The Schur-functor identities built on
them are in ``functors``, which the Hom side never loads.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache

from .errors import OracleDisagreement
from .partitions import IrredDecomposition, Partition

# ---------------------------------------------------------------------------
# Kostka numbers and torus weights: the weight-space decompositions of
# modules and labeled


@lru_cache(maxsize=None)
def kostka(lam: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam and the given content,
    computed by peeling horizontal strips from the top entry down."""
    if sum(lam) != sum(content):
        return 0
    if not content:
        return 1 if not lam else 0
    last = content[-1]
    rest = content[:-1]
    total = 0
    for mu in _horizontal_strip_removals(lam, last):
        total += kostka(mu, rest)
    return total


def _horizontal_strip_removals(
    lam: tuple[int, ...], size: int
) -> list[tuple[int, ...]]:
    """All partitions mu ⊆ lam with lam/mu a horizontal strip of the given
    size (at most one removed cell per column)."""
    out = []
    k = len(lam)

    def rec(i: int, left: int, rows: list[int]):
        if i == k:
            if left == 0:
                out.append(tuple(x for x in rows if x))
            return
        lower = lam[i + 1] if i + 1 < k else 0
        # Row i of mu must satisfy lower bound lam[i+1] (mu a partition and
        # strip horizontal) and mu[i] <= lam[i]; also mu[i] >= lam[i+1]
        # guarantees no two removed cells share a column.
        hi = min(lam[i], (rows[-1] if rows else lam[i]))
        for v in range(hi, lower - 1, -1):
            removed = lam[i] - v
            if removed > left:
                continue
            rows.append(v)
            rec(i + 1, left - removed, rows)
            rows.pop()

    rec(0, size, [])
    return out


@lru_cache(maxsize=None)
def _compositions(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The weights of total n in d variables (stars and bars), in
    lexicographic order; one empty weight at d = 0 when n = 0.  Built once
    per (n, d): decompose_weight_multiset reads them for every shape it
    peels, and fixed_weights for every total up to p."""
    if d == 0:
        return ((),) if n == 0 else ()
    return tuple(
        (first,) + rest for first in range(n + 1) for rest in _compositions(n - first, d - 1)
    )


def _schur_weight_counter(lam: Partition, d: int) -> dict[tuple[int, ...], int]:
    """The weights of S_lam(Q^d) with their multiplicities: {w: K_{lam, w}}
    over the compositions w of |lam| into d parts, zeros left out.  Kostka
    numbers are symmetric in the content, so the cache serves every
    permutation of w from its sorted form."""
    out = {}
    for w in _compositions(lam.weight, d):
        k = kostka(lam.parts, tuple(sorted(w, reverse=True)))
        if k:
            out[w] = k
    return out


def decompose_weight_multiset(cnt: Mapping, d: int) -> IrredDecomposition:
    """Greedy subtraction of Schur weight multisets (Kostka vectors) from a
    symmetric weight multiset; returns {Partition: multiplicity} with signed
    multiplicities allowed (virtual input)."""
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
        for w, k in _schur_weight_counter(lam, d).items():
            nv = rem.get(w, 0) - mult * k
            if nv:
                rem[w] = nv
            else:
                rem.pop(w, None)
    return IrredDecomposition(mults)
