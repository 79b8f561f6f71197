"""Integer closed forms of the injectively labeled family: the Stirling
count ``count_pq``, the orbit counts G_k(n, c) that
``characters.pq_bicharacter`` multiplies per class pair, and the identity
counts ``pq_identity_counts``.  They build no character, so the dimension
table loads no ``characters``; enumeration is the tests' oracle."""

from __future__ import annotations

from functools import lru_cache
from math import comb, perm

from .errors import InvalidArgs

# Injective labels (q labels on distinct blocks): a partition fixed by sigma
# groups sigma's cycles into orbits of k blocks, k dividing each cycle's
# length; an orbit of m cycles is cut into blocks in k^(m-1) ways, and takes
# a k-cycle of tau, if any, in k rotations.  So if each cycle of sigma picks
# a divisor k of its length, N_k of them picking k, (sigma, tau) of cycle
# types (rho, pi) fixes the sum over the picks of prod_k G_k(N_k, c_k(pi)),
#     G_k(N, c) = k^c·sum_j S(N, j)·k^(N-j)·j!/(j-c)!,
# with c_k(pi) the k-cycles of tau and S the Stirling numbers of the second
# kind (the fixed points of E(E+) behind its cycle index; Bergeron, Labelle
# and Leroux, Combinatorial Species and Tree-like Structures, 1998).


def count_pq(p: int, q: int) -> int:
    """Number of injectively q-labeled partitions of {1..p}, without
    enumerating: G_1(p, q), the sum over the part count k of S(p, k)·k!/(k-q)!."""
    if q < 0 or p < 0:
        raise InvalidArgs("p, q must be non-negative")
    return _orbit_ways(1, p, q)


@lru_cache(maxsize=None)
def _orbit_ways(k: int, n: int, c: int) -> int:
    """G_k(n, c): the ways to group n cycles of sigma into orbits of k blocks
    and to put the c k-cycles of tau on distinct orbits, k rotations each."""
    stirling = [1]  # S(m, j) for j = 0..m, starting at m = 0
    for m in range(1, n + 1):
        stirling = [0] + [
            j * (stirling[j] if j < m else 0) + stirling[j - 1] for j in range(1, m + 1)
        ]
    return k**c * sum(s * k ** (n - j) * perm(j, c) for j, s in enumerate(stirling))


def pq_identity_counts(p_max: int, q_max: int) -> dict[tuple[int, int], int]:
    """|injectively q-labeled partitions of {1..p}| for q <= p <= p_max and
    q <= q_max, not by the Stirling sum but as
    N(p, q) = p!·q!·[x^p y^q] exp((1 + y)(e^x - 1)), whose x-derivative gives
    N(n, m) = sum_j C(n-1, j-1)·(N(n-j, m) + m·N(n-j, m-1))."""
    if p_max < 0 or q_max < 0:
        raise InvalidArgs("bounds must be non-negative")
    rows = [[1] + [0] * q_max]
    for n in range(1, p_max + 1):
        # At m = 0 the second term is 0 times the row's last entry.
        rows.append([
            sum(comb(n - 1, j - 1) * (rows[n - j][m] + m * rows[n - j][m - 1])
                for j in range(1, n + 1))
            for m in range(q_max + 1)
        ])
    return {(p, q): rows[p][q] for p in range(p_max + 1) for q in range(min(p, q_max) + 1)}
