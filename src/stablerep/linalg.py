"""Exact rational linear algebra: one sparse elimination, and the sparse
matrices that hold generator actions.

No floating point anywhere.  ``_reduce_rows`` is the only elimination loop:
forward elimination on {column_key: value} dicts, whose rows are short, over
Fraction or over the integers mod the prime P = 2^61 - 1.  It decides the
stacked-map ranks that no certificate decides (from d = p on,
labeled.verify_rw_prop certifies its rank from the generic tensor J0 and
builds no rows).  ``sparse_rank_and_witness`` keeps a full row rank mod P,
which certifies itself, and otherwise runs one elimination over Fraction
with a tag column per row, which gives the rank and a dependency witness.
``SparseMatrix`` holds the generator matrices of explicit modules as
{(row, col): value} dicts, and multiplies, subtracts and traces them.
Every rank is exact.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import lcm


def _sparse(terms) -> dict:
    """Sum (key, value) terms into a {key: value} vector without zeros."""
    out: dict = {}
    for k, v in terms:
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


class SparseMatrix(dict):
    """A matrix as {(row, col): value} with exact values and no zero stored,
    so equal matrices are equal dicts.  The dimensions are not stored."""

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        rows: dict = {}  # row of other -> its (col, value) entries
        for (k, j), b in other.items():
            rows.setdefault(k, []).append((j, b))
        return SparseMatrix(
            _sparse(((i, j), a * b) for (i, k), a in self.items() for j, b in rows.get(k, ()))
        )

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return SparseMatrix(_sparse([*self.items(), *((k, -v) for k, v in other.items())]))

    def trace(self) -> int | Fraction:
        return sum(v for (i, j), v in self.items() if i == j)


# The Mersenne prime 2^61 - 1.  The rank drops mod P only where P divides
# every maximal minor, and a drop costs only the rational fallback.
MODULAR_PRIME = (1 << 61) - 1


def sparse_rank_and_witness(rows: list[dict]) -> tuple[int, list[Fraction] | None]:
    """Exact rank of sparse rows given as {column_key: value} dicts (keys
    mutually comparable, values exact rationals) and, if they are
    linearly dependent, the coefficients of a non-trivial vanishing
    combination (else None), with at most one elimination over Fraction.

    Each row is scaled by the lcm of its denominators and reduced mod
    MODULAR_PRIME.  A rank mod the prime is a lower bound for the rank over
    Q (a nonzero minor mod the prime is a nonzero integer), so a full row
    rank certifies itself; the first row left with no remainder mod the
    prime ends that pass.  Otherwise row i gets a tag column (1, i)
    sorting after its real columns (0, k), and one pass over all rows
    decides: the rank is the number of remainders that lead with a real
    column, and the first remainder that leads with a tag has no real part
    left, so its tag entries are the combination."""
    if all(_reduce_rows(rows, MODULAR_PRIME)):
        return len(rows), None
    tagged = (
        {**{(0, k): v for k, v in row.items()}, (1, i): 1}
        for i, row in enumerate(rows)
    )
    rank, combo = 0, None
    for rest in _reduce_rows(tagged):
        if min(rest)[0] == 0:
            rank += 1
        elif combo is None:
            combo = [Fraction(0)] * len(rows)
            for (_, i), c in rest.items():
                combo[i] = c
    return rank, combo


def _reduce_rows(rows: Iterable[dict], prime: int | None = None) -> Iterator[dict]:
    """Forward elimination on sparse rows, one row at a time: each row is
    reduced against the pivot rows kept so far, smallest column key first.
    Yields each row's remainder, which leads with a new pivot (kept, scaled
    to lead with 1) or is empty for a dependent row.

    Over Fraction by default; with a prime, over the integers mod it, each
    row first scaled by the lcm of its denominators."""
    echelon: dict = {}  # leading column key -> reduced row dict
    for row in rows:
        if prime is None:
            row = {k: Fraction(v) for k, v in row.items() if v}
        else:
            den = lcm(*(v.denominator for v in row.values()))
            row = {
                k: r
                for k, v in row.items()
                if (r := v.numerator * (den // v.denominator) % prime)
            }
        while row:
            lead = min(row)
            piv = echelon.get(lead)
            if piv is None:
                if prime is None:
                    inv = 1 / row[lead]
                    echelon[lead] = {k: v * inv for k, v in row.items()}
                else:
                    inv = pow(row[lead], -1, prime)
                    echelon[lead] = {k: v * inv % prime for k, v in row.items()}
                break
            f = row[lead]
            for k, v in piv.items():
                nv = row.get(k, 0) - f * v
                if prime is not None:
                    nv %= prime
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        yield row
