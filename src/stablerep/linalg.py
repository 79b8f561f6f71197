"""Exact rational linear algebra: one sparse elimination, and dense
matrices that hold generator actions.

No floating point anywhere.  ``_reduce_rows`` is the only elimination loop:
forward elimination on {column_key: value} dicts, whose rows are short, over
Fraction or over the integers mod the prime P = 2^61 - 1.  It decides the
intertwiner systems and the stacked-map ranks that no certificate decides
(from d = p on, labeled.verify_rw_prop certifies its rank from the generic
tensor J0 and builds no rows), and modules._spin picks a module basis and
writes every generator image in it in one pass.  ``sparse_rank_and_witness``
keeps a full row rank mod P, which certifies itself, and otherwise runs one
elimination over Fraction with a tag column per row, which gives the rank
and a dependency witness.  ``ExactMatrix`` only holds the generator matrices
of explicit modules, and adds, multiplies and traces them.  Every rank is
exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

Number = int | Fraction


class ExactMatrix:
    """Dense matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Number]]):
        self.data = [[Fraction(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        m = cls.__new__(cls)
        m.data = [[Fraction(0)] * cols for _ in range(rows)]
        m.rows, m.cols = rows, cols
        return m

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        m = cls.zero(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return ExactMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return ExactMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ]
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        assert self.cols == other.rows, (self.cols, other.rows)
        ot = list(zip(*other.data))
        out = []
        for row in self.data:
            out.append(
                [
                    sum(a * b for a, b in zip(row, col) if a and b)
                    for col in ot
                ]
            )
        return ExactMatrix(out)

    def trace(self) -> Fraction:
        assert self.rows == self.cols
        return sum(self.data[i][i] for i in range(self.rows))


# The Mersenne prime 2^61 - 1.  The rank drops mod P only where P divides
# every maximal minor, and a drop costs only the rational fallback.
MODULAR_PRIME = (1 << 61) - 1


def _count_pivots(rows: Iterable[dict], prime: int | None = None) -> int:
    return sum(1 for rest in _reduce_rows(rows, prime) if rest)


def sparse_rank_and_witness(rows: list[dict]) -> tuple[int, list[Fraction] | None]:
    """Exact rank of sparse rows given as {column_key: value} dicts (keys
    mutually comparable, values exact rationals) and, if they are
    linearly dependent, the coefficients of a non-trivial vanishing
    combination (else None), with at most one elimination over Fraction.

    Each row is scaled by the lcm of its denominators and reduced mod
    MODULAR_PRIME.  A rank mod the prime is a lower bound for the rank over
    Q (a nonzero minor mod the prime is a nonzero integer), so a full row
    rank certifies itself.  Otherwise row i gets a tag column (1, i)
    sorting after its real columns (0, k), and one pass over all rows
    decides: the rank is the number of remainders that lead with a real
    column, and the first remainder that leads with a tag has no real part
    left, so its tag entries are the combination."""
    if _count_pivots(rows, MODULAR_PRIME) == len(rows):
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
