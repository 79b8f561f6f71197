"""Exact rational linear algebra: dense matrices over Fraction and a sparse
row-reduction for the intertwiner systems and the stacked-map ranks that no
certificate decides: from d = p on, labeled.verify_rw_prop certifies its rank
from the generic tensor J0 and builds no rows, so elimination decides the rest.

No floating point anywhere.  The dense path is Gauss-Jordan over Fraction on
lists of rows.  The sparse path is forward elimination on {column_key: value}
dicts, whose rows are short.  ``sparse_rank`` runs it mod the prime
P = 2^61 - 1 first and keeps that rank only when it equals min(rows, nonzero
columns): the rank over Q lies between the two.  Otherwise it runs the same
elimination over Fraction.  ``sparse_rank_and_witness`` adds a dependency
witness: it keeps a full row rank mod P, and otherwise runs one elimination
over Fraction with a tag column per row.  Every rank is exact.
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

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Number]]) -> "ExactMatrix":
        if not cols:
            return cls.zero(0, 0)
        n = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def column(self, j: int) -> list[Fraction]:
        return [self.data[i][j] for i in range(self.rows)]

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

    def rank(self) -> int:
        return len(self.pivot_columns())

    def pivot_columns(self) -> list[int]:
        """Column indices of pivots in a row echelon form."""
        return _gauss_jordan([row[:] for row in self.data], self.cols)

    def solve_many(
        self, rhs_list: Sequence[Sequence[Number]]
    ) -> list[list[Fraction] | None]:
        """Solve self @ x = rhs for several right-hand sides with a single
        elimination pass; None for an inconsistent right-hand side."""
        n = self.cols
        aug = [
            self.data[i] + [Fraction(rhs[i]) for rhs in rhs_list]
            for i in range(self.rows)
        ]
        pivots = _gauss_jordan(aug, n)
        out: list[list[Fraction] | None] = []
        for col in range(n, n + len(rhs_list)):
            # Rows past the rank are zero on the first n columns, so a
            # nonzero right-hand side there is inconsistent.
            if any(aug[i][col] for i in range(len(pivots), self.rows)):
                out.append(None)
                continue
            x = [Fraction(0)] * n
            for r, c in enumerate(pivots):
                x[c] = aug[r][col]
            out.append(x)
        return out


def _gauss_jordan(m: list[list[Fraction]], ncols: int) -> list[int]:
    """Bring the rows of m, in place, to reduced row echelon form on the
    first ncols columns; later columns ride along.  Returns the pivot
    columns."""
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


# The Mersenne prime 2^61 - 1.  The rank drops mod P only where P divides
# every maximal minor, and a drop costs only the rational fallback.
MODULAR_PRIME = (1 << 61) - 1


def sparse_rank(rows: list[dict]) -> int:
    """Exact rank of a sparse matrix given as a list of {column_key: value}
    rows.  Column keys must be mutually comparable (e.g. ints or int
    tuples); values are exact rationals.

    Each row is scaled by the lcm of its denominators, which keeps the rank,
    and reduced mod MODULAR_PRIME.  The rank r mod the prime is a lower bound
    for the rank over Q (a nonzero minor mod the prime is a nonzero integer),
    and min(rows, nonzero columns) is an upper bound.  r is returned when it
    meets the upper bound; otherwise the rows are eliminated again over
    Fraction, which decides."""
    rank = _count_pivots(rows, MODULAR_PRIME)
    if rank == len(rows):
        return rank
    if rank == len({k for row in rows for k, v in row.items() if v}):
        return rank
    return _count_pivots(rows)


def _count_pivots(rows: Iterable[dict], prime: int | None = None) -> int:
    return sum(1 for rest in _reduce_rows(rows, prime) if rest)


def sparse_rank_and_witness(rows: list[dict]) -> tuple[int, list[Fraction] | None]:
    """Exact rank of sparse rows as in sparse_rank and, if they are
    linearly dependent, the coefficients of a non-trivial vanishing
    combination (else None), with at most one elimination over Fraction.

    A full row rank mod MODULAR_PRIME certifies itself.  Otherwise row i
    gets a tag column (1, i) sorting after its real columns (0, k), and one
    pass over all rows decides: the rank is the number of remainders that
    lead with a real column, and the first remainder that leads with a tag
    has no real part left, so its tag entries are the combination."""
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
