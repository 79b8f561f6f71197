"""Partitions, Young diagrams and closed-form dimension formulas,
the Record base of the package's result classes, and the
``IrredDecomposition`` that both the symmetric-group and the general-linear
side return.  Every command compiles this module, so the ``Report`` of a
verification, which only the checks print, is in ``report``.
``_cmd_partitions`` is the ``partitions`` command's runner.

A Partition is a tuple of its parts and an IrredDecomposition a dict, each
equal to the plain container with the same contents.  Trailing zeros are
normalized away at construction, and an interior zero is rejected like any
other increase.  The canonical ordering used everywhere in this package is
reverse lexicographic, which is also the order in which
``enumerate_partitions`` produces its output.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache
from math import gcd, prod
from operator import le, lt

from .errors import InvalidArgs, check_budget, final_count


class Partition(tuple):
    """A weakly decreasing sequence of positive integers: the tuple of its
    parts, equal to the plain tuple of them and hashing as it does.
    Indexing past the last row reads 0, and the order is reverse
    lexicographic."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        ps = list(map(int, parts))
        while ps and ps[-1] == 0:
            ps.pop()
        ps = tuple(ps)
        if any(map(lt, ps, ps[1:])):
            raise ValueError(f"parts not weakly decreasing: {ps}")
        if ps and ps[-1] < 0:
            raise ValueError(f"negative part in {ps}")
        return tuple.__new__(cls, ps)

    parts = property(tuple)
    weight = property(sum)
    length = property(len)

    def __getitem__(self, i: int) -> int:
        """Row length, with implicit zeros past the last row; a negative
        index or a slice reads as on the tuple."""
        if isinstance(i, slice) or i < len(self):
            return tuple.__getitem__(self, i)
        return 0

    # Reverse lexicographic, tuple's order turned round: (3) < (2,1) < (1,1,1).
    __lt__, __le__, __gt__, __ge__ = tuple.__gt__, tuple.__ge__, tuple.__lt__, tuple.__le__

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def __str__(self) -> str:
        return ",".join(map(str, self)) if self else "0"

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the CLI/JSON syntax: comma-separated parts, "0" for empty."""
        text = text.strip()
        if text in ("0", "", "[]", "()"):
            return cls(())
        try:
            return cls(int(x) for x in text.split(","))
        except ValueError as e:
            raise InvalidArgs(f"not a partition: {text!r} ({e})") from None

    def contains(self, other: "Partition") -> bool:
        """Cell-wise containment: other ⊆ self."""
        return len(other) <= len(self) and all(map(le, other, self))

    def cells(self) -> list[tuple[int, int]]:
        """All (row, col) cells of the Young diagram, 0-indexed."""
        return [(i, j) for i, r in enumerate(self) for j in range(r)]


class Record:
    """Base of the package's result classes.  A subclass names its fields
    in FIELDS; two instances are equal when they are of the same class with
    equal fields, and the repr lists the fields."""

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.FIELDS)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.FIELDS)
        return f"{type(self).__name__}({body})"


def transpose(lam: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths become row lengths."""
    # Column lengths never increase, so the result skips validation.
    return tuple.__new__(Partition, [sum(p > j for p in lam) for j in range(lam[0])])


@lru_cache(maxsize=None)
def _partitions_rec(n: int, maxpart: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions_rec(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of weight n in reverse lexicographic order."""
    if n < 0:
        raise InvalidArgs(f"n must be non-negative, got {n}")
    # Each is built weakly decreasing, so it skips validation.
    return [tuple.__new__(Partition, ps) for ps in _partitions_rec(n, n if n else 1)]


def partition_counts(n: int) -> Iterator[int]:
    """p(0), ..., p(n), the numbers of partitions, each yielded as the fill
    reaches it, by Euler's pentagonal-number recurrence p(m) = sum_k
    (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2)) in integers, without
    enumerating them.  p is nondecreasing, so each bounds p(n) below."""
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
        counts.append(total)
        yield total


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n), the last of partition_counts(n)."""
    *_, count = partition_counts(n)
    return count


def check_class_budget(budget: int | None, *degrees: int, what: str = "class pairs") -> int:
    """The classes of the product of Sigma_n over n in degrees, prod p(n) of
    them, refused past the budget: counted before any class is listed, from
    the bounds p(m), m <= n, as each fill forms them."""

    def bounds():
        for n in degrees:
            yield from partition_counts(n)
        return prod(map(partition_count, degrees))

    return check_budget(bounds(), budget, what)


def _cmd_partitions(args, n: int) -> str | list:
    """The partitions command, refused past the budget by their count."""
    check_class_budget(args.budget, n, what="partitions")
    parts = enumerate_partitions(n)
    if args.json:
        import json

        return json.dumps([str(p) for p in parts], indent=2)
    return [(["partition", "specht_dim"], [[str(p), specht_dimension(p)] for p in parts])]


def hook_lengths(lam: Partition) -> dict[tuple[int, int], int]:
    """Hook length of every cell of the diagram."""
    t = transpose(lam)
    return {(i, j): r - j + c - i - 1 for i, r in enumerate(lam) for j, c in zip(range(r), t)}


def hook_partials(lam: Partition) -> Iterator[int]:
    """The bound sequence (see errors.check_budget) of f^lam by the
    hook-length formula, with no factorial formed.  With h_1 <= h_2 <= ...
    the hook lengths in order, f^lam = prod_k k / h_k, kept in lowest terms.
    Each factor is at least 1: the arm and leg of a cell of hook h hold
    h - 1 cells of smaller hook, so h_k <= k.  So the product before each
    factor, rounded up, is a bound."""
    num = den = 1
    for k, h in enumerate(sorted(hook_lengths(lam).values()), 1):
        yield -(-num // den)
        num, den = num * k, den * h
        g = gcd(num, den)
        num, den = num // g, den // g
    return num


def specht_dimension(lam: Partition) -> int:
    """Dimension of the irreducible symmetric-group representation indexed
    by lam, i.e. the number of standard Young tableaux of that shape
    (hook-length formula, ``hook_partials``)."""
    return final_count(hook_partials(lam))


def schur_gl_dimension(lam: Partition, d: int) -> int:
    """dim S_lam(Q^d) by the hook-content formula; zero exactly when the
    diagram has more rows than d."""
    if d < 1:
        raise InvalidArgs(f"d must be positive, got {d}")
    if lam.length > d:
        return 0
    num = 1
    den = 1
    for (i, j), h in hook_lengths(lam).items():
        num *= d + j - i
        den *= h
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# Decompositions


class IrredDecomposition(dict):
    """Multiset of irreducible constituents: the dict from each constituent
    to its multiplicity, equal to the plain dict with the same items.  Zero
    multiplicities are dropped, and a missing key reads 0.

    Keys are either Partition (single symmetric group) or pairs of
    Partitions (a product group), held in canonical order: sorted at
    construction, so reverse lexicographic, componentwise for pairs."""

    __slots__ = ()

    def __init__(self, mults: Mapping):
        super().__init__((k, mults[k]) for k in sorted(mults) if mults[k] != 0)

    def __missing__(self, key) -> int:
        return 0

    def to_json(self) -> list[dict]:
        return [
            {"key": str(k) if isinstance(k, Partition) else [str(x) for x in k], "multiplicity": m}
            for k, m in self.items()
        ]

    def __repr__(self):
        body = ", ".join(f"{k}: {m}" for k, m in self.items())
        return "{" + body + "}"
