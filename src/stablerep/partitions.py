"""Partitions, Young diagrams and closed-form dimension formulas,
the Record base of the package's plain value classes, and the
``IrredDecomposition`` that both the symmetric-group and the general-linear
side return.  Every command compiles this module, so the ``Report`` of a
verification, which only the checks print, is in ``report``.
``_cmd_partitions`` is the ``partitions`` command's runner.

Partitions are immutable values with structural equality; trailing zeros are
normalized away at construction, and an interior zero is rejected like any
other increase.  The canonical ordering used everywhere in this package is
reverse lexicographic, which is also the order in which
``enumerate_partitions`` produces its output.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache
from math import gcd, prod
from operator import attrgetter

from .errors import InvalidArgs, check_budget, final_count


class Partition:
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: Iterable[int] = ()):
        ps = list(map(int, parts))
        while ps and ps[-1] == 0:
            ps.pop()
        ps = tuple(ps)
        for i in range(len(ps) - 1):
            if ps[i] < ps[i + 1]:
                raise ValueError(f"parts not weakly decreasing: {ps}")
        if ps and ps[-1] < 0:
            raise ValueError(f"negative part in {ps}")
        object.__setattr__(self, "parts", ps)
        object.__setattr__(self, "_hash", hash(("Partition", ps)))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        """Row length, with implicit zeros past the last row."""
        if isinstance(i, slice):
            return self.parts[i]
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Partition") -> bool:
        # Reverse lexicographic: (3) < (2,1) < (1,1,1).
        return self.parts > other.parts

    def __le__(self, other: "Partition") -> bool:
        return self == other or self < other

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.parts) if self.parts else "0"

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
        return all(other[i] <= self[i] for i in range(len(other)))

    def cells(self) -> list[tuple[int, int]]:
        """All (row, col) cells of the Young diagram, 0-indexed."""
        return [(i, j) for i, r in enumerate(self.parts) for j in range(r)]


class Record:
    """Base of the package's plain value classes.  A subclass names its
    fields in FIELDS, which are also its __slots__ (a subclass adding none
    declares __slots__ = ()); two instances are equal when they are of the
    same class with equal fields, and the repr lists the fields."""

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "FIELDS" in vars(cls):
            # The field tuple, read by one C call: labeled partitions are
            # compared and hashed once per fixed-point test.
            cls._values = property(attrgetter(*cls.FIELDS))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.FIELDS)
        return f"{type(self).__name__}({body})"


class FrozenRecord(Record):
    """A Record that is immutable and hashable: __init__ sets the fields
    with object.__setattr__, and any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        return hash(self._values)


def transpose(lam: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths become row lengths."""
    if not lam.parts:
        return Partition(())
    return Partition(
        sum(1 for p in lam.parts if p >= j + 1) for j in range(lam.parts[0])
    )


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
    return [Partition(ps) for ps in _partitions_rec(n, n if n else 1)]


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
    return {
        (i, j): (lam[i] - j) + (t[j] - i) - 1
        for (i, j) in lam.cells()
    }


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


class IrredDecomposition:
    """Multiset of irreducible constituents with multiplicities.

    Keys are either Partition (single symmetric group) or pairs of
    Partitions (a product group).  Keys are reported in canonical order
    (reverse lexicographic, componentwise for pairs)."""

    __slots__ = ("mults",)

    def __init__(self, mults: Mapping):
        self.mults = {k: v for k, v in mults.items() if v != 0}

    def __getitem__(self, key):
        return self.mults.get(key, 0)

    def __len__(self):
        return len(self.mults)

    def __eq__(self, other):
        return isinstance(other, IrredDecomposition) and self.mults == other.mults

    def __iter__(self):
        return iter(self.items())

    def items(self) -> list:
        def sortkey(k):
            if isinstance(k, Partition):
                return (tuple(-x for x in k.parts),)
            return tuple(tuple(-x for x in part.parts) for part in k)

        return sorted(self.mults.items(), key=lambda kv: sortkey(kv[0]))

    def to_json(self) -> list[dict]:
        return [
            {"key": str(k) if isinstance(k, Partition) else [str(x) for x in k], "multiplicity": m}
            for k, m in self.items()
        ]

    def __repr__(self):
        body = ", ".join(f"{k}: {m}" for k, m in self.items())
        return "{" + body + "}"

