"""Class functions on symmetric groups and products of two of them: the
S_n half of the package, with no GL_d weight in it (those are in ``schur``).

Irreducible characters are computed by the Murnaghan-Nakayama recursion on
the beta-set of each shape held as one int bitmask (``_beta_mask``), where
removing an f-hook moves one bead f places down the abacus
(``_hook_removals``; James and Kerber, The Representation Theory of the
Symmetric Group, 1981, 2.7), and ``_mn`` memoizes, per (mask, size, largest
part r), the character on every class with parts <= r as an int tuple in
``cycle_types`` order, one signed vector sum per first part.
Everything is exact and integer where the input is; ``fractions`` is
imported only to report a non-integral multiplicity.

The injective family's character ``pq_bicharacter`` lives here too, an
integer orbit count per class pair, so the stable answer needs no
labeled-partition code.  Its counts, which build no character, are in
``counts``, loaded only when it is built, so the dimension table and the
zero cells load no ``characters``.  Induction and the repeatable-label
family's character are in ``induction``, which only the induction replay
and the splitting check load.  ``_cmd_char`` runs ``char``.

One type, ``ClassFunction``, holds the class functions of Sigma_r and of
Sigma_p x Sigma_q alike, densely over all classes; with weights at desk
scale the class lists are tiny.  Class functions keep the values they are
given, so integer characters (irreducible, permutation, closed-form) stay
ints and ``decompose`` sums them in integers into a
``partitions.IrredDecomposition``.  The Murnaghan-Nakayama memo is a plain
``lru_cache`` on ints, safe for concurrent readers.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from math import factorial
from operator import add, mul, neg, sub

from .errors import InvalidArgs, NegativeMultiplicity, NonIntegralMultiplicity
from .partitions import (
    IrredDecomposition,
    Partition,
    _partitions_rec,
    check_class_budget,
    enumerate_partitions,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

# ---------------------------------------------------------------------------
# Cycle-type combinatorics

# A permutation of {0..r-1} as the tuple of its images.
Perm = tuple[int, ...]


@lru_cache(maxsize=None)
def cycle_types(r: int) -> tuple[Partition, ...]:
    return tuple(enumerate_partitions(r))


def centralizer_order(rho: Partition) -> int:
    """z_rho = prod s^{m_s} m_s! over part sizes s with multiplicity m_s."""
    z = 1
    mult: dict[int, int] = {}
    for s in rho:
        mult[s] = mult.get(s, 0) + 1
    for s, m in mult.items():
        z *= s**m * factorial(m)
    return z


def class_size(rho: Partition) -> int:
    return factorial(rho.weight) // centralizer_order(rho)


def sign_of_class(rho: Partition) -> int:
    """Sign of any permutation with cycle type rho."""
    return (-1) ** (rho.weight - rho.length)


# ---------------------------------------------------------------------------
# Class functions


@lru_cache(maxsize=None)
def _classes(degree: int | tuple[int, int]) -> tuple:
    """The classes of Sigma_r for degree r, its cycle types, or of
    Sigma_p x Sigma_q for degree (p, q), the pairs (sigma class, tau class)
    with tau's varying fastest.  Either way the identity's class is last."""
    if isinstance(degree, int):
        return cycle_types(degree)
    p, q = degree
    return tuple((s, t) for s in cycle_types(p) for t in cycle_types(q))


class ClassFunction:
    """An exact (int or Fraction) function on the conjugacy classes of
    Sigma_r (degree r, keyed by cycle type) or of Sigma_p x Sigma_q (degree
    (p, q), keyed by pairs of cycle types), holding the values it is given,
    0 where none is."""

    __slots__ = ("degree", "values")

    def __init__(
        self, degree: int | tuple[int, int],
        values: Mapping[Partition | tuple[Partition, Partition], Fraction | int],
    ):
        self.degree = degree
        self.values = {c: values.get(c, 0) for c in _classes(degree)}
        extra = values.keys() - self.values.keys()
        if extra:
            raise InvalidArgs(f"classes not of degree {degree}: {extra}")

    @classmethod
    def _of_classes(cls, degree, values: dict) -> "ClassFunction":
        """The class function with these values, taken as they are: the keys
        must be exactly _classes(degree), in that order, so the key check of
        __init__ does not run."""
        f = object.__new__(cls)
        f.degree = degree
        f.values = values
        return f

    @property
    def dimension(self) -> Fraction | int:
        """The value at the identity, the last class."""
        return self.values[_classes(self.degree)[-1]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and self.degree == other.degree
            and self.values == other.values
        )

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return self._of_classes(
            self.degree, {c: v + other.values[c] for c, v in self.values.items()}
        )

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return self._of_classes(
            self.degree, {c: v - other.values[c] for c, v in self.values.items()}
        )

    def _check(self, other: "ClassFunction"):
        if self.degree != other.degree:
            raise InvalidArgs(f"degree mismatch: {self.degree} vs {other.degree}")

    def __repr__(self) -> str:
        return f"ClassFunction({self.degree!r}, {self.values!r})"


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama


def _beta_mask(lam: tuple[int, ...]) -> int:
    """The beta-set of lam as a bitmask, bit lam_i + (k-1-i) for each of its
    k rows: the beads of James and Kerber's one-runner abacus.  Zero rows
    are trailing set bits, stripped, so each shape has one mask and the
    empty shape has 0."""
    k = len(lam)
    mask = sum(1 << (x + k - 1 - i) for i, x in enumerate(lam))
    return mask >> ((mask ^ (mask + 1)).bit_length() - 1)


def _hook_removals(mask: int, f: int) -> list[tuple[int, int]]:
    """(sign, mask of lam minus the hook) for every f-hook of the shape with
    beta mask ``mask``, lowest bead first.  Removing an f-hook moves a bead
    at b to the free position b - f.  The beads strictly between are the
    hook's rows less one, and their parity is the sign.  A bead landing at
    0 makes zero rows, stripped as in _beta_mask."""
    out = []
    beads = (mask & ~(mask << f)) >> f << f
    while beads:
        bit = beads & -beads
        beads ^= bit
        nu = mask ^ bit ^ (bit >> f)
        passed = (mask & (bit - 1) & -(bit >> (f - 1))).bit_count()
        out.append((-1 if passed & 1 else 1, nu >> ((nu ^ (nu + 1)).bit_length() - 1)))
    return out


@lru_cache(maxsize=None)
def _mn(mask: int, n: int, r: int) -> tuple[int, ...]:
    """chi^lam, lam of size n with beta mask ``mask`` (_beta_mask), on the
    classes of cycle_types(n) with parts <= r, in that order: the classes of
    first part f = min(r, n)..1 in turn, each block the signed sum over the
    f-hooks of lam of chi^(lam - hook) on parts <= f, and zeros where lam
    has no f-hook."""
    if not n:
        return (1,)
    row: list[int] = []
    for f in range(min(r, n), 0, -1):
        hooks = _hook_removals(mask, f)
        if not hooks:
            row += [0] * len(_partitions_rec(n - f, f))
            continue
        m = n - f
        k = min(f, m)  # parts <= f of a class of m are parts <= k
        (s, nu), *rest = hooks
        block = _mn(nu, m, k) if s > 0 else map(neg, _mn(nu, m, k))
        for s, nu in rest:
            block = map(add if s > 0 else sub, block, _mn(nu, m, k))
        row += block
    return tuple(row)


def irreducible_character(lam: Partition) -> ClassFunction:
    """The character of the Specht module indexed by lam, with exact int
    values: the memoized row _character_row(lam)."""
    r = lam.weight
    return ClassFunction._of_classes(r, dict(zip(cycle_types(r), _character_row(lam))))


def _cmd_char(args, lam: str) -> str | list:
    """The char command: chi^lam, refused past the budget by its classes."""
    lam = Partition.parse(lam)
    check_class_budget(args.budget, lam.weight, what="classes")
    chi = irreducible_character(lam)
    rows = [[str(c), int(chi.values[c])] for c in cycle_types(lam.weight)]
    if args.json:
        import json

        values = [{"class": c, "value": v} for c, v in rows]
        return json.dumps({"lambda": str(lam), "values": values}, indent=2)
    return [(["class", f"chi^({lam})"], rows)]


def _character_row(lam: Partition) -> tuple[int, ...]:
    """chi^lam on every class of its size, in cycle_types order: _mn at the
    beta mask of lam with no bound on the parts."""
    n = lam.weight
    return _mn(_beta_mask(lam.parts), n, n)


# ---------------------------------------------------------------------------
# Decomposition


def decompose(f: ClassFunction) -> IrredDecomposition:
    """Multiplicities of f against the irreducible characters.

    f is asserted to be a genuine character: any negative or non-integral
    multiplicity raises.  Each multiplicity is a numerator, summed in the
    values' own type (int for an integer f, so no Fraction is built),
    divided once by the group order; the class sizes are computed once per
    class."""
    mults: dict = {}
    if isinstance(f.degree, int):
        order = factorial(f.degree)
        weighted = [class_size(rho) * v for rho, v in f.values.items()]
        for lam in enumerate_partitions(f.degree):
            chi = _character_row(lam)
            _store(mults, lam, sum(map(mul, weighted, chi)), order)
    else:
        # <f, chi^lam x chi^mu> = sum over class pairs (s, t) of
        # |s|·|t|·f(s, t)·chi^lam(s)·chi^mu(t) / (p!·q!); the sum over s is
        # taken once per lam, not once per (lam, mu).  Values are listed in
        # cycle_types order, the order of every character row.
        p, q = f.degree
        ps, qs = cycle_types(p), cycle_types(q)
        order = factorial(p) * factorial(q)
        p_sizes = [class_size(s) for s in ps]
        columns = [
            [size * class_size(t) * f.values[(s, t)] for s, size in zip(ps, p_sizes)]
            for t in qs
        ]
        mu_chars = [(mu, _character_row(mu)) for mu in enumerate_partitions(q)]
        for lam in enumerate_partitions(p):
            chl = _character_row(lam)
            by_t = [sum(map(mul, chl, col)) for col in columns]
            for mu, chm in mu_chars:
                _store(mults, (lam, mu), sum(map(mul, chm, by_t)), order)
    return IrredDecomposition(mults)


def _store(mults: dict, key, total, order: int):
    """Store the multiplicity total / order at key; an int total is divided
    in integers, a Fraction one by Fraction's own divmod."""
    m, rest = divmod(total, order)
    if rest:
        from fractions import Fraction

        raise NonIntegralMultiplicity(f"multiplicity {Fraction(total, order)} at {key}")
    if m < 0:
        raise NegativeMultiplicity(f"multiplicity {m} at {key}")
    if m:
        mults[key] = m


# ---------------------------------------------------------------------------
# The fixed-point character of the injectively labeled family of labeled.py,
# an orbit count per class pair of the G_k of counts; enumeration is the
# tests' oracle.


def _orbit_states(rho: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{picks: ways}: the ways the cycles of lengths rho, told apart, each
    pick a divisor of their length, keyed by the picks sorted ascending."""
    states = {(): 1}
    for length in rho:
        divisors = [k for k in range(1, length + 1) if length % k == 0]
        grown: dict = {}
        for state, ways in states.items():
            for k in divisors:
                key = tuple(sorted(state + (k,)))
                grown[key] = grown.get(key, 0) + ways
        states = grown
    return states


def pq_bicharacter(p: int, q: int) -> ClassFunction:
    """Fixed-point character of Sigma_p x Sigma_q on the injectively labeled
    family, one integer orbit count per class pair (see counts), without
    enumerating (the tests check it against counts over enumerate_pq)."""
    from .counts import _orbit_ways

    if q < 0 or p < 0:
        raise InvalidArgs("p, q must be non-negative")
    if q > p:
        raise InvalidArgs(f"q={q} exceeds p={p}; no partition has enough parts")
    taus = [(t, {k: t.parts.count(k) for k in set(t.parts)}) for t in cycle_types(q)]
    vals = {}
    for s in cycle_types(p):
        states = [({k: st.count(k) for k in set(st)}, ways)
                  for st, ways in _orbit_states(s.parts).items()]
        for t, cycles in taus:
            total = 0
            for picked, ways in states:
                if cycles.keys() <= picked.keys():
                    for k, n in picked.items():
                        ways *= _orbit_ways(k, n, cycles.get(k, 0))
                    total += ways
            vals[(s, t)] = total
    return ClassFunction._of_classes((p, q), vals)
