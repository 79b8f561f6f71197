"""Exception types shared across the package, and the size-budget check."""

from __future__ import annotations

from collections.abc import Iterator


class StableRepError(Exception):
    """Base class for all package-specific errors."""


class SizeBudgetExceeded(StableRepError):
    """A construction would exceed the configured size budget, counted in
    what it would build or do: ambient dimensions, labeled partitions,
    partitions, classes or class pairs, series steps, weight-table steps, LR
    coefficient evaluations, standard Young tableaux times generators, GT
    patterns times gl generators or Young symmetrizer terms.  ``needed`` is
    None when a bound of the count passed the budget."""

    def __init__(self, needed: int | None, budget: int, what: str = "ambient dimension"):
        self.needed = needed
        self.budget = budget
        count = f"more than {budget}" if needed is None else needed
        super().__init__(f"{what} {count} exceeds budget {budget}")


DEFAULT_BUDGET = 20000


def budget_cap(budget: int | None) -> int:
    """The cap a budget sets, DEFAULT_BUDGET for None; a budget below 1
    admits nothing, so it is a usage error."""
    if budget is not None and budget < 1:
        raise InvalidArgs(f"budget must be at least 1, got {budget}")
    return DEFAULT_BUDGET if budget is None else budget


def final_count(bounds: Iterator[int]) -> int:
    """The count that a bound sequence (see check_budget) returns."""
    while True:
        try:
            next(bounds)
        except StopIteration as stop:
            return stop.value


def check_budget(
    needed: int | Iterator[int], budget: int | None, what: str = "ambient dimension"
) -> int:
    """Return needed, a count or a bound sequence, once it is within the
    budget's cap.  A bound sequence is a generator that yields lower bounds
    of the count, each with more work after it, and returns the count.  The
    first bound past the cap refuses with "more than" the cap, forming
    nothing after it; a count past the cap refuses with itself."""
    cap = budget_cap(budget)
    while not isinstance(needed, int):
        try:
            if next(needed) > cap:
                raise SizeBudgetExceeded(None, cap, what)
        except StopIteration as stop:
            needed = stop.value
    if needed > cap:
        raise SizeBudgetExceeded(needed, cap, what)
    return needed


class InvalidArgs(StableRepError, ValueError):
    """Arguments violate a documented precondition."""


class NonIntegralMultiplicity(StableRepError):
    """A class function asserted to be a genuine character has a non-integral
    inner product with some irreducible."""


class NegativeMultiplicity(StableRepError):
    """A class function asserted to be a genuine character has a negative
    multiplicity."""


class NonPolynomialAction(StableRepError):
    """A module claimed to carry a polynomial gl action has torus generators
    that are not diagonal, a non-integral eigenvalue, or a weight with a
    negative entry."""


class OracleDisagreement(StableRepError):
    """Two independent computation paths returned different answers; this
    always signals an implementation bug."""
