"""Exception types shared across the package, and the size-budget check."""


class StableRepError(Exception):
    """Base class for all package-specific errors."""


class SizeBudgetExceeded(StableRepError):
    """A construction would exceed the configured size budget, counted in
    what it would build or do: ambient dimensions, labeled partitions,
    classes or class pairs, weight-table steps or sparse matrix entries.
    ``needed`` is None when the count stopped once it passed the budget."""

    def __init__(self, needed: int | None, budget: int, what: str = "ambient dimension"):
        self.needed = needed
        self.budget = budget
        count = f"more than {budget}" if needed is None else needed
        super().__init__(f"{what} {count} exceeds budget {budget}")


DEFAULT_BUDGET = 20000


def check_budget(needed: int, budget: int | None, what: str = "ambient dimension"):
    cap = DEFAULT_BUDGET if budget is None else budget
    if needed > cap:
        raise SizeBudgetExceeded(needed, cap, what)


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
