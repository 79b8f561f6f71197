"""Stable cohomology calculator: the sign-twisted labeled-partition answer
in the single nonvanishing degree and the table of its dimensions.

The answer and the dimension table come from closed forms: the integer
Stirling count and identity-count recurrence of ``counts``, and the orbit
count of the injective family's character in ``characters``; enumeration
is the test oracle.  So this module loads no labeled-partition or
linear-algebra code, and no ``schur``.  It imports ``characters`` only
where a character is built: the dimension table builds none, and a zero
cell builds its all-zero character only when ``bicharacter`` is read, so
the table and a zero cell, as text or as JSON, load no ``characters``.
It imports ``counts`` only for the table and a nonzero cell, so a zero
cell loads neither.
The identities behind the answer live elsewhere: the character-level replay
of the induction that pins it down in ``induction``, and the step-1
graded-series identity in ``functors``.  ``_cmd_stable_cohomology`` is the
``stable-cohomology`` command's runner, and only its ``--json`` loads
``json``.

The automorphism groups and the coefficient system are never represented:
a cell is its (p, q, degree), because the stable answer is purely
combinatorial.
"""

from __future__ import annotations

from .errors import InvalidArgs, OracleDisagreement
from .partitions import IrredDecomposition, Record, check_class_budget
from .partitions import enumerate_partitions, specht_dimension

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .characters import ClassFunction


class StableCohomologyResult(Record):
    """The stable answer for one (p, q) cell in one degree.  Given None for
    its character, as a zero cell is, it builds the all-zero one when
    ``bicharacter`` is first read.  Every cell has the same stable range."""

    FIELDS = ("p", "q", "degree", "bicharacter", "decomposition", "dimension")
    __slots__ = ("p", "q", "degree", "_bicharacter", "decomposition", "dimension")
    valid_range = "2*degree <= n - p - q - 3"

    def __init__(
        self, p: int, q: int, degree: int, bicharacter: ClassFunction | None,
        decomposition: IrredDecomposition, dimension: int,
    ):
        self.p = p
        self.q = q
        self.degree = degree
        self._bicharacter = bicharacter
        self.decomposition = decomposition
        self.dimension = dimension

    @property
    def bicharacter(self) -> ClassFunction:
        if self._bicharacter is None:
            from .characters import ClassFunction

            self._bicharacter = ClassFunction((self.p, self.q), {})
        return self._bicharacter

    @property
    def min_n(self) -> int:
        return _min_n(self.p, self.q, self.degree)

    def to_json(self) -> dict:
        """The cell as JSON, its character over the class pairs in
        ``cycle_types`` order; a zero cell lists its 0 values without
        building a character."""
        chi = {} if self._bicharacter is None else self._bicharacter.values
        sigmas, taus = enumerate_partitions(self.p), enumerate_partitions(self.q)
        return {
            "p": self.p,
            "q": self.q,
            "degree": self.degree,
            "dimension": self.dimension,
            "valid_n_bound": self.valid_range,
            "decomposition": [
                {"lambda": str(lam), "mu": str(mu), "mult": int(m)}
                for (lam, mu), m in self.decomposition.items()
            ],
            "character": [
                {"sigma_class": str(s), "tau_class": str(t), "value": int(chi.get((s, t), 0))}
                for s in sigmas
                for t in taus
            ],
        }


def _min_n(p: int, q: int, degree: int) -> int:
    # 2*degree <= n - p - q - 3, at the nonzero degree p - q.
    return 2 * max(degree, 0) + p + q + 3


def stable_cohomology(
    p: int, q: int, degree: int, budget: int | None = None
) -> StableCohomologyResult:
    """Cohomology of the automorphism group in the stable range with the
    (p, q) bifunctor coefficients: the sign-twisted permutation module on
    injectively labeled partitions in degree p-q, zero elsewhere.

    Closed form; enumeration is the test oracle.  The character comes from
    the integer orbit count (``pq_bicharacter``), the dimension from the
    Stirling count (``count_pq``), and ``_check_decomposition`` checks the
    decomposition against both.  Nothing grows with the dimension, but the
    character and ``decompose`` grow with the class pairs, p(p)·p(q) of
    them, so the budget bounds those, counted before any class is listed
    (zero cells included: their all-zero character lists every pair once it
    is read)."""
    if p < 0 or q < 0:
        raise InvalidArgs("p, q must be non-negative")
    check_class_budget(budget, p, q)
    if degree != p - q or q > p:
        return StableCohomologyResult(p, q, degree, None, IrredDecomposition({}), 0)
    from .characters import ClassFunction, decompose, pq_bicharacter, sign_of_class
    from .counts import count_pq

    # The sign twist: the character times the sign of its Sigma_p class.
    twisted = {(s, t): sign_of_class(s) * v for (s, t), v in pq_bicharacter(p, q).values.items()}
    chi = ClassFunction((p, q), twisted)
    dec = decompose(chi)
    dim = count_pq(p, q)
    _check_decomposition(p, q, dim, chi.dimension, dec)
    return StableCohomologyResult(p, q, degree, chi, dec, dim)


def _check_decomposition(p: int, q: int, dim: int, at_identity: int, dec: IrredDecomposition):
    """The decomposition's dimension must be the Stirling count and the
    character at the identity.  Its values at transpositions, by Frobenius
    f^lam·2c(lam)/(n(n-1)) with c the content sum, must be the fixed points:
    (1 2) in Sigma_p fixes the objects with 1, 2 in one block or as two
    unlabeled singletons (sign-twisted), and one in Sigma_q fixes none.  So
    swapping components of equal dimension shows."""
    from .counts import count_pq

    shapes = {lam for pair in dec for lam in pair}
    fc = {lam: (specht_dimension(lam), sum(j - i for i, j in lam.cells())) for lam in shapes}
    total = on_p = on_q = 0
    for (lam, mu), m in dec.items():
        m *= fc[lam][0] * fc[mu][0]
        total += m
        on_p += m * 2 * fc[lam][1]
        on_q += m * fc[mu][1]
    want = -(count_pq(p - 1, q) + count_pq(p - 2, q)) * p * (p - 1) if p >= 2 else 0
    if not dim == at_identity == total or on_p != want or on_q:
        raise OracleDisagreement(
            f"Stirling count {dim}, character at the identity {at_identity}, "
            f"decomposition dimension {total}; at transpositions it gives "
            f"{on_p} (want {want}) and {on_q} (want 0)"
        )


# ---------------------------------------------------------------------------
# Presentation


def dimension_table(p_max: int, q_max: int, budget: int | None = None) -> list[dict]:
    """Rows (p, q, nonzero degree, dimension, minimal stable n) over the
    requested grid.

    Closed form; enumeration is the test oracle.  Each dimension is the
    Stirling count ``count_pq``, checked against a two-variable recurrence
    (``pq_identity_counts``), which builds one (p_max+1)×(q_max+1) integer
    table.  The budget still bounds the class pairs of the top cell
    (p_max, min(p_max, q_max)), counted before anything is built, so the
    table is refused exactly where that cell's ``stable_cohomology`` is."""
    if p_max < 0 or q_max < 0:
        raise InvalidArgs("bounds must be non-negative")
    check_class_budget(budget, p_max, min(p_max, q_max))
    from .counts import count_pq, pq_identity_counts

    by_series = pq_identity_counts(p_max, q_max)
    rows = []
    for p in range(p_max + 1):
        for q in range(min(p, q_max) + 1):
            dim = count_pq(p, q)
            if dim != by_series[(p, q)]:
                raise OracleDisagreement(
                    f"p={p}, q={q}: Stirling count {dim}, "
                    f"identity-count recurrence {by_series[(p, q)]}"
                )
            rows.append(
                {"p": p, "q": q, "degree": p - q, "dimension": dim, "min_n": _min_n(p, q, p - q)}
            )
    return rows


def _cmd_stable_cohomology(args, p, q) -> str | list:
    """The stable-cohomology command: one cell, in degree p - q unless
    --degree names another, or with --table the dimension table."""
    if args.table is not None and (p, q, args.degree) != (None, None, None):
        raise InvalidArgs("--table PMAX QMAX takes no P, Q or --degree")
    if args.table is not None:
        rows = dimension_table(*args.table, args.budget)
        if args.json:
            import json

            return json.dumps(rows, indent=2)
        keys = ["p", "q", "degree", "dimension", "min_n"]
        return [(keys, [[r[k] for k in keys] for r in rows])]
    if p is None or q is None:
        raise InvalidArgs("stable-cohomology requires P Q (or --table PMAX QMAX)")
    degree = args.degree if args.degree is not None else p - q
    res = stable_cohomology(p, q, degree, args.budget)
    if args.json:
        import json

        return json.dumps(res.to_json(), indent=2)
    lines = [
        f"p={res.p} q={res.q} degree={res.degree}",
        f"dimension: {res.dimension}",
        f"stable range: {res.valid_range} (n >= {res.min_n})",
    ]
    if not res.dimension:
        return lines + ["zero (nonvanishing only in degree p - q with q <= p)"]
    mults = [[str(a), str(b), m] for (a, b), m in res.decomposition.items()]
    return lines + ["decomposition:", (["lambda", "mu", "mult"], mults)]
