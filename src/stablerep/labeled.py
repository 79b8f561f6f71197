"""Labeled set partitions, the torus weights of the receiving symmetric
algebra F_W(V), the equivariant maps attached to each labeled partition, and
exact checks that stacking those maps gives an isomorphism onto the
GL-equivariant Hom space.

The closed forms of both labeled families (the Stirling count ``count_pq``
in ``counts``, the orbit-count character ``pq_bicharacter`` in
``characters``, the cycle-index character ``general_bicharacter`` in
``induction``) live outside it, so the stable answer loads none of this
module; enumeration here is their tests' oracle.

The Hom side is read off weight generating functions (fixed_weights): the
torus weights of the FW monomials fixed by a label permutation, decomposed
into Schur-Weyl multiplicities by ``schur``'s Kostka subtraction and,
independently, by Weyl's alternant, which must agree.  Nothing here
builds the FW basis itself; the tests enumerate it as the oracle of
fixed_weights.  Symmetric-group characters are imported from
``characters`` only by the functions that use them (hom_bicharacter and
verify_splitting_lemma, which also imports ``induction``), and each check
imports its ``Report``, so ``hom-dim`` loads only the GL_d half and no
``report``.  ``linalg``, and with it ``fractions``, is imported only where
rows are eliminated: verify_rw_prop when J0 does not certify its rank
(below d = p).  ``_cmd_labeled_partitions`` and ``_cmd_hom_dim`` are the
runners of those two commands.

Label encoding: 0 is the unlabeled marker (rendered as *), 1..q are the
distinguishable labels.  Both families are GeneralLabeledPartition values,
each the tuple (parts, labels): with repeatable labels only a singleton part
carries one (enumerate_general), and in the injective family q parts of any
size carry 1..q once each (enumerate_pq).  Set partitions have parts sorted
by minimum element, each increasing, so enumeration is duplicate-free and
values hash.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import comb, factorial
from operator import add, itemgetter

from .errors import InvalidArgs, OracleDisagreement, check_budget
from .partitions import Partition, check_class_budget, enumerate_partitions, specht_dimension
from .schur import _compositions, decompose_weight_multiset

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .characters import ClassFunction
    from .report import Report

UNLABELED = 0

Part = tuple[int, ...]
SetPartition = tuple[Part, ...]


@lru_cache(maxsize=None)
def set_partitions(p: int) -> tuple[SetPartition, ...]:
    """All set partitions of {0..p-1}, parts sorted by minimum and each
    increasing: p - 1 ends a part of one of {0..p-2}, or comes last alone."""
    if p == 0:
        return ((),)
    x = p - 1
    out = []
    for smaller in set_partitions(x):
        for i, part in enumerate(smaller):
            out.append(smaller[:i] + (part + (x,),) + smaller[i + 1 :])
        out.append(smaller + ((x,),))
    return tuple(out)


class GeneralLabeledPartition(tuple):
    """A set partition with one label per part, 0 for an unlabeled part;
    which labels a part may carry is the enumerating family's rule.  It is
    the pair (parts, labels), equal to the plain tuple of the two."""

    __slots__ = ()

    def __new__(cls, parts: SetPartition, labels: tuple[int, ...]):
        if len(parts) != len(labels):
            raise InvalidArgs("one label per part required")
        return tuple.__new__(cls, (parts, labels))

    parts = property(itemgetter(0))
    labels = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"GeneralLabeledPartition(parts={self.parts!r}, labels={self.labels!r})"

    @property
    def p(self) -> int:
        return sum(len(x) for x in self.parts)

    def __str__(self) -> str:
        body = "|".join(",".join(str(x + 1) for x in part) for part in self.parts)
        labs = ",".join("*" if l == 0 else str(l) for l in self.labels)
        return "{" + body + "}:labels=" + labs

    def to_json(self) -> dict:
        return {
            "parts": [
                {"elements": [x + 1 for x in part], "label": None if l == 0 else l}
                for part, l in zip(self.parts, self.labels)
            ]
        }


# ---------------------------------------------------------------------------
# Enumeration


def count_general(p: int, q: int) -> int:
    """Number of labeled set partitions over q repeatable labels, without
    enumerating: sum over part-size profiles of the multinomial count times
    label choices, q + 1 for a singleton and 1 for a larger part."""
    if q < 0:
        raise InvalidArgs(f"q must be non-negative, got {q}")
    total = 0
    for lam in enumerate_partitions(p):
        mult: dict[int, int] = {}
        for s in lam:
            mult[s] = mult.get(s, 0) + 1
        ways = factorial(p)
        for s, m in mult.items():
            ways //= factorial(s) ** m * factorial(m)
        total += ways * (q + 1) ** mult.get(1, 0)
    return total


def enumerate_general(
    p: int, q: int, budget: int | None = None
) -> list[GeneralLabeledPartition]:
    """All set partitions of {1..p} with each singleton unlabeled or labeled
    by one of 1..q, labels repeatable; larger parts are unlabeled."""
    if q < 0:
        raise InvalidArgs(f"q must be non-negative, got {q}")
    if p < 0:
        raise InvalidArgs("p must be non-negative")
    check_budget(count_general(p, q), budget, "labeled partitions")
    singleton = tuple(range(q + 1))
    out = []
    for sp in set_partitions(p):
        choices = [singleton if len(part) == 1 else (UNLABELED,) for part in sp]
        for labs in itertools.product(*choices):
            out.append(GeneralLabeledPartition(sp, labs))
    return out


def enumerate_pq(
    p: int, q: int, budget: int | None = None
) -> list[GeneralLabeledPartition]:
    """All partitions of {1..p} with at least q parts, q of them labeled
    bijectively by 1..q."""
    from .counts import count_pq

    if q < 0 or p < 0:
        raise InvalidArgs("p, q must be non-negative")
    if q > p:
        raise InvalidArgs(f"q={q} exceeds p={p}; no partition has enough parts")
    check_budget(count_pq(p, q), budget, "labeled partitions")
    out = []
    for sp in set_partitions(p):
        k = len(sp)
        if k < q:
            continue
        for positions in itertools.permutations(range(k), q):
            labs = [0] * k
            for lab, pos in enumerate(positions, start=1):
                labs[pos] = lab
            out.append(GeneralLabeledPartition(sp, tuple(labs)))
    return out


def _cmd_labeled_partitions(args, p: int, q: int) -> str | list:
    """The labeled-partitions command: enumerate_pq and its count."""
    objs = enumerate_pq(p, q, args.budget)
    if args.json:
        import json

        elements = [x.to_json() for x in objs]
        return json.dumps({"p": p, "q": q, "count": len(objs), "elements": elements}, indent=2)
    return [str(x) for x in objs] + [f"total: {len(objs)}"]


# ---------------------------------------------------------------------------
# The receiving algebra F_W(V) in V-degree p, by its torus weights

Symbol = tuple[int, tuple[int, ...]]  # (label, weakly increasing var tuple)
Monomial = tuple[Symbol, ...]  # sorted tuple of symbols


def fixed_weights(p: int, d: int, cycles: tuple[int, ...]) -> Counter:
    """Torus-weight multiset of the degree-p FW monomials fixed by a label
    permutation tau with the given cycle lengths, without building the piece.

    A monomial fixed by tau is a multiset of tau-orbits of symbols.  An
    unlabeled symbol (0, m) is its own orbit, of weight m, for every
    monomial m of degree 1..p; a c-cycle of labels moves the c symbols
    (l, x_a) together, an orbit of weight c*e_a.  So the counts are the
    degree-p part of prod 1/(1 - x^w) over those orbit weights w.  The
    identity (1,)*q of Sigma_q gives the whole piece."""
    if p < 0 or d < 1 or any(c < 1 for c in cycles):
        raise InvalidArgs(f"bad parameters p={p}, d={d}, cycles={cycles}")
    # All weights of total <= p, by total; those of total n start at start[n].
    weights, start = [], []
    for n in range(p + 1):
        start.append(len(weights))
        weights.extend(_compositions(n, d))
    orbits = weights[1:] + [
        tuple(c * (b == a) for b in range(d)) for c in cycles if c <= p for a in range(d)
    ]
    series = dict.fromkeys(weights, 0)
    series[weights[0]] = 1
    for w in orbits:
        # Times 1/(1 - x^w): g[u + w] += g[u], low totals first.
        for u in weights[: start[p - sum(w) + 1]]:
            series[tuple(map(add, u, w))] += series[u]
    return Counter({w: series[w] for w in weights[start[p] :] if series[w]})


# ---------------------------------------------------------------------------
# The maps attached to labeled partitions


def phi_columns(
    x: GeneralLabeledPartition, d: int
) -> dict[tuple[int, ...], Monomial]:
    """The map (Q^d)^{⊗p} -> F_W(V) of a labeled partition, on the standard
    basis.  Each basis tensor goes to a single monomial with coefficient 1:
    multiply the slots of each part into one symbol carrying its label."""
    return {J: _phi_image(x, part_vars) for J, part_vars in _part_variables(x.parts, d)}


def _phi_image(x: GeneralLabeledPartition, part_vars=None) -> Monomial:
    """phi_x on a tensor taking the sorted values part_vars on x's parts, by
    default on J0 = (0, 1, ..., p-1), where each part takes its own elements."""
    return tuple(sorted(zip(x.labels, x.parts if part_vars is None else part_vars)))


# enumerate_general lists the labelings of a set partition together, so
# one entry serves all of them.
@lru_cache(maxsize=1)
def _part_variables(
    parts: SetPartition, d: int
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """For each basis tensor J of (Q^d)^{⊗p}, the sorted slot values of
    each part; shared by every labeling of the set partition."""
    p = sum(len(part) for part in parts)
    return tuple(
        (J, tuple(tuple(sorted(J[e] for e in part)) for part in parts))
        for J in itertools.product(range(d), repeat=p)
    )


# ---------------------------------------------------------------------------
# Hom-space dimension and character


def _check_weight_table(p: int, q: int, d: int, budget: int | None) -> int:
    """The Hom side's arguments, and the steps of one fixed_weights call
    against the budget: its C(p+d, d) table plus one per orbit weight w and
    entry of total <= p - |w|.  That is C(p+2d, 2d) with the unlabeled orbits
    and d*C(p-c+d, d) per c-cycle, most at the identity's q unit cycles."""
    if p < 0 or q < 0 or d < 1:
        raise InvalidArgs(f"bad parameters p={p}, q={q}, d={d}")
    steps = comb(p + 2 * d, 2 * d) + q * d * comb(p - 1 + d, d)
    return check_budget(steps, budget, "weight-table steps")


def _hom_multiplicities(p: int, d: int, cycles: tuple[int, ...]) -> dict:
    """{Partition: multiplicity} of the weights of the FW monomials fixed by
    a label permutation with the given cycle lengths (fixed_weights), read
    two ways that must agree for every lam: the greedy Kostka subtraction,
    and Weyl's alternant m_lam = sum over w in S_k of sgn(w) M[lam + delta
    - w(delta)], delta = (k-1, ..., 0), on the weight counts M.  k = min(d, p)
    rows suffice, since no lam of p has more than p, so lam runs over the
    weakly decreasing compositions of p into k parts and the last d - k
    entries of each weight read are 0.  Row i of that weight is
    lam_i + w(i) - i, so w is chosen one row at a time where that is >= 0."""
    weights = fixed_weights(p, d, cycles)
    by_kostka = decompose_weight_multiset(weights, d)
    k = min(d, p)
    pad = (0,) * (d - k)
    for lam in _compositions(p, k):
        if any(a < b for a, b in zip(lam, lam[1:])):
            continue
        # (weight rows so far, values of w taken as bits, sgn so far): each
        # value taken above v is one more inversion.
        terms = [((), 0, 1)]
        for i, part in enumerate(lam):
            terms = [
                (rows + (part + v - i,), taken | 1 << v,
                 -sign if (taken >> v).bit_count() % 2 else sign)
                for rows, taken, sign in terms
                for v in range(max(0, i - part), k)
                if not taken >> v & 1
            ]
        by_weyl = sum(sign * weights.get(rows + pad, 0) for rows, _, sign in terms)
        shape = Partition(lam)
        if by_weyl != by_kostka[shape]:
            raise OracleDisagreement(
                f"Weyl's alternant gives m_{shape} = {by_weyl}, Kostka "
                f"subtraction gives {by_kostka[shape]}"
            )
    return by_kostka


def hom_space_dimension_gl(p: int, q: int, d: int, budget: int | None = None) -> int:
    """dim Hom_GL((Q^d)^{⊗p}, FW piece) = sum of m_lam f^lam over the
    Schur-Weyl multiplicities of the whole piece's weights (_hom_multiplicities
    at the identity of Sigma_q, whose unit cycles are orbits only when
    p >= 1), with no basis built; the budget bounds the weight table."""
    _check_weight_table(p, q, d, budget)
    mults = _hom_multiplicities(p, d, (1,) * q if p else ())
    return sum(m * specht_dimension(lam) for lam, m in mults.items())


def _cmd_hom_dim(args, p: int, q: int, d: int) -> str:
    """The hom-dim command: the GL-equivariant Hom-space dimension."""
    dim = hom_space_dimension_gl(p, q, d, args.budget)
    if args.json:
        import json

        return json.dumps({"p": p, "q": q, "d": d, "dimension": dim})
    return str(dim)


def hom_bicharacter(p: int, q: int, d: int, budget: int | None = None) -> ClassFunction:
    """Sigma_p x Sigma_q character of Hom_GL(V^{⊗p}, FW piece): for each
    class of tau the weights of the tau-fixed FW monomials (fixed_weights,
    no basis built) give the trace of tau, and Schur-Weyl multiplicities
    carry it to the tensor-slot action (_hom_multiplicities, checked by
    Weyl's alternant at every class).  The budget bounds the steps of each
    fixed_weights call (_check_weight_table)."""
    from .characters import ClassFunction, cycle_types, irreducible_character

    _check_weight_table(p, q, d, budget)
    lam_chars = {lam: irreducible_character(lam) for lam in enumerate_partitions(p)}
    vals = {}
    for t in cycle_types(q):
        mults = _hom_multiplicities(p, d, t.parts)
        for s in cycle_types(p):
            vals[(s, t)] = sum(m * lam_chars[lam].values[s] for lam, m in mults.items())
    return ClassFunction((p, q), vals)


# ---------------------------------------------------------------------------
# Verification of the two structural lemmas


def verify_rw_prop(p: int, q: int, d: int, budget: int | None = None) -> Report:
    """The stacked family of labeled-partition maps is injective and spans
    the GL-equivariant Hom space (requires d >= p for a pass).  When d >= p
    the rank is certified from J0 = (0, 1, ..., p-1): each row has one 1 on
    the columns (J0, .), at phi_x(J0), and distinct images make that minor
    a permutation matrix.  Otherwise the rows are eliminated, which also
    gives a dependency witness.  Surjectivity compares rank and Hom dim."""
    objs = enumerate_general(p, q, budget)
    n = len(objs)
    if d >= p and len({_phi_image(x) for x in objs}) == n:
        rank, combo = n, None
    else:
        from .linalg import sparse_rank_and_witness

        # Integer ids for the (J, mono) columns, dropped once rows are built.
        column_id: dict[tuple[tuple[int, ...], Monomial], int] = {}
        rows = [
            {
                column_id.setdefault(col, len(column_id)): 1
                for col in phi_columns(x, d).items()
            }
            for x in objs
        ]
        del column_id
        rank, combo = sparse_rank_and_witness(rows)
    hom_dim = hom_space_dimension_gl(p, q, d, budget)
    witnesses: dict = {"num_labeled_partitions": n, "rank": rank, "hom_dim": hom_dim}
    if combo is not None:
        witnesses["dependent_combination"] = {
            str(objs[i]): str(c) for i, c in enumerate(combo) if c
        }
    from .report import Report

    return Report(
        claim=f"labeled-partition maps give an isomorphism, p={p}, q={q}, d={d}",
        left=rank,
        right=hom_dim,
        passed=rank == n == hom_dim,
        witnesses=witnesses,
    )


def verify_splitting_lemma(p: int, q: int, d: int, budget: int | None = None) -> Report:
    """Classwise equality of three Sigma_p x Sigma_q characters: the
    labeled-partition permutation module (general_bicharacter), the sum of
    induced injectively labeled modules, and the GL-equivariant Hom space
    (hom_bicharacter, read off weight generating functions), whose value
    at the identity is the Hom dimension.  The budget bounds the class-pair
    and weight tables."""
    from .characters import ClassFunction, cycle_types
    from .induction import general_bicharacter, induced_pq_bicharacter
    from .report import Report

    check_class_budget(budget, p, q)
    lhs = general_bicharacter(p, q)
    rhs = ClassFunction((p, q), {})
    for i in range(q + 1):
        rhs = rhs + induced_pq_bicharacter(p, i, q, budget)
    hom = hom_bicharacter(p, q, d, budget)
    chars_equal = lhs == rhs
    hom_equal = hom == rhs
    mismatches = [
        {"sigma_class": str(s), "tau_class": str(t), "left": int(lhs.values[(s, t)]),
         "right": int(rhs.values[(s, t)]), "hom": int(hom.values[(s, t)])}
        for s in cycle_types(p)
        for t in cycle_types(q)
        if not (lhs.values[(s, t)] == rhs.values[(s, t)] == hom.values[(s, t)])
    ]
    return Report(
        claim=f"induced labeled modules match the Hom space, p={p}, q={q}, d={d}",
        left=int(lhs.dimension),
        right=int(hom.dimension),
        passed=chars_equal and hom_equal,
        witnesses={
            "classwise_table": {
                f"{s}|{t}": int(lhs.values[(s, t)])
                for s in cycle_types(p)
                for t in cycle_types(q)
            },
            "mismatches": mismatches,
        },
    )
