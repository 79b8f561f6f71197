"""The character-level replay of the induction behind the stable answer:
induction from Sigma_i x Sigma_j to Sigma_{i+j}, the characters induced
from the injectively labeled family, and the repeatable-label family's
character, whose engine (a cycle index per class of tau) is kept apart from
``characters``' orbit count so that comparing the two families checks one
engine against the other.

Only ``verify induction``, ``verify splitting`` and the library load this
module; the stable answer itself needs none of it.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb, factorial

from .characters import ClassFunction, centralizer_order, class_size, cycle_types, pq_bicharacter
from .errors import InvalidArgs, OracleDisagreement
from .partitions import Partition, check_class_budget, enumerate_partitions
from .report import Report

# ---------------------------------------------------------------------------
# Induction


def splittings(rho: Partition, a: int) -> Iterator[tuple[Partition, Partition]]:
    """All ways to split the multiset of parts of rho into a cycle type of
    weight a and the complementary one."""
    sizes = sorted(set(rho), reverse=True)
    mults = [sum(1 for s in rho if s == x) for x in sizes]

    def rec(i: int, left: int, chosen: list[int]):
        if left < 0:
            return
        if i == len(sizes):
            if left == 0:
                first = []
                second = []
                for s, m, k in zip(sizes, mults, chosen):
                    first += [s] * k
                    second += [s] * (m - k)
                yield Partition(sorted(first, reverse=True)), Partition(
                    sorted(second, reverse=True)
                )
            return
        for k in range(mults[i] + 1):
            yield from rec(i + 1, left - k * sizes[i], chosen + [k])

    yield from rec(0, a, [])


def induce(f: ClassFunction, q: int) -> ClassFunction:
    """Induce a class function on Sigma_i x Sigma_{q-i} up to Sigma_q,
    by the cycle-type splitting formula, whose coefficient
    z_rho / (z_r1·z_r2) is a product of binomials, so an int."""
    i, j = f.degree
    if i + j != q:
        raise InvalidArgs(f"degrees {f.degree} do not sum to {q}")
    vals = {}
    for rho in cycle_types(q):
        z = centralizer_order(rho)
        vals[rho] = sum(
            z // (centralizer_order(r1) * centralizer_order(r2)) * f.values[(r1, r2)]
            for r1, r2 in splittings(rho, i)
        )
    return ClassFunction(q, vals)


def induced_pq_bicharacter(
    p: int, i: int, q: int, budget: int | None = None
) -> ClassFunction:
    """Character of Ind over the label factor from Sigma_i x Sigma_{q-i}
    up to Sigma_q of the injectively labeled family (its character from
    pq_bicharacter), with Sigma_{q-i} acting trivially; a Sigma_p x Sigma_q
    character.  The budget bounds its table of class pairs, counted before
    any is listed."""
    check_class_budget(budget, p, q)
    base = pq_bicharacter(p, i)
    vals = {}
    for s in cycle_types(p):
        f = ClassFunction(
            (i, q - i),
            {
                (r1, r2): base.values[(s, r1)]
                for r1 in cycle_types(i)
                for r2 in cycle_types(q - i)
            },
        )
        ind = induce(f, q)
        for t in cycle_types(q):
            vals[(s, t)] = ind.values[t]
    return ClassFunction((p, q), vals)


# ---------------------------------------------------------------------------
# Repeatable labels (labeled.enumerate_general): blocks, each unlabeled or
# a singleton with one of q labels; enumeration is the tests' oracle.  With
# f_k the labels tau^k fixes, (sigma, tau) fixes z_rho*[x^rho] Z_tau objects,
#     Z_tau = exp(sum_k (1/k)(exp(sum_i x_{ik}/i) - 1 + f_k x_k)).
# Its coefficients are stored scaled by |rho|!, as |class rho| times the
# fixed-point count, an integer: the term (1/(k·z_lam)) x_{k lam} of weight
# j = k·|lam| becomes j!/(k·z_lam), f_k/k at x_k becomes (k-1)!·f_k, and
# n·Z_n = sum_j j·A_j·Z_{n-j} becomes N_n = sum_j C(n-1, j-1)·A_j·N_{n-j}.
# A remainder in the division by the class size raises OracleDisagreement.


def _cycle_index_log(j: int) -> dict[tuple[int, ...], int]:
    """Scaled x-weight j part of sum_k (1/k)(exp(sum_i x_{ik}/i) - 1):
    j!/(k·z_lam) at x_{k lam}."""
    out: dict = {}
    for k in range(1, j + 1):
        if j % k:
            continue
        for lam in enumerate_partitions(j // k):
            x = tuple(k * s for s in lam)
            out[x] = out.get(x, 0) + factorial(j) // (k * centralizer_order(lam))
    return out


def _exp_series(logs: list[dict]) -> list[dict]:
    """Scaled pieces of x-weight 0..len(logs)-1 of Z = exp(A), given the
    scaled x-weight pieces A_j = logs[j] (logs[0] is ignored), by
    N_n = sum_j C(n-1, j-1)·A_j·N_{n-j}."""
    z: list[dict] = [{(): 1}]
    for n in range(1, len(logs)):
        acc: dict = {}
        for j in range(1, n + 1):
            c = comb(n - 1, j - 1)
            for ax, a in logs[j].items():
                a *= c
                for bx, b in z[n - j].items():
                    x = tuple(sorted(ax + bx, reverse=True))
                    acc[x] = acc.get(x, 0) + a * b
        z.append(acc)
    return z


def general_bicharacter(p: int, q: int) -> ClassFunction:
    """Fixed-point character of Sigma_p x Sigma_q on the labeled partitions
    with repeatable labels, read off one Z_tau per class of tau without
    enumerating (the tests check it against counts over enumerate_general).
    Z_tau's extra term f_k/k at x_k is (k-1)!·f_k scaled."""
    if q < 0 or p < 0:
        raise InvalidArgs("p, q must be non-negative")
    unlabeled = [_cycle_index_log(j) for j in range(p + 1)]
    vals = {}
    for t in cycle_types(q):
        logs = [dict(a) for a in unlabeled]
        for k in range(1, p + 1):
            logs[k][(k,)] += factorial(k - 1) * sum(c for c in t.parts if k % c == 0)
        top = _exp_series(logs)[p]
        for s in cycle_types(p):
            scaled, size = top.get(s.parts, 0), class_size(s)
            vals[(s, t)], rest = divmod(scaled, size)
            if rest:
                raise OracleDisagreement(
                    f"scaled cycle-index coefficient {scaled} at {(s.parts, t.parts)} "
                    f"is not a multiple of the class size {size}"
                )
    return ClassFunction((p, q), vals)


# ---------------------------------------------------------------------------
# The induction that pins down the top representation


def theorem_a_induction_check(p: int, q: int, budget: int | None = None) -> Report:
    """Replay the inductive step at character level: subtract the induced
    contributions of the already-known i < q layers from the full labeled
    partition character (``general_bicharacter``); the residue must be the
    injectively q-labeled character (``pq_bicharacter``).  The two come from
    different engines, and no labeled partition is built: the budget
    bounds the table of class pairs, counted before any is listed."""
    if not (0 <= q <= p):
        raise InvalidArgs(f"need 0 <= q <= p, got p={p}, q={q}")
    check_class_budget(budget, p, q)
    residue = general_bicharacter(p, q)
    for i in range(q):
        residue = residue - induced_pq_bicharacter(p, i, q, budget)
    direct = pq_bicharacter(p, q)
    mismatches = [
        {"sigma_class": str(s), "tau_class": str(t),
         "residue": int(residue.values[(s, t)]), "direct": int(direct.values[(s, t)])}
        for s in cycle_types(p)
        for t in cycle_types(q)
        if residue.values[(s, t)] != direct.values[(s, t)]
    ]
    return Report(
        claim=f"induction residue equals the injectively labeled character, p={p}, q={q}",
        left=int(residue.dimension),
        right=int(direct.dimension),
        passed=not mismatches,
        witnesses={"mismatches": mismatches},
    )
