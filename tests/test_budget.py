"""The budget policy: errors.check_budget is the one place that resolves the
cap and decides a refusal.  Each budgeted construction hands it a count or
a bound sequence, and every admission and refusal matches the hand-written
loop that the sequence replaced (the conftest oracles)."""

import ast
import inspect
import itertools
import pathlib
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import stablerep
from stablerep import cli
from stablerep.errors import InvalidArgs, SizeBudgetExceeded, check_budget
from stablerep.functors import (
    _lr_evaluations,
    _series_steps,
    split_extension_filtration_check,
    step1_dimension_identity,
)
from stablerep.modules import specht_character_traces, specht_module
from stablerep.partitions import (
    Partition,
    check_class_budget,
    enumerate_partitions,
    hook_partials,
    partition_counts,
    transpose,
)
from stablerep.functors import sym_algebra_partials

import conftest

SRC = pathlib.Path(stablerep.__file__).parent


def outcome(call, *args):
    """'admitted', or the refusal's needed, budget and message."""
    try:
        call(*args)
    except SizeBudgetExceeded as e:
        return e.needed, e.budget, str(e)
    return "admitted"


def around(*values) -> list[int]:
    """Each value, one less and one more, as budgets of at least 1."""
    return sorted({b for v in values for b in (v - 1, v, v + 1) if b >= 1})


def bounds_and_count(bounds):
    """The bounds a bound sequence yields and the count it returns."""
    read = []
    while True:
        try:
            read.append(next(bounds))
        except StopIteration as stop:
            return read, stop.value


def assert_same(new, old, cases):
    """Compare each (args, budget) case under the new check and the
    parent's loop; return how many cases ran."""
    for args, budget in cases:
        assert outcome(new, *args, budget) == outcome(old, *args, budget), (args, budget)
    return len(cases)


def class_cases():
    degree_lists = [(n,) for n in range(41)]
    degree_lists += [(a, b) for a in range(13) for b in range(13)]
    degree_lists += [(3, 4, 5), (0, 0, 0), (7, 7, 2)]
    cases = []
    for degrees in degree_lists:
        fills = [list(partition_counts(n)) for n in degrees]
        budgets = around(*(c for fill in fills for c in fill), prod(f[-1] for f in fills))
        cases += [(degrees, b) for b in budgets] + [(degrees, None)]
    cases += [((30000, 1), None), ((20, 10), None), ((50, 1), 20000)]
    return cases


def test_class_budget_matches_the_capped_partition_counts():
    def new(degrees, what, budget):
        check_class_budget(budget, *degrees, what=what)

    def old(degrees, what, budget):
        conftest.check_class_budget(budget, *degrees, what=what)

    ran = 0
    for what in ("class pairs", "partitions"):
        cases = [((degrees, what), b) for degrees, b in class_cases()]
        ran += assert_same(new, old, cases)
    assert ran > 5000


def test_fw_piece_budget_matches_the_partial_products():
    cases = []
    for p, q, d in itertools.product(range(5), range(3), range(1, 4)):
        bounds, series = bounds_and_count(sym_algebra_partials(d, q, p))
        cases += [((p, q, d), b) for b in around(*bounds, series[p])]
    cases += [((1000, 0, 1), 1), ((60, 2, 3), None), ((4, 4, 4), 100)]
    old = lambda p, q, d, budget: conftest._check_sym_algebra_budget(d, q, p, budget)
    assert assert_same(conftest.FWGradedPiece, old, cases) > 300


def test_step1_budget_matches_the_series_step_loop():
    cases = []
    for p, q, d in itertools.product(range(-1, 13), range(3), range(1, 3)):
        bounds, steps = bounds_and_count(_series_steps(p, q * d > 0))
        cases += [((p, q, d), b) for b in around(*bounds, steps)]
    cases += [((100000, 1, 1), None), ((200, 1, 1), 1), ((56, 1, 1), None), ((55, 1, 1), None)]
    old = lambda p, q, d, budget: conftest._check_series_steps(p, q * d > 0, budget)
    assert assert_same(step1_dimension_identity, old, cases) > 1000


def test_specht_module_budget_matches_the_capped_hook_product():
    """(4,4) at 13 is refused with its exact 14 * 7 = 98: the last hook
    partial is f itself, not a bound with work after it."""
    cases = []
    for n in range(9):
        for lam in enumerate_partitions(n):
            bounds, f = bounds_and_count(hook_partials(lam))
            cases += [((lam,), b) for b in around(*bounds, f, f * max(n - 1, 0))]
    for lam in ([19999, 1], [50000, 1], [100, 100]):
        cases.append(((Partition(lam),), None))
    cases.append(((Partition([4, 4]),), 13))
    assert assert_same(specht_module, conftest.specht_module_budget, cases) > 700
    with pytest.raises(SizeBudgetExceeded, match="^standard Young tableaux times generators 98 "):
        specht_module(Partition([4, 4]), budget=13)


def test_specht_traces_budget_matches_the_factorial_loop():
    cases = []
    for n in range(7):
        for lam in enumerate_partitions(n):
            factors = [k for part in lam.parts + transpose(lam).parts for k in range(2, part + 1)]
            partials = list(itertools.accumulate(factors, lambda a, k: a * k, initial=1))
            cases += [((lam,), b) for b in around(*partials)]
    for lam in ([50000], [8], [3, 3, 3], [4, 4]):
        cases.append(((Partition(lam),), None))
    old = conftest.young_symmetrizer_terms_budget
    assert assert_same(specht_character_traces, old, cases) > 250


def test_split_extension_budget_matches_the_lr_evaluation_count():
    cases = []
    for n, dims in itertools.product(range(7), [(1, 1), (2, 1)]):
        for lam in enumerate_partitions(n):
            bounds, count = bounds_and_count(_lr_evaluations(lam.parts))
            cases += [((lam, *dims), b) for b in around(*bounds, count)]
    for lam in ([40], [6, 5, 4, 3, 2, 1], [4, 3, 2, 1]):
        cases.append(((Partition(lam), 1, 1), None))
    old = lambda lam, dA, dC, budget: conftest._check_lr_evaluations(lam.parts, budget)
    assert assert_same(split_extension_filtration_check, old, cases) > 500


# ---------------------------------------------------------------------------
# check_budget itself


class Counting:
    """An iterator over given bounds that returns a given count, and
    records how many bounds were read."""

    def __init__(self, bounds: list[int], count: int):
        self.bounds, self.count, self.read = bounds, count, 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.read == len(self.bounds):
            raise StopIteration(self.count)
        self.read += 1
        return self.bounds[self.read - 1]


@st.composite
def bound_sequences(draw):
    """A count and lower bounds of it, or the count alone (bounds None)."""
    count = draw(st.integers(min_value=0, max_value=10**6))
    if draw(st.booleans()):
        return count, None
    return count, draw(st.lists(st.integers(min_value=0, max_value=count), max_size=8))


def decide(count, bounds, budget):
    """check_budget's verdict on a count or a Counting over its bounds:
    ('admitted', count) or ('refused', needed), and the iterator."""
    needed = count if bounds is None else Counting(bounds, count)
    try:
        return ("admitted", check_budget(needed, budget, "things")), needed
    except SizeBudgetExceeded as e:
        assert e.budget == budget and str(e).startswith("things ")
        return ("refused", e.needed), needed


@settings(max_examples=300, deadline=None)
@given(bound_sequences(), st.integers(min_value=1, max_value=10**6), st.integers(0, 10**6))
def test_check_budget_admits_exactly_the_counts_within_the_cap(case, budget, more):
    count, bounds = case
    (verdict, value), seen = decide(count, bounds, budget)
    assert (verdict == "admitted") == (count <= budget)
    if verdict == "admitted":
        assert value == count
        assert decide(count, bounds, budget + more)[0] == ("admitted", count)
    elif value is None:
        # "more than": bounds were left, the first one past the cap was the
        # last read, and nothing after it.
        past = next(i for i, b in enumerate(bounds) if b > budget)
        assert seen.read == past + 1
    else:
        assert value == count
        assert bounds is None or (seen.read == len(bounds) and max(bounds, default=0) <= budget)


@pytest.mark.parametrize("budget", [0, -1])
def test_check_budget_refuses_a_budget_below_one(budget):
    with pytest.raises(InvalidArgs, match=f"^budget must be at least 1, got {budget}$"):
        check_budget(0, budget)


# Valid small arguments for every public function with a budget parameter.
BUDGETED = {
    "check_budget": (0,),
    "dimension_table": (1, 1),
    "enumerate_general": (1, 0),
    "enumerate_pq": (1, 0),
    "hom_bicharacter": (1, 0, 1),
    "hom_space_dimension_gl": (1, 0, 1),
    "induced_pq_bicharacter": (1, 0, 1),
    "schur_apply": (Partition([1]), 1),
    "specht_character_traces": (Partition([1]),),
    "specht_module": (Partition([1]),),
    "split_extension_filtration_check": (Partition([1]), 1, 1),
    "stable_cohomology": (1, 1, 0),
    "step1_dimension_identity": (1, 1, 1),
    "theorem_a_induction_check": (1, 0),
    "verify_cauchy": (1, 1, 1),
    "verify_rw_prop": (1, 0, 1),
    "verify_schur_weyl": (1, 1),
    "verify_splitting_lemma": (1, 0, 1),
}


def budgeted_functions() -> dict:
    """Every public function of the package that takes a budget."""
    import importlib

    found = {}
    for path in SRC.glob("*.py"):
        module = importlib.import_module(f"stablerep.{path.stem}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and "budget" in inspect.signature(obj).parameters
            ):
                found[name] = obj
    return found


@pytest.mark.parametrize("budget", [0, -1])
def test_every_budgeted_entry_point_refuses_a_budget_below_one(budget):
    """As on the command line: a usage error, not a refusal and not a
    build."""
    functions = budgeted_functions()
    assert set(functions) == set(BUDGETED) | {"check_class_budget", "budget_cap"}
    below_one = f"^budget must be at least 1, got {budget}$"
    for name, args in BUDGETED.items():
        with pytest.raises(InvalidArgs, match=below_one):
            functions[name](*args, budget=budget)
        functions[name](*args, budget=None)
    with pytest.raises(InvalidArgs, match=below_one):
        functions["check_class_budget"](budget, 1)
    with pytest.raises(InvalidArgs, match=below_one):
        functions["budget_cap"](budget)


# ---------------------------------------------------------------------------
# The policy lives in errors


def test_only_errors_resolves_the_cap_and_builds_a_refusal():
    """No module but errors names DEFAULT_BUDGET or constructs
    SizeBudgetExceeded (cli catches it), and the CLI help reads the default
    cap from errors."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names.add(node.name)
            if "DEFAULT_BUDGET" in names:
                offenders.append((path.name, node.lineno, "DEFAULT_BUDGET"))
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "SizeBudgetExceeded":
                    offenders.append((path.name, node.lineno, "SizeBudgetExceeded()"))
    assert offenders == []
    assert "20000" not in (SRC / "cli.py").read_text()
    assert "20000" not in (SRC / "usage.py").read_text()
    from stablerep.errors import DEFAULT_BUDGET

    assert f"(default {DEFAULT_BUDGET}," in cli.parse_args(["-h"])
