"""The ``Report`` of a verification, which ``cauchy``, ``schur-weyl`` and
each ``verify`` check return, and only they load: ``run_check`` runs one
for the CLI, and ``Report.render`` gives its text, a table in it as a
(headers, rows) pair for the CLI to lay out, or its JSON."""

from __future__ import annotations

from .partitions import Partition, Record


class Report(Record):
    """The outcome of one verification: the claim, its two sides, whether
    they agree, and named witnesses."""

    __slots__ = FIELDS = ("claim", "left", "right", "passed", "witnesses")

    def __init__(self, claim: str, left, right, passed: bool, witnesses: dict | None = None):
        self.claim = claim
        self.left = left
        self.right = right
        self.passed = passed
        self.witnesses = {} if witnesses is None else witnesses

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "left": _jsonable(self.left),
            "right": _jsonable(self.right),
            "pass": self.passed,
            "witnesses": _jsonable(self.witnesses),
        }

    def render(self, as_json: bool) -> str | list:
        """The JSON of to_json, or the text lines, with the classwise
        values as a (headers, rows) table."""
        if as_json:
            import json

            return json.dumps(self.to_json(), indent=2, sort_keys=True)
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status}: {self.claim}", f"left  = {self.left}", f"right = {self.right}"]
        for k, v in self.witnesses.items():
            if k == "classwise_table" and isinstance(v, dict):
                lines.append("classwise values:")
                lines.append((["class pair", "value"], [[kk, vv] for kk, vv in v.items()]))
            elif v not in ({}, [], None):
                lines.append(f"{k}: {v}")
        return lines


def _jsonable(x):
    """x as JSON data.  A Partition, a tuple, is its string, and a value with
    its own to_json, such as a labeled partition or a decomposition, takes
    it before the dict and sequence branches can."""
    if hasattr(x, "denominator") and not isinstance(x, int):  # a Fraction
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, Partition):
        return str(x)
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def run_check(check, args) -> Report:
    """Run a check on the command's parameter values, LAMBDA parsed, and
    its budget."""
    values = list(args.values)
    if isinstance(values[0], str):  # LAMBDA
        values[0] = Partition.parse(values[0])
    return check(*values, args.budget)
