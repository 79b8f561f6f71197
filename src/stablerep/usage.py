"""The usage that ``stablerep -h`` prints, made from the command table the
CLI passes in; only ``-h`` and ``--help`` load this module."""

from __future__ import annotations

from .errors import budget_cap

_HELP_OPTIONS = f"""\
options, before or after the command words, also as --budget=N or a unique
prefix such as --js:
  --json        emit JSON
  --budget N    size budget cap (default {budget_cap(None)}, or STABLEREP_BUDGET)
  --cache DIR   result cache directory
  -h, --help    show this help"""


def help_text(commands, options: str, words: str) -> str:
    """Usage of the rows (words, runner, parameters, help) whose words begin
    with words (every row for ""), and of the options every command takes."""
    rows = [row for row in commands if f"{row[0]} ".startswith(f"{words} ".lstrip())]
    if len(rows) == 1:
        command, _, params, help_ = rows[0]
        lines = [f"usage: stablerep {options} {command} {params}", "", help_]
    else:
        lines = [f"usage: stablerep {options} {words or 'COMMAND'} ...", "", "commands:"]
        for command, _, params, help_ in rows:
            usage = f"{command} {params}"
            gap = "  " if len(usage) <= 30 else "\n" + " " * 34
            lines.append(f"  {usage:<30}{gap}{help_}")
    return "\n".join(lines + ["", _HELP_OPTIONS])
