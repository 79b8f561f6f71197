"""The CLI's on-disk result cache: one JSON file of output and exit code per
command line, keyed by the package's sources and the parsed command.

``cli`` imports this module only when ``--cache`` is given, and it imports
nothing of the package: under ``python -m stablerep.cli`` the running CLI is
``__main__``, not ``stablerep.cli``, so importing ``.cli`` from here would
compile it a second time.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile


def _cache_lookup(cache_dir: str, key: str) -> tuple[str, int] | None:
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return data["output"], data["exit"]
    except (OSError, ValueError, KeyError):
        return None


def _cache_store(cache_dir: str, key: str, output: str, code: int) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    payload = json.dumps({"output": output, "exit": code})
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _cache_key(args) -> str:
    """Hash of the package's .py sources and of every parsed field of the
    cli.Args but the cache directory, including the effective budget, so
    that a hit returns only what this code would print for this command."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + hashlib.sha256(fh.read()).digest())
    params = {k: v for k, v in vars(args).items() if k != "cache"}
    h.update(json.dumps(params, sort_keys=True).encode())
    return h.hexdigest()
