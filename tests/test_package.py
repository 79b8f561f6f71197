"""The package's lazy exports and the modules each command imports.

``stablerep`` resolves its exports on first use (PEP 562) and the CLI imports
each subcommand's modules when it runs, so a command loads only what it
computes with.  The import sets are read in fresh interpreters, because this
test process has long since imported everything.  The last tests hold every
module to the syntax of the oldest Python that pyproject.toml admits, run
every CLI op of the benchmark as a program, under this interpreter and that
one, against its recorded output, check that only the program route
freezes the heap, and that the program route, which ends the process
itself, still runs the atexit handlers and exits 120 on a closed stdout.
"""

import ast
import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stablerep

SRC = Path(stablerep.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"

# The exports of the eagerly importing package this replaced, submodules
# included, less hom_side_total, splitting_map and
# three_way_dimension_agreement, which only tests call (now in conftest),
# and less the names that no command and no benchmark op runs: the FW piece
# (build_fw_piece), the second labeled-partition type and the label
# alphabet, the symbolic coefficient, skew shapes and their Schur
# decomposition, tensor powers, and the class-function helpers of the
# tests (external_product, inner_product, restrict, sign_character,
# trivial_character).  The lazy package must keep exactly these.
EXPORTS = [
    "ClassFunction", "GeneralLabeledPartition", "InvalidArgs",
    "IrredDecomposition", "NegativeMultiplicity", "NonIntegralMultiplicity",
    "NonPolynomialAction", "OracleDisagreement", "Partition", "Report",
    "SizeBudgetExceeded", "StableCohomologyResult", "StableRepError", "characters",
    "cycle_types", "decompose", "dimension_table", "enumerate_general",
    "enumerate_partitions", "enumerate_pq", "errors", "gl_decompose",
    "graded_sym_algebra_dimension", "hom_bicharacter", "hom_space_dimension_gl",
    "hook_lengths", "induce", "irreducible_character", "kostka", "labeled", "linalg",
    "lr_coefficient", "modules", "partitions", "schur", "schur_apply",
    "schur_gl_dimension", "specht_dimension", "specht_module",
    "split_extension_filtration_check", "stable", "stable_cohomology",
    "step1_dimension_identity", "theorem_a_induction_check", "transpose",
    "verify_cauchy", "verify_rw_prop", "verify_schur_weyl", "verify_splitting_lemma",
    "young_symmetrizer",
]


def benchmark_cli_ops() -> list[tuple[str, ...]]:
    """The set-up op and every CLI op of the benchmark's pools, read from
    perfbench/workloads.py."""
    module_name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / "workloads.py")
    # Registered before it runs: its dataclass looks its module up there.
    workloads = sys.modules[module_name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = [
        op.args
        for name in sorted(workloads.POOLS)
        for op in workloads.all_ops(name)
        if op.kind == "cli"
    ]
    return [("partitions", "1")] + ops


def benchmark_text_ops() -> list[tuple[str, ...]]:
    """The benchmark_cli_ops that print text."""
    return [args for args in benchmark_cli_ops() if "--json" not in args]


SUBMODULES = {
    "cache", "characters", "counts", "errors", "functors", "induction", "labeled", "linalg",
    "modules", "partitions", "report", "schur", "stable", "usage",
}


def op_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("STABLEREP_BUDGET", None)
    return env


def loaded_after(code: str, prefix: str = "stablerep", flags: tuple[str, ...] = ()) -> set[str]:
    """The modules named with prefix (by default the stablerep ones) that a
    fresh interpreter, started with flags, holds after running code."""
    script = (
        "import sys\n"
        + code
        + f"\nprint('LOADED ' + ' '.join(m for m in sys.modules if m.startswith({prefix!r})))"
    )
    out = subprocess.run(
        [sys.executable, *flags, "-c", script],
        env=op_env(), capture_output=True, text=True, check=True,
    ).stdout
    line = [x for x in out.splitlines() if x.startswith("LOADED ")][-1]
    return set(line.split()[1:])


def loaded_by_command(*argv: str) -> set[str]:
    return loaded_after(f"from stablerep.cli import main\nmain({list(argv)!r})")


def qualified(*names: str) -> set[str]:
    return {"stablerep"} | {f"stablerep.{n}" for n in names}


class TestImportSets:
    def test_bare_import_loads_no_submodule(self):
        assert loaded_after("import stablerep") == {"stablerep"}

    def test_partitions_loads_partitions_alone(self):
        assert loaded_by_command("partitions", "1") == qualified("cli", "errors", "partitions")

    @pytest.mark.parametrize(
        "argv", [("stable-cohomology", "7", "2"), ("stable-cohomology", "--table", "6", "6")]
    )
    def test_stable_answer_loads_no_labeled_or_linear_algebra(self, argv):
        # Nor schur: the stable answer is all S_n characters.  Nor induction,
        # functors, cache or the Report of the checks.  The table builds no
        # character, so it loads no characters either.
        s_n = () if "--table" in argv else ("characters",)
        assert loaded_by_command(*argv) == qualified(
            "cli", "errors", "partitions", "counts", "stable", *s_n
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("stable-cohomology", "--table", "6", "6"),
            ("stable-cohomology", "7", "2", "--degree", "3"),
            ("stable-cohomology", "6", "3", "--degree", "2"),
            ("stable-cohomology", "5", "5", "--degree", "1"),
            ("stable-cohomology", "2", "4"),
            ("--json", "stable-cohomology", "2", "4"),
        ],
        ids=" ".join,
    )
    def test_table_and_text_zero_cells_load_no_characters(self, argv):
        """The dimension table is integer counts, and a zero cell, printed
        as text or as JSON, never builds its all-zero character, nor counts
        anything."""
        counts = ("counts",) if "--table" in argv else ()
        assert loaded_by_command(*argv) == qualified(
            "cli", "errors", "partitions", "stable", *counts
        )

    def test_only_checks_load_the_report(self):
        """Report lives apart from partitions, which every command compiles,
        and only the checks load it."""
        for argv in benchmark_cli_ops():
            check = argv[argv[0] == "--json"] in ("verify", "cauchy", "schur-weyl")
            assert ("stablerep.report" in loaded_by_command(*argv)) == check, argv

    @pytest.mark.parametrize(
        "argv",
        [
            ("stable-cohomology", "7", "2"),
            ("stable-cohomology", "--table", "6", "6"),
            ("stable-cohomology", "7", "2", "--degree", "3"),
        ],
    )
    def test_stable_answer_loads_no_rationals(self, argv):
        """The integer cycle index and decompose need no Fraction, so
        neither fractions nor the decimal module it pulls in is loaded."""
        code = f"from stablerep.cli import main\nmain({list(argv)!r})"
        assert not {"fractions", "decimal"} & loaded_after(code, prefix="")

    @pytest.mark.parametrize(
        "argv",
        [
            ("hom-dim", "4", "4", "4"),
            ("verify", "rw-prop", "4", "4", "4"),
            ("verify", "rw-prop", "4", "2", "4"),
            ("verify", "splitting", "4", "4", "4"),
            ("hom-dim", "2", "1", "2"),
            ("verify", "rw-prop", "2", "1", "2"),
        ],
    )
    def test_hom_side_at_d_ge_p_loads_no_linear_algebra(self, argv):
        """rw-prop certifies its rank from J0 from d = p on, and the Hom
        dimension is read off torus weights at every cell, so no Hom-side
        command loads linalg, nor fractions and decimal, nor the explicit
        modules.  Only splitting, which compares S_n characters, loads
        characters, and the induced characters of induction."""
        code = f"from stablerep.cli import main\nmain({list(argv)!r})"
        loaded = loaded_after(code, prefix="")
        s_n = ("characters", "counts", "induction") if "splitting" in argv else ()
        checks = ("report",) if "verify" in argv else ()
        assert {m for m in loaded if m.startswith("stablerep")} == qualified(
            "cli", "errors", "partitions", "schur", "labeled", *s_n, *checks
        )
        assert not {"fractions", "decimal"} & loaded

    @pytest.mark.parametrize(
        "argv", [("--json", "cauchy", "4", "3", "3"), ("verify", "extension", "4,3,2,1", "3", "3")]
    )
    def test_schur_functor_checks_load_only_the_gl_half(self, argv):
        """Cauchy and the split extension filtration compare GL_d weights
        and dimensions: no characters, no explicit modules, no rationals."""
        code = f"from stablerep.cli import main\nmain({list(argv)!r})"
        loaded = loaded_after(code, prefix="")
        assert {m for m in loaded if m.startswith("stablerep")} == qualified(
            "cli", "errors", "partitions", "schur", "functors", "report"
        )
        assert not {"fractions", "decimal"} & loaded

    @pytest.mark.parametrize(
        "code",
        [
            "stablerep.specht_module(stablerep.Partition([3, 3]))",
            "stablerep.gl_decompose(stablerep.schur_apply(stablerep.Partition([2, 2]), 4))",
        ],
    )
    def test_explicit_modules_load_no_characters(self, code):
        """The seminormal Specht generators and the GT-pattern Schur module
        call nothing of the S_n half."""
        assert "stablerep.characters" not in loaded_after("import stablerep\n" + code)

    def test_elimination_loads_linear_algebra(self):
        assert "stablerep.linalg" in loaded_by_command("--json", "verify", "rw-prop", "2", "1", "1")

    def test_induction_loads_no_labeled(self):
        # Nor stable: the orbit counts the character reads are in counts.
        assert loaded_by_command("--json", "verify", "induction", "6", "2") == qualified(
            "cli", "errors", "partitions", "characters", "counts", "induction", "report"
        )

    def test_step1_loads_no_characters(self):
        assert loaded_by_command("verify", "step1", "4", "2", "2") == qualified(
            "cli", "errors", "partitions", "schur", "functors", "report"
        )

    @pytest.mark.parametrize(
        "argv", [("partitions", "1"), ("stable-cohomology", "7", "2")]
    )
    def test_no_typing_at_run_time(self, argv):
        """Under -S, which skips site and the modules its hooks import, the
        package itself imports no typing, nor the re and enum it brought."""
        code = f"from stablerep.cli import main\nmain({list(argv)!r})"
        loaded = loaded_after(code, prefix="", flags=("-S",))
        assert "stablerep.cli" in loaded
        assert not {"typing", "re", "enum"} & loaded

    @pytest.mark.parametrize("argv", benchmark_text_ops(), ids=" ".join)
    def test_text_output_loads_no_json(self, argv):
        code = f"from stablerep.cli import main\nmain({list(argv)!r})"
        assert "json" not in loaded_after(code, prefix="")

    def test_no_command_loads_argparse(self):
        """The command table's parser reads every command line; argparse,
        which brought gettext and locale, is loaded by none."""
        ops = benchmark_cli_ops() + [("-h",), ("verify", "-h"), ("partitions", "-h")]
        code = "from stablerep.cli import main\n" + "".join(f"main({list(a)!r})\n" for a in ops)
        assert not {"argparse", "gettext", "locale"} & loaded_after(code, prefix="")

    @pytest.mark.parametrize(
        "argv", [("-h",), ("verify", "rw-prop", "2", "1", "1", "-h"), ("partitions", "--bogus")]
    )
    def test_help_and_usage_errors_import_nothing(self, argv):
        """A malformed command line is refused with what importing the CLI
        already loaded, and help is formatted with that and usage alone: no
        compute module and no other module."""
        code = f"from stablerep.cli import main\nmain({list(argv)!r})"
        usage = {"stablerep.usage"} if "-h" in argv else set()
        assert loaded_after(code, prefix="") == (
            loaded_after("import stablerep.cli", prefix="") | usage
        )
        assert loaded_by_command(*argv) == qualified("cli", "errors") | usage

    def test_no_module_imports_dataclasses(self):
        code = "\n".join(f"import stablerep.{name}" for name in sorted(SUBMODULES | {"cli"}))
        loaded = loaded_after(code, prefix="")
        assert "stablerep.modules" in loaded
        assert not {"dataclasses", "inspect"} & loaded

    def test_cache_hit_loads_no_compute_module(self, tmp_path):
        argv = ("--cache", str(tmp_path), "stable-cohomology", "4", "2")
        assert "stablerep.stable" in loaded_by_command(*argv)  # miss: computes
        assert loaded_by_command(*argv) == qualified("cli", "errors", "cache")  # hit

    def test_cache_under_run_module_compiles_the_cli_once(self, tmp_path):
        """Under python -m, the running CLI is __main__, so nothing may
        import stablerep.cli, which would compile it a second time; -X
        importtime lists every module the process imports."""
        argv = ["--cache", str(tmp_path), "stable-cohomology", "4", "2"]
        answers = []
        for run in ("miss", "hit"):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "stablerep.cli", *argv],
                env=op_env(), capture_output=True, text=True,
            )
            # The process ends with os._exit: the miss's entry must be whole
            # by then, so the hit prints and exits as the miss did.
            answers.append((proc.returncode, proc.stdout))
            imported = {
                line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")
            }
            assert "stablerep.cache" in imported, run
            assert "stablerep.cli" not in imported, run
        assert answers[0][0] == 0 and "dimension: " in answers[0][1]
        assert answers[1] == answers[0]
        assert {m for m in imported if m.startswith("stablerep")} == qualified(
            "errors", "cache"
        )


def test_no_module_imports_the_cli():
    """Under python -m stablerep.cli the CLI runs as __main__, so a module
    that imported it, say for _table or _text, would compile it a second
    time: no module of the package imports it, relatively or absolutely."""
    offenders = []
    for path in sorted((SRC / "stablerep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                # Within the package, a relative import is from stablerep.
                base = ".".join(filter(None, ["stablerep" if node.level else "", node.module]))
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "stablerep.cli" in names:
                offenders.append((path.name, node.lineno))
    assert offenders == []


def _names_read(*nodes: ast.AST) -> set[str]:
    """Every name and attribute name that code under nodes reads; a string,
    such as a docstring, reads none."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for node in nodes
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_src_definition_is_reached():
    """Each top-level function, class and constant of the package, and each
    method, is reached by name from what the commands and the benchmark
    run: cli.main, the runner of every COMMANDS row, the benchmark's API
    ops (perfbench/child.py) and their checks (run.Checker._api_ok).  A
    reached function reaches every name its code reads, whichever module
    defines it; a reached class its bases, its class body and its dunder
    methods, which the interpreter calls.  Module-level code outside a
    definition runs on import, and module dunders are called by the
    interpreter, so both are roots.  Code that only the tests run belongs
    in tests/conftest.py."""
    from stablerep.cli import COMMANDS

    defs: dict[str, list[tuple[str, list[ast.AST]]]] = {}
    roots = {"main"} | {row[1].split(".")[-1] for row in COMMANDS}
    for path in sorted((SRC / "stablerep").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                found = [(node.name, [node])]
            elif isinstance(node, ast.ClassDef):
                body = []
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not _is_dunder(m.name):
                        where = f"{path.stem}.{node.name}.{m.name}"
                        defs.setdefault(m.name, []).append((where, [m]))
                    else:
                        body.append(m)
                found = [(node.name, [*node.bases, *node.decorator_list, *body])]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found = [(t.id, [node]) for t in targets if isinstance(t, ast.Name)]
            else:
                roots |= _names_read(node)
                continue
            for name, code in found:
                if _is_dunder(name):
                    roots |= _names_read(*code)
                else:
                    defs.setdefault(name, []).append((f"{path.stem}.{name}", code))
    child = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    api = next(
        n.value for n in child.body if isinstance(n, ast.Assign) and n.targets[0].id == "API"
    )
    ops = {v.id for v in api.values}
    roots |= _names_read(*(n for n in child.body if getattr(n, "name", None) in ops))
    run = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    checker = next(n for n in run.body if getattr(n, "name", None) == "Checker")
    roots |= _names_read(next(n for n in checker.body if getattr(n, "name", None) == "_api_ok"))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += _names_read(*(node for _, code in defs.get(name, []) for node in code))
    unreached = sorted(w for name, found in defs.items() if name not in reached for w, _ in found)
    assert unreached == []


class TestLazyExports:
    def test_all_is_unchanged(self):
        assert stablerep.__all__ == EXPORTS

    def test_each_name_is_the_defining_modules_object(self):
        for name in EXPORTS:
            obj = getattr(stablerep, name)
            if name in SUBMODULES:
                assert obj is sys.modules[f"stablerep.{name}"], name
            else:
                assert obj.__module__.startswith("stablerep."), name
                assert getattr(sys.modules[obj.__module__], name) is obj, name

    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from stablerep import *", namespace)
        assert set(EXPORTS) <= set(namespace)
        assert all(namespace[n] is getattr(stablerep, n) for n in EXPORTS)

    def test_dir_lists_every_export(self):
        assert set(EXPORTS) <= set(dir(stablerep))
        assert "__version__" in dir(stablerep)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            stablerep.no_such_name
        assert not hasattr(stablerep, "cycle_index")

    def test_first_use_imports_only_the_defining_module(self):
        assert loaded_after("import stablerep\nstablerep.Partition") == qualified(
            "errors", "partitions"
        )

    def test_benchmark_api_ops_and_checker_resolve_through_the_package(self):
        # The benchmark's API ops (child.py) and their independent checks
        # (run.py's Checker) use stablerep.<name>; each must still pass.
        ops = [
            ("specht_module", "2,1"),
            ("schur_gl", "2,1", "2"),
            ("specht_character_traces", "2,1"),
            ("character_table", "4"),
        ]
        code = (
            "import contextlib, io, json\n"
            f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
            "import child, run, workloads\n"
            "checker = run.Checker({})\n"
            f"for args in {ops!r}:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = child.main(['api', json.dumps({'kind': 'api', 'args': list(args)})])\n"
            "    assert code == 0, args\n"
            "    assert checker._api_ok(workloads.api(*args), json.loads(out.getvalue())), args\n"
        )
        assert "stablerep.modules" in loaded_after(code)


def test_every_module_parses_as_python_3_10():
    """pyproject.toml declares requires-python >= 3.10: no module of the
    package or its tests uses syntax newer than 3.10."""
    files = sorted((SRC / "stablerep").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# CPython 3.10, the requires-python floor, among the version directories
# beside this interpreter's installation (as pyenv lays them out), if any.
FLOOR_PYTHON = min(Path(sys.base_prefix).parent.glob("3.10*/bin/python3.10"), default=None)

# Command lines that fail, with the exit code and the stderr they give.
PROGRAM_FAILURES = [
    ("verify rw-prop 2", 2, "usage error: expected verify rw-prop P Q D, got 1 values\n"),
    ("--budget 2 verify rw-prop 4 4 4", 3,
     "budget exceeded: labeled partitions 799 exceeds budget 2\n"),
    ("--json verify rw-prop 2 1 1", 1, ""),
]


@pytest.mark.parametrize("python", [
    pytest.param(sys.executable, id="sys.executable"),
    pytest.param(FLOOR_PYTHON, id="python3.10", marks=pytest.mark.skipif(
        FLOOR_PYTHON is None, reason="no CPython 3.10 beside this interpreter")),
])
def test_program_route_outputs(python):
    """Run as a program (``python -m stablerep.cli``), where main freezes
    the start-up heap, every CLI op of perfbench/golden.json exits and
    prints (stdout sha256) as recorded, and a usage error, a budget refusal
    and a failing check give their exit code and stderr.  Under CPython 3.10
    this also checks what parsing as 3.10 cannot: a call to a method newer
    than the floor, and how the package's tuple and dict subclasses behave
    there."""

    def program(argv):
        return subprocess.run(
            [str(python), "-m", "stablerep.cli", *argv], env=op_env(), capture_output=True
        )

    golden = json.loads((PERFBENCH / "golden.json").read_text())
    for key, recorded in sorted(golden.items()):
        if not key.startswith("cli: "):
            continue
        proc = program(key.removeprefix("cli: ").split())
        got = {"exit": proc.returncode, "sha256": hashlib.sha256(proc.stdout).hexdigest()}
        assert got == recorded, (key, proc.stderr.decode()[-2000:])
    for argv, code, stderr in PROGRAM_FAILURES:
        proc = program(argv.split())
        assert (proc.returncode, proc.stderr.decode()) == (code, stderr), argv


def freeze_count_after(code: str) -> int:
    """gc.get_freeze_count() as a fresh interpreter's code prints it on its
    last stdout line, after "FROZEN "."""
    out = subprocess.run(
        [sys.executable, "-c", code], env=op_env(), capture_output=True, text=True
    ).stdout
    line = out.splitlines()[-1]
    assert line.startswith("FROZEN "), out
    return int(line.split()[1])


class TestHeapFreeze:
    """main() freezes the heap on the program route only, so pytest's heap
    and the benchmark's traced runs, which pass argv, keep a normal
    collector."""

    def test_console_script_freezes(self):
        # main() does not return on the program route; atexit handlers run.
        code = (
            "import atexit, gc, sys\n"
            "from stablerep.cli import main\n"
            "atexit.register(lambda: print('FROZEN', gc.get_freeze_count()))\n"
            "sys.argv = ['stablerep', 'partitions', '1']\n"
            "main()"
        )
        assert freeze_count_after(code) > 0

    def test_run_module_freezes(self):
        code = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('FROZEN', gc.get_freeze_count()))\n"
            "sys.argv = ['stablerep', 'partitions', '1']\n"
            "runpy.run_module('stablerep.cli', run_name='__main__')"
        )
        assert freeze_count_after(code) > 0

    def test_main_with_argv_does_not_freeze(self, capsys):
        from stablerep.cli import main

        frozen = gc.get_freeze_count()
        assert main(["partitions", "1"]) == 0
        assert gc.get_freeze_count() == frozen


class TestProgramExit:
    """On the program route main() flushes, runs the atexit handlers and
    ends the process itself, skipping interpreter teardown."""

    @pytest.mark.parametrize(
        "argv",
        [("partitions", "30"), *(failure[0].split() for failure in PROGRAM_FAILURES)],
        ids=" ".join,
    )
    def test_atexit_handlers_run_once_after_the_whole_output(self, argv, capsys, monkeypatch):
        """For exit 0 (about 70 KB of stdout, more than a pipe holds), 1, 2
        and 3, a handler registered before main() runs exactly once, after
        everything main(argv) prints in process, and what it prints is
        flushed too."""
        from stablerep.cli import main

        monkeypatch.delenv("STABLEREP_BUDGET", raising=False)  # as op_env does
        code = main(list(argv))
        out, err = capsys.readouterr()
        handler = "lambda: print('ATEXIT') or print('ATEXIT', file=sys.stderr)"
        env = op_env()
        env.pop("PYTHONUNBUFFERED", None)  # so only the flushes write stdout
        proc = subprocess.run(
            [sys.executable, "-c",
             "import atexit, sys\n"
             "from stablerep.cli import main\n"
             f"atexit.register({handler})\n"
             f"sys.argv = ['stablerep', *{list(argv)!r}]\n"
             "main()\n"
             "print('RETURNED')"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == code
        assert proc.stdout == out + "ATEXIT\n"
        assert proc.stderr == err + "ATEXIT\n"

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", ["partitions 30", "partitions 1"])
    def test_closed_stdout_exits_120_without_traceback(self, argv, buffered):
        """A reader that closed stdout before the output (about 70 KB for
        partitions 30, written while printing; a few bytes for partitions
        1, written by the flush) gets exit 120, CPython's code for an
        unflushable stdout, and no traceback.  The atexit handlers still
        run, and since fd 1 then points at /dev/null, a handler's own flush
        of stdout does not fail either."""
        env = op_env()
        if buffered:
            env.pop("PYTHONUNBUFFERED", None)
        else:
            env["PYTHONUNBUFFERED"] = "1"
        handler = "lambda: print('ATEXIT', flush=True) or print('ATEXIT', file=sys.stderr)"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import atexit, sys\n"
                 "from stablerep.cli import main\n"
                 f"atexit.register({handler})\n"
                 f"sys.argv = ['stablerep', *{argv.split()!r}]\n"
                 "main()"],
                env=env, stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr.decode()) == (120, "ATEXIT\n")
