import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_parser
from stablerep.cli import COMMANDS, main, parse_args
from stablerep.errors import InvalidArgs
from stablerep.labeled import count_general


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# The benchmark's recorded outputs, read and never written here.
GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)


@pytest.mark.parametrize(
    "key", sorted(k for k in GOLDEN if k.startswith("cli: ")), ids=lambda k: k[5:]
)
def test_golden_outputs_pinned(capsys, key):
    """Every CLI op of the benchmark exits and prints (stdout sha256) as
    perfbench/golden.json recorded."""
    code, out = run(capsys, *key.removeprefix("cli: ").split())
    assert code == GOLDEN[key]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[key]["sha256"]


# Recorded while cli.py built the help itself.
@pytest.mark.parametrize(
    "argv, digest",
    [
        ("-h", "e32e3752fd460fb5b8227ff9eb5f0f940dcf001e7f92c82f4ac1e6e7abe65a8a"),
        ("verify -h", "29696ecdd970f931ae74ae8f1b18f1a9022535c9ffc2fcb4bd981ce02041da56"),
        ("stable-cohomology -h",
         "e9493bed09ac2e9f5c756d94c6fe8ab08e054e7ab362eb4d13d445416fcb5c59"),
    ],
)
def test_help_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBasicCommands:
    def test_partitions(self, capsys):
        code, out = run(capsys, "partitions", "4")
        assert code == 0
        assert "2,2" in out

    def test_partitions_json_roundtrip(self, capsys):
        code, out = run(capsys, "--json", "partitions", "5")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 7 and "3,1,1" in data

    def test_char(self, capsys):
        code, out = run(capsys, "char", "2,1", "--json")
        data = json.loads(out)
        values = {e["class"]: e["value"] for e in data["values"]}
        assert values == {"1,1,1": 2, "2,1": 0, "3": -1}

    def test_lr(self, capsys):
        code, out = run(capsys, "lr", "2,1", "1", "1,1")
        assert code == 0 and out.strip() == "1"

    def test_labeled_partitions(self, capsys):
        code, out = run(capsys, "labeled-partitions", "2", "1", "--json")
        data = json.loads(out)
        assert data["count"] == 3 and len(data["elements"]) == 3

    def test_hom_dim(self, capsys):
        code, out = run(capsys, "hom-dim", "2", "1", "2")
        assert code == 0 and out.strip() == "5"

    def test_hom_dim_builds_no_fw_piece(self, capsys):
        # The FW piece of (5, 5, 5) has 375,282 monomials; the Hom side reads
        # 252 weights instead and fits the default budget.
        code, out = run(capsys, "hom-dim", "5", "5", "5")
        assert code == 0 and out.strip() == str(count_general(5, 5))


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out = run(capsys, "verify", "splitting", "2", "1", "2")
        assert code == 0 and out.startswith("PASS")

    def test_fail_exit_one(self, capsys):
        code, out = run(capsys, "verify", "rw-prop", "2", "1", "1")
        assert code == 1 and out.startswith("FAIL")

    def test_json_report(self, capsys):
        code, out = run(capsys, "verify", "step1", "3", "2", "2", "--json")
        data = json.loads(out)
        assert data["pass"] is True and data["left"] == data["right"]

    def test_json_witnesses_keep_their_values_own_form(self):
        # A Partition is its string and a labeled partition or a
        # decomposition its to_json, nested in a list or a dict too, never
        # the JSON array or object of the tuple or dict each one is.
        from stablerep.labeled import GeneralLabeledPartition
        from stablerep.partitions import IrredDecomposition, Partition
        from stablerep.report import Report, _jsonable

        lam, x = Partition([2, 1]), GeneralLabeledPartition(((0, 1), (2,)), (1, 0))
        dec = IrredDecomposition({lam: 2})
        x_json = {"parts": [{"elements": [1, 2], "label": 1}, {"elements": [3], "label": None}]}
        dec_json = [{"key": "2,1", "multiplicity": 2}]
        witnesses = {"in_list": [lam, x, dec], "in_dict": {"shape": lam, "object": x, "dec": dec}}
        assert _jsonable(witnesses) == {
            "in_list": ["2,1", x_json, dec_json],
            "in_dict": {"shape": "2,1", "object": x_json, "dec": dec_json},
        }
        data = Report("claim", lam, x, True, witnesses).to_json()
        assert data["left"] == "2,1" and data["right"] == x_json
        assert data["witnesses"] == _jsonable(witnesses)

    def test_cauchy_and_schur_weyl(self, capsys):
        assert run(capsys, "cauchy", "3", "2", "2")[0] == 0
        assert run(capsys, "schur-weyl", "3", "2")[0] == 0

    def test_extension(self, capsys):
        assert run(capsys, "verify", "extension", "2,1", "2", "1")[0] == 0

    def test_wrong_arity_usage_error(self, capsys):
        code = main(["verify", "rw-prop", "2"])
        assert code == 2


class TestStableCohomologyCommand:
    def test_json_output(self, capsys):
        code, out = run(capsys, "stable-cohomology", "2", "1", "--json")
        data = json.loads(out)
        assert data["dimension"] == 3 and data["degree"] == 1

    def test_off_degree_zero(self, capsys):
        code, out = run(capsys, "stable-cohomology", "2", "1", "--degree", "0", "--json")
        assert json.loads(out)["dimension"] == 0

    @pytest.mark.parametrize(
        "argv", ["1 2 --degree 5 --table 1 1", "3 --table 2 2", "3 1 --table 2 2",
                 "--degree 0 --table 2 2", "--table 2 2 4 4"]
    )
    def test_table_takes_no_cell(self, capsys, argv):
        assert main(["stable-cohomology", *argv.split()]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "usage error: --table PMAX QMAX takes no P, Q or --degree\n"

    def test_table(self, capsys):
        code, out = run(capsys, "stable-cohomology", "--table", "3", "3", "--json")
        rows = json.loads(out)
        spot = {(r["p"], r["q"]): r["dimension"] for r in rows}
        assert spot[(2, 1)] == 3 and spot[(3, 3)] == 6

    def test_missing_args_usage(self, capsys):
        code = main(["stable-cohomology"])
        assert code == 2

    def test_zero_cell_json_pinned(self, capsys):
        # Recorded while a zero cell built its all-zero character at once.
        code, out = run(capsys, "--json", "stable-cohomology", "2", "4")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b2dd205fb2c5379138d14760e2251681688a787e4af3af2544393e1c61ffd658"
        )

    def test_zero_cell_refused_before_anything_is_built(self, capsys, monkeypatch):
        # p(8)·p(9) = 660 class pairs, counted before a zero cell lists any.
        from stablerep import characters, counts

        def refuse(*args):
            raise AssertionError(f"built at {args}")

        with monkeypatch.context() as m:
            m.setattr(characters, "ClassFunction", refuse)
            m.setattr(characters, "cycle_types", refuse)
            m.setattr(counts, "_orbit_ways", refuse)
            assert main(["--budget", "10", "stable-cohomology", "8", "9", "--degree", "0"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "budget exceeded: class pairs more than 10 exceeds budget 10\n"
        )

    # Exit code and stdout sha256, equal to the entries of
    # perfbench/golden.json.  The stable-cohomology digests were recorded
    # with the enumeration-based calculator, and the verify/hom-dim ones
    # with the rational-only sparse rank; the closed form and the modular
    # rank must print the same bytes.
    @pytest.mark.parametrize(
        "argv, digest, exit_code",
        [
            ("stable-cohomology 7 2",
             "9e31f8324ec470c1155dd43bf8ed5e6482a68429ca3418e9282e3afd9b592e3b", 0),
            ("--json stable-cohomology 6 3",
             "0594892de1c22025725c94ce33eba371693cf11923c03e6b2a8c576a895ef0d6", 0),
            ("stable-cohomology --table 6 6",
             "3239f4ee3b46dfb9483dff7f41c155b3559669231806fc763c20369b2b94d199", 0),
            ("verify rw-prop 4 2 4",
             "abad8e7fa41b2704cd990bc22e4b6bd091c0a0ce70b600618e45920b5217ca26", 0),
            ("--json verify rw-prop 2 1 1",
             "62aab77fa9cb883ec745d9f5e03c7affc41cc01ef3883b7816f3bea3bd897960", 1),
            ("hom-dim 4 4 4",
             "dcd29fcba35ffc953808262baffb971b9ceae5b1d54958c95bee9f8845e8434c", 0),
            ("verify rw-prop 4 4 4",
             "301d6946389be53ce5e0717a37f9ab3bb62a195825a52a23f469db4b06396b9b", 0),
            ("verify splitting 4 4 4",
             "ed1ef43fd6cfa01e60547ada0a92100fac84d96d7defea5f9f52ea966a506215", 0),
            # Recorded with the enumerated FW piece under --budget 100000
            # (77,405 monomials); the weight generating functions print the
            # same bytes within the default budget.
            ("verify splitting 5 3 5",
             "ece86e7589b01e86f8d502bc876375c3b6033b9d5e7c5f77838efa8387510eeb", 0),
            # Not in golden.json: recorded with the enumerated characters,
            # 7 3 under a lifted budget (it enumerated 60,814 labeled
            # partitions); the cycle indices must print the same bytes
            # within the default budget.
            ("verify induction 7 2",
             "e35ab6519ad2c6aa0aad20bbcc443412250adf4a8e3e20df9c3175f64811b7b1", 0),
            ("--json verify induction 7 3",
             "0a207ecd15c3d64f2ca3058bc458c3fd4afc037de27945063ebf354475804317", 0),
            # Recorded with the two-sort cycle index; the orbit count and
            # the identity-count recurrence must print the same bytes.
            ("--json stable-cohomology 12 6",
             "244166c18f29c02b9ff8059c30f345ca225a50c2560071987249fa84a8645f4b", 0),
            ("--json verify induction 12 6",
             "3af399138d2e00ff4e6a51591e02a8f30a3edbd170b8a3f96215773e2ffb4f49", 0),
            ("--json stable-cohomology 18 9",
             "edc050550e1b1aad14054a4c0852d0dc3a173981d4e2262ecdec3611870df369", 0),
            # Recorded while these cells also solved their intertwiner
            # systems; Weyl's alternant must print the same bytes.
            ("hom-dim 2 1 2",
             "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06", 0),
            ("hom-dim 3 1 3",
             "238903180cc104ec2c5d8b3f20c5bc61b389ec0a967df8cc208cdc7cd454174f", 0),
            ("hom-dim 3 3 1",
             "64aeb9975f234becd55bb4635e6e2f2da7a6b7bf0a896f0c07763bdfbfb31420", 0),
            ("--json verify splitting 3 2 3",
             "7c85bad7a87848ab8453371461e572fe45935f444f44308f1f6f70792f393fb1", 0),
        ],
    )
    def test_output_pinned(self, capsys, argv, digest, exit_code):
        code, out = run(capsys, *argv.split())
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2

    def test_budget_exceeded(self, capsys):
        assert main(["--budget", "2", "verify", "rw-prop", "4", "4", "4"]) == 3

    def test_budget_bounds_labeled_partitions(self, capsys):
        assert main(["--budget", "1", "labeled-partitions", "5", "2"]) == 3

    def test_budget_bounds_char_classes(self, capsys, monkeypatch):
        # char 25 has p(25) = 1,958 classes, refused before any character
        # value is computed.
        from stablerep import characters

        def refuse(lam):
            raise AssertionError(f"character of {lam} computed")

        with monkeypatch.context() as m:
            m.setattr(characters, "irreducible_character", refuse)
            assert main(["char", "25", "--budget", "10"]) == 3
            assert main(["--budget", "1957", "char", "25"]) == 3
        assert "classes more than 1957" in capsys.readouterr().err
        code, out = run(capsys, "--budget", "1958", "--json", "char", "25")
        assert code == 0 and len(json.loads(out)["values"]) == 1958
        code, out = run(capsys, "--budget", "3", "char", "2,1")
        assert code == 0
        assert out == "class  chi^(2,1)\n-----  ---------\n3      -1\n2,1    0\n1,1,1  2\n"

    def test_class_count_refuses_before_it_grows(self, capsys):
        # p(30000) has 188 digits; the count stops at p(37) > 20,000.
        assert main(["verify", "induction", "30000", "1"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: class pairs more than 20000 exceeds budget 20000\n"
        )

    def test_budget_bounds_partitions(self, capsys, monkeypatch):
        # p(40) = 37,338 is refused by the count, which stops at p(37) >
        # 20,000, before any partition is listed; p(35) = 14,883 runs.
        from stablerep import partitions

        def refuse(n):
            raise AssertionError(f"partitions of {n} listed")

        with monkeypatch.context() as m:
            m.setattr(partitions, "enumerate_partitions", refuse)
            assert main(["--budget", "10", "partitions", "40"]) == 3
            assert main(["partitions", "40"]) == 3
            assert main(["--budget", "14882", "--json", "partitions", "35"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "budget exceeded: partitions more than 10 exceeds budget 10",
            "budget exceeded: partitions more than 20000 exceeds budget 20000",
            "budget exceeded: partitions more than 14882 exceeds budget 14882",
        ]
        code, out = run(capsys, "--json", "partitions", "35")
        assert code == 0 and len(json.loads(out)) == 14883

    def test_budget_bounds_split_extension_lr_evaluations(self, capsys, monkeypatch):
        # 4,3,2,1 asks for 324 LR coefficients and 6,5,4,3,2,1 for 20,461,
        # counted before any subdiagram is listed.
        from stablerep import functors

        def refuse(n):
            raise AssertionError(f"partitions of {n} listed")

        _, plain = run(capsys, "verify", "extension", "4,3,2,1", "3", "3")
        with monkeypatch.context() as m:
            m.setattr(functors, "enumerate_partitions", refuse)
            assert main(["--budget", "323", "verify", "extension", "4,3,2,1", "3", "3"]) == 3
            assert main(["verify", "extension", "6,5,4,3,2,1", "3", "3"]) == 3
            assert main(["verify", "extension", "40", "1", "1"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "budget exceeded: LR coefficient evaluations 324 exceeds budget 323",
            "budget exceeded: LR coefficient evaluations 20461 exceeds budget 20000",
            "budget exceeded: LR coefficient evaluations more than 20000 exceeds budget 20000",
        ]
        code, out = run(capsys, "--budget", "324", "verify", "extension", "4,3,2,1", "3", "3")
        assert code == 0 and out == plain

    def test_budget_bounds_hom_weight_table(self, capsys):
        assert main(["--budget", "1", "hom-dim", "4", "4", "4"]) == 3

    @pytest.mark.parametrize("cell", ["1 100000 1", "19999 0 1"])
    def test_default_budget_bounds_hom_weight_table_steps(self, capsys, cell):
        # Cheap weight tables, but q unit cycles or a quadratic fill.
        assert main(["hom-dim", *cell.split()]) == 3

    def test_budget_bounds_stable_cohomology_class_pairs(self, capsys, monkeypatch):
        # 7 2 has p(7)·p(2) = 30 class pairs, and 20 10 has 627·42 = 26,334,
        # refused by default before any orbit state or identity count is
        # built; zero cells count their pairs too, and --table those of its
        # top cell, p(7)^2 at 7 9.  18 9 (11,550 pairs) fits the default cap.
        from stablerep import characters, stable
        from stablerep.partitions import check_class_budget

        def refuse(*args):
            raise AssertionError(f"built at {args}")

        _, plain = run(capsys, "stable-cohomology", "7", "2")
        with monkeypatch.context() as m:
            m.setattr(characters, "_orbit_states", refuse)
            m.setattr(stable, "pq_identity_counts", refuse)
            assert main(["--budget", "29", "stable-cohomology", "7", "2"]) == 3
            assert main(["--budget", "29", "stable-cohomology", "7", "2", "--degree", "3"]) == 3
            assert main(["stable-cohomology", "20", "10"]) == 3
            assert main(["--budget", "224", "stable-cohomology", "--table", "7", "9"]) == 3
        err = capsys.readouterr().err
        assert err.count("class pairs 30 exceeds budget 29") == 2
        assert "class pairs 26334 exceeds budget 20000" in err
        assert "class pairs 225 exceeds budget 224" in err
        code, budgeted = run(capsys, "--budget", "30", "stable-cohomology", "7", "2")
        assert code == 0 and budgeted == plain
        assert main(["--budget", "225", "stable-cohomology", "--table", "7", "9"]) == 0
        check_class_budget(None, 18, 9)

    def test_budget_bounds_step1_series_steps(self, capsys):
        # 55 1 1 takes 19,320 series steps and 56 1 1 20,079; 100000 1 1 is
        # refused from its first factor's count, and --budget reaches the
        # check.
        assert main(["verify", "step1", "55", "1", "1"]) == 0
        assert main(["verify", "step1", "56", "1", "1"]) == 3
        assert main(["verify", "step1", "100000", "1", "1"]) == 3
        assert main(["--budget", "1", "verify", "step1", "200", "1", "1"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "budget exceeded: series steps 20079 exceeds budget 20000",
            "budget exceeded: series steps more than 20000 exceeds budget 20000",
            "budget exceeded: series steps more than 1 exceeds budget 1",
        ]

    # Recorded before step1 counted a budget and built each series once.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("verify step1 3 2 2",
             "1f48299f7bbe5b22b3c30644d442903009158af0c4363accfa1a2499d338f030"),
            ("--json verify step1 3 2 2",
             "e94b7e52e2e0a33039ecb6cbd4773becb38692d5cb93c63fc2b1d7543ef3d437"),
            ("verify step1 4 3 3",
             "131d884c0bcfedfa662823e5d4e8c446b4d31b06c9918737402bdaae75f7956c"),
            ("verify step1 40 1 1",
             "f2c5cdaaaf51b130c95b71f095c7c46f18586db7ce87336c8566cb7ae4dfb0cd"),
            ("--json verify step1 30 3 5",
             "41f075c8176fe12c4c9ff7be556ab6e3f46449aaa52a5cbac2621fc3e664ed65"),
            ("verify step1 -1 1 1",
             "25fbb9dd72c5f57e782cfbc856f380e2bfd5bd0891b11f10904b62fc5c52298f"),
        ],
    )
    def test_step1_output_pinned(self, capsys, argv, digest):
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("STABLEREP_BUDGET", "2")
        assert main(["verify", "rw-prop", "4", "4", "4"]) == 3
        monkeypatch.setenv("STABLEREP_BUDGET", "junk")
        capsys.readouterr()
        assert main(["partitions", "3"]) == 2
        assert capsys.readouterr().err == (
            "usage error: STABLEREP_BUDGET must be an integer, got 'junk'\n"
        )

    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv", ["stable-cohomology 1 1", "partitions 3", "lr 1 1 2", "verify step1 1 1 1"]
    )
    def test_budget_below_one_is_a_usage_error(self, capsys, monkeypatch, argv, budget):
        """From the flag or the environment, before any work: no compute
        module is imported, and nothing is printed to stdout."""
        computes = ("stablerep.stable", "stablerep.schur", "stablerep.functors")
        for module in computes:
            monkeypatch.delitem(sys.modules, module, raising=False)
        want = f"usage error: budget must be at least 1, got {budget}\n"
        assert main(["--budget", budget] + argv.split()) == 2
        assert capsys.readouterr() == ("", want)
        monkeypatch.setenv("STABLEREP_BUDGET", budget)
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", want)
        assert not set(computes) & set(sys.modules)
        assert main(["--budget", "1", "partitions", "0"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["char", "x"],
            ["char", "1,2"],
            ["lr", "2,1", "1", "q"],
            ["verify", "rw-prop", "a", "1", "1"],
            ["verify", "extension", "2,x", "1", "1"],
            ["verify", "extension", "2,1", "1", "b"],
            ["verify", "rw-prop", "2", "-1", "1"],
        ],
    )
    def test_malformed_input_usage_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        if "-1" in argv:
            # A negative q reaches enumerate_general, which refuses it.
            assert err == "usage error: q must be non-negative, got -1\n"


def small_command_lines():
    """Cheap command lines of every row, some with --json, some with a
    budget small enough to refuse them."""
    n = st.integers(0, 3).map(str)
    d = st.integers(1, 3).map(str)
    shape = st.sampled_from(["1", "2", "1,1", "2,1", "3,1", "2,2", "1,1,1"])
    rows = st.one_of(
        st.tuples(st.just("partitions"), n),
        st.tuples(st.just("char"), shape),
        st.tuples(st.just("lr"), shape, shape, shape),
        st.tuples(st.just("labeled-partitions"), n, n),
        st.tuples(st.just("hom-dim"), n, n, d),
        st.tuples(st.just("stable-cohomology"), n, n),
        st.tuples(st.just("cauchy"), n, d, d),
        st.tuples(st.just("schur-weyl"), n, d),
        st.tuples(st.just("verify"), st.just("rw-prop"), n, n, d),
        st.tuples(st.just("verify"), st.just("splitting"), n, n, d),
        st.tuples(st.just("verify"), st.just("extension"), shape, d, d),
        st.tuples(st.just("verify"), st.just("induction"), n, n),
        st.tuples(st.just("verify"), st.just("step1"), n, n, d),
    )
    options = st.tuples(
        st.sampled_from([(), ("--json",)]),
        st.sampled_from([(), ("--budget", "2"), ("--budget", "30")]),
    )
    return st.builds(lambda row, opts: [*opts[0], *opts[1], *row], rows, options)


class TestCache:
    @settings(max_examples=80, deadline=None)
    @given(small_command_lines())
    def test_miss_and_hit_print_what_an_uncached_run_prints(self, argv):
        """Stdout, stderr and exit code of a cache miss and then of a hit
        are those of the run without a cache; only exit 0 and 1 are stored."""

        def outcome(*cache):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*cache, *argv])
            return out.getvalue(), err.getvalue(), code

        with tempfile.TemporaryDirectory() as cache:
            plain = outcome()
            assert outcome("--cache", cache) == plain
            assert len(os.listdir(cache)) == (plain[2] in (0, 1))
            assert outcome("--cache", cache) == plain

    def test_byte_identical_with_and_without_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        _, plain = run(capsys, "stable-cohomology", "--table", "3", "3")
        _, first = run(capsys, "--cache", cache, "stable-cohomology", "--table", "3", "3")
        _, second = run(capsys, "--cache", cache, "stable-cohomology", "--table", "3", "3")
        assert plain == first == second
        assert list(tmp_path.joinpath("cache").iterdir())

    def test_cache_preserves_exit_code(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        args = ["--cache", cache, "verify", "rw-prop", "2", "1", "1"]
        assert main(args) == 1
        capsys.readouterr()
        assert main(args) == 1  # served from cache

    def test_distinct_commands_distinct_entries(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        run(capsys, "--cache", cache, "partitions", "3")
        run(capsys, "--cache", cache, "partitions", "4")
        assert len(list(tmp_path.joinpath("cache").iterdir())) == 2

    def test_budget_is_part_of_the_key(self, capsys, tmp_path, monkeypatch):
        args = ["--cache", str(tmp_path / "cache"), "hom-dim", "3", "1", "3"]
        monkeypatch.setenv("STABLEREP_BUDGET", "1")
        assert main(args) == 3
        monkeypatch.delenv("STABLEREP_BUDGET")
        assert main(args) == 0
        monkeypatch.setenv("STABLEREP_BUDGET", "1")
        assert main(args) == 3
        monkeypatch.delenv("STABLEREP_BUDGET")
        assert main(["--budget", "1"] + args) == 3

    def test_options_before_or_after_share_a_key(self, capsys, tmp_path, monkeypatch):
        """The key hashes what was parsed and the effective budget, not where
        or how an option was spelled."""
        cache = tmp_path / "cache"
        outputs = set()
        for argv in (["--json", "--budget", "500", "hom-dim", "3", "1", "3"],
                     ["hom-dim", "3", "--bud=500", "1", "3", "--js"],
                     ["--budget", "500", "hom-dim", "--json", "3", "1", "3"]):
            assert main(["--cache", str(cache)] + argv) == 0
            outputs.add(capsys.readouterr().out)
        monkeypatch.setenv("STABLEREP_BUDGET", "500")
        assert main(["hom-dim", "3", "1", "3", "--json", f"--cache={cache}"]) == 0
        outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1 and len(list(cache.iterdir())) == 1
        assert main(["hom-dim", "3", "1", "3", "--json", "--budget", "501", "--cache", str(cache)]) == 0
        assert capsys.readouterr().out in outputs and len(list(cache.iterdir())) == 2


class TestHelp:
    @pytest.mark.parametrize(
        "argv", ["-h", "--help", "--json -h", "verify -h", "partitions -h", "--he partitions",
                 "stable-cohomology 7 --h", "verify rw-prop 2 1 1 -h"]
    )
    def test_help_exits_zero_on_stdout(self, capsys, argv):
        assert main(argv.split()) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: stablerep [--json] [--budget N] [--cache DIR] ")
        assert err == ""

    def test_help_names_every_row(self, capsys):
        main(["-h"])
        out = capsys.readouterr().out
        for command, _, params, help_ in COMMANDS:
            assert f"  {command} {params}" in out and help_ in out

    def test_help_of_a_group_or_a_command(self, capsys):
        main(["verify", "-h"])
        out = capsys.readouterr().out
        checks = [row[0] for row in COMMANDS if row[0].startswith("verify ")]
        assert [x.split()[:2] for x in out.splitlines() if x.startswith("  verify ")] == [
            c.split() for c in checks
        ]
        assert "partitions" not in out
        main(["stable-cohomology", "-h"])
        assert capsys.readouterr().out.splitlines()[0] == (
            "usage: stablerep [--json] [--budget N] [--cache DIR] "
            "stable-cohomology [P] [Q] [--degree K] [--table PMAX QMAX]"
        )


# The CLI grammar over small sizes and malformed partitions: every
# subcommand and every check (the COMMANDS rows), with the forms of
# stable-cohomology listed by hand in place of its row.
SIZES = st.integers(-1, 3).map(str)
LAMBDAS = st.sampled_from(["a", ",", "2,,1", "-1", "1,2", "2,1", "0", "3", "1,1,1"])
GRAMMAR = [
    ("partitions", [SIZES]),
    ("char", [LAMBDAS]),
    ("lr", [LAMBDAS] * 3),
    ("labeled-partitions", [SIZES] * 2),
    ("hom-dim", [SIZES] * 3),
    ("stable-cohomology", [SIZES] * 2),
    ("stable-cohomology", [SIZES, SIZES, st.just("--degree"), SIZES]),
    ("stable-cohomology --table", [SIZES] * 2),
] + [
    (command, [LAMBDAS if p == "LAMBDA" else SIZES for p in params.split()])
    for command, _, params, _ in COMMANDS
    if command != "stable-cohomology"
]


@st.composite
def command_lines(draw):
    command, slots = draw(st.sampled_from(GRAMMAR))
    argv = command.split() + [draw(slot) for slot in slots]
    budget = draw(st.sampled_from([[], [], ["--budget", "1"], ["--budget", "30"]]))
    return draw(st.sampled_from([argv, ["--json"] + argv, argv + ["--json"]])) + budget


# Spellings argparse also accepted or rejected, inserted anywhere in a
# command line of the grammar: unique prefixes, --flag=value, the
# stable-cohomology options elsewhere, a negative number, "--" and malformed
# options.
SPELLINGS = st.sampled_from(
    [["--json"], ["--js"], ["--budget", "5"], ["--budget=5"], ["--bud", "5"], ["--b=0"],
     ["--budget", "-1"], ["--cache", "c"], ["--cache=c"], ["--ca", "-1"], ["--cache="],
     ["--degree", "1"], ["--deg", "0"], ["--degree=-1"], ["--table", "2", "2"], ["--tab", "1", "3"],
     ["--table=2"], ["--json=1"], ["--budget"], ["--bogus"], ["-x"], ["--"], ["-1"], ["2"],
     ["-"], ["--=1"]]
)


@st.composite
def spelled_command_lines(draw):
    argv = draw(st.one_of(command_lines(), st.just(["partitions", "--", "2"])))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(SPELLINGS)
    return argv


ORACLE = build_parser()


def oracle_parse(argv):
    """The fields argparse read from argv, or None and its error."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            ns = ORACLE.parse_args(argv)
    except SystemExit:
        return None, err.getvalue()
    command = f"verify {ns.what}" if ns.command == "verify" else ns.command
    names = getattr(ns, "params", None) or [
        k for k in ("n", "lam", "mu", "nu", "p", "q", "d") if hasattr(ns, k)
    ]
    table = getattr(ns, "table", None)
    return (
        command, [getattr(ns, k) for k in names], ns.json, ns.budget, ns.cache,
        getattr(ns, "degree", None), table and tuple(table),
    ), ""


def parsed_fields(args):
    return args.command, args.values, args.json, args.budget, args.cache, args.degree, args.table


def argparse_quirk(argv, err):
    """Whether argparse rejected argv only for tokens it left over in one of
    two quirks, which the table parser reads: a stable-cohomology Q after an
    option (argparse takes the optional P and Q from the first run of values
    alone, as in ``stable-cohomology 7 --degree 3 2``), and a "--" after an
    option once every value is read (``partitions 3 --json --``).  argparse
    then accepts argv without those tokens and reads the rest the same."""
    prefix = "stablerep: error: unrecognized arguments: "
    last = err.strip().splitlines()[-1]
    if not last.startswith(prefix):
        return False
    extras = last.removeprefix(prefix).split(" ")
    values = [x for x in extras if x != "--"]
    if len(values) > 1 or (values and "stable-cohomology" not in argv):
        return False
    try:
        fields = parsed_fields(parse_args(argv))
    except InvalidArgs:
        return False
    for at in itertools.combinations(range(len(argv)), len(extras)):
        if [argv[i] for i in at] != extras:
            continue
        expected, _ = oracle_parse([x for i, x in enumerate(argv) if i not in at])
        if expected is None:
            continue
        if values and expected[1][1] is None and values[0].lstrip("-").isdigit():
            expected[1][1] = int(values[0])
        if fields == expected:
            return True
    return False


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestGrammarFuzz:
    def test_grammar_covers_every_command(self):
        words = {" ".join(w for w in c.split() if not w.startswith("--")) for c, _ in GRAMMAR}
        assert words == {row[0] for row in COMMANDS}

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def test_exit_one_only_for_a_failed_check(self, argv):
        code, out, err = run_in_process(argv)
        assert code in (0, 1, 2, 3)
        as_json = "--json" in argv
        if as_json and out:
            json.loads(out)
        if code == 1 and not err.startswith("error: OracleDisagreement: "):
            assert json.loads(out)["pass"] is False if as_json else out.startswith("FAIL: ")
        if code == 2:
            assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1

    @settings(max_examples=600, deadline=None)
    @given(spelled_command_lines())
    def test_table_parser_reads_what_argparse_read(self, argv):
        """Every command line the argparse oracle accepts means the same to
        the table parser; every one it rejects exits 2 with one usage-error
        line, except where argparse_quirk says why argparse refused."""
        expected, err = oracle_parse(argv)
        if expected is not None:
            assert parsed_fields(parse_args(argv)) == expected
            return
        if argparse_quirk(argv, err):
            return
        with pytest.raises(InvalidArgs):
            parse_args(argv)
        code, out, err = run_in_process(argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, values",
        [("stable-cohomology 7 --degree 3 2", [7, 2]),
         ("stable-cohomology --json 2 --bud 5 1", [2, 1]),
         ("stable-cohomology 3 --table 2 2 1", [3, 1]),
         ("stable-cohomology 7 --json -- 2", [7, 2]),
         ("partitions 3 --json --", [3])],
    )
    def test_argparse_quirks(self, argv, values):
        expected, err = oracle_parse(argv.split())
        assert expected is None and argparse_quirk(argv.split(), err)
        assert parse_args(argv.split()).values == values

    # Each exited 1 (step1, cauchy) or raised (schur-weyl) before the
    # library checked its sizes.
    @pytest.mark.parametrize(
        "argv",
        ["cauchy -1 2 2", "verify step1 1 1 0", "verify step1 2 1 -1",
         "verify step1 0 -1 1", "schur-weyl -1 0", "schur-weyl 2 -1"],
    )
    def test_negative_or_zero_sizes_are_usage_errors(self, capsys, argv):
        assert main(argv.split()) == 2
        assert capsys.readouterr().err.startswith("usage error: bad parameters")

    @pytest.mark.parametrize(
        "argv",
        ["char 3,0,2", "verify extension 1,0,1 2 2", "lr 2,0,1 1 2,1,1",
         "lr 2,1 0,1 2,1,1"],
    )
    def test_interior_zeros_are_usage_errors(self, capsys, argv):
        assert main(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: not a partition: ")
        assert err.count("\n") == 1
