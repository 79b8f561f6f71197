import argparse
import contextlib
import hashlib
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from stablerep.cli import CHECKS, build_parser, main
from stablerep.labeled import LabelAlphabet, count_general


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
        assert code == 0 and out.strip() == str(count_general(5, LabelAlphabet(5)))


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
        from stablerep import schur

        def refuse(n):
            raise AssertionError(f"partitions of {n} listed")

        _, plain = run(capsys, "verify", "extension", "4,3,2,1", "3", "3")
        with monkeypatch.context() as m:
            m.setattr(schur, "enumerate_partitions", refuse)
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
        # refused by default before the cycle index is built; zero cells
        # count their pairs too, and --table those of its top cell, p(7)^2
        # at 7 9.  18 9 (11,550 pairs) fits the default cap.
        from stablerep import characters
        from stablerep.partitions import check_class_budget

        def refuse(p_max, q_max):
            raise AssertionError(f"cycle index to ({p_max}, {q_max}) built")

        _, plain = run(capsys, "stable-cohomology", "7", "2")
        with monkeypatch.context() as m:
            m.setattr(characters, "_cycle_index", refuse)
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
        assert main(["partitions", "3"]) == 2

    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv", ["stable-cohomology 1 1", "partitions 3", "lr 1 1 2", "verify step1 1 1 1"]
    )
    def test_budget_below_one_is_a_usage_error(self, capsys, monkeypatch, argv, budget):
        """From the flag or the environment, before any work: no compute
        module is imported, and nothing is printed to stdout."""
        monkeypatch.delitem(sys.modules, "stablerep.stable", raising=False)
        monkeypatch.delitem(sys.modules, "stablerep.schur", raising=False)
        want = f"usage error: budget must be at least 1, got {budget}\n"
        assert main(["--budget", budget] + argv.split()) == 2
        assert capsys.readouterr() == ("", want)
        monkeypatch.setenv("STABLEREP_BUDGET", budget)
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", want)
        assert not {"stablerep.stable", "stablerep.schur"} & set(sys.modules)
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
        ],
    )
    def test_malformed_input_usage_error(self, capsys, argv):
        assert main(argv) == 2


class TestCache:
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


# The CLI grammar over small sizes and malformed partitions: every
# subcommand and every verify check (the CHECKS rows), with the forms of
# stable-cohomology.
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
    for command, _, params, _ in CHECKS
]


@st.composite
def command_lines(draw):
    command, slots = draw(st.sampled_from(GRAMMAR))
    argv = command.split() + [draw(slot) for slot in slots]
    budget = draw(st.sampled_from([[], [], ["--budget", "1"], ["--budget", "30"]]))
    return draw(st.sampled_from([argv, ["--json"] + argv, argv + ["--json"]])) + budget


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestGrammarFuzz:
    def test_grammar_covers_every_command(self):
        (sub,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(sub.choices) == {command.split()[0] for command, _ in GRAMMAR}

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
