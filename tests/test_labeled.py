import itertools
import random
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from stablerep.characters import cycle_types, pq_bicharacter
from stablerep.counts import count_pq, pq_identity_counts
from stablerep.errors import InvalidArgs, OracleDisagreement, SizeBudgetExceeded
from stablerep.labeled import (
    GeneralLabeledPartition,
    count_general,
    enumerate_general,
    enumerate_pq,
    fixed_weights,
    hom_bicharacter,
    hom_space_dimension_gl,
    phi_columns,
    set_partitions,
    verify_rw_prop,
    verify_splitting_lemma,
)
from stablerep import characters, functors, induction, labeled, linalg
from stablerep.characters import ClassFunction
from stablerep.functors import graded_sym_algebra_dimension
from stablerep.induction import (
    general_bicharacter,
    induced_pq_bicharacter,
    theorem_a_induction_check,
)
from stablerep.modules import perm_cycle_type
from stablerep.partitions import IrredDecomposition, Partition, specht_dimension
from stablerep.schur import decompose_weight_multiset

import conftest
from conftest import (
    FWGradedPiece,
    _tensor_weight,
    act,
    all_perms,
    bell_oracle,
    check_phi_equivariance,
    class_representative,
    fixed_weights_oracle,
    intertwiner_solve_dimension,
    permutation_bicharacter,
    rw_prop_rank_oracle,
    set_partitions_brute,
    splitting_map,
)


class TestEnumeration:
    def test_set_partition_counts_are_bell(self):
        for p in range(8):
            assert len(set_partitions(p)) == bell_oracle(p)

    def test_set_partitions_match_brute_force(self):
        for p in range(6):
            mine = {tuple(sorted(sp)) for sp in set_partitions(p)}
            brute = {
                tuple(sorted(tuple(sorted(b)) for b in sp))
                for sp in set_partitions_brute(p)
            }
            assert mine == brute
        # Each is canonical: parts increasing and sorted by minimum.
        for p in range(9):
            for sp in set_partitions(p):
                assert sp == tuple(sorted((tuple(sorted(b)) for b in sp), key=min))

    def test_general_counts(self):
        assert len(enumerate_general(2, 1)) == 5
        assert len(enumerate_general(1, 0)) == 1
        assert len(enumerate_general(3, 0)) == bell_oracle(3)
        assert len(enumerate_general(4, 4)) == 799
        for call in (enumerate_general, count_general):
            with pytest.raises(InvalidArgs, match="^q must be non-negative, got -1$"):
                call(1, -1)

    def test_count_general_closed_form(self):
        for p in range(6):
            for q in range(4):
                assert count_general(p, q) == len(enumerate_general(p, q))

    def test_pq_counts(self):
        assert len(enumerate_pq(2, 1)) == 3
        assert len(enumerate_pq(3, 1)) == 10
        for p in range(1, 5):
            assert len(enumerate_pq(p, p)) == factorial(p)
            assert len(enumerate_pq(p, 0)) == bell_oracle(p)

    def test_pq_rejects_q_above_p(self):
        with pytest.raises(InvalidArgs):
            enumerate_pq(1, 2)
        with pytest.raises(InvalidArgs):
            pq_bicharacter(1, 2)

    def test_count_pq_matches_enumeration(self):
        for p in range(7):
            for q in range(p + 1):
                assert count_pq(p, q) == len(enumerate_pq(p, q))
        assert count_pq(1, 2) == 0

    def test_identity_counts_match_count_pq(self):
        counts = pq_identity_counts(8, 3)
        assert set(counts) == {(p, q) for p in range(9) for q in range(min(p, 3) + 1)}
        assert all(v == count_pq(p, q) for (p, q), v in counts.items())

    def test_budget(self):
        with pytest.raises(SizeBudgetExceeded):
            enumerate_general(4, 4, budget=10)
        # count_pq(5, 2) = 320
        with pytest.raises(SizeBudgetExceeded):
            enumerate_pq(5, 2, budget=319)
        with pytest.raises(SizeBudgetExceeded):
            permutation_bicharacter(5, 2, source="pq", budget=319)
        assert len(enumerate_pq(5, 2, budget=320)) == 320
        # The induced character builds only its table of class pairs:
        # p(5) * p(3) = 7 * 3 = 21.
        with pytest.raises(SizeBudgetExceeded):
            induced_pq_bicharacter(5, 2, 3, budget=20)
        assert induced_pq_bicharacter(5, 2, 3, budget=21).dimension == 3 * 320

    def test_class_pair_budget_refuses_without_enumerating(self, monkeypatch, capsys):
        # p(50) * p(1) = 204,226 class pairs: refused from the partition
        # count, which stops once p(m) passes the cap (p(37) = 21,637),
        # before any class list of weight 50 is built.
        from stablerep import cli, modules, partitions, schur, stable

        def refuse_at_50(fn):
            def guarded(n):
                assert n != 50, "partitions of 50 enumerated"
                return fn(n)
            return guarded

        for mod in (partitions, characters, induction, schur, modules, labeled, stable):
            for name in ("cycle_types", "enumerate_partitions"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse_at_50(getattr(mod, name)))
        refused = "class pairs more than 20000 exceeds budget 20000"
        with pytest.raises(SizeBudgetExceeded, match=refused):
            verify_splitting_lemma(1, 50, 1)
        with pytest.raises(SizeBudgetExceeded, match=refused):
            theorem_a_induction_check(50, 1)
        assert cli.main(["verify", "splitting", "1", "50", "1"]) == 3
        assert cli.main(["verify", "induction", "50", "1"]) == 3
        assert capsys.readouterr().err.count(refused) == 2

    def test_general_count_from_pq_layers(self):
        # repeated-label bookkeeping: choosing which labels appear (with
        # multiplicity) reduces the general count to injective layers
        for p in range(1, 6):
            for q in range(0, min(p, 3) + 1):
                total = sum(
                    comb(q, i) * len(enumerate_pq(p, i)) for i in range(q + 1)
                )
                assert count_general(p, q) == total


class TestActionsAndSplitting:
    def test_action_is_a_group_action(self):
        objs = enumerate_general(3, 2)
        perms3 = all_perms(3)
        perms2 = all_perms(2)
        rng = random.Random(7)
        for _ in range(25):
            x = rng.choice(objs)
            s1, s2 = rng.choice(perms3), rng.choice(perms3)
            t1, t2 = rng.choice(perms2), rng.choice(perms2)
            from stablerep.modules import perm_compose
            assert act(act(x, s1, t1), s2, t2) == act(
                x, perm_compose(s2, s1), perm_compose(t2, t1)
            )

    def test_act_image_equals_validated_construction(self):
        for x in enumerate_pq(4, 2):
            for sigma in all_perms(4):
                for tau in all_perms(2):
                    moved = sorted(
                        (tuple(sorted(sigma[e] for e in part)), tau[l - 1] + 1 if l else 0)
                        for part, l in zip(x.parts, x.labels)
                    )
                    built = GeneralLabeledPartition(
                        tuple(part for part, _ in moved), tuple(l for _, l in moved)
                    )
                    image = act(x, sigma, tau)
                    assert type(image) is GeneralLabeledPartition
                    assert image == built and hash(image) == hash(built)

    def test_splitting_map_injective_and_label_multiset(self):
        for p, q in [(2, 1), (3, 1), (3, 2), (4, 2)]:
            objs = enumerate_pq(p, q)
            images = [splitting_map(x) for x in objs]
            assert len(set(images)) == len(objs)
            for x, y in zip(objs, images):
                expected = sorted(
                    l for part, l in zip(x.parts, x.labels) if l for _ in part
                )
                assert sorted(l for l in y.labels if l) == expected
                assert all(len(part) == 1 for part, l in zip(y.parts, y.labels) if l)

    def test_closed_form_bicharacter_matches_enumeration(self):
        cells = [(p, q) for p in range(6) for q in range(p + 1)] + [(6, 2), (6, 3)]
        families = [("pq", pq_bicharacter), ("general", general_bicharacter)]
        for (p, q), (source, closed_form) in itertools.product(cells, families):
            closed = closed_form(p, q)
            enumerated = permutation_bicharacter(p, q, source=source)
            for pair, value in enumerated.values.items():
                assert closed.values[pair] == value, (source, p, q, pair)
            assert closed == enumerated

    @pytest.mark.parametrize("p, q", [(3, 2), (4, 1)])
    def test_checks_fail_on_shifted_general_character(self, monkeypatch, p, q):
        # One class pair off by one: both checks must report exactly it.
        sigma, tau = cycle_types(p)[1], cycle_types(q)[-1]

        def shifted(p_, q_):
            chi = general_bicharacter(p_, q_)
            values = dict(chi.values)
            values[(sigma, tau)] += 1
            return ClassFunction((p_, q_), values)

        monkeypatch.setattr(induction, "general_bicharacter", shifted)
        pair = (str(sigma), str(tau))
        for rep in (theorem_a_induction_check(p, q), verify_splitting_lemma(p, q, p)):
            assert not rep.passed
            found = [(m["sigma_class"], m["tau_class"]) for m in rep.witnesses["mismatches"]]
            assert found == [pair]

    def test_bicharacter_values_class_independent(self):
        p, q = 3, 2
        objs = enumerate_general(p, q)
        chi = permutation_bicharacter(p, q, source="general")
        rng = random.Random(11)
        for s in cycle_types(p):
            for t in cycle_types(q):
                # any conjugate representative gives the same fixed count
                for _ in range(3):
                    sig = rng.choice([g for g in all_perms(p) if perm_cycle_type(g) == s])
                    tau = rng.choice([g for g in all_perms(q) if perm_cycle_type(g) == t])
                    fixed = sum(1 for x in objs if act(x, sig, tau) == x)
                    assert fixed == chi.values[(s, t)]
                assert chi.values[(s, t)] >= 0
                assert chi.values[(s, t)] == int(chi.values[(s, t)])


class TestFWPiece:
    def test_dimension_matches_series(self):
        for p in range(5):
            for q in range(3):
                for d in (1, 2):
                    piece = FWGradedPiece(p, q, d)
                    assert piece.dimension == graded_sym_algebra_dimension(d, q, p)
                    assert piece.dimension == sum(fixed_weights(p, d, (1,) * q).values())

    def test_fixed_weights_match_basis_scan(self):
        # 250 (cell, tau-class) pairs; (5, 2, 5) has 29,529 monomials.
        cells = [(p, q, d) for p in range(5) for q in range(5) for d in range(1, 5)]
        for p, q, d in cells + [(5, 3, 3), (5, 2, 5), (5, 4, 2)]:
            piece = FWGradedPiece(p, q, d, budget=10**5)
            for t in cycle_types(q):
                oracle = fixed_weights_oracle(piece, class_representative(t))
                assert fixed_weights(p, d, t.parts) == oracle, (p, q, d, t)

    def test_fixed_weights_rejects_bad_arguments(self):
        for args in [(-1, 2, ()), (2, 0, ()), (2, 2, (1, 0))]:
            with pytest.raises(InvalidArgs):
                fixed_weights(*args)

    def test_enumeration_checked_against_estimate(self, monkeypatch):
        real = functors.sym_algebra_partials

        def shifted(d, q, p):
            return [c + 1 for c in (yield from real(d, q, p))]

        monkeypatch.setattr(functors, "sym_algebra_partials", shifted)
        with pytest.raises(OracleDisagreement):
            FWGradedPiece(2, 1, 2)

    def test_known_dimension(self):
        assert FWGradedPiece(2, 1, 2).dimension == 13

    def test_gl_action_preserves_weight_shift(self):
        piece = FWGradedPiece(3, 1, 2)
        for mono in piece.basis:
            w = piece.weight(mono)
            for tgt, c in piece.gl_apply(0, 1, mono).items():
                assert c > 0
                w2 = piece.weight(tgt)
                assert w2[0] == w[0] + 1 and w2[1] == w[1] - 1

    def test_budget(self):
        with pytest.raises(SizeBudgetExceeded):
            FWGradedPiece(4, 4, 4, budget=100)


class TestPhi:
    def test_equivariance_exact(self):
        for p, q, d in [(2, 0, 2), (2, 1, 2), (3, 0, 3), (3, 2, 2), (4, 1, 3)]:
            piece = FWGradedPiece(p, q, d)
            for x in enumerate_general(p, q):
                # Each basis tensor goes to one basis monomial of the piece.
                assert all(m in piece.index for m in phi_columns(x, d).values())
                assert check_phi_equivariance(x, d, piece)


class TestHomSpace:
    def test_dimension_equals_count_when_d_large(self):
        for p in range(1, 4):
            for q in range(p + 1):
                assert hom_space_dimension_gl(p, q, p) == count_general(p, q)

    def test_large_cells_pinned(self):
        # Values of the eager Kostka lookup, before weights were looked up
        # by their sorted form; both cells exceed the default budget.
        assert hom_space_dimension_gl(6, 6, 6, budget=200_000) == 163967
        assert hom_space_dimension_gl(7, 5, 7, budget=200_000) == 529032

    def test_solve_path_agrees_with_characters(self):
        for p, q, d in [(1, 0, 1), (2, 0, 2), (2, 1, 2), (2, 2, 2), (3, 0, 2), (3, 1, 2)]:
            assert intertwiner_solve_dimension(p, q, d) == hom_space_dimension_gl(p, q, d)

    def test_solve_cap_decided_from_weight_counts(self):
        # The cells of at most 900 unknowns, where the Hom side once also
        # solved for intertwiners: the unknowns are the pairs (J, m) of a
        # tensor J and an FW monomial m of the same weight.
        solved = 0
        for p, q, d in itertools.product((3, 4), range(4), (2, 3)):
            piece = FWGradedPiece(p, q, d)
            by_weight = Counter(piece.weight(m) for m in piece.basis)
            unknowns = sum(
                by_weight[_tensor_weight(J, d)]
                for J in itertools.product(range(d), repeat=p)
            )
            if unknowns > 900:
                continue
            dec = decompose_weight_multiset(fixed_weights(p, d, (1,) * q), d)
            char_dim = sum(m * specht_dimension(lam) for lam, m in dec.items())
            assert intertwiner_solve_dimension(p, q, d) == char_dim, (p, q, d)
            solved += 1
        assert solved == 11

    def test_hom_bicharacter_identity_value(self):
        chi = hom_bicharacter(2, 1, 2)
        assert chi.dimension == 5

    def test_hom_side_builds_no_piece_above_the_solve_cap(self, monkeypatch):
        # Nor below it: no cell builds the FW piece, not even those whose
        # intertwiner system the Hom side once solved.
        cells = [(2, 1, 2), (3, 1, 3), (3, 3, 1), (4, 4, 4)]
        expected = {cell: intertwiner_solve_dimension(*cell) for cell in cells[:3]}
        expected[(4, 4, 4)] = count_general(4, 4)

        def refuse(*args, **kwargs):
            raise AssertionError("FW piece built")

        monkeypatch.setattr(conftest, "FWGradedPiece", refuse)
        for p, q, d in cells:
            assert hom_space_dimension_gl(p, q, d) == expected[(p, q, d)]
            assert verify_rw_prop(p, q, d).passed == (d >= p)
            assert verify_splitting_lemma(p, q, d).passed == (d >= p)

    def test_budget_bounds_weight_table_and_solve_piece(self):
        # (4, 4, 4) takes C(12, 8) + 16 * C(7, 4) = 1055 weight-table steps,
        # and (3, 3, 1) takes C(5, 2) + 3 * C(3, 1) = 19; neither builds its
        # FW piece, so (3, 3, 1) answers with its 25 monomials at budget 19.
        with pytest.raises(SizeBudgetExceeded, match="weight-table steps 1055"):
            hom_bicharacter(4, 4, 4, budget=1054)
        assert hom_space_dimension_gl(4, 4, 4, budget=1055) == 799
        with pytest.raises(SizeBudgetExceeded, match="weight-table steps 19 exceeds budget 18"):
            hom_space_dimension_gl(3, 3, 1, budget=18)
        for budget in (19, 24, 25):
            assert hom_space_dimension_gl(3, 3, 1, budget=budget) == 25

    def test_swapped_multiplicities_of_equal_degree_raise(self, monkeypatch):
        # At (4, 4, 4) m_(3,1) = 135 and m_(2,1,1) = 55, both with f^lam = 3,
        # so swapping them keeps sum m f^lam = 799; Weyl's alternant sees it.
        a, b = Partition((3, 1)), Partition((2, 1, 1))
        dec = decompose_weight_multiset(fixed_weights(4, 4, (1,) * 4), 4)
        assert (dec[a], dec[b], specht_dimension(a), specht_dimension(b)) == (135, 55, 3, 3)
        real = labeled.decompose_weight_multiset

        def swapped(cnt, d):
            mults = dict(real(cnt, d))
            mults[a], mults[b] = mults.get(b, 0), mults.get(a, 0)
            return IrredDecomposition(mults)

        monkeypatch.setattr(labeled, "decompose_weight_multiset", swapped)
        with pytest.raises(OracleDisagreement, match="m_2,1,1 = 55, Kostka subtraction gives 135"):
            hom_space_dimension_gl(4, 4, 4)

    @pytest.mark.parametrize("bad_class", range(len(cycle_types(2))))
    def test_an_off_by_one_on_one_class_raises(self, monkeypatch, bad_class):
        # hom_bicharacter(3, 2, 3) decomposes one weight table per class of
        # Sigma_2; one multiplicity off by one at a single class is caught.
        real = labeled.decompose_weight_multiset
        calls = []

        def shifted(cnt, d):
            dec = real(cnt, d)
            calls.append(cnt)
            if len(calls) != bad_class + 1:
                return dec
            lam = max(dec)
            return IrredDecomposition({**dec, lam: dec[lam] + 1})

        monkeypatch.setattr(labeled, "decompose_weight_multiset", shifted)
        with pytest.raises(OracleDisagreement, match="Weyl's alternant"):
            hom_bicharacter(3, 2, 3)
        assert len(calls) == bad_class + 1

    @pytest.mark.parametrize(
        "cell, reads", [((6, 0, 6), 85), ((200, 0, 1), 1), ((10, 0, 3), 51), ((8, 0, 8), 399)]
    )
    def test_alternant_reads_no_more_weights_than_the_table_steps(self, monkeypatch, cell, reads):
        # w is chosen row by row where the weight stays >= 0: 85 weights of
        # 18,564 steps at (6, 0, 6) and 399 of 735,471 at (8, 0, 8), where
        # the whole of S_8 would take 887,040 terms.  (200, 0, 1) and
        # (8, 0, 8) run above the default budget.
        real = labeled.fixed_weights
        read = []

        class Counted(Counter):
            def get(self, key, default=None):
                read.append(key)
                return super().get(key, default)

        monkeypatch.setattr(labeled, "fixed_weights", lambda *args: Counted(real(*args)))
        steps = labeled._check_weight_table(*cell, budget=10**6)
        hom_space_dimension_gl(*cell, budget=steps)
        assert len(read) == reads <= steps

    def test_weight_table_steps_grow_with_q_and_the_fill(self):
        # Unit cycles cost steps only when p >= 1; at d = 1 the fill grows
        # quadratically in p.
        assert hom_space_dimension_gl(0, 10**6, 1, budget=1) == 1
        with pytest.raises(SizeBudgetExceeded, match="steps 100003 "):
            hom_space_dimension_gl(1, 10**5, 1)
        with pytest.raises(SizeBudgetExceeded, match="steps 200010000 "):
            hom_space_dimension_gl(19999, 0, 1)


class TestRWProp:
    def test_passes_when_d_equals_p(self):
        for p in range(1, 4):
            for q in range(p + 1):
                rep = verify_rw_prop(p, q, p)
                assert rep.passed
                assert rep.witnesses["rank"] == rep.witnesses["num_labeled_partitions"]

    def test_fails_injectivity_below_stable_dimension(self):
        rep = verify_rw_prop(2, 1, 1)
        assert not rep.passed
        assert rep.witnesses["rank"] < rep.witnesses["num_labeled_partitions"]
        combo = rep.witnesses["dependent_combination"]
        assert combo  # a concrete vanishing combination is exhibited
        rep = verify_rw_prop(3, 0, 1)
        assert not rep.passed

    def test_small_unlabeled_case_still_isomorphism(self):
        # d < p does not force failure: with no labels and p=2 the two
        # monomial images stay independent
        rep = verify_rw_prop(2, 0, 1)
        assert rep.passed

    @pytest.mark.parametrize(
        "p, q, d",
        [(p, q, d) for p in range(1, 5) for q in range(p + 1) for d in (p, p + 1)]
        + [(2, 1, 1), (3, 0, 1), (4, 4, 3)],
    )
    def test_rank_and_witness_match_elimination_oracle(self, p, q, d):
        # From d = p on the rank is certified from one tensor, below it the
        # rows are eliminated; either way the report is the oracle's.  The
        # budget admits the FW piece of (4, 4, 5), 26,415 monomials.
        rank, combo = rw_prop_rank_oracle(p, q, d)
        rep = verify_rw_prop(p, q, d, budget=10**5)
        assert rep.left == rep.witnesses["rank"] == rank
        assert rep.witnesses.get("dependent_combination") == combo

    def test_generic_image_is_phi_at_j0(self):
        for p, q in [(3, 2), (4, 2)]:
            objs = enumerate_general(p, q)
            images = [labeled._phi_image(x) for x in objs]
            assert images == [phi_columns(x, p)[tuple(range(p))] for x in objs]
            assert len(set(images)) == len(objs)

    def test_colliding_generic_images_fall_back_to_elimination(self, monkeypatch):
        eliminated = []
        # verify_rw_prop imports the elimination from linalg only when it
        # runs, so the patch sits on linalg.
        real_rank = linalg.sparse_rank_and_witness
        monkeypatch.setattr(
            linalg,
            "sparse_rank_and_witness",
            lambda rows: eliminated.append(len(rows)) or real_rank(rows),
        )
        plain = verify_rw_prop(3, 2, 3)
        assert eliminated == []
        objs = enumerate_general(3, 2)
        real_image = labeled._phi_image

        def collide_at_j0(x, part_vars=None):  # phi_columns passes part_vars
            if part_vars is None and x == objs[1]:
                x = objs[0]
            return real_image(x, part_vars)

        monkeypatch.setattr(labeled, "_phi_image", collide_at_j0)
        assert verify_rw_prop(3, 2, 3) == plain
        assert eliminated == [len(objs)]


class TestSplittingLemma:
    def test_small_grid(self):
        for p in range(1, 4):
            for q in range(p + 1):
                rep = verify_splitting_lemma(p, q, p)
                assert rep.passed

    def test_example_dimensions(self):
        rep = verify_splitting_lemma(2, 1, 2)
        assert rep.passed
        assert rep.left == 5 and rep.right == 5
        # 2 unlabeled-layer + 3 injective-layer elements
        assert len(enumerate_pq(2, 0)) + len(enumerate_pq(2, 1)) == 5


def test_a_labeled_partition_is_the_pair_of_parts_and_labels():
    x = enumerate_pq(3, 2)[-1]
    assert x == (x.parts, x.labels) and hash(x) == hash((x.parts, x.labels))
    assert GeneralLabeledPartition(*x) == x and act(x, (0, 1, 2)) == x
    assert repr(x) == f"GeneralLabeledPartition(parts={x.parts!r}, labels={x.labels!r})"
    for name in ("parts", "labels", "p", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, ())
    with pytest.raises(InvalidArgs, match="^one label per part required$"):
        GeneralLabeledPartition(((0,), (1,)), (1,))
    with pytest.raises(InvalidArgs):
        GeneralLabeledPartition(((0, 1),), (0, 1))


def test_text_rendering():
    x = enumerate_pq(2, 1)[0]
    assert str(x).startswith("{") and "labels=" in str(x)
    j = x.to_json()
    assert {p["label"] for p in j["parts"]} <= {None, 1}
