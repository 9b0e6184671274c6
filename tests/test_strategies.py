"""Constructor contracts, coordinate round trips, classification, relabeling."""

import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cutchoose as cc
from cutchoose import (
    InvalidPermutation,
    NegativeProbability,
    NotNormalized,
    OutOfRange,
    PreferenceKind,
    Verdict,
)
from oracles import classify_by_enumeration, random_chooser, winners_from_chooser

THIRD = 1.0 / 3.0

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestMakeCutter:
    def test_uniform(self):
        c = cc.make_cutter(1 / 3, 1 / 3, 1 / 3)
        assert c.p == (THIRD, THIRD, THIRD)

    def test_degenerate_vertex(self):
        assert cc.make_cutter(1, 0, 0).p == (1.0, 0.0, 0.0)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            cc.make_cutter(0.5, 0.5, 0.5)

    def test_negative_probability(self):
        with pytest.raises(NegativeProbability):
            cc.make_cutter(-0.1, 0.6, 0.5)

    def test_nan_rejected(self):
        with pytest.raises(NotNormalized):
            cc.make_cutter(float("nan"), 0.5, 0.5)

    def test_repairs_tiny_drift(self):
        c = cc.make_cutter(0.3, 0.3, 0.4 + 9e-13)
        assert (c.p0 + c.p1) + c.p2 == 1.0

    def test_rejects_drift_beyond_tolerance(self):
        with pytest.raises(NotNormalized):
            cc.make_cutter(0.3, 0.3, 0.4 + 3e-12)

    def test_exact_sum_on_random_inputs(self, rng):
        for _ in range(2000):
            raw = rng.exponential(size=3)
            p = raw / raw.sum()
            c = cc.make_cutter(p[0], p[1], p[2])
            assert (c.p0 + c.p1) + c.p2 == 1.0
            assert all(0.0 <= x <= 1.0 for x in c.p)

    @given(unit_floats, unit_floats, unit_floats)
    def test_exact_sum_property(self, a, b, c):
        total = (a + b) + c
        if total <= 0.0:
            return
        cut = cc.make_cutter(a / total, b / total, c / total)
        assert (cut.p0 + cut.p1) + cut.p2 == 1.0


class TestMakeChooser:
    def test_uniform_center(self):
        ch = cc.make_chooser(0.5, 0.5, 0.5)
        assert all(v == 0.5 for v in ch.as_table().values())

    def test_complement_rule(self):
        ch = cc.make_chooser(0.25, 0.75, 0.75)
        assert ch.c20 == 0.75
        assert ch.c21 == 0.25
        assert ch.c02 == 0.25

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            cc.make_chooser(1.2, 0.5, 0.5)
        with pytest.raises(OutOfRange):
            cc.make_chooser(0.5, -0.01, 0.5)

    def test_pairwise_sums_exact(self, rng):
        for _ in range(2000):
            ch = random_chooser(rng)
            assert ch.c10 + ch.c20 == 1.0
            assert ch.c01 + ch.c21 == 1.0
            assert ch.c02 + ch.c12 == 1.0

    @given(unit_floats, unit_floats, unit_floats)
    def test_pairwise_sums_exact_property(self, c10, c01, c12):
        ch = cc.make_chooser(c10, c01, c12)
        assert ch.c10 + ch.c20 == 1.0
        assert ch.c01 + ch.c21 == 1.0
        assert ch.c02 + ch.c12 == 1.0

    def test_conditional_accessor(self):
        ch = cc.make_chooser(0.25, 0.75, 0.75)
        assert ch.conditional(2, 0) == 0.75
        assert ch.conditional(1, 0) == 0.25
        with pytest.raises(OutOfRange):
            ch.conditional(1, 1)


class TestTParamRoundTrip:
    def test_uniform_maps_to_zero(self):
        assert cc.to_t_params(cc.make_chooser(0.5, 0.5, 0.5)).t == (0.0, 0.0, 0.0)

    def test_extreme_corner(self):
        # c[2|0]=1, c[0|1]=1, c[1|2]=1 means the c10 input is 0.
        ch = cc.make_chooser(0.0, 1.0, 1.0)
        assert cc.to_t_params(ch).t == (1.0, 1.0, 1.0)

    def test_plus_quarter_conditionals(self):
        ch = cc.make_chooser(0.25, 0.75, 0.75)  # plus-side conditionals all 0.75
        assert cc.to_t_params(ch).t == (0.5, 0.5, 0.5)

    def test_from_zero_is_uniform(self):
        ch = cc.from_t_params(cc.TParams(0.0, 0.0, 0.0))
        assert all(v == 0.5 for v in ch.as_table().values())

    def test_from_ones_is_deterministic(self):
        ch = cc.from_t_params(cc.TParams(1.0, 1.0, 1.0))
        assert (ch.c20, ch.c01, ch.c12) == (1.0, 1.0, 1.0)
        assert (ch.c10, ch.c21, ch.c02) == (0.0, 0.0, 0.0)

    def test_from_mixed_values(self):
        ch = cc.from_t_params(cc.TParams(-0.5, 0.2, 0.9))
        assert ch.c20 == 0.25
        assert ch.c01 == 0.6
        assert ch.c12 == 0.95

    def test_t_params_range_validation(self):
        with pytest.raises(OutOfRange):
            cc.TParams(1.5, 0.0, 0.0)

    def test_round_trip_exact_random(self, rng):
        for _ in range(2000):
            ch = random_chooser(rng)
            assert cc.from_t_params(cc.to_t_params(ch)) == ch

    @given(unit_floats, unit_floats, unit_floats)
    def test_round_trip_exact_property(self, c10, c01, c12):
        """Bitwise t round trip for every constructible chooser, however built."""
        ch = cc.make_chooser(c10, c01, c12)
        assert cc.from_t_params(cc.to_t_params(ch)) == ch

    @given(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )
    def test_round_trip_through_t_space(self, t0, t1, t2):
        ch = cc.from_t_params(cc.TParams(t0, t1, t2))
        assert cc.from_t_params(cc.to_t_params(ch)) == ch


class TestSymmetricChooser:
    def test_zero_is_uniform(self):
        assert cc.symmetric_chooser(0.0) == cc.make_chooser(0.5, 0.5, 0.5)

    def test_one_is_cyclic_deterministic(self):
        ch = cc.symmetric_chooser(1.0)
        # always 2 over 1, 0 over 2, 1 over 0
        assert (ch.c20, ch.c01, ch.c12) == (1.0, 1.0, 1.0)

    def test_half(self):
        ch = cc.symmetric_chooser(0.5)
        assert (ch.c20, ch.c01, ch.c12) == (0.75, 0.75, 0.75)
        assert (ch.c10, ch.c21, ch.c02) == (0.25, 0.25, 0.25)

    def test_matches_from_t_params(self, rng):
        for t in (-1.0, -0.25, 0.0, 0.7, 1.0, *rng.uniform(-1, 1, 20)):
            assert cc.symmetric_chooser(t) == cc.from_t_params(cc.TParams(t, t, t))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            cc.symmetric_chooser(1.0001)


class TestClassifyPreferences:
    def test_positive_t_is_cycle_condition_1(self):
        relation, klass = cc.classify_preferences(cc.symmetric_chooser(0.5))
        assert klass.kind is PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_1
        # 1 beats 0, 0 beats 2, 2 beats 1
        assert relation.winner(0) == 1
        assert relation.winner(2) == 0
        assert relation.winner(1) == 2

    def test_negative_t_is_cycle_condition_2(self):
        _, klass = cc.classify_preferences(cc.symmetric_chooser(-0.5))
        assert klass.kind is PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_2

    def test_transitive_order(self):
        """c[1|2]=0.9, c[2|0]=0.9, c[2|1]=0.9 ranks food 2 over 1 over 0."""
        ch = cc.make_chooser(1.0 - 0.9, 1.0 - 0.9, 0.9)
        _, klass = cc.classify_preferences(ch)
        assert klass.kind is PreferenceKind.TRANSITIVE_STRICT
        assert klass.order == (2, 1, 0)

    def test_uniform_is_indifference(self):
        relation, klass = cc.classify_preferences(cc.make_chooser(0.5, 0.5, 0.5))
        assert klass.kind is PreferenceKind.INTRANSITIVE_INDIFFERENCE
        assert all(v is Verdict.TIE for v in relation.verdicts)

    def test_partial_tie(self):
        ch = cc.make_chooser(0.5, 0.8, 0.3)  # the (1,2) pair ties, others do not
        relation, klass = cc.classify_preferences(ch)
        assert klass.kind is PreferenceKind.PARTIALLY_TIED
        assert relation.verdicts[1] is Verdict.TIE

    def test_eps_widens_ties(self):
        ch = cc.make_chooser(0.45, 0.55, 0.5)
        _, strict = cc.classify_preferences(ch, eps=0.0)
        _, loose = cc.classify_preferences(ch, eps=0.25)
        assert strict.kind is not PreferenceKind.INTRANSITIVE_INDIFFERENCE
        assert loose.kind is PreferenceKind.INTRANSITIVE_INDIFFERENCE

    def test_eps_validation(self):
        ch = cc.make_chooser(0.5, 0.5, 0.5)
        with pytest.raises(OutOfRange):
            cc.classify_preferences(ch, eps=-0.1)
        with pytest.raises(OutOfRange):
            cc.classify_preferences(ch, eps=1.0)

    def test_family_classification_over_t(self):
        for t in (0.001, 0.1, 0.5, 1.0):
            _, klass = cc.classify_preferences(cc.symmetric_chooser(t))
            assert klass.kind is PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_1, t
        for t in (-0.001, -0.1, -0.5, -1.0):
            _, klass = cc.classify_preferences(cc.symmetric_chooser(t))
            assert klass.kind is PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_2, t
        _, klass = cc.classify_preferences(cc.symmetric_chooser(0.0))
        assert klass.kind is PreferenceKind.INTRANSITIVE_INDIFFERENCE

    def test_matches_enumeration_oracle(self, rng):
        """Strict classifications agree with the order/cycle enumeration oracle."""
        checked = 0
        while checked < 2000:
            ch = random_chooser(rng)
            winners = winners_from_chooser(ch)
            if winners is None:
                continue
            checked += 1
            kind, order = classify_by_enumeration(winners)
            _, klass = cc.classify_preferences(ch, eps=0.0)
            if kind == "transitive":
                assert klass.kind is PreferenceKind.TRANSITIVE_STRICT
                assert klass.order == order
            elif kind == "cycle1":
                assert klass.kind is PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_1
            else:
                assert klass.kind is PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_2

    def test_all_eight_strict_patterns(self):
        """Every strict sign pattern maps to the class the oracle derives."""
        for bits in itertools.product((0.2, 0.8), repeat=3):
            ch = cc.make_chooser(*bits)
            winners = winners_from_chooser(ch)
            assert winners is not None
            kind, order = classify_by_enumeration(winners)
            _, klass = cc.classify_preferences(ch)
            expected = {
                "transitive": PreferenceKind.TRANSITIVE_STRICT,
                "cycle1": PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_1,
                "cycle2": PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_2,
            }[kind]
            assert klass.kind is expected
            assert klass.order == order


EVEN_PERMS = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
ODD_PERMS = [(1, 0, 2), (0, 2, 1), (2, 1, 0)]


class TestPermuteFoods:
    def test_identity(self, rng):
        from oracles import random_cutter

        cut, ch = random_cutter(rng), random_chooser(rng)
        assert cc.permute_foods(cut, ch, (0, 1, 2)) == (cut, ch)

    def test_cutter_swap(self):
        cut = cc.make_cutter(1, 0, 0)
        ch = cc.make_chooser(0.5, 0.5, 0.5)
        swapped, _ = cc.permute_foods(cut, ch, (1, 0, 2))
        assert swapped.p == (0.0, 1.0, 0.0)

    def test_symmetric_family_is_cyclic_invariant(self, rng):
        for t in (-1.0, -0.3, 0.0, 0.5, 1.0, *rng.uniform(-1, 1, 10)):
            ch = cc.symmetric_chooser(t)
            cut = cc.make_cutter(1 / 3, 1 / 3, 1 / 3)
            for perm in [(1, 2, 0), (2, 0, 1)]:
                _, permuted = cc.permute_foods(cut, ch, perm)
                assert permuted == ch

    def test_invalid_permutations(self):
        cut = cc.make_cutter(1, 0, 0)
        ch = cc.make_chooser(0.5, 0.5, 0.5)
        for bad in ((0, 0, 1), (0, 1), (0, 1, 3), ("a", "b", "c")):
            with pytest.raises(InvalidPermutation):
                cc.permute_foods(cut, ch, bad)

    def test_values_transfer_bitwise(self, rng):
        from oracles import random_cutter

        for _ in range(200):
            cut, ch = random_cutter(rng), random_chooser(rng)
            for perm in EVEN_PERMS + ODD_PERMS:
                new_cut, new_ch = cc.permute_foods(cut, ch, perm)
                for i in range(3):
                    assert new_cut.p[perm[i]] == cut.p[i]
                table = ch.as_table()
                new_table = new_ch.as_table()
                for (k, j), value in table.items():
                    assert new_table[(perm[k], perm[j])] == value
        # A relabeled cutter is the plain simplex point, with no extra field.
        assert [f.name for f in dataclasses.fields(new_cut)] == ["p0", "p1", "p2"]

    def test_classification_equivariance(self, rng):
        """Even relabelings keep the cycle direction; odd ones flip it."""
        swap = {
            PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_1: (
                PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_2
            ),
            PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_2: (
                PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_1
            ),
        }
        from oracles import random_cutter

        for _ in range(300):
            cut, ch = random_cutter(rng), random_chooser(rng)
            _, orig = cc.classify_preferences(ch)
            for perm in EVEN_PERMS + ODD_PERMS:
                _, permuted_class = cc.classify_preferences(
                    cc.permute_foods(cut, ch, perm)[1]
                )
                if orig.kind is PreferenceKind.TRANSITIVE_STRICT:
                    assert permuted_class.kind is PreferenceKind.TRANSITIVE_STRICT
                    assert permuted_class.order == tuple(
                        perm[f] for f in orig.order
                    )
                elif orig.kind in swap:
                    expected = orig.kind if perm in EVEN_PERMS else swap[orig.kind]
                    assert permuted_class.kind is expected
                else:
                    assert permuted_class.kind is orig.kind
