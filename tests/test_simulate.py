"""Round mechanics, reproducibility, and convergence to the exact diet."""

import math
import tracemalloc

import numpy as np
import pytest

import cutchoose as cc
from cutchoose import OutOfRange
from cutchoose.simulate import _BLOCK_ROUNDS
from oracles import random_chooser, random_cutter, simulate_one_draw

THIRD = 1.0 / 3.0


class Scripted:
    """Uniform source replaying a fixed list of variates."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def uniform_cutter():
    return cc.make_cutter(1 / 3, 1 / 3, 1 / 3)


class TestPlayRound:
    def test_deterministic_cyclic_round(self, rng):
        cut = cc.make_cutter(1, 0, 0)
        ch = cc.make_chooser(1.0, 0.5, 0.5)  # c[1|0] = 1
        for _ in range(20):
            record = cc.play_round(cut, ch, rng)
            assert (record.rejected, record.chosen, record.leftover) == (0, 1, 2)

    def test_deterministic_second_food_rejected(self, rng):
        cut = cc.make_cutter(0, 1, 0)
        ch = cc.make_chooser(0.5, 0.0, 0.5)  # c[0|1] = 0 forces food 2
        for _ in range(20):
            record = cc.play_round(cut, ch, rng)
            assert (record.rejected, record.chosen, record.leftover) == (1, 2, 0)

    def test_partition_invariant(self, rng):
        for _ in range(500):
            record = cc.play_round(random_cutter(rng), random_chooser(rng), rng)
            assert sorted((record.rejected, record.chosen, record.leftover)) == [0, 1, 2]

    def test_rejection_inverse_cdf_boundaries(self):
        cut = cc.make_cutter(0.2, 0.3, 0.5)
        ch = cc.make_chooser(0.5, 0.5, 0.5)
        # u below p0 rejects 0; exactly p0 moves to food 1; exactly p0+p1 to food 2.
        assert cc.play_round(cut, ch, Scripted([0.19, 0.0])).rejected == 0
        assert cc.play_round(cut, ch, Scripted([0.2, 0.0])).rejected == 1
        assert cc.play_round(cut, ch, Scripted([0.49, 0.0])).rejected == 1
        assert cc.play_round(cut, ch, Scripted([0.5, 0.0])).rejected == 2

    def test_choice_compares_lower_indexed_conditional(self):
        cut = cc.make_cutter(0, 0, 1)  # food 2 rejected: pair (0, 1), threshold c[0|2]
        ch = cc.make_chooser(0.5, 0.5, 0.75)  # c[0|2] = 0.25
        assert cc.play_round(cut, ch, Scripted([0.0, 0.24])).chosen == 0
        assert cc.play_round(cut, ch, Scripted([0.0, 0.25])).chosen == 1

    def test_round_record_validation(self):
        with pytest.raises(OutOfRange):
            cc.RoundRecord(0, rejected=0, chosen=0, leftover=2)
        with pytest.raises(OutOfRange):
            cc.RoundRecord(-1, rejected=0, chosen=1, leftover=2)

    def test_reproducible_with_reseeded_generator(self):
        cut, ch = uniform_cutter(), cc.symmetric_chooser(0.3)
        first = [
            cc.play_round(cut, ch, np.random.Generator(np.random.PCG64(7)), i)
            for i in range(5)
        ]
        second = [
            cc.play_round(cut, ch, np.random.Generator(np.random.PCG64(7)), i)
            for i in range(5)
        ]
        assert first == second


class TestSimulate:
    def test_deterministic_play_counts(self):
        cut = cc.make_cutter(1, 0, 0)
        ch = cc.make_chooser(1.0, 0.5, 0.5)
        result = cc.simulate(cut, ch, 1000, seed=123)
        assert result.counts_omega == (0, 1000, 0)
        assert result.counts_lambda == (0, 0, 1000)
        assert result.counts_rejected == (1000, 0, 0)

    def test_bit_identical_reruns(self):
        cut, ch = uniform_cutter(), cc.symmetric_chooser(0.5)
        a = cc.simulate(cut, ch, 10_000, seed=42)
        b = cc.simulate(cut, ch, 10_000, seed=42)
        assert a == b
        assert a != cc.simulate(cut, ch, 10_000, seed=43)

    def test_matches_sequential_play(self, rng):
        """The bulk run consumes the variate stream exactly like play_round."""
        for _ in range(5):
            cut, ch = random_cutter(rng), random_chooser(rng)
            seed = int(rng.integers(0, 2**63))
            result = cc.simulate(cut, ch, 500, seed)
            source = np.random.Generator(np.random.PCG64(seed))
            counts = {"rejected": [0] * 3, "chosen": [0] * 3, "leftover": [0] * 3}
            for i in range(500):
                record = cc.play_round(cut, ch, source, i)
                counts["rejected"][record.rejected] += 1
                counts["chosen"][record.chosen] += 1
                counts["leftover"][record.leftover] += 1
            assert result.counts_rejected == tuple(counts["rejected"])
            assert result.counts_omega == tuple(counts["chosen"])
            assert result.counts_lambda == tuple(counts["leftover"])

    @pytest.mark.parametrize(
        "n",
        [1, _BLOCK_ROUNDS - 1, _BLOCK_ROUNDS, _BLOCK_ROUNDS + 1, 3 * _BLOCK_ROUNDS + 1],
    )
    def test_blocks_match_one_draw(self, rng, n):
        """Block boundaries change nothing: equal to one draw of all n rounds."""
        pairs = [(random_cutter(rng), random_chooser(rng)) for _ in range(3)]
        pairs += [
            (cut, ch)
            for cut in (cc.make_cutter(1, 0, 0), cc.make_cutter(0, 0, 1), uniform_cutter())
            for ch in (cc.make_chooser(0, 0, 0), cc.make_chooser(1, 1, 1))
        ]
        for cut, ch in pairs:
            seed = int(rng.integers(0, 2**64, dtype=np.uint64))
            assert cc.simulate(cut, ch, n, seed) == simulate_one_draw(cut, ch, n, seed)

    def test_memory_bounded_by_one_block(self):
        # One draw of 2**22 rounds would need 64 MiB for its variates alone.
        cut, ch = cc.make_cutter(0.6, 0.25, 0.15), cc.make_chooser(0.1, 0.2, 0.85)
        cc.simulate(cut, ch, 10, seed=0)  # import numpy outside the traced region
        tracemalloc.start()
        try:
            cc.simulate(cut, ch, 1 << 22, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_role_identity_per_food(self, rng):
        cut, ch = random_cutter(rng), random_chooser(rng)
        result = cc.simulate(cut, ch, 100_000, seed=9)
        for j in range(3):
            total = (
                result.counts_rejected[j]
                + result.counts_lambda[j]
                + result.counts_omega[j]
            )
            assert total == 100_000

    def test_empirical_frequencies_are_count_ratios(self):
        result = cc.simulate(uniform_cutter(), cc.symmetric_chooser(0.1), 999, seed=5)
        for counts, freqs in (
            (result.counts_lambda, result.empirical_lambda),
            (result.counts_omega, result.empirical_omega),
        ):
            assert freqs == tuple(x / 999 for x in counts)

    def test_generator_identity_recorded(self):
        result = cc.simulate(uniform_cutter(), cc.symmetric_chooser(0.0), 10, seed=1)
        assert result.generator == "numpy.random.PCG64"

    def test_input_validation(self):
        cut, ch = uniform_cutter(), cc.symmetric_chooser(0.0)
        with pytest.raises(OutOfRange):
            cc.simulate(cut, ch, 0, seed=1)
        with pytest.raises(OutOfRange):
            cc.simulate(cut, ch, 10, seed=-1)
        with pytest.raises(OutOfRange):
            cc.simulate(cut, ch, 10, seed=2**64)

    @pytest.mark.parametrize(
        "n_rounds, seed",
        [(True, 1), (10.0, 3), (10, True), (10, 3.0), (np.bool_(True), 1), (10, np.float64(3.0))],
    )
    def test_bool_and_float_counts_rejected(self, n_rounds, seed):
        with pytest.raises(OutOfRange):
            cc.simulate(uniform_cutter(), cc.symmetric_chooser(0.3), n_rounds, seed)

    def test_numpy_integers_accepted(self):
        cut, ch = uniform_cutter(), cc.symmetric_chooser(0.3)
        want = cc.simulate(cut, ch, 1000, seed=7)
        for n_rounds, seed in ((np.int64(1000), np.uint64(7)), (np.int32(1000), np.int64(7))):
            got = cc.simulate(cut, ch, n_rounds, seed)
            assert got == want
            assert type(got.n_rounds) is int and type(got.seed) is int
        assert cc.simulate(cut, ch, 10, np.uint64(2**64 - 1)).seed == 2**64 - 1


class TestCheckConvergence:
    def test_deterministic_run_has_zero_deviation(self):
        cut = cc.make_cutter(1, 0, 0)
        ch = cc.make_chooser(1.0, 0.5, 0.5)
        result = cc.simulate(cut, ch, 1000, seed=3)
        exact = cc.diet_profile(cut, ch)
        report = cc.check_convergence(result, exact)
        assert report.passed
        assert report.deviations_lambda == (0.0, 0.0, 0.0)
        assert report.deviations_omega == (0.0, 0.0, 0.0)

    def test_binomial_bound_arithmetic(self):
        cut, ch = uniform_cutter(), cc.symmetric_chooser(0.5)
        result = cc.simulate(cut, ch, 10**6, seed=42)
        report = cc.check_convergence(result, cc.diet_profile(cut, ch), z=4.0)
        expected = 4.0 * math.sqrt(THIRD * (1 - THIRD) / 10**6)
        for bound in report.bounds_lambda + report.bounds_omega:
            assert abs(bound - expected) <= 1e-12
        assert abs(expected - 0.00188562) <= 1e-7
        assert report.passed

    def test_adversarial_mismatch_fails(self):
        result = cc.SimulationResult(
            n_rounds=10**6,
            counts_lambda=(500_000, 250_000, 250_000),
            counts_omega=(250_000, 500_000, 250_000),
            counts_rejected=(250_000, 250_000, 500_000),
            empirical_lambda=(0.5, 0.25, 0.25),
            empirical_omega=(0.25, 0.5, 0.25),
            seed=0,
        )
        exact = cc.DietProfile((THIRD, THIRD, THIRD), (THIRD, THIRD, THIRD))
        assert not cc.check_convergence(result, exact).passed

    def test_z_validation(self):
        cut, ch = uniform_cutter(), cc.symmetric_chooser(0.0)
        result = cc.simulate(cut, ch, 100, seed=0)
        with pytest.raises(OutOfRange):
            cc.check_convergence(result, cc.diet_profile(cut, ch), z=0.0)

    def test_converges_for_generic_strategies(self, rng):
        for _ in range(5):
            cut, ch = random_cutter(rng), random_chooser(rng)
            result = cc.simulate(cut, ch, 200_000, int(rng.integers(0, 2**63)))
            report = cc.check_convergence(result, cc.diet_profile(cut, ch), z=5.0)
            assert report.passed
