"""Seeded Monte Carlo play of the repeated cut-and-choose game.

Each round consumes exactly two uniform variates, in a fixed order:

1. rejection — inverse-CDF over the cutter's probabilities in ascending food
   order (u < p0 rejects food 0, u < p0 + p1 rejects food 1, else food 2);
2. choice — one variate compared against the lower-indexed remaining food's
   conditional probability.

The leftover food is the third index. Fixing the variate discipline makes a
run a deterministic function of (strategies, n_rounds, seed): reruns are
bit-identical, and the bulk runner reproduces sequential round-by-round play
exactly. The generator is numpy's PCG64 with a 64-bit seed; its name travels
with every result so serialized runs stay reproducible.

The bulk runner :func:`simulate` draws the variates in blocks of 65,536
rounds, which consume the stream exactly as one draw of all rounds would. It
codes each round as one of six cells, (rejected food, took the higher-indexed
remaining food), and adds up one cell count per block; all three count
triples follow from the six totals. Its memory is bounded by one block,
whatever the number of rounds.

Empirical frequencies converge to the closed-form diet profile; use
:func:`check_convergence` to compare a run against the exact values with a
binomial z-bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Protocol

from .diet import DietProfile
from .errors import OutOfRange
from .strategies import ChooserStrategy, CutterStrategy, FoodIndex

GENERATOR_NAME = "numpy.random.PCG64"

_SEED_MAX = 2**64 - 1

# Rounds drawn per block by simulate. On a 2-core Xeon with numpy 2.4, blocks
# of 16-64 K rounds ran fastest; at 1e7 rounds, blocks of 4 K and of 1 M
# rounds took about 1.5 times as long.
_BLOCK_ROUNDS = 1 << 16

Counts = tuple[int, int, int]
Triple = tuple[float, float, float]


class UniformSource(Protocol):
    """Anything yielding independent uniform variates in [0, 1)."""

    def random(self) -> float: ...


def _checked_int(value: int, lo: int, hi: float, what: str) -> int:
    """``value`` as an int in [lo, hi]: numpy integers pass, bools and floats do not."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or not lo <= number <= hi:
        raise OutOfRange(f"{what}, got {value!r}")
    return number


@dataclass(frozen=True)
class RoundRecord:
    """One round's outcome: the three foods in their three roles."""

    round_index: int
    rejected: FoodIndex
    chosen: FoodIndex
    leftover: FoodIndex

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise OutOfRange(f"round_index must be >= 0, got {self.round_index!r}")
        if sorted((self.rejected, self.chosen, self.leftover)) != [0, 1, 2]:
            raise OutOfRange(
                "rejected/chosen/leftover must partition the three foods, got "
                f"({self.rejected}, {self.chosen}, {self.leftover})"
            )


# For each rejected food: the lower-indexed remaining food, the higher one,
# and the chooser attribute holding the lower food's conditional.
_CHOICE_BY_REJECTED = (
    (1, 2, "c10"),
    (0, 2, "c01"),
    (0, 1, "c02"),
)


def play_round(
    cutter: CutterStrategy,
    chooser: ChooserStrategy,
    random_source: UniformSource,
    round_index: int = 0,
) -> RoundRecord:
    """Play a single round, consuming two variates from random_source."""
    u_reject = random_source.random()
    if u_reject < cutter.p0:
        rejected = 0
    elif u_reject < cutter.p0 + cutter.p1:
        rejected = 1
    else:
        rejected = 2
    low, high, attr = _CHOICE_BY_REJECTED[rejected]
    u_choice = random_source.random()
    chosen = low if u_choice < getattr(chooser, attr) else high
    return RoundRecord(
        round_index=round_index,
        rejected=rejected,
        chosen=chosen,
        leftover=3 - rejected - chosen,
    )


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated counts and empirical frequencies of one seeded run."""

    n_rounds: int
    counts_lambda: Counts
    counts_omega: Counts
    counts_rejected: Counts
    empirical_lambda: Triple
    empirical_omega: Triple
    seed: int
    generator: str = GENERATOR_NAME

    def __post_init__(self) -> None:
        n = self.n_rounds
        for name in ("counts_lambda", "counts_omega", "counts_rejected"):
            if sum(getattr(self, name)) != n:
                raise OutOfRange(f"{name} must sum to n_rounds={n}")
        for j in range(3):
            role_total = (
                self.counts_rejected[j] + self.counts_lambda[j] + self.counts_omega[j]
            )
            if role_total != n:
                raise OutOfRange(
                    f"food {j} must appear in exactly one role per round; "
                    f"role counts sum to {role_total}, expected {n}"
                )


def simulate(
    cutter: CutterStrategy,
    chooser: ChooserStrategy,
    n_rounds: int,
    seed: int,
) -> SimulationResult:
    """Run n_rounds of play from a fresh PCG64 generator seeded with ``seed``.

    Streams blocks of rounds into a six-cell table, but consumes the variate
    stream exactly as sequential :func:`play_round` calls would, so results
    match round-by-round play bit for bit. Memory does not grow with n_rounds.
    """
    n = _checked_int(n_rounds, 1, math.inf, "n_rounds must be a positive integer")
    seed = _checked_int(seed, 0, _SEED_MAX, "seed must be an unsigned 64-bit integer")
    import numpy as np  # here, not at module top: keeps numpy off the CLI's import path

    rng = np.random.Generator(np.random.PCG64(seed))
    threshold1 = cutter.p0
    threshold2 = cutter.p0 + cutter.p1
    low_conditional = np.array([getattr(chooser, attr) for _, _, attr in _CHOICE_BY_REJECTED])

    # Cell 2*rejected + took_higher_food, one bincount per block.
    cells = np.zeros(6, dtype=np.int64)
    for start in range(0, n, _BLOCK_ROUNDS):
        u = rng.random((min(_BLOCK_ROUNDS, n - start), 2))
        rejected = (u[:, 0] >= threshold1).astype(np.int64) + (u[:, 0] >= threshold2)
        took_higher_food = u[:, 1] >= low_conditional[rejected]
        cells += np.bincount(2 * rejected + took_higher_food, minlength=6)

    counts_rejected, counts_omega, counts_lambda = [0, 0, 0], [0, 0, 0], [0, 0, 0]
    for cell, count in enumerate(cells.tolist()):
        rejected, took_higher_food = divmod(cell, 2)
        chosen = _CHOICE_BY_REJECTED[rejected][took_higher_food]
        counts_rejected[rejected] += count
        counts_omega[chosen] += count
        counts_lambda[3 - rejected - chosen] += count
    return SimulationResult(
        n_rounds=n,
        counts_lambda=tuple(counts_lambda),
        counts_omega=tuple(counts_omega),
        counts_rejected=tuple(counts_rejected),
        empirical_lambda=tuple(x / n for x in counts_lambda),
        empirical_omega=tuple(x / n for x in counts_omega),
        seed=seed,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-entry deviations of a run from the exact diet, with binomial z-bounds."""

    deviations_lambda: Triple
    deviations_omega: Triple
    bounds_lambda: Triple
    bounds_omega: Triple
    z: float
    passed: bool


_BOUND_FLOOR = 1e-9


def check_convergence(
    result: SimulationResult, exact: DietProfile, z: float = 4.0
) -> ConvergenceReport:
    """Compare empirical frequencies against exact ones.

    Each deviation must stay within z * sqrt(q*(1-q)/n) for its exact value q,
    plus an absolute floor of 1e-9 for exactly deterministic entries.
    """
    if not float(z) > 0.0:
        raise OutOfRange(f"z must be > 0, got {z!r}")
    n = result.n_rounds

    def bound(q: float) -> float:
        return z * math.sqrt(q * (1.0 - q) / n)

    dev_lam = tuple(
        abs(e - q) for e, q in zip(result.empirical_lambda, exact.lam)
    )
    dev_om = tuple(abs(e - q) for e, q in zip(result.empirical_omega, exact.omega))
    bounds_lam = tuple(bound(q) for q in exact.lam)
    bounds_om = tuple(bound(q) for q in exact.omega)
    passed = all(
        d <= b + _BOUND_FLOOR
        for d, b in zip(dev_lam + dev_om, bounds_lam + bounds_om)
    )
    return ConvergenceReport(
        deviations_lambda=dev_lam,  # type: ignore[arg-type]
        deviations_omega=dev_om,  # type: ignore[arg-type]
        bounds_lambda=bounds_lam,  # type: ignore[arg-type]
        bounds_omega=bounds_om,  # type: ignore[arg-type]
        z=float(z),
        passed=passed,
    )
