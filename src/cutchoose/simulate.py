"""Seeded Monte Carlo play of the repeated cut-and-choose game.

Each round consumes exactly two uniform variates, in a fixed order:

1. rejection — inverse-CDF over the cutter's probabilities in ascending food
   order (u < p0 rejects food 0, u < p0 + p1 rejects food 1, else food 2);
2. choice — one variate compared against the lower-indexed remaining food's
   conditional probability.

The leftover food is the third index. Fixing the variate discipline makes a
run a deterministic function of (strategies, n_rounds, seed): reruns are
bit-identical, and the vectorized bulk runner reproduces sequential
round-by-round play exactly. The generator is numpy's PCG64 with a 64-bit
seed; its name travels with every result so serialized runs stay
reproducible.

Empirical frequencies converge to the closed-form diet profile; use
:func:`check_convergence` to compare a run against the exact values with a
binomial z-bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from .diet import DietProfile
from .errors import OutOfRange
from .strategies import ChooserStrategy, CutterStrategy, FoodIndex

GENERATOR_NAME = "numpy.random.PCG64"

_SEED_MAX = 2**64 - 1

Counts = tuple[int, int, int]
Triple = tuple[float, float, float]


class UniformSource(Protocol):
    """Anything yielding independent uniform variates in [0, 1)."""

    def random(self) -> float: ...


def _check_seed(seed: int) -> int:
    s = int(seed)
    if s != seed or not (0 <= s <= _SEED_MAX):
        raise OutOfRange(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return s


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

    Vectorized, but consumes the variate stream exactly as sequential
    :func:`play_round` calls would, so results match round-by-round play bit
    for bit.
    """
    n = int(n_rounds)
    if n != n_rounds or n < 1:
        raise OutOfRange(f"n_rounds must be a positive integer, got {n_rounds!r}")
    import numpy as np  # here, not at module top: keeps numpy off the CLI's import path

    rng = np.random.Generator(np.random.PCG64(_check_seed(seed)))
    u = rng.random((n, 2))

    threshold1 = cutter.p0
    threshold2 = cutter.p0 + cutter.p1
    rejected = (u[:, 0] >= threshold1).astype(np.int64) + (u[:, 0] >= threshold2)

    low = np.array([1, 0, 0])
    high = np.array([2, 2, 1])
    low_conditional = np.array([chooser.c10, chooser.c01, chooser.c02])
    take_low = u[:, 1] < low_conditional[rejected]
    chosen = np.where(take_low, low[rejected], high[rejected])
    leftover = 3 - rejected - chosen

    counts_rejected = np.bincount(rejected, minlength=3)
    counts_omega = np.bincount(chosen, minlength=3)
    counts_lambda = np.bincount(leftover, minlength=3)
    return SimulationResult(
        n_rounds=n,
        counts_lambda=tuple(int(x) for x in counts_lambda),
        counts_omega=tuple(int(x) for x in counts_omega),
        counts_rejected=tuple(int(x) for x in counts_rejected),
        empirical_lambda=tuple(int(x) / n for x in counts_lambda),
        empirical_omega=tuple(int(x) / n for x in counts_omega),
        seed=_check_seed(seed),
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
