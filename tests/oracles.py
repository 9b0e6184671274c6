"""Independent reference implementations used to cross-check the library.

Everything here re-derives results by brute force (outcome enumeration, total
order enumeration, exact rational arithmetic) instead of reusing the
library's formulas, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

import cutchoose as cc
from cutchoose.solver import _simplex_grid

PAIRS = ((0, 1), (1, 2), (0, 2))
ABSENT_FOR_PAIR = {(0, 1): 2, (1, 2): 0, (0, 2): 1}

# The two cyclic winner patterns on three foods.
CYCLE_1 = {(0, 1): 1, (1, 2): 2, (0, 2): 0}  # 1>0, 2>1, 0>2
CYCLE_2 = {(0, 1): 0, (1, 2): 1, (0, 2): 2}  # 0>1, 1>2, 2>0


def diet_by_enumeration(cutter, chooser):
    """Diet frequencies accumulated over every (rejected, chosen) outcome."""
    table = chooser.as_table()
    lam = [0.0, 0.0, 0.0]
    omega = [0.0, 0.0, 0.0]
    for rejected in range(3):
        for chosen in range(3):
            if chosen == rejected:
                continue
            weight = cutter.p[rejected] * table[(chosen, rejected)]
            omega[chosen] += weight
            lam[3 - rejected - chosen] += weight
    return tuple(lam), tuple(omega)


def winners_from_chooser(chooser):
    """Strict pairwise winners read straight off the conditional table.

    Returns None when any comparison is an exact tie (caller resamples).
    """
    table = chooser.as_table()
    winners = {}
    for a, b in PAIRS:
        j = ABSENT_FOR_PAIR[(a, b)]
        ca, cb = table[(a, j)], table[(b, j)]
        if ca == cb:
            return None
        winners[(a, b)] = a if ca > cb else b
    return winners


def classify_by_enumeration(winners):
    """Classify a strict winner map against all 6 total orders and both 3-cycles.

    Returns ("transitive", order) or ("cycle1"/"cycle2", None).
    """
    for order in itertools.permutations(range(3)):
        rank = {food: position for position, food in enumerate(order)}
        if all(
            winners[pair] == min(pair, key=lambda food: rank[food]) for pair in PAIRS
        ):
            return "transitive", order
    if all(winners[pair] == CYCLE_1[pair] for pair in PAIRS):
        return "cycle1", None
    if all(winners[pair] == CYCLE_2[pair] for pair in PAIRS):
        return "cycle2", None
    raise AssertionError(f"winner map matches no order and no cycle: {winners}")


def residuals_exact(cutter, t_params):
    """The six fairness-system residuals in exact rational arithmetic.

    Floats convert to Fractions losslessly, so this is the mathematically
    exact value of the residuals the solver approximates in floats.
    """
    p = [Fraction(x) for x in cutter.p]
    t = [Fraction(x) for x in t_params.t]
    u = [t[i] * p[i] for i in range(3)]
    two_thirds = Fraction(2, 3)
    rhs = [
        two_thirds - (p[1] + p[2]),
        two_thirds - (p[0] + p[2]),
        two_thirds - (p[0] + p[1]),
    ]
    lam = (
        -u[1] + u[2] - rhs[0],
        -u[2] + u[0] - rhs[1],
        -u[0] + u[1] - rhs[2],
    )
    omega = (
        u[1] - u[2] - rhs[0],
        u[2] - u[0] - rhs[1],
        u[0] - u[1] - rhs[2],
    )
    return lam, omega


def grid_search_per_point(config):
    """``grid_search`` one point at a time, without the numpy kernel.

    Every point of ``_simplex_grid(n)`` x the t cube is a hit when
    ``residual_system(...).max_abs <= residual_tol``; hits are sorted by
    (residual, cutter index, t index). Unlike the rest of this module it reuses
    ``residual_system`` on purpose: that function defines the float verdict of
    each point, which the kernel must reproduce bit for bit, so an independent
    formula would judge float rounding rather than the kernel.
    """
    n, m = config.simplex_divisions, config.t_divisions
    axis = [(2 * i - m) / m for i in range(m + 1)]
    cube = [cc.TParams(*t) for t in itertools.product(axis, repeat=3)]  # lexicographic
    hits = []
    for s, cutter in enumerate(_simplex_grid(n)):
        for tt, t in enumerate(cube):
            r = cc.residual_system(cutter, t).max_abs
            if r <= config.residual_tol:
                hits.append((r, s, tt, cc.GridHit(cutter, t, r)))
    hits.sort(key=lambda h: h[:3])
    return [hit for *_, hit in hits]


def diet_exact(cutter, chooser):
    """Diet frequencies in exact rational arithmetic."""
    table = {k: Fraction(v) for k, v in chooser.as_table().items()}
    p = [Fraction(x) for x in cutter.p]
    lam = [Fraction(0)] * 3
    omega = [Fraction(0)] * 3
    for rejected in range(3):
        for chosen in range(3):
            if chosen == rejected:
                continue
            weight = p[rejected] * table[(chosen, rejected)]
            omega[chosen] += weight
            lam[3 - rejected - chosen] += weight
    return tuple(lam), tuple(omega)


def simulate_one_draw(cutter, chooser, n_rounds, seed):
    """``simulate`` as one draw of all n_rounds x 2 variates, round arrays and all.

    The reference for the library's blocked six-cell count: it keeps every
    round's rejected, chosen and leftover food and counts each role directly.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((n_rounds, 2))

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
    return cc.SimulationResult(
        n_rounds=n_rounds,
        counts_lambda=tuple(int(x) for x in counts_lambda),
        counts_omega=tuple(int(x) for x in counts_omega),
        counts_rejected=tuple(int(x) for x in counts_rejected),
        empirical_lambda=tuple(int(x) / n_rounds for x in counts_lambda),
        empirical_omega=tuple(int(x) / n_rounds for x in counts_omega),
        seed=seed,
    )


def random_cutter(rng: np.random.Generator) -> cc.CutterStrategy:
    raw = rng.exponential(size=3)
    p = raw / raw.sum()
    return cc.make_cutter(p[0], p[1], p[2])


def random_chooser(rng: np.random.Generator) -> cc.ChooserStrategy:
    c10, c01, c12 = rng.random(3)
    return cc.make_chooser(c10, c01, c12)
