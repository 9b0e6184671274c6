"""Joint fairness conditions: closed-form solution, feasibility, grid oracle.

Writing the chooser in t coordinates turns the two fairness conditions
(cutter's diet all 1/3, chooser's diet all 1/3) into two linear systems.
With u_k = t_k * p_k, v = (u2 - u1, u0 - u2, u1 - u0) and the pair gaps
g_k = 2/3 - (p_m + p_n) (food k left out of the sum), the residuals are

    r_lam[k] = v_k - g_k        r_om[k] = -v_k - g_k

Adding the matched equations eliminates every t and forces each pairwise
sum p_m + p_n to equal 2/3, i.e. the cutter must be uniform. Subtracting
them gives u_0 = u_1 = u_2, which at the uniform cutter means equal t's.
(The equal-u condition is kept in the multiplied-out linear form
t_m*p_m - t_n*p_n = 0, which stays valid at t = 0 where the ratio form would
divide by zero.) Hence the only exactly fair strategies are the uniform
cutter together with the one-parameter symmetric chooser family, and that
claim is independently checkable by brute force over a barycentric simplex
grid crossed with a t-cube grid.

For a non-uniform cutter the matched sums certify infeasibility: for each
food k, r_lam[k] + r_om[k] = -2*g_k no matter what the chooser does, so some
diet share must miss 1/3 by at least half the largest |g_k|. That bound is
attained (e.g. by the t = 0 chooser), so the certificate reported below is
the minimal achievable fairness max-residual; max_k |g_k| is twice it.

The grid oracle scores food k by max(|v_k - g_k|, |v_k + g_k|) = |v_k| + |g_k|.
The identity holds bit for bit in floats: rounding to nearest is symmetric
(fl(-x) = -fl(x)) and monotone, so the larger rounded magnitude is the rounded
|v_k| + |g_k|, the value residual_system's max_abs reports. Monotone rounding
also keeps that sum at least |g_k|, so a cutter whose largest |g_k| exceeds
the tolerance has no hit at any t. (grid_search still scores such cutters
at every t; skipping them would give the same hits.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diet import FAIR_SHARE
from .errors import GridTooLarge, OutOfRange
from .strategies import (
    ChooserStrategy,
    CutterStrategy,
    TParams,
    make_cutter,
    symmetric_chooser,
)

TWO_THIRDS = 2.0 / 3.0

_GRID_POINT_BUDGET = 10**8
_SELF_CHECK_SAMPLES = 21
_SELF_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class ResidualVector:
    """Signed residuals of the two transformed fairness systems (left - right)."""

    lambda_system: tuple[float, float, float]
    omega_system: tuple[float, float, float]

    @property
    def max_abs(self) -> float:
        return max(abs(r) for r in self.lambda_system + self.omega_system)


def _pair_gaps(p0, p1, p2):
    """g_k = 2/3 - (p_m + p_n), food k left out; floats or numpy columns alike."""
    return TWO_THIRDS - (p1 + p2), TWO_THIRDS - (p0 + p2), TWO_THIRDS - (p0 + p1)


def residual_system(cutter: CutterStrategy, t: TParams) -> ResidualVector:
    """Evaluate all six fairness residuals at a cutter/t-parameter pair.

    All six vanish exactly when the corresponding diet profile meets the
    fairness targets; each residual is twice the matching diet residual.
    """
    p0, p1, p2 = cutter.p
    u0 = t.t0 * p0
    u1 = t.t1 * p1
    u2 = t.t2 * p2
    rhs0, rhs1, rhs2 = _pair_gaps(p0, p1, p2)
    lam = (
        (-u1 + u2) - rhs0,
        (-u2 + u0) - rhs1,
        (-u0 + u1) - rhs2,
    )
    om = (
        (u1 - u2) - rhs0,
        (u2 - u0) - rhs1,
        (u0 - u1) - rhs2,
    )
    return ResidualVector(lam, om)


@dataclass(frozen=True)
class SelfCheck:
    """Largest residual max-norm found over equispaced members of a family."""

    n_samples: int
    max_abs_residual: float


@dataclass(frozen=True)
class SolutionFamily:
    """The uniform cutter plus the one-parameter symmetric chooser family."""

    cutter: CutterStrategy
    t_range: tuple[float, float]
    description: str

    def member(self, t: float) -> ChooserStrategy:
        """The chooser at parameter t in t_range."""
        lo, hi = self.t_range
        if not (lo <= float(t) <= hi):
            raise OutOfRange(f"t must lie in [{lo}, {hi}], got {t!r}")
        return symmetric_chooser(t)

    def self_check(self) -> SelfCheck:
        """Evaluate the residual system at equispaced members across t_range."""
        lo, hi = self.t_range
        step = (hi - lo) / (_SELF_CHECK_SAMPLES - 1)
        # The samples of np.linspace(lo, hi, _SELF_CHECK_SAMPLES), bit for bit.
        samples = [lo + i * step for i in range(_SELF_CHECK_SAMPLES - 1)] + [hi]
        worst = max(residual_system(self.cutter, TParams(t, t, t)).max_abs for t in samples)
        return SelfCheck(_SELF_CHECK_SAMPLES, worst)


def _canonical_family() -> SolutionFamily:
    return SolutionFamily(
        cutter=make_cutter(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        t_range=(-1.0, 1.0),
        description=(
            "uniform cutter with the symmetric chooser family: the three "
            "cyclic conditionals equal (1+t)/2 and their complements (1-t)/2, "
            "t in [-1, 1]"
        ),
    )


def solve_joint() -> SolutionFamily:
    """Solve both fairness conditions jointly in closed form.

    Self-checks that the residual system vanishes (max-norm <= 1e-12) at 21
    equispaced family members before returning.
    """
    family = _canonical_family()
    check = family.self_check()
    if check.max_abs_residual > _SELF_CHECK_TOL:
        raise RuntimeError(
            f"closed-form family failed self-check: max residual {check.max_abs_residual}"
        )
    return family


@dataclass(frozen=True)
class FeasibilityResult:
    """Either the solution family for a (near-)uniform cutter or an infeasibility certificate.

    When infeasible, ``certificate`` is the minimal fairness max-residual any
    chooser can achieve against this cutter: half the largest deviation of a
    pairwise rejection sum from 2/3. ``witness_food`` names the food whose
    pairwise sum realizes it.
    """

    feasible: bool
    family: SolutionFamily | None = None
    certificate: float | None = None
    witness_food: int | None = None
    witness_pair_sum: float | None = None


def solve_chooser_given_cutter(
    cutter: CutterStrategy, tol: float = 1e-9
) -> FeasibilityResult:
    """Decide whether any chooser makes play fair against the given cutter.

    ``tol`` bounds the cutter's max-norm distance from uniform; within it the
    canonical family is returned (it solves the system exactly only for the
    exactly uniform cutter).
    """
    if not float(tol) >= 0.0:
        raise OutOfRange(f"tol must be >= 0, got {tol!r}")
    p0, p1, p2 = cutter.p
    if max(abs(p0 - FAIR_SHARE), abs(p1 - FAIR_SHARE), abs(p2 - FAIR_SHARE)) <= tol:
        return FeasibilityResult(feasible=True, family=_canonical_family())
    pair_sums = (p1 + p2, p0 + p2, p0 + p1)  # food k excluded from sum k
    deviations = tuple(abs(s - TWO_THIRDS) for s in pair_sums)
    worst = max(range(3), key=lambda k: deviations[k])
    return FeasibilityResult(
        feasible=False,
        certificate=deviations[worst] / 2.0,
        witness_food=worst,
        witness_pair_sum=pair_sums[worst],
    )


@dataclass(frozen=True)
class GridSearchConfig:
    """Brute-force grid: barycentric simplex spacing, per-axis t spacing, hit tolerance."""

    simplex_step: float
    t_step: float
    residual_tol: float

    def __post_init__(self) -> None:
        if not 0.0 < float(self.simplex_step) <= 1.0:
            raise OutOfRange(f"simplex_step must be in (0, 1], got {self.simplex_step!r}")
        if not 0.0 < float(self.t_step) <= 1.0:
            raise OutOfRange(f"t_step must be in (0, 1], got {self.t_step!r}")
        if not float(self.residual_tol) >= 0.0:
            raise OutOfRange(f"residual_tol must be >= 0, got {self.residual_tol!r}")

    @property
    def simplex_divisions(self) -> int:
        return _divisions(1.0, self.simplex_step, "simplex_step")

    @property
    def t_divisions(self) -> int:
        return _divisions(2.0, self.t_step, "t_step")


def _divisions(span: float, step: float, name: str) -> int:
    divisions = span / step
    if not math.isfinite(divisions):  # a subnormal step: no integer count of divisions
        raise GridTooLarge(f"{name} {step!r} is too small: {span:g}/{name} overflows")
    return max(1, round(divisions))


@dataclass(frozen=True)
class GridHit:
    """One grid point whose residual max-norm is within the hit tolerance."""

    cutter: CutterStrategy
    t_params: TParams
    max_abs_residual: float


def _simplex_grid(n: int) -> list[CutterStrategy]:
    # Integer compositions i + j + k = n, lexicographic in (i, j).
    points = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            k = n - i - j
            points.append(make_cutter(i / n, j / n, k / n))
    return points


def grid_search(config: GridSearchConfig) -> list[GridHit]:
    """Enumerate the simplex-cross-cube grid and return all near-fair points.

    Steps snap to whole grid divisions (1/round(1/simplex_step) on the
    simplex, 2/round(2/t_step) per t axis) so both endpoints always land on
    the grid. Hits are sorted by ascending residual, ties broken by
    lexicographic grid coordinates, so the output is independent of
    evaluation order. Each point is scored by max_k (|v_k| + |g_k|), bit for
    bit residual_system's max_abs (module docstring).
    """
    n = config.simplex_divisions
    m = config.t_divisions
    n_simplex = (n + 1) * (n + 2) // 2
    n_cube = (m + 1) ** 3
    total = n_simplex * n_cube
    if total > _GRID_POINT_BUDGET:
        raise GridTooLarge(
            f"grid has {total} points, exceeding the {_GRID_POINT_BUDGET} budget"
        )

    import numpy as np  # here, not at module top: keeps numpy off the CLI's import path

    cutters = _simplex_grid(n)
    p = np.array([c.p for c in cutters])  # (S, 3)
    gap = np.abs(np.column_stack(_pair_gaps(p[:, 0], p[:, 1], p[:, 2])))  # (S, 3)
    axis = np.array([(2 * i - m) / m for i in range(m + 1)])
    a, b, c = np.meshgrid(axis, axis, axis, indexing="ij")
    tgrid = np.column_stack([a.ravel(), b.ravel(), c.ravel()])  # (M, 3) lexicographic

    hits: list[tuple[float, int, int]] = []
    block = 1_000_000  # points evaluated per vectorized pass
    t_chunk = max(1, min(len(tgrid), block))
    s_chunk = max(1, block // t_chunk)
    for s_start in range(0, len(cutters), s_chunk):
        pc = p[s_start : s_start + s_chunk]
        gc = gap[s_start : s_start + s_chunk]
        for t_start in range(0, len(tgrid), t_chunk):
            tc = tgrid[t_start : t_start + t_chunk]
            u = tc[None, :, :] * pc[:, None, :]
            v = np.stack(
                [u[:, :, 2] - u[:, :, 1], u[:, :, 0] - u[:, :, 2], u[:, :, 1] - u[:, :, 0]],
                axis=2,
            )
            score = (np.abs(v) + gc[:, None, :]).max(axis=2)  # (s_chunk, t_chunk)
            si, ti = np.nonzero(score <= config.residual_tol)
            hits.extend(zip(score[si, ti].tolist(), (s_start + si).tolist(), (t_start + ti).tolist()))

    hits.sort()  # (residual, cutter, t): independent of evaluation order
    return [
        GridHit(cutter=cutters[s], t_params=TParams(*tgrid[tt].tolist()), max_abs_residual=r)
        for r, s, tt in hits
    ]


@dataclass(frozen=True)
class UniquenessReport:
    """Grid-oracle verdict: do all near-fair grid points lie on the solution family?"""

    passed: bool
    no_hits: bool
    n_hits: int
    n_offenders: int
    worst_distance: float
    worst_offender: GridHit | None
    family_tol: float


def _family_distance(hit: GridHit) -> float:
    dp = max(abs(x - FAIR_SHARE) for x in hit.cutter.p)
    ts = hit.t_params.t
    dt = (max(ts) - min(ts)) / 2.0
    return max(dp, dt)


def verify_uniqueness(config: GridSearchConfig, family_tol: float) -> UniquenessReport:
    """Check that every grid hit is within family_tol of the solution family.

    The family manifold is {uniform cutter} x {equal t's}; distance is the
    max-norm over the cutter coordinates and the t spread. An empty hit list
    passes vacuously and is flagged via ``no_hits``.
    """
    if not float(family_tol) >= 0.0:
        raise OutOfRange(f"family_tol must be >= 0, got {family_tol!r}")
    hits = grid_search(config)
    worst: GridHit | None = None
    worst_distance = 0.0
    n_offenders = 0
    for hit in hits:
        d = _family_distance(hit)
        if d > family_tol:
            n_offenders += 1
        if worst is None or d > worst_distance:
            worst = hit
            worst_distance = d
    return UniquenessReport(
        passed=n_offenders == 0,
        no_hits=not hits,
        n_hits=len(hits),
        n_offenders=n_offenders,
        worst_distance=worst_distance,
        worst_offender=worst,
        family_tol=float(family_tol),
    )
