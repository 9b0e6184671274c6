"""Residual system, closed-form family, feasibility certificates, grid oracle."""

from fractions import Fraction

import numpy as np
import pytest

import cutchoose as cc
import cutchoose.solver as solver_module
from cutchoose import GridTooLarge, OutOfRange
from oracles import random_chooser, random_cutter, residuals_exact

THIRD = 1.0 / 3.0


def uniform_cutter():
    return cc.make_cutter(1 / 3, 1 / 3, 1 / 3)


class TestResidualSystem:
    def test_family_member_residuals_vanish_exactly(self):
        r = cc.residual_system(uniform_cutter(), cc.TParams(0.5, 0.5, 0.5))
        assert r.lambda_system == (0.0, 0.0, 0.0)
        assert r.omega_system == (0.0, 0.0, 0.0)
        assert r.max_abs == 0.0

    def test_uniform_cutter_unequal_t(self):
        """t = (1, 0, 0) leaves a residual of exactly 1/3 in the second equation."""
        r = cc.residual_system(uniform_cutter(), cc.TParams(1.0, 0.0, 0.0))
        assert r.lambda_system[1] == THIRD
        assert r.omega_system[1] == -THIRD
        assert r.max_abs == THIRD

    def test_non_uniform_cutter_zero_t(self):
        r = cc.residual_system(cc.make_cutter(0.5, 0.25, 0.25), cc.TParams(0, 0, 0))
        assert abs(r.lambda_system[0] - (-1 / 6)) <= 1e-15
        assert abs(r.omega_system[0] - (-1 / 6)) <= 1e-15

    def test_matches_exact_rational_oracle(self, rng):
        for _ in range(300):
            cut = random_cutter(rng)
            t = cc.TParams(*rng.uniform(-1, 1, 3))
            r = cc.residual_system(cut, t)
            exact_lam, exact_omega = residuals_exact(cut, t)
            for got, want in zip(
                r.lambda_system + r.omega_system, exact_lam + exact_omega
            ):
                assert abs(got - float(want)) <= 5e-16

    def test_subsystem_residuals_sum_to_zero(self, rng):
        for _ in range(500):
            cut = random_cutter(rng)
            t = cc.TParams(*rng.uniform(-1, 1, 3))
            r = cc.residual_system(cut, t)
            assert abs(sum(r.lambda_system)) <= 1e-12
            assert abs(sum(r.omega_system)) <= 1e-12

    def test_consistency_with_diet_residuals(self, rng):
        """Each system residual is twice the matching diet residual; both vanish together."""
        for _ in range(10_000):
            cut, ch = random_cutter(rng), random_chooser(rng)
            t = cc.to_t_params(ch)
            r = cc.residual_system(cut, t)
            report = cc.fairness_residual(cc.diet_profile(cut, ch), 0.0)
            for system, diet in zip(r.lambda_system, report.lambda_residuals):
                assert abs(system - 2.0 * diet) <= 1e-12
            for system, diet in zip(r.omega_system, report.omega_residuals):
                assert abs(system - 2.0 * diet) <= 1e-12
            assert (r.max_abs <= 1e-12) == (report.max_abs_residual <= 1e-12)


class TestSolveJoint:
    def test_returns_uniform_cutter_and_full_t_range(self):
        family = cc.solve_joint()
        assert family.cutter.p == (THIRD, THIRD, THIRD)
        assert family.t_range == (-1.0, 1.0)

    def test_sampled_members_have_zero_residuals(self):
        family = cc.solve_joint()
        for t in np.linspace(-1, 1, 21):
            r = cc.residual_system(family.cutter, cc.TParams(t, t, t))
            assert r.max_abs <= 1e-12

    @pytest.mark.parametrize("t_range", [(-1.0, 1.0), (-0.3, 0.7), (-1 / 3, 2 / 3)])
    def test_self_check_samples_are_linspace(self, t_range, monkeypatch):
        family = cc.SolutionFamily(cc.solve_joint().cutter, t_range, "")
        seen = []

        def recording(cutter, t):
            seen.append(t.t0)
            return cc.residual_system(cutter, t)

        monkeypatch.setattr(solver_module, "residual_system", recording)
        assert family.self_check().n_samples == 21
        assert [t.hex() for t in seen] == [t.hex() for t in np.linspace(*t_range, 21).tolist()]

    def test_member_at_zero_is_uniform_chooser(self):
        assert cc.solve_joint().member(0.0) == cc.make_chooser(0.5, 0.5, 0.5)

    def test_member_at_minus_one_is_anticyclic_deterministic(self):
        ch = cc.solve_joint().member(-1.0)
        assert (ch.c10, ch.c21, ch.c02) == (1.0, 1.0, 1.0)
        r = cc.residual_system(cc.solve_joint().cutter, cc.to_t_params(ch))
        assert r.max_abs == 0.0

    def test_member_range_check(self):
        with pytest.raises(OutOfRange):
            cc.solve_joint().member(1.5)

    def test_members_are_fair_under_diet(self):
        family = cc.solve_joint()
        for t in np.linspace(-1, 1, 21):
            profile = cc.diet_profile(family.cutter, family.member(t))
            assert cc.fairness_residual(profile, 1e-12).is_fair


class TestFeasibility:
    def test_uniform_cutter_is_feasible_at_zero_tol(self):
        result = cc.solve_chooser_given_cutter(uniform_cutter(), tol=0.0)
        assert result.feasible
        assert result.family is not None
        assert result.family.cutter.p == (THIRD, THIRD, THIRD)

    def test_half_quarter_quarter_certificate(self):
        """Certificate 1/12: half the worst pairwise-sum deviation from 2/3."""
        result = cc.solve_chooser_given_cutter(cc.make_cutter(0.5, 0.25, 0.25), tol=1e-9)
        assert not result.feasible
        assert abs(result.certificate - 1 / 12) <= 1e-15
        assert result.witness_food == 0
        assert result.witness_pair_sum == 0.5

    def test_vertex_certificate(self):
        result = cc.solve_chooser_given_cutter(cc.make_cutter(1, 0, 0), tol=1e-9)
        assert not result.feasible
        assert abs(result.certificate - 1 / 3) <= 1e-15
        assert result.witness_food == 0
        assert result.witness_pair_sum == 0.0

    def test_certificate_matches_exact_arithmetic(self, rng):
        for _ in range(300):
            cut = random_cutter(rng)
            result = cc.solve_chooser_given_cutter(cut, tol=1e-9)
            exact = max(
                abs(Fraction(2, 3) - (Fraction(cut.p[m]) + Fraction(cut.p[n])))
                for m, n in ((1, 2), (0, 2), (0, 1))
            ) / 2
            if result.feasible:
                assert float(exact) <= 1e-9
            else:
                assert abs(result.certificate - float(exact)) <= 1e-15

    def test_certificate_is_a_residual_lower_bound(self, rng):
        """Every chooser misses fairness by at least the certificate."""
        for _ in range(20):
            cut = random_cutter(rng)
            result = cc.solve_chooser_given_cutter(cut, tol=1e-9)
            if result.feasible:
                continue
            for _ in range(200):
                ch = random_chooser(rng)
                report = cc.fairness_residual(cc.diet_profile(cut, ch), 0.0)
                assert report.max_abs_residual >= result.certificate - 1e-12

    def test_certificate_is_attained_at_zero_t(self, rng):
        """The t = 0 chooser achieves the certificate, so it is minimal."""
        for _ in range(100):
            cut = random_cutter(rng)
            result = cc.solve_chooser_given_cutter(cut, tol=1e-9)
            if result.feasible:
                continue
            report = cc.fairness_residual(
                cc.diet_profile(cut, cc.symmetric_chooser(0.0)), 0.0
            )
            assert abs(report.max_abs_residual - result.certificate) <= 1e-12

    def test_tolerance_gate_uses_cutter_distance(self):
        near = cc.make_cutter(1 / 3 + 1e-6, 1 / 3, 1 / 3 - 1e-6)
        assert not cc.solve_chooser_given_cutter(near, tol=1e-9).feasible
        assert cc.solve_chooser_given_cutter(near, tol=1e-5).feasible

    def test_tol_validation(self):
        with pytest.raises(OutOfRange):
            cc.solve_chooser_given_cutter(uniform_cutter(), tol=-1.0)


class TestGridSearch:
    def test_coarse_grid_hits_only_the_family(self):
        config = cc.GridSearchConfig(simplex_step=1 / 3, t_step=1.0, residual_tol=1e-9)
        hits = cc.grid_search(config)
        assert len(hits) == 3
        expected_t = {(-1.0, -1.0, -1.0), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)}
        assert {h.t_params.t for h in hits} == expected_t
        for h in hits:
            assert h.cutter.p == (THIRD, THIRD, THIRD)
            assert h.max_abs_residual == 0.0

    def test_finer_grid_hits_are_all_family_members(self):
        config = cc.GridSearchConfig(simplex_step=1 / 6, t_step=0.5, residual_tol=1e-9)
        for h in cc.grid_search(config):
            assert h.cutter.p == (THIRD, THIRD, THIRD)
            assert h.t_params.t0 == h.t_params.t1 == h.t_params.t2

    def test_huge_tolerance_returns_every_point(self):
        config = cc.GridSearchConfig(simplex_step=1 / 3, t_step=1.0, residual_tol=10.0)
        hits = cc.grid_search(config)
        assert len(hits) == 10 * 27
        assert hits == sorted(hits, key=lambda h: h.max_abs_residual)

    def test_matches_scalar_residuals(self):
        config = cc.GridSearchConfig(simplex_step=1 / 4, t_step=0.5, residual_tol=10.0)
        for h in cc.grid_search(config):
            assert h.max_abs_residual == cc.residual_system(h.cutter, h.t_params).max_abs

    def test_grid_too_large(self):
        with pytest.raises(GridTooLarge):
            cc.grid_search(
                cc.GridSearchConfig(simplex_step=1e-3, t_step=1e-3, residual_tol=0.0)
            )

    def test_config_validation(self):
        with pytest.raises(OutOfRange):
            cc.GridSearchConfig(simplex_step=0.0, t_step=0.5, residual_tol=1e-9)
        with pytest.raises(OutOfRange):
            cc.GridSearchConfig(simplex_step=0.5, t_step=2.0, residual_tol=1e-9)
        with pytest.raises(OutOfRange):
            cc.GridSearchConfig(simplex_step=0.5, t_step=0.5, residual_tol=-1.0)


class TestVerifyUniqueness:
    def test_passes_on_a_clean_grid(self):
        config = cc.GridSearchConfig(simplex_step=1 / 12, t_step=0.25, residual_tol=1e-9)
        report = cc.verify_uniqueness(config, family_tol=1e-9)
        assert report.passed
        assert not report.no_hits
        assert report.n_offenders == 0
        assert report.worst_distance <= 1e-9

    def test_loose_tolerance_admits_off_family_points(self):
        config = cc.GridSearchConfig(simplex_step=1 / 3, t_step=1.0, residual_tol=0.4)
        report = cc.verify_uniqueness(config, family_tol=1e-9)
        assert not report.passed
        assert report.n_offenders > 0
        assert report.worst_offender is not None
        assert report.worst_distance > 1e-9

    def test_vacuous_pass_when_grid_misses_the_family(self):
        # n = 4 has no uniform barycentric point, so zero tolerance finds nothing.
        config = cc.GridSearchConfig(simplex_step=1 / 4, t_step=0.5, residual_tol=0.0)
        report = cc.verify_uniqueness(config, family_tol=1e-9)
        assert report.passed
        assert report.no_hits
        assert report.n_hits == 0
        assert report.worst_offender is None
