"""Closed-form link curve and model-structured scenario tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margshift import (
    DomainError,
    McorScenario,
    ShapeError,
    curve_grid,
    delta_of_phi,
    discordance,
    hazards,
    marginals,
    phi,
    phi_of_delta,
    scenario_table,
)
from margshift import mcor
from margshift.mcor import _marginal_from_hazards


class TestPhiOfDelta:
    def test_zero_shift(self):
        assert phi_of_delta(0.0) == 0.0

    def test_limits(self):
        assert phi_of_delta(50.0) == pytest.approx(-1.0, abs=1e-12)
        assert phi_of_delta(-50.0) == pytest.approx(1.0, abs=1e-12)

    def test_unit_shift_value(self):
        # (4/pi) arccos(e / sqrt(e^2 + 1)) - 1
        expected = (4.0 / math.pi) * math.acos(
            math.e / math.sqrt(math.e**2 + 1.0)
        ) - 1.0
        assert phi_of_delta(1.0) == pytest.approx(expected, abs=1e-14)
        assert phi_of_delta(1.0) == pytest.approx(-0.55116597134283, abs=1e-13)

    def test_extreme_arguments_do_not_overflow(self):
        assert phi_of_delta(1e6) == -1.0
        assert phi_of_delta(-1e6) == 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            phi_of_delta(float("inf"))
        with pytest.raises(DomainError):
            phi_of_delta(float("nan"))

    @given(st.floats(-30.0, 30.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry(self, delta):
        assert phi_of_delta(-delta) == pytest.approx(-phi_of_delta(delta), abs=1e-12)

    @given(st.floats(-700.0, 700.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, delta):
        assert -1.0 <= phi_of_delta(delta) <= 1.0


class TestDeltaOfPhi:
    def test_zero(self):
        assert delta_of_phi(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_round_trip(self):
        target = phi_of_delta(1.0)
        assert phi_of_delta(delta_of_phi(target)) == pytest.approx(target, abs=1e-10)

    def test_round_trip_near_boundary(self):
        for value in (0.999999, -0.999999):
            assert phi_of_delta(delta_of_phi(value)) == pytest.approx(value, abs=1e-8)

    def test_domain(self):
        for bad in (1.0, -1.0, 1.5, float("nan")):
            with pytest.raises(DomainError):
                delta_of_phi(bad)

    @given(st.floats(-0.9999, 0.9999, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_interior(self, value):
        assert phi_of_delta(delta_of_phi(value)) == pytest.approx(value, abs=1e-10)


class TestScenario:
    def test_column_hazards_follow_the_shift(self):
        s = McorScenario(base_haz_x=np.array([0.3, 0.4, 0.5]), delta=1.0)
        expected = 1.0 / (1.0 + np.exp(-(np.log(np.array([0.3, 0.4, 0.5]) / np.array([0.7, 0.6, 0.5])) + 1.0)))
        np.testing.assert_allclose(s.omega_y, expected, rtol=1e-14)

    def test_invalid_base_hazards(self):
        for bad in ([0.0, 0.5], [0.5, 1.0], [-0.1, 0.5], [float("nan"), 0.5]):
            with pytest.raises(DomainError):
                McorScenario(base_haz_x=np.array(bad), delta=0.0)

    def test_base_hazards_are_a_frozen_copy(self):
        base = np.array([0.3, 0.4])
        s = McorScenario(base, 0.1)
        assert base.flags.writeable
        assert not s.base_haz_x.flags.writeable
        base[0] = 0.9
        assert s.base_haz_x[0] == 0.3

    @pytest.mark.parametrize("base", [[[0.3, 0.4]], [[0.3], [0.4]], []])
    def test_base_hazards_must_be_one_nonempty_row(self, base):
        with pytest.raises(ShapeError):
            McorScenario(base, 0.1)

    def test_saturating_shift_rejected(self):
        with pytest.raises(DomainError):
            McorScenario(base_haz_x=np.array([0.5, 0.5]), delta=60.0)

    def test_zero_shift_is_marginal_homogeneity(self):
        table = scenario_table(McorScenario(base_haz_x=np.array([0.5, 0.5]), delta=0.0))
        m = marginals(table)
        np.testing.assert_allclose(m.row, m.col, atol=1e-15)
        assert phi(discordance(hazards(m))) == pytest.approx(0.0, abs=1e-14)

    def test_joint_is_independence_product(self):
        s = McorScenario(base_haz_x=np.array([0.2, 0.6]), delta=0.5)
        table = scenario_table(s)
        m = marginals(table)
        np.testing.assert_allclose(table.p, np.outer(m.row, m.col), atol=1e-15)

    def test_table_hazards_satisfy_the_shift_constraint(self):
        s = McorScenario(base_haz_x=np.array([0.3, 0.4, 0.5]), delta=-1.7)
        h = hazards(marginals(scenario_table(s)))
        logit = lambda w: np.log(w) - np.log1p(-w)
        np.testing.assert_allclose(
            logit(h.omega_y) - logit(h.omega_x), -1.7, atol=1e-12
        )

    def test_path_consistency_examples(self):
        for delta in (1.0, -2.0):
            s = McorScenario(base_haz_x=np.array([0.3, 0.4, 0.5]), delta=delta)
            via_table = phi(discordance(hazards(marginals(scenario_table(s)))))
            assert via_table == pytest.approx(phi_of_delta(delta), abs=1e-10)

    def test_path_consistency_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            r = int(rng.integers(3, 6))
            base = rng.uniform(0.08, 0.92, size=r - 1)
            delta = float(rng.uniform(-4.0, 4.0))
            s = McorScenario(base_haz_x=base, delta=delta)
            via_table = phi(discordance(hazards(marginals(scenario_table(s)))))
            assert via_table == pytest.approx(phi_of_delta(delta), abs=1e-10)


def marginal_loop(omega):
    """The survival recursion one index at a time, the oracle for the cumprod form."""
    r = omega.shape[0] + 1
    p = np.empty(r)
    s = 1.0
    for i in range(r - 1):
        p[i] = s * omega[i]
        s *= 1.0 - omega[i]
    p[r - 1] = s
    return p


def test_marginal_from_hazards_is_the_survival_recursion():
    rng = np.random.default_rng(4)
    for _ in range(500):
        omega = rng.random(int(rng.integers(1, 120)))
        np.testing.assert_array_equal(_marginal_from_hazards(omega), marginal_loop(omega))


class TestCurveGrid:
    def test_inclusive_grid_shape_and_monotonicity(self):
        points = curve_grid(-6.0, 6.0, 0.1)
        assert len(points) == 121
        values = [v for _, v in points]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_grid_contains_exact_zero(self):
        points = curve_grid(-6.0, 6.0, 0.1)
        assert (0.0, 0.0) in points

    def test_degenerate_ranges_rejected(self):
        with pytest.raises(DomainError):
            curve_grid(2.0, 2.0, 0.1)
        with pytest.raises(DomainError):
            curve_grid(3.0, 2.0, 0.1)
        with pytest.raises(DomainError):
            curve_grid(0.0, 0.05, 0.1)  # single point

    def test_grid_size_is_capped_before_allocating(self, monkeypatch):
        for lo, hi, step in ((0.0, 1_000_000.0, 1.0), (0.0, 1e9, 1e-9), (-1e308, 1e308, 1.0)):
            with pytest.raises(DomainError, match="more than 1000000 points"):
                curve_grid(lo, hi, step)
        monkeypatch.setattr(mcor, "_MAX_CURVE_POINTS", 10)
        assert len(curve_grid(0.0, 0.9, 0.1)) == 10  # the cap itself is allowed
        with pytest.raises(DomainError, match="more than 10 points"):
            curve_grid(0.0, 1.0, 0.1)

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError):
            curve_grid(-1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            curve_grid(-1.0, 1.0, -0.5)
