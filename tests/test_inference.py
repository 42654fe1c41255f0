"""Covariance, gradients, Wald and bootstrap intervals, group comparison."""

import math
import re
import subprocess
import sys
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import margshift.inference as inference
from margshift import (
    CountTable,
    CoverageStudySpec,
    DegenerateMassError,
    DomainError,
    McorScenario,
    MethodMismatchError,
    NonDifferentiableError,
    ShapeError,
    bootstrap_ci,
    compare_groups,
    from_counts,
    grad_fd,
    grad_phi,
    multinomial_covariance,
    scenario_table,
    wald_ci,
    z_quantile,
)
from margshift.inference import ConfInterval, EstimateReport, _checked_grad, _percentile
from margshift.measures import _check_lambda
from conftest import ACTIVE_COUNTS, random_positive_table

# high-precision standard normal quantiles, frozen as test oracles
Z_975 = 1.959963984540054
Z_995 = 2.5758293035489004
Z_95 = 1.6448536269514722
Z_9995 = 3.2905267314919255
Z_75 = 0.6744897501960817


def flat(table: CountTable) -> np.ndarray:
    return from_counts(table).p.ravel()


def rel_gradient_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max componentwise deviation, relative to the gradient's scale."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestMultinomialCovariance:
    def test_point_mass_is_zero_matrix(self):
        xi = multinomial_covariance(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(xi, np.zeros((4, 4)))

    def test_uniform_closed_form(self):
        xi = multinomial_covariance(np.full(4, 0.25))
        expected = np.diag(np.full(4, 0.25)) - 0.0625 * np.ones((4, 4))
        np.testing.assert_allclose(xi, expected, atol=1e-16)

    def test_structure_on_real_data(self, active_table):
        xi = multinomial_covariance(flat(active_table))
        np.testing.assert_allclose(xi.sum(axis=1), 0.0, atol=1e-15)
        np.testing.assert_array_equal(xi, xi.T)
        assert np.min(np.linalg.eigvalsh(xi)) > -1e-12

    def test_rejects_bad_vectors(self):
        with pytest.raises(ShapeError):
            multinomial_covariance(np.array([0.5, 0.5, 0.5]))  # not r^2
        with pytest.raises(DomainError):
            multinomial_covariance(np.array([0.7, 0.1, 0.1, 0.2]))  # off-mass

    @pytest.mark.parametrize("fn", [multinomial_covariance, grad_phi, grad_fd])
    def test_a_misshapen_vector_is_a_shape_error(self, fn):
        with pytest.raises(ShapeError, match="1-d"):
            fn(np.full((2, 2), 0.25))
        with pytest.raises(ShapeError, match="not r\\^2"):
            fn(np.full(3, 1 / 3))

    def test_checks_the_vector_as_a_prob_table_and_uses_it_as_given(self):
        for bad, message in (([0.5, 0.5, np.nan, 0.0], "finite"),
                             ([0.5, 0.6, -0.1, 0.0], "nonnegative"),
                             ([0.5, 0.5, 0.5, 0.0], "sum to 1.5")):
            with pytest.raises(DomainError, match=message):
                multinomial_covariance(np.array(bad))
        vec = np.array([0.25, 0.25, 0.25, 0.25 + 1e-10])  # within tolerance, not renormalized
        np.testing.assert_array_equal(multinomial_covariance(vec), np.diag(vec) - np.outer(vec, vec))


class TestGradients:
    def test_matches_finite_differences_on_real_data(self, active_table):
        p = flat(active_table)
        assert rel_gradient_error(grad_fd(p), grad_phi(p)) < 1e-6

    def test_matches_finite_differences_on_scenario(self):
        s = McorScenario(base_haz_x=np.array([0.3, 0.4, 0.5]), delta=0.5)
        p = scenario_table(s).p.ravel()
        assert rel_gradient_error(grad_fd(p), grad_phi(p)) < 1e-6

    def test_matches_finite_differences_randomized(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            r = int(rng.integers(3, 6))
            p = flat(random_positive_table(rng, r))
            worst = max(worst, rel_gradient_error(grad_fd(p), grad_phi(p)))
        assert worst < 1e-6

    def test_matches_at_r_200_in_under_a_second(self):
        # 2r margin entries are stepped, not r^2 cells: O(r^2), not O(r^4)
        p = flat(random_positive_table(np.random.default_rng(200), 200))
        for measure, lam in (("phi", None), ("psi", 1.0)):
            start = time.perf_counter()
            fd = grad_fd(p, measure=measure, lam=lam)
            assert time.perf_counter() - start < 1.0
            assert rel_gradient_error(fd, _checked_grad(p, measure, lam)) < 1e-6

    def test_richardson_order(self, active_table):
        """Halving the step divides the truncation error by about four."""
        p = flat(active_table)
        exact = grad_phi(p)
        err_h = np.max(np.abs(grad_fd(p, 5e-4) - exact))
        err_h2 = np.max(np.abs(grad_fd(p, 2.5e-4) - exact))
        assert err_h / err_h2 == pytest.approx(4.0, abs=0.5)

    def test_equal_marginals_gradient_sums_to_zero(self):
        m = np.array([[3, 7, 2], [7, 1, 5], [2, 5, 9]])
        g = grad_phi(flat(CountTable(m)))
        assert float(g.sum()) == pytest.approx(0.0, abs=1e-12)

    def test_all_ones_shift_leaves_variance_unchanged(self, active_table):
        p = flat(active_table)
        g = grad_phi(p)
        xi = multinomial_covariance(p)
        base = g @ xi @ g
        for c in (-3.2, 0.7, 11.0):
            shifted = g + c
            assert shifted @ xi @ shifted == pytest.approx(base, rel=1e-12)

    def test_step_domain(self, active_table):
        p = flat(active_table)
        with pytest.raises(DomainError):
            grad_fd(p, 0.0)
        with pytest.raises(DomainError):
            grad_fd(p, 1e-3)
        with pytest.raises(DomainError):
            grad_fd(p, -1e-6)

    def test_a_step_lost_in_rounding_is_refused(self):
        # cell + h == cell: 1e-300 beside 0.25, and 1e-17 beside 0.5 (ulp 1.1e-16)
        for p, h in ((np.full(4, 0.25), 1e-300), (np.array([0.5, 0.2, 0.2, 0.1]), 1e-17)):
            with pytest.raises(DomainError, match="lost in rounding"):
                grad_fd(p, h)
            assert rel_gradient_error(grad_fd(p, 1e-6), grad_phi(p)) < 1e-6

    def test_boundary_table_not_differentiable(self):
        p = from_counts(CountTable([[0, 0, 0], [0, 0, 0], [40, 60, 0]])).p.ravel()
        with pytest.raises(NonDifferentiableError):
            grad_phi(p)
        with pytest.raises(NonDifferentiableError):
            grad_fd(p)

    def test_vanishing_index_not_differentiable(self):
        # no mass at category 1 in either margin
        p = from_counts(CountTable([[0, 0, 0], [0, 2, 5], [0, 3, 7]])).p.ravel()
        with pytest.raises(NonDifferentiableError):
            grad_phi(p)

    def test_exhausted_survival_not_differentiable(self):
        # all row mass in category 1: row survival dies at index 2
        p = np.array([0.4, 0.3, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(NonDifferentiableError):
            grad_phi(p)

    def test_degenerate_mass_raises(self):
        with pytest.raises(DegenerateMassError):
            grad_phi(np.array([1.0, 0.0, 0.0, 0.0]))

    def test_psi_gradient_matches_finite_differences(self, active_table):
        p = flat(active_table)
        for lam in (-0.5, 0.0, 1.0, 2.0):
            an = _checked_grad(p, "psi", lam)
            fd = grad_fd(p, measure="psi", lam=lam)
            assert rel_gradient_error(fd, an) < 1e-6


class TestZQuantile:
    def test_frozen_constants(self):
        assert z_quantile(0.975) == pytest.approx(Z_975, abs=1e-9)
        assert z_quantile(0.995) == pytest.approx(Z_995, abs=1e-9)
        assert z_quantile(0.95) == pytest.approx(Z_95, abs=1e-9)
        assert z_quantile(0.9995) == pytest.approx(Z_9995, abs=1e-9)
        assert z_quantile(0.75) == pytest.approx(Z_75, abs=1e-9)

    def test_symmetry(self):
        for q in (0.51, 0.9, 0.999, 0.0001):
            assert z_quantile(q) == pytest.approx(-z_quantile(1.0 - q), abs=1e-12)

    def test_median(self):
        assert z_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                z_quantile(bad)

    def test_statistics_is_imported_on_first_use(self):
        code = (
            "import sys, margshift\n"
            "assert 'statistics' not in sys.modules\n"
            "margshift.z_quantile(0.975)\n"
            "assert 'statistics' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_far_tail(self):
        q = 1.0 - 1e-12
        assert z_quantile(q) == pytest.approx(NormalDist().inv_cdf(q), abs=1e-12)


ZERO_SE_FLAG = "delta-method se is 0: the interval has zero width"

# tables whose delta-method se is 0: diagonal tables, and psi at marginal homogeneity
ZERO_SE_CASES = [
    *[(np.diag(range(2, r + 2)).tolist(), measure, lam)
      for r in (2, 3, 4, 5) for measure, lam in (("phi", None), ("psi", 1.0))],
    ([[3, 1], [1, 3]], "psi", 0.0),
    ([[3, 1], [1, 3]], "psi", 1.0),
]


class TestWaldCI:
    @pytest.mark.parametrize("counts, measure, lam", ZERO_SE_CASES)
    def test_a_zero_se_is_flagged(self, counts, measure, lam):
        rep = wald_ci(CountTable(counts), 0.95, measure, lam)
        assert rep.ci.se == 0.0
        assert rep.ci.lower == rep.ci.estimate == rep.ci.upper
        assert rep.degenerate_flags == (ZERO_SE_FLAG,)

    def test_sleep_tables_carry_no_flag(self, active_table, placebo_table):
        for table in (active_table, placebo_table):
            for measure, lam in (("phi", None), ("psi", 0.0), ("psi", 1.0)):
                assert wald_ci(table, 0.95, measure, lam).degenerate_flags == ()

    def test_active_drug_reproduction(self, active_table):
        rep = wald_ci(active_table, 0.95, "phi")
        assert rep.ci.estimate == pytest.approx(-0.655, abs=5e-4)
        assert rep.ci.lower == pytest.approx(-0.806, abs=2e-3)
        assert rep.ci.upper == pytest.approx(-0.503, abs=2e-3)
        assert rep.n == 119
        assert rep.ci.method == "delta"
        assert not rep.ci.exceeds_range

    def test_placebo_reproduction(self, placebo_table):
        rep = wald_ci(placebo_table, 0.95, "phi")
        assert rep.ci.estimate == pytest.approx(-0.453, abs=5e-4)
        assert rep.ci.lower == pytest.approx(-0.591, abs=2e-3)
        assert rep.ci.upper == pytest.approx(-0.316, abs=2e-3)

    def test_interval_identities(self, placebo_table):
        rep = wald_ci(placebo_table, 0.95)
        assert rep.ci.lower <= rep.ci.estimate <= rep.ci.upper
        width = rep.ci.upper - rep.ci.lower
        assert width == pytest.approx(2.0 * Z_975 * rep.ci.se, rel=1e-12)

    def test_boundary_table_refused(self):
        with pytest.raises(NonDifferentiableError):
            wald_ci(CountTable([[0, 0, 0], [0, 0, 0], [40, 60, 0]]))

    def test_refusal_carries_the_plug_in_estimate(self):
        # the one estimate wald_ci evaluated; a gradient route has none to carry
        with pytest.raises(NonDifferentiableError) as refused:
            wald_ci([[5, 0], [3, 0]])
        assert refused.value.estimate == -1.0
        with pytest.raises(NonDifferentiableError) as refused:
            grad_phi(np.array([5, 0, 3, 0]) / 8)
        assert refused.value.estimate is None

    def test_se_scales_with_root_n(self, active_table):
        rep1 = wald_ci(active_table)
        rep2 = wald_ci(CountTable(active_table.counts * 2))
        assert rep2.ci.estimate == rep1.ci.estimate
        assert rep2.ci.se == pytest.approx(rep1.ci.se / math.sqrt(2.0), rel=1e-14)

    def test_transpose_mirrors_the_interval(self, active_table):
        rep = wald_ci(active_table)
        rep_t = wald_ci(active_table.transposed())
        assert rep_t.ci.estimate == pytest.approx(-rep.ci.estimate, abs=1e-12)
        assert rep_t.ci.se == pytest.approx(rep.ci.se, rel=1e-12)
        assert rep_t.ci.lower == pytest.approx(-rep.ci.upper, abs=1e-12)
        assert rep_t.ci.upper == pytest.approx(-rep.ci.lower, abs=1e-12)

    def test_level_controls_width(self, active_table):
        narrow = wald_ci(active_table, 0.90)
        wide = wald_ci(active_table, 0.99)
        ratio = (wide.ci.upper - wide.ci.lower) / (narrow.ci.upper - narrow.ci.lower)
        assert ratio == pytest.approx(Z_995 / Z_95, rel=1e-12)

    def test_se_matches_the_dense_covariance(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            table = random_positive_table(rng, int(rng.integers(2, 7)))
            p = flat(table)
            xi = multinomial_covariance(p)
            for measure, lam, grad in (
                ("phi", None, grad_phi(p)),
                ("psi", 0.5, _checked_grad(p, "psi", 0.5)),
            ):
                se = wald_ci(table, measure=measure, lam=lam).ci.se
                assert se == pytest.approx(math.sqrt(grad @ xi @ grad / table.n), rel=1e-12)

    def test_psi_interval(self, active_table):
        rep = wald_ci(active_table, 0.95, "psi", 1.0)
        assert rep.measure == "psi" and rep.lam == 1.0
        assert 0.0 < rep.ci.estimate < 1.0
        assert rep.ci.se > 0.0
        rep_t = wald_ci(active_table.transposed(), 0.95, "psi", 1.0)
        assert rep_t.ci.estimate == pytest.approx(rep.ci.estimate, abs=1e-12)
        assert rep_t.ci.se == pytest.approx(rep.ci.se, rel=1e-12)

    def test_array_like_table_is_wrapped(self, active_table):
        assert wald_ci(ACTIVE_COUNTS) == wald_ci(active_table)

    def test_bad_arguments(self, active_table):
        with pytest.raises(DomainError):
            wald_ci(active_table, 1.0)
        with pytest.raises(DomainError):
            wald_ci(active_table, 0.95, "tau")
        with pytest.raises(DomainError):
            wald_ci(active_table, 0.95, "psi")  # lambda missing
        with pytest.raises(DomainError, match="no lambda"):
            wald_ci(active_table, 0.95, "phi", 2.0)
        with pytest.raises(DomainError, match="no lambda"):
            grad_fd(flat(active_table), measure="phi", lam=0.0)


def largest_accepted_lambda() -> float:
    lo, hi = 1000.0, 1024.0
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        try:
            _check_lambda(mid)
            lo = mid
        except DomainError:
            hi = mid
    return lo


def test_largest_accepted_lambda_gives_finite_value_gradient_and_se(active_table):
    lam = largest_accepted_lambda()
    assert 1014.0 < lam < 1014.1
    with pytest.raises(DomainError):
        _check_lambda(math.nextafter(lam, math.inf))
    # the second table is one-sided: W1/(W1 + W2) is 1 - 2e-10 at its one index,
    # where the gradient's (lambda + 1) (2x)^lambda is largest
    for table in (active_table, CountTable([[1, 100000], [1, 0]])):
        rep = wald_ci(table, measure="psi", lam=lam)
        grad = _checked_grad(flat(table), "psi", lam)
        assert np.all(np.isfinite(grad))
        assert all(map(math.isfinite, (rep.ci.estimate, rep.ci.se, rep.ci.lower, rep.ci.upper)))
        assert math.isfinite(rep.gradient_norm)


class TestBootstrapCI:
    def test_deterministic_for_fixed_seed(self, active_table):
        a = bootstrap_ci(active_table, replicates=300, seed=4)
        b = bootstrap_ci(active_table, replicates=300, seed=4)
        assert a == b
        c = bootstrap_ci(active_table, replicates=300, seed=5)
        assert c.ci.lower != a.ci.lower

    def test_agrees_with_delta_method(self, active_table):
        delta_rep = wald_ci(active_table)
        boot_rep = bootstrap_ci(active_table, replicates=2000, seed=1)
        assert boot_rep.ci.se == pytest.approx(delta_rep.ci.se, rel=0.15)
        assert boot_rep.ci.method == "bootstrap-percentile"
        assert boot_rep.gradient_norm is None

    def test_array_like_table_is_wrapped(self, active_table):
        assert bootstrap_ci(ACTIVE_COUNTS, replicates=300, seed=2) == bootstrap_ci(
            active_table, replicates=300, seed=2
        )

    def test_integral_float_counts_as_an_integer(self, active_table):
        assert bootstrap_ci(active_table, replicates=2000.0, seed=1.0) == bootstrap_ci(
            active_table, replicates=2000, seed=1
        )
        with pytest.raises(DomainError, match=r"replicates must be an integer .*2000\.5"):
            bootstrap_ci(active_table, replicates=2000.5, seed=1)

    def test_replicate_floor(self, active_table):
        with pytest.raises(DomainError):
            bootstrap_ci(active_table, replicates=199, seed=0)

    def test_point_mass_table_aborts(self, monkeypatch):
        # phi is undefined: refused for wald_ci's first reason, before any draw
        def no_draw(*args):
            raise AssertionError("the bootstrap drew replicates of an undefined table")

        monkeypatch.setattr(inference, "_resample", no_draw)
        with pytest.raises(DegenerateMassError, match="phi is undefined"):
            bootstrap_ci(CountTable([[50, 0], [0, 0]]), replicates=300, seed=0)

    def test_needs_neither_numpy_ma_nor_statistics(self):
        # np.percentile would import numpy.ma (through np.unique); a one-shot
        # CLI process pays for every module it loads
        code = (
            "import sys\n"
            "from margshift import CountTable, bootstrap_ci\n"
            f"bootstrap_ci(CountTable({ACTIVE_COUNTS}), replicates=300, seed=0)\n"
            "print(sorted({'numpy.ma', 'statistics'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_boundary_table_estimates_fine(self):
        # the bootstrap needs only the measure value, not its gradient
        rep = bootstrap_ci(CountTable([[0, 0, 0], [0, 0, 0], [40, 60, 0]]),
                           replicates=300, seed=0)
        assert rep.ci.estimate == -1.0


class TestPercentile:
    """_percentile against np.percentile, the oracle, bit for bit."""

    LEVELS = (1e-7, 0.5, 0.683, 0.95, 0.99, 0.9999999)

    def check(self, ordered: np.ndarray, pct: float) -> None:
        assert _percentile(ordered, pct) == float(np.percentile(ordered, pct)), (
            ordered.shape[0], pct)

    def test_random_sorted_arrays_with_ties(self):
        rng = np.random.default_rng(11)
        for trial in range(600):
            n = int(rng.integers(1, 3000))
            if trial % 3:
                ordered = np.sort(rng.standard_normal(n))
            else:  # few distinct values: ties everywhere
                ordered = np.sort(rng.integers(0, 5, n) / 7.0)
            for level in (*self.LEVELS, float(rng.random())):
                alpha = 1.0 - level
                for pct in (100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0), 100.0 * level):
                    self.check(ordered, pct)

    def test_ends_and_short_arrays(self):
        for n in (1, 2, 3, 199, 200):
            ordered = np.sort(np.random.default_rng(n).random(n))
            for pct in (0.0, 100.0, 50.0, 2.5, 97.5, 100.0 * (1.0 - 1e-16)):
                self.check(ordered, pct)


class TestCompareGroups:
    def test_active_versus_placebo(self, active_table, placebo_table):
        cmp_ = compare_groups(wald_ci(active_table), wald_ci(placebo_table))
        assert cmp_.difference.estimate == pytest.approx(-0.202, abs=2e-3)
        assert cmp_.difference.lower < 0.0 < cmp_.difference.upper
        assert not cmp_.significant
        assert not cmp_.zero_width

    def test_table_against_itself(self, active_table):
        rep = wald_ci(active_table)
        cmp_ = compare_groups(rep, rep)
        assert cmp_.difference.estimate == 0.0
        assert cmp_.difference.lower == pytest.approx(-cmp_.difference.upper, abs=1e-15)

    def test_zero_se_flagged(self, active_table):
        rep = wald_ci(active_table)
        frozen = rep.ci.__class__(
            estimate=rep.ci.estimate, se=0.0, lower=rep.ci.estimate,
            upper=rep.ci.estimate, level=0.95, method="delta",
        )
        degenerate = rep.__class__(
            measure="phi", lam=None, ci=frozen, n=rep.n, gradient_norm=0.0,
        )
        cmp_ = compare_groups(degenerate, degenerate)
        assert cmp_.zero_width

    def test_bootstrap_reports_rejected(self, active_table, placebo_table):
        boot = bootstrap_ci(active_table, replicates=300, seed=0)
        delta = wald_ci(placebo_table)
        with pytest.raises(MethodMismatchError):
            compare_groups(boot, delta)
        with pytest.raises(MethodMismatchError):
            compare_groups(delta, boot)

    @pytest.mark.parametrize(
        "measure, lam, a, b, exceeds",
        [("psi", 1.0, 0.95, 0.05, True), ("phi", None, 0.95, 0.05, False),
         ("phi", None, 0.95, -0.95, True)],
    )
    def test_range_of_a_difference_follows_the_measure(self, measure, lam, a, b, exceeds):
        # a psi difference lies in [-1, 1] and a phi difference in [-2, 2]
        def report(estimate):
            ci = ConfInterval(estimate=estimate, se=0.2, lower=estimate - 0.392,
                              upper=estimate + 0.392, level=0.95, method="delta")
            return EstimateReport(measure=measure, lam=lam, ci=ci, n=100, gradient_norm=1.0)

        diff = compare_groups(report(a), report(b)).difference
        assert diff.upper == pytest.approx(a - b + 0.5544, abs=1e-3)
        assert diff.exceeds_range is exceeds

    def test_range_flag_reads_each_bound(self):
        # an infinite estimate and se leave the lower bound NaN (inf - inf);
        # the upper one alone then decides the flag, as it does for wald_ci
        ci = ConfInterval(estimate=math.inf, se=math.inf, lower=math.nan, upper=math.inf,
                          level=0.95, method="delta")
        rep = EstimateReport(measure="phi", lam=None, ci=ci, n=100, gradient_norm=1.0)
        diff = compare_groups(rep, wald_ci(CountTable(ACTIVE_COUNTS))).difference
        assert math.isnan(diff.lower) and diff.upper == math.inf
        assert diff.exceeds_range

    def test_measure_mismatch_rejected(self, active_table, placebo_table):
        with pytest.raises(MethodMismatchError):
            compare_groups(
                wald_ci(active_table, measure="phi"),
                wald_ci(placebo_table, measure="psi", lam=1.0),
            )


def test_inference_leaves_every_measure_formula_to_measures():
    # the gradient is one measure-blind chain rule; scores and slopes live in measures.py
    source = Path(inference.__file__).read_text(encoding="utf-8")
    for name in ("arctan2", "expm1", "_psi_g", "_LN2", "_QUARTER_PI", "_LAMBDA_ZERO_THRESHOLD"):
        assert re.search(rf"\b{name}\b", source) is None, name


def test_a_level_with_an_infinite_z_is_refused_by_the_delta_method_only(active_table):
    level = math.nextafter(1.0, 0.0)  # 1 - (1 - level) / 2 rounds to 1
    refused = "confidence level must be at most 0.9999999999999998 .* got 0.9999999999999999"
    with pytest.raises(DomainError, match=refused):
        wald_ci(active_table, level)
    report = wald_ci(active_table)
    with pytest.raises(DomainError, match=refused):
        compare_groups(report, report, level)
    with pytest.raises(DomainError, match=refused):
        CoverageStudySpec(scenario=McorScenario(np.array([0.4]), 0.0), n=50, replicates=100,
                          level=level)
    assert bootstrap_ci(active_table, level, replicates=200).ci.level == level
    assert math.isfinite(wald_ci(active_table, math.nextafter(level, 0.0)).ci.upper)


def test_the_delta_method_interval_is_formed_in_one_place():
    # wald_ci, compare_groups and coverage_study share inference's one rule
    package = Path(inference.__file__).parent
    sources = "".join(path.read_text(encoding="utf-8") for path in package.glob("*.py"))
    assert sources.count("z_quantile(1.0 - (1.0 - level) / 2.0)") == 1
    assert len(re.findall(r"\w+ [-+] z \* se\b", sources)) == 2
    assert "z_quantile" not in (package / "simulate.py").read_text(encoding="utf-8")
