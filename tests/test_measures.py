"""Discordance terms, phi, psi and the angle decomposition."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from margshift import (
    AngleDecomposition,
    CountTable,
    DegenerateMassError,
    DiscordanceTerms,
    DomainError,
    ProbTable,
    angle_decomposition,
    discordance,
    from_counts,
    hazards,
    marginals,
    phi,
    psi,
)
from margshift.measures import _scores, _slope
from conftest import random_equal_marginal_table, random_positive_table

# Hand-derived discordance terms for the active-drug group, from the margin
# totals (12, 20, 40, 47) and (40, 49, 19, 11) over 119:
#   omega_x = (12/119, 20/107, 40/87), omega_y = (40/119, 49/79, 19/30).
W1_ACTIVE = [
    (12 / 119) * (1 - 40 / 119),
    (20 / 107) * (1 - 49 / 79),
    (40 / 87) * (1 - 19 / 30),
]
W2_ACTIVE = [
    (40 / 119) * (1 - 12 / 119),
    (49 / 79) * (1 - 20 / 107),
    (19 / 30) * (1 - 40 / 87),
]


def table_terms(t) -> DiscordanceTerms:
    prob = t if isinstance(t, ProbTable) else from_counts(t)
    return discordance(hazards(marginals(prob)))


def psi_bruteforce(w1, w2, lam: float) -> float:
    """Independent transcription of the power-divergence definition.

    Normalizes by the total mass H, forms Q* = (W1* + W2*) / 2, accumulates
    I_W term by term, applies the lambda (lambda + 1) / (2^lambda - 1)
    prefactor, and takes the analytic limit at lambda = 0.
    """
    h_total = sum(w1) + sum(w2)
    i_w = 0.0
    for a, b in zip(w1, w2):
        a_star = a / h_total
        b_star = b / h_total
        q_star = (a_star + b_star) / 2.0
        if q_star == 0.0:
            continue
        if lam == 0.0:
            term = 0.0
            if a_star > 0.0:
                term += a_star * math.log(a_star / q_star)
            if b_star > 0.0:
                term += b_star * math.log(b_star / q_star)
            i_w += term / math.log(2.0)
        else:
            term = 0.0
            if a_star > 0.0:
                term += a_star * ((a_star / q_star) ** lam - 1.0)
            else:
                term += -a_star
            if b_star > 0.0:
                term += b_star * ((b_star / q_star) ** lam - 1.0)
            else:
                term += -b_star
            i_w += term / (lam * (lam + 1.0))
    if lam == 0.0:
        return i_w
    return (lam * (lam + 1.0)) / (2.0**lam - 1.0) * i_w


class TestDiscordance:
    def test_active_drug_terms(self, active_table):
        d = table_terms(active_table)
        np.testing.assert_allclose(d.w1, W1_ACTIVE, rtol=1e-12)
        np.testing.assert_allclose(d.w2, W2_ACTIVE, rtol=1e-12)
        assert d.total_mass == pytest.approx(1.4552, abs=2e-4)

    def test_marginal_homogeneity_forces_equality(self):
        d = table_terms(CountTable([[4, 2, 7], [2, 8, 1], [7, 1, 5]]))
        np.testing.assert_array_equal(d.w1, d.w2)

    def test_left_extreme_terms(self, left_extreme):
        d = table_terms(left_extreme)
        np.testing.assert_allclose(d.w1, [0.0, 0.0], atol=0)
        np.testing.assert_allclose(d.w2, [0.4, 1.0], rtol=1e-15)
        assert d.total_mass == pytest.approx(1.4, rel=1e-15)

    def test_terms_validated(self):
        with pytest.raises(DomainError):
            DiscordanceTerms(w1=[0.5, 1.5], w2=[0.2, 0.2])

    def test_normalized_terms(self, left_extreme):
        w1s, w2s = table_terms(left_extreme).normalized()
        np.testing.assert_allclose(w1s, [0.0, 0.0], atol=0)
        np.testing.assert_allclose(w2s, [0.4 / 1.4, 1.0 / 1.4], rtol=1e-12)
        with pytest.raises(DegenerateMassError):
            DiscordanceTerms(w1=[0.0], w2=[0.0]).normalized()


class TestPhi:
    def test_active_drug_value(self, active_table):
        value = phi(table_terms(active_table))
        assert value == pytest.approx(-0.655, abs=5e-4)
        assert value == pytest.approx(-0.6546292392364608, abs=1e-12)

    def test_placebo_value(self, placebo_table):
        value = phi(table_terms(placebo_table))
        assert value == pytest.approx(-0.453, abs=1e-3)
        assert value == pytest.approx(-0.4532891125684361, abs=1e-12)

    def test_extreme_tables(self, left_extreme, right_extreme):
        assert phi(table_terms(left_extreme)) == pytest.approx(-1.0, abs=1e-12)
        assert phi(table_terms(right_extreme)) == pytest.approx(1.0, abs=1e-12)

    def test_marginal_homogeneity_gives_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = random_equal_marginal_table(rng, int(rng.integers(2, 6)))
            assert phi(table_terms(t)) == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_mass_raises(self):
        with pytest.raises(DegenerateMassError):
            phi(table_terms(ProbTable([[1.0, 0.0], [0.0, 0.0]])))

    def test_partial_degenerate_index_contributes_zero(self):
        # no mass at category 1 in either margin: index 1 undefined,
        # the rest still carries the measure
        t = CountTable([[0, 0, 0], [0, 2, 5], [0, 3, 7]])
        d = table_terms(t)
        assert d.w1[0] == 0.0 and d.w2[0] == 0.0
        value = phi(d)
        assert -1.0 <= value <= 1.0


class TestPsi:
    def test_left_extreme_lambda_one(self, left_extreme):
        assert psi(table_terms(left_extreme), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_right_extreme_lambda_one(self, right_extreme):
        assert psi(table_terms(right_extreme), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_marginal_homogeneity_gives_zero(self):
        rng = np.random.default_rng(5)
        for lam in (-0.5, 0.0, 1.0, 2.0):
            t = random_equal_marginal_table(rng, 4)
            assert psi(table_terms(t), lam) == pytest.approx(0.0, abs=1e-14)

    def test_active_drug_against_bruteforce(self, active_table):
        d = table_terms(active_table)
        for lam in (-0.9, -0.5, 0.0, 0.3, 1.0, 2.0, 5.0):
            expected = psi_bruteforce(list(d.w1), list(d.w2), lam)
            assert psi(d, lam) == pytest.approx(expected, abs=1e-12)
        assert 0.0 < psi(d, 1.0) < 1.0

    def test_extremes_against_bruteforce(self, left_extreme):
        d = table_terms(left_extreme)
        for lam in (-0.5, 0.0, 1.0, 2.0):
            assert psi(d, lam) == pytest.approx(
                psi_bruteforce(list(d.w1), list(d.w2), lam), abs=1e-12
            )

    def test_lambda_domain(self, active_table):
        d = table_terms(active_table)
        with pytest.raises(DomainError):
            psi(d, -1.0)
        with pytest.raises(DomainError):
            psi(d, -1.5)
        with pytest.raises(DomainError):
            psi(d, float("nan"))
        for lam in (1024.0, 1100.0, 1e308):  # 2^lambda overflows a double
            with pytest.raises(DomainError, match="2\\^lambda"):
                psi(d, lam)
        with pytest.raises(DomainError, match="2\\^lambda"):
            psi(d, 1015.0)  # 2^lambda is finite, (lambda + 1) 2^lambda is not

    def test_lambda_continuity_at_zero(self, active_table):
        """The generic branch converges to the analytic limit branch.

        psi is differentiable in lambda with a nonzero slope at 0 (about
        0.15 on this table), so one-sided gaps at lambda = +-1e-4 are of
        order 1e-5 by nature.  Continuity of the implementation is the
        testable property: the symmetric average at +-1e-4 cancels the
        linear term, one-sided gaps shrink linearly, and there is no jump
        at the branch-switch threshold.
        """
        d = table_terms(active_table)
        at_zero = psi(d, 0.0)
        two_sided = 0.5 * (psi(d, 1e-4) + psi(d, -1e-4))
        assert two_sided == pytest.approx(at_zero, abs=1e-6)
        assert psi(d, 1e-6) == pytest.approx(at_zero, abs=1e-6)
        assert psi(d, -1e-6) == pytest.approx(at_zero, abs=1e-6)
        # generic branch just above the switch vs limit branch just below
        assert psi(d, 2e-8) == pytest.approx(psi(d, 5e-9), abs=1e-7)

    def test_lambda_continuity_against_bruteforce(self, active_table):
        d = table_terms(active_table)
        for lam in (1e-4, -1e-4, 1e-6):
            expected = psi_bruteforce(list(d.w1), list(d.w2), lam)
            assert psi(d, lam) == pytest.approx(expected, abs=1e-9)

    def test_degenerate_mass_raises(self):
        with pytest.raises(DegenerateMassError):
            psi(table_terms(ProbTable([[1.0, 0.0], [0.0, 0.0]])), 1.0)


class TestAngleDecomposition:
    def test_marginal_homogeneity_angles(self):
        ad = angle_decomposition(table_terms(CountTable([[4, 2], [2, 9]])))
        np.testing.assert_allclose(ad.theta, math.pi / 4.0, atol=1e-15)

    def test_left_extreme_angles_and_weights(self, left_extreme):
        ad = angle_decomposition(table_terms(left_extreme))
        # column hazard fires alone at both indices: angle 0 under the
        # convention that drives phi to -1 there
        np.testing.assert_allclose(ad.theta, [0.0, 0.0], atol=0)
        np.testing.assert_allclose(ad.weight, [0.4 / 1.4, 1.0 / 1.4], rtol=1e-12)
        assert ad.defined.all()

    def test_active_angles_match_arccos_form(self, active_table):
        ad = angle_decomposition(table_terms(active_table))
        w1 = np.asarray(W1_ACTIVE)
        w2 = np.asarray(W2_ACTIVE)
        expected = np.arccos(w2 / np.sqrt(w1**2 + w2**2))
        np.testing.assert_allclose(ad.theta, expected, atol=1e-12)

    def test_undefined_indices_flagged(self):
        t = CountTable([[0, 0, 0], [0, 2, 5], [0, 3, 7]])
        ad = angle_decomposition(table_terms(t))
        assert list(ad.defined) == [False, True]
        assert ad.weight[0] == 0.0
        assert float(ad.weight[ad.defined].sum()) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_mass_raises(self):
        with pytest.raises(DegenerateMassError):
            angle_decomposition(table_terms(ProbTable([[1.0, 0.0], [0.0, 0.0]])))

    @pytest.mark.parametrize("theta, weight, message", [
        ([0.5, -0.1], [0.5, 0.5], r"angles must lie in \[0, pi/2\]"),
        ([0.5, 1.6], [0.5, 0.5], r"angles must lie in \[0, pi/2\]"),
        ([0.5, 0.5], [0.5, 0.4], "weights must sum to 1"),
    ])
    def test_invalid_record_refused(self, theta, weight, message):
        with pytest.raises(DomainError, match=message):
            AngleDecomposition(theta=theta, weight=weight, defined=[True, True])

    def test_undefined_index_is_not_checked(self):
        # theta and weight mean nothing where the index is undefined
        ad = AngleDecomposition(theta=[0.5, 9.0], weight=[1.0, 0.7], defined=[True, False])
        assert ad.theta[1] == 9.0


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------


@st.composite
def count_tables(draw):
    r = draw(st.integers(2, 5))
    cells = draw(st.lists(st.integers(0, 40), min_size=r * r, max_size=r * r))
    assume(sum(cells) > 0)
    return CountTable(np.array(cells).reshape(r, r))


@given(count_tables())
@settings(max_examples=150, deadline=None)
def test_ranges(t):
    d = table_terms(t)
    assume(d.total_mass > 0)
    assert -1.0 <= phi(d) <= 1.0
    for lam in (-0.5, 0.0, 1.0, 2.0):
        assert 0.0 <= psi(d, lam) <= 1.0


@given(count_tables())
@settings(max_examples=150, deadline=None)
def test_transpose_antisymmetry_and_symmetry(t):
    d = table_terms(t)
    assume(d.total_mass > 0)
    d_t = table_terms(t.transposed())
    assert phi(d_t) == pytest.approx(-phi(d), abs=1e-12)
    for lam in (-0.5, 0.0, 1.0):
        assert psi(d_t, lam) == pytest.approx(psi(d, lam), abs=1e-12)


@given(count_tables(), st.integers(2, 9))
@settings(max_examples=100, deadline=None)
def test_scale_invariance(t, k):
    d = table_terms(t)
    assume(d.total_mass > 0)
    d_k = table_terms(CountTable(t.counts * k))
    assert phi(d_k) == pytest.approx(phi(d), abs=1e-12)
    assert psi(d_k, 1.0) == pytest.approx(psi(d, 1.0), abs=1e-12)


@given(count_tables())
@settings(max_examples=150, deadline=None)
def test_psi_zero_only_under_marginal_homogeneity(t):
    """Contrapositive of 'psi = 0 implies W1 = W2': discordance forces psi > 0."""
    d = table_terms(t)
    assume(d.total_mass > 0)
    if np.max(np.abs(d.w1 - d.w2)) > 1e-9:
        assert psi(d, 1.0) > 0.0
    else:
        assert psi(d, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_phi_extremes_iff_one_sided():
    """|phi| = 1 exactly when one term vanishes at every defined index."""
    rng = np.random.default_rng(23)
    for _ in range(50):
        t = random_positive_table(rng, int(rng.integers(2, 6)))
        d = table_terms(t)
        # strictly positive interior tables have both terms positive
        assert np.all(d.w1 > 0) and np.all(d.w2 > 0)
        assert abs(phi(d)) < 1.0
    # constructive direction: one-sided tables hit the endpoints exactly
    one_sided = ProbTable([[0.0, 0.5, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
    assert phi(table_terms(one_sided)) == 1.0
    assert phi(table_terms(one_sided.transposed())) == -1.0


# the lambda grid crosses the analytic lambda -> 0 limit (|lambda| < 1e-8) from both sides
SCORE_CASES = [("phi", None)] + [
    ("psi", lam) for lam in (-0.9, -0.5, 0.0, 5e-9, 1e-6, 0.5, 1.0, 3.0, 50.0)
]


@pytest.mark.parametrize("measure, lam", SCORE_CASES)
def test_slope_is_the_derivative_of_the_score(measure, lam):
    x = np.linspace(0.02, 0.98, 97)
    h = 1e-5

    def score(share):
        return _scores(share, 1.0 - share, measure, lam)

    central = (score(x + h) - score(x - h)) / (2.0 * h)
    slope = _slope(x, measure, lam)
    # at h = 1e-5 the central difference is good to about 4e-6 of the scale
    assert np.max(np.abs(slope - central)) <= 1e-4 * np.max(np.abs(slope))
