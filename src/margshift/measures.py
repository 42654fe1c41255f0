"""Discordance terms and the marginal-change measures phi and psi.

Given the two hazard sequences, each index i contributes a pair of
*discordance terms*

    W1_i = omega_i^X (1 - omega_i^Y)      (row hazard fires, column does not)
    W2_i = omega_i^Y (1 - omega_i^X)      (column hazard fires, row does not)

Under marginal homogeneity W1_i = W2_i for every i.  Two summary measures
are built on these terms, both of one shape: a weighted mean

    V = sum_i u_i s(x_i),    u_i = (W1_i + W2_i) / sum_j (W1_j + W2_j),

of a per-index score s (:func:`_scores`, slope ds/dx :func:`_slope`) of
the W1 share x_i = W1_i / (W1_i + W2_i).

``phi``
    Directional, in [-1, 1].  The score is (4/pi) (theta_i - pi/4), with
    the angle theta_i = arctan(W1_i / W2_i) in [0, pi/2].  phi = +1
    exactly when W2 vanishes everywhere (row hazard dominates), -1 when W1
    vanishes everywhere (column hazard dominates), 0 under marginal
    homogeneity.  The sign convention is pinned down by the extreme cases:
    a column hazard that always fires first drives phi to -1.

``psi``
    Direction-blind power divergence between the normalized W1 and W2
    profiles, in [0, 1], indexed by lambda > -1.  The score is
    g(x) = (x (2x)^lambda + (1 - x) (2 - 2x)^lambda - 1) / (2^lambda - 1).
    psi = 0 iff marginal homogeneity holds; psi = 1 at maximal departure (at
    every index one of the two terms vanishes).  lambda = 0 is the
    Kullback-Leibler limit, taken analytically.

Both measures are undefined when every W1_i + W2_i = 0
(:class:`~margshift.errors.DegenerateMassError`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMassError, DomainError
from .tables import (
    HazardPair,
    _freeze_fields,
    _hazard,
    _real,
    _record,
    _table_mass,
    _tail_sums,
)

__all__ = [
    "DiscordanceTerms",
    "AngleDecomposition",
    "discordance",
    "phi",
    "psi",
    "angle_decomposition",
]

# below this, psi uses the analytic lambda -> 0 limit
_LAMBDA_ZERO_THRESHOLD = 1e-8

_LN2 = math.log(2.0)
_QUARTER_PI = math.pi / 4.0

# tolerated floating excess beyond the mathematical range before clamping
_RANGE_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class DiscordanceTerms:
    """Per-index discordance terms W1, W2 (length r-1)."""

    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self) -> None:
        _freeze_fields(self, w1=np.float64, w2=np.float64)
        _check_discordance(self.w1, self.w2)

    @property
    def total_mass(self) -> float:
        """Total discordance mass sum_i (W1_i + W2_i)."""
        return float(np.sum(self.w1 + self.w2))

    def normalized(self) -> tuple[np.ndarray, np.ndarray]:
        """W1 and W2 divided by the total mass."""
        total = self.total_mass
        if total == 0.0:
            raise DegenerateMassError("all discordance terms vanish")
        return self.w1 / total, self.w2 / total


@dataclass(frozen=True, eq=False)
class AngleDecomposition:
    """Per-index angles and weights as used inside phi.

    ``defined`` marks indices with W1_i + W2_i > 0; elsewhere the angle is
    meaningless and both theta and weight are reported as 0.
    """

    theta: np.ndarray
    weight: np.ndarray
    defined: np.ndarray

    def __post_init__(self) -> None:
        _freeze_fields(self, theta=np.float64, weight=np.float64, defined=bool)
        th, w = self.theta[self.defined], self.weight[self.defined]
        if not np.all((0.0 <= th) & (th <= math.pi / 2.0)):  # NaN fails too
            raise DomainError("defined angles must lie in [0, pi/2]")
        if not np.all((0.0 <= w) & (w <= 1.0)) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError("defined weights must sum to 1, each in [0, 1]")


def _check_lambda(lam: float) -> float:
    lam = _real(lam, "lambda", -1.0)
    # the psi gradient forms (lambda + 1) (2x)^lambda, x <= 1, before dividing
    # by 2^lambda - 1; beyond 2^lambda itself it overflows from about 1014 on
    if lam >= 1024.0 or math.isinf((lam + 1.0) * 2.0**lam):
        raise DomainError(
            f"lambda must be small enough that (lambda + 1) 2^lambda is finite "
            f"(below about 1014), got {lam!r}"
        )
    return lam


def _check_discordance(w1: np.ndarray, w2: np.ndarray) -> None:
    """DiscordanceTerms value invariants over (..., r - 1)."""
    for name, w in (("w1", w1), ("w2", w2)):
        if not np.all((0.0 <= w) & (w <= 1.0)):  # NaN fails too
            raise DomainError(f"{name} entries must lie in [0, 1]")


def _w(omega_x: np.ndarray, omega_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return omega_x * (1.0 - omega_y), omega_y * (1.0 - omega_x)


class _Terms(NamedTuple):
    """Intermediates of the marginals -> hazards -> W chain."""

    surv_x: np.ndarray
    surv_y: np.ndarray
    omega_x: np.ndarray
    omega_y: np.ndarray
    exhausted_x: np.ndarray
    exhausted_y: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


def _terms(row: np.ndarray, col: np.ndarray) -> _Terms:
    """The W chain over row and column margins (..., r), any leading batch shape, all
    that a table's measures read.  Unvalidated, so it stays evaluable off the simplex."""
    surv_x, surv_y = _tail_sums(row), _tail_sums(col)
    omega_x, exhausted_x = _hazard(row, surv_x)
    omega_y, exhausted_y = _hazard(col, surv_y)
    w1, w2 = _w(omega_x, omega_y)
    return _Terms(surv_x, surv_y, omega_x, omega_y, exhausted_x, exhausted_y, w1, w2)


def _table_terms(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, _Terms]:
    """Cell probabilities, totals (..., 1, 1) and W chain of count tables (..., r, r).

    Unchecked: callers pass a CountTable's counts (wald_ci) or
    Generator.multinomial draws (bootstrap_ci, coverage_study), valid by
    construction.  p = counts / total sums to 1 within a few ulps before it is
    renormalized as a ProbTable is; the tail sums keep each hazard in [0, 1].
    tests/test_batched.py runs every record check on the output.
    """
    totals = counts.sum(axis=(-2, -1), keepdims=True)
    p = counts / totals
    p /= _table_mass(p)  # in place: one cell-sized array fewer
    return p, totals, _terms(p.sum(axis=-1), p.sum(axis=-2))


def _scores(w1: np.ndarray, w2: np.ndarray, measure: str, lam: float | None) -> np.ndarray:
    """Per-index scores s(x_i) of phi or psi; finite where W1_i + W2_i = 0.

    arctan2 is the smooth extension of arccos(W2 / sqrt(W1^2 + W2^2)) to
    slightly negative arguments, and yields 0, not NaN, at undefined indices.
    """
    if measure == "phi":
        return (4.0 / math.pi) * (np.arctan2(w1, w2) - _QUARTER_PI)
    t = w1 + w2
    x = w1 / np.where(t > 0.0, t, 1.0)
    kl = abs(lam) < _LAMBDA_ZERO_THRESHOLD  # the analytic lambda -> 0 limit

    def term(v: np.ndarray) -> np.ndarray:
        # v log(2v) at the limit, else v (2v)^lambda; 0 at v = 0 for every lambda > -1
        pos = v > 0.0
        two_v = 2.0 * np.where(pos, v, 1.0)
        return np.where(pos, v * (np.log(two_v) if kl else two_v**lam), 0.0)

    if kl:  # (1/ln 2) * KL against the midpoint
        return (term(x) + term(1.0 - x)) / _LN2
    # expm1 gives 2^lambda - 1 without cancellation
    return (term(x) + term(1.0 - x) - 1.0) / math.expm1(lam * _LN2)


def _slope(x: np.ndarray, measure: str, lam: float | None) -> np.ndarray:
    """Derivative ds/dx of :func:`_scores` in the W1 share x, for 0 < x < 1."""
    if measure == "phi":
        return (4.0 / math.pi) / (x * x + (1.0 - x) * (1.0 - x))
    if abs(lam) < _LAMBDA_ZERO_THRESHOLD:
        return (np.log(2.0 * x) - np.log(2.0 * (1.0 - x))) / _LN2
    return (lam + 1.0) * ((2.0 * x) ** lam - (2.0 * (1.0 - x)) ** lam) / math.expm1(lam * _LN2)


def _mean(w1: np.ndarray, w2: np.ndarray, measure: str, lam: float | None):
    """Masses t = W1 + W2, their total T (keepdims), the :func:`_scores` s and the
    unclamped mean V = sum_i (t_i / T) s_i over the last axis; V is NaN where T = 0."""
    t = w1 + w2
    total = np.sum(t, axis=-1, keepdims=True)
    scores = _scores(w1, w2, measure, lam)
    # an index with W1 + W2 = 0 has weight 0 and a finite score, so it adds 0
    with np.errstate(invalid="ignore"):
        return t, total, scores, np.sum(t / total * scores, axis=-1)


# what a refusal says of a measure whose discordance terms all vanish
_UNDEFINED = "all discordance terms vanish; {} is undefined"

# logical range of each measure
_RANGE = {"phi": (-1.0, 1.0), "psi": (0.0, 1.0)}


def _clamp(value: np.ndarray, measure: str) -> np.ndarray:
    """A :func:`_mean` V clamped into the measure's range; NaN marks degenerate mass."""
    lo, hi = _RANGE[measure]
    value = np.where((lo - _RANGE_SLACK <= value) & (value < lo), lo, value)
    return np.where((hi < value) & (value <= hi + _RANGE_SLACK), hi, value)


def _value(w1: np.ndarray, w2: np.ndarray, measure: str, lam: float | None) -> np.ndarray:
    return _clamp(_mean(w1, w2, measure, lam)[-1], measure)


def _scalar(value: np.ndarray, measure: str) -> float:
    """One table's measure value, raising where it is undefined."""
    if np.isnan(value):
        raise DegenerateMassError(_UNDEFINED.format(measure))
    return float(value)


def discordance(haz: HazardPair) -> DiscordanceTerms:
    """Discordance terms W1_i = omega_i^X (1-omega_i^Y), W2_i = omega_i^Y (1-omega_i^X)."""
    haz = _record(haz, HazardPair, "haz")
    w1, w2 = _w(haz.omega_x, haz.omega_y)
    return DiscordanceTerms(w1=w1, w2=w2)


def phi(d: DiscordanceTerms) -> float:
    """Directional departure from marginal homogeneity, in [-1, 1].

    Indices with W1_i + W2_i = 0 carry zero weight and contribute nothing.

    Raises
    ------
    DegenerateMassError
        If every W1_i + W2_i = 0, where the measure is undefined.
    """
    d = _record(d, DiscordanceTerms, "d")
    return _scalar(_value(d.w1, d.w2, "phi", None), "phi")


def psi(d: DiscordanceTerms, lam: float) -> float:
    """Power-divergence departure from marginal homogeneity, in [0, 1].

    Parameters
    ----------
    d : DiscordanceTerms
    lam : float
        Divergence index, must exceed -1.  Values within 1e-8 of 0 use the
        analytic limit (Kullback-Leibler divergence scaled by 1/ln 2).

    Raises
    ------
    DomainError
        If lam <= -1 or lam is not finite.
    DegenerateMassError
        If every W1_i + W2_i = 0.
    """
    d = _record(d, DiscordanceTerms, "d")
    return _scalar(_value(d.w1, d.w2, "psi", _check_lambda(lam)), "psi")


def angle_decomposition(d: DiscordanceTerms) -> AngleDecomposition:
    """Per-index angles theta_i and weights behind phi, for diagnostics.

    Raises
    ------
    DegenerateMassError
        If every W1_i + W2_i = 0.
    """
    d = _record(d, DiscordanceTerms, "d")
    total = d.total_mass
    if total == 0.0:
        raise DegenerateMassError("all discordance terms vanish")
    t = d.w1 + d.w2
    defined = t > 0.0
    theta = np.where(defined, np.arctan2(d.w1, d.w2), 0.0)
    return AngleDecomposition(theta=theta, weight=t / total, defined=defined)
