"""Discordance terms and the marginal-change measures phi and psi.

Given the two hazard sequences, each index i contributes a pair of
*discordance terms*

    W1_i = omega_i^X (1 - omega_i^Y)      (row hazard fires, column does not)
    W2_i = omega_i^Y (1 - omega_i^X)      (column hazard fires, row does not)

Under marginal homogeneity W1_i = W2_i for every i.  Two summary measures
are built on these terms:

``phi``
    Directional, in [-1, 1].  Each index is mapped to the angle
    theta_i = arctan(W1_i / W2_i) in [0, pi/2] (equivalently
    arccos(W2_i / sqrt(W1_i^2 + W2_i^2))), and

        phi = (4/pi) * sum_i w_i (theta_i - pi/4),

    with weights w_i = (W1_i + W2_i) / sum_j (W1_j + W2_j).  phi = +1
    exactly when W2 vanishes everywhere (row hazard dominates), -1 when W1
    vanishes everywhere (column hazard dominates), 0 under marginal
    homogeneity.  The sign convention is pinned down by the extreme cases:
    a column hazard that always fires first drives phi to -1.

``psi``
    Direction-blind power divergence between the normalized W1 and W2
    profiles, in [0, 1], indexed by lambda > -1.  psi = 0 iff marginal
    homogeneity holds; psi = 1 at maximal departure (at every index one of
    the two terms vanishes).  lambda = 0 is the Kullback-Leibler limit,
    taken analytically.

Both measures are undefined when every W1_i + W2_i = 0
(:class:`~margshift.errors.DegenerateMassError`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMassError, DomainError, ShapeError
from .tables import HazardPair, _frozen, _hazard, _margins
from .tables import _check_counts, _check_hazards, _check_marginals, _check_probs

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
        object.__setattr__(self, "w1", _frozen(np.asarray(self.w1, dtype=np.float64)))
        object.__setattr__(self, "w2", _frozen(np.asarray(self.w2, dtype=np.float64)))
        if self.w1.ndim != 1 or self.w1.shape != self.w2.shape or self.w1.shape[0] < 1:
            raise ShapeError("w1 and w2 must be 1-d arrays of equal positive length")
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
        object.__setattr__(self, "theta", _frozen(np.asarray(self.theta, dtype=np.float64)))
        object.__setattr__(self, "weight", _frozen(np.asarray(self.weight, dtype=np.float64)))
        object.__setattr__(self, "defined", _frozen(np.asarray(self.defined, dtype=bool)))
        if not (self.theta.shape == self.weight.shape == self.defined.shape):
            raise ShapeError("theta, weight and defined must share one shape")
        th = self.theta[self.defined]
        if np.any(th < 0.0) or np.any(th > math.pi / 2.0):
            raise DomainError("defined angles must lie in [0, pi/2]")
        if abs(float(self.weight[self.defined].sum()) - 1.0) > 1e-12:
            raise DomainError("defined weights must sum to 1")


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= -1.0:
        raise DomainError(f"lambda must be a finite number > -1, got {lam!r}")
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
        if np.any(w < 0.0) or np.any(w > 1.0) or not np.all(np.isfinite(w)):
            raise DomainError(f"{name} entries must lie in [0, 1]")


def _w(omega_x: np.ndarray, omega_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return omega_x * (1.0 - omega_y), omega_y * (1.0 - omega_x)


class _Terms(NamedTuple):
    """Intermediates of the cells -> marginals -> hazards -> W chain."""

    row: np.ndarray
    col: np.ndarray
    surv_x: np.ndarray
    surv_y: np.ndarray
    omega_x: np.ndarray
    omega_y: np.ndarray
    exhausted_x: np.ndarray
    exhausted_y: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


def _terms(cells: np.ndarray) -> _Terms:
    """The W chain over cells (..., r, r), for any leading batch shape.

    Unvalidated, so it stays evaluable off the simplex (finite differences).
    """
    row, col, surv_x, surv_y = _margins(cells)
    omega_x, exhausted_x = _hazard(row, surv_x)
    omega_y, exhausted_y = _hazard(col, surv_y)
    w1, w2 = _w(omega_x, omega_y)
    return _Terms(row, col, surv_x, surv_y, omega_x, omega_y, exhausted_x, exhausted_y, w1, w2)


def _table_terms(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, _Terms]:
    """Cell probabilities, totals (..., 1, 1) and W chain of count tables
    (..., r, r), checking every table, marginal, hazard and discordance
    invariant once for the whole stack."""
    counts, totals = _check_counts(counts)
    p = counts / totals
    p = _check_probs(p, out=p)  # renormalized in place: one cell-sized array fewer
    t = _terms(p)
    _check_marginals(t.row, t.col, np.cumsum(t.row, -1), np.cumsum(t.col, -1), t.surv_x, t.surv_y)
    _check_hazards(t.omega_x, t.omega_y, t.exhausted_x, t.exhausted_y)
    _check_discordance(t.w1, t.w2)
    return p, totals, t


def _phi_raw(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """phi over the last axis without range clamping; NaN where every W1 + W2 = 0.

    arctan2 is the smooth extension of arccos(W2 / sqrt(W1^2 + W2^2)) to
    slightly negative arguments, and yields 0 (with zero weight) at
    undefined indices instead of NaN.
    """
    t = w1 + w2
    with np.errstate(invalid="ignore"):
        weight = t / np.sum(t, axis=-1, keepdims=True)
    theta = np.arctan2(w1, w2)
    return (4.0 / math.pi) * np.sum(weight * (theta - _QUARTER_PI), axis=-1)


def _psi_g(x: np.ndarray, lam: float) -> np.ndarray:
    """Per-index divergence g(x) of the W1 share x = W1 / (W1 + W2)."""
    if abs(lam) < _LAMBDA_ZERO_THRESHOLD:
        # analytic lambda -> 0 limit: (1/ln 2) * KL against the midpoint,
        # with 0 * log 0 = 0
        def xlog2x(v: np.ndarray) -> np.ndarray:
            pos = v > 0.0
            return np.where(pos, v * np.log(2.0 * np.where(pos, v, 1.0)), 0.0)

        return (xlog2x(x) + xlog2x(1.0 - x)) / _LN2
    denom = math.expm1(lam * _LN2)  # 2^lambda - 1 without cancellation

    def xpow(v: np.ndarray) -> np.ndarray:
        # v * (2v)^lambda, with the v -> 0 limit 0 for every lambda > -1
        pos = v > 0.0
        return np.where(pos, v * (2.0 * np.where(pos, v, 1.0)) ** lam, 0.0)

    return (xpow(x) + xpow(1.0 - x) - 1.0) / denom


def _psi_raw(w1: np.ndarray, w2: np.ndarray, lam: float) -> np.ndarray:
    """psi over the last axis without range clamping; NaN where every W1 + W2 = 0."""
    t = w1 + w2
    x = w1 / np.where(t > 0.0, t, 1.0)
    with np.errstate(invalid="ignore"):
        u = t / np.sum(t, axis=-1, keepdims=True)
    # an index with W1 + W2 = 0 has u = 0 and a finite g, so it adds 0
    return np.sum(u * _psi_g(x, lam), axis=-1)


def _raw(w1: np.ndarray, w2: np.ndarray, measure: str, lam: float | None) -> np.ndarray:
    return _phi_raw(w1, w2) if measure == "phi" else _psi_raw(w1, w2, lam)


# logical range of each measure
_RANGE = {"phi": (-1.0, 1.0), "psi": (0.0, 1.0)}


def _value(w1: np.ndarray, w2: np.ndarray, measure: str, lam: float | None) -> np.ndarray:
    """phi or psi over the last axis, clamped into range; NaN marks degenerate mass."""
    lo, hi = _RANGE[measure]
    value = _raw(w1, w2, measure, lam)
    value = np.where((lo - _RANGE_SLACK <= value) & (value < lo), lo, value)
    return np.where((hi < value) & (value <= hi + _RANGE_SLACK), hi, value)


def _scalar(value: np.ndarray, measure: str) -> float:
    """One table's measure value, raising where it is undefined."""
    if np.isnan(value):
        raise DegenerateMassError(f"all discordance terms vanish; {measure} is undefined")
    return float(value)


def discordance(haz: HazardPair) -> DiscordanceTerms:
    """Discordance terms W1_i = omega_i^X (1-omega_i^Y), W2_i = omega_i^Y (1-omega_i^X)."""
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
    return _scalar(_value(d.w1, d.w2, "psi", _check_lambda(lam)), "psi")


def angle_decomposition(d: DiscordanceTerms) -> AngleDecomposition:
    """Per-index angles theta_i and weights behind phi, for diagnostics.

    Raises
    ------
    DegenerateMassError
        If every W1_i + W2_i = 0.
    """
    total = d.total_mass
    if total == 0.0:
        raise DegenerateMassError("all discordance terms vanish")
    t = d.w1 + d.w2
    defined = t > 0.0
    theta = np.where(defined, np.arctan2(d.w1, d.w2), 0.0)
    return AngleDecomposition(theta=theta, weight=t / total, defined=defined)
