"""Constant hazard-odds-shift model: the link between phi and a single shift.

The model assumes the column hazards are a constant shift of the row
hazards on the log-odds scale:

    logit(omega_i^Y) = logit(omega_i^X) + delta,    i = 1..r-1.

delta = 0 is exactly marginal homogeneity.  Under this structure every
index has the same angle, so phi collapses to a closed form in delta alone:

    phi = f(delta) = (4/pi) * arccos(e^delta / sqrt(e^{2 delta} + 1)) - 1
                   = (4/pi) * arctan(e^{-delta}) - 1,

strictly decreasing from +1 (delta -> -inf) to -1 (delta -> +inf).  This
module evaluates f and its inverse, builds model-structured populations for
simulation, and tabulates the link curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .tables import ProbTable, _freeze_fields, _real, _record

__all__ = [
    "McorScenario",
    "phi_of_delta",
    "delta_of_phi",
    "scenario_table",
    "curve_grid",
]

# the largest grid curve_grid tabulates; it builds every point in memory
_MAX_CURVE_POINTS = 10**6


def _logit(w: np.ndarray) -> np.ndarray:
    return np.log(w) - np.log1p(-w)


def _expit(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True, eq=False)
class McorScenario:
    """A population with row hazards ``base_haz_x`` and log-odds shift ``delta``.

    The column hazards are derived as expit(logit(base_haz_x) + delta) and
    must stay strictly inside (0, 1); a shift large enough to saturate them
    in double precision is rejected.
    """

    base_haz_x: np.ndarray
    delta: float

    def __post_init__(self) -> None:
        _freeze_fields(self, base_haz_x=np.float64)
        base = self.base_haz_x
        if not np.all(np.isfinite(base)) or np.any(base <= 0.0) or np.any(base >= 1.0):
            raise DomainError("base hazards must lie strictly in (0, 1)")
        object.__setattr__(self, "delta", _real(self.delta, "delta"))
        omega_y = self.omega_y
        if np.any(omega_y <= 0.0) or np.any(omega_y >= 1.0):
            raise DomainError(
                "derived column hazards leave (0, 1); the shift is too extreme "
                "for these base hazards"
            )

    @property
    def omega_x(self) -> np.ndarray:
        return self.base_haz_x

    @property
    def omega_y(self) -> np.ndarray:
        """Column hazards implied by the log-odds shift."""
        return _expit(_logit(self.base_haz_x) + self.delta)

    @property
    def r(self) -> int:
        return self.base_haz_x.shape[0] + 1


def phi_of_delta(delta: float) -> float:
    """Closed-form phi under the constant hazard-odds-shift model.

    Evaluated as (4/pi) * arctan(e^{-delta}) - 1 with a reflected branch for
    delta < 0, so no intermediate can overflow for any finite delta.
    """
    delta = _real(delta, "delta")
    if delta >= 0.0:
        theta = math.atan(math.exp(-delta))
    else:
        theta = math.pi / 2.0 - math.atan(math.exp(delta))
    return (4.0 / math.pi) * theta - 1.0


def delta_of_phi(phi_val: float) -> float:
    """Inverse of :func:`phi_of_delta` on (-1, 1).

    With theta = pi (phi + 1) / 4 the inverse is
    delta = (1/2) ln(cos^2 theta / (1 - cos^2 theta)), computed as
    ln(cos theta) - ln(sin theta) to stay accurate near both endpoints.
    """
    phi_val = _real(phi_val, "phi", -1.0, 1.0)
    theta = math.pi * (phi_val + 1.0) / 4.0
    return math.log(math.cos(theta)) - math.log(math.sin(theta))


def _marginal_from_hazards(omega: np.ndarray) -> np.ndarray:
    # survivals s_0 = 1, s_{i+1} = s_i (1 - omega_i), multiplied in that order
    surv = np.cumprod(np.concatenate(([1.0], 1.0 - omega)))
    # p_i = s_i omega_i; the last category absorbs the remaining survival
    return np.append(surv[:-1] * omega, surv[-1])


def scenario_table(scenario: McorScenario) -> ProbTable:
    """Joint probability table realizing a scenario's two margins.

    Each margin is rebuilt from its hazard sequence (p_i = s_i omega_i,
    s_{i+1} = s_i (1 - omega_i)), and the joint is their independence
    product.  phi and psi depend only on the margins, so any coupling would
    give the same measure value; independence is the simplest reproducible
    choice.  Interval widths in sampling experiments DO depend on the
    coupling, so simulation reports record it.
    """
    scenario = _record(scenario, McorScenario, "scenario")
    p_x = _marginal_from_hazards(scenario.omega_x)
    p_y = _marginal_from_hazards(scenario.omega_y)
    return ProbTable(np.outer(p_x, p_y))


def curve_grid(
    delta_min: float, delta_max: float, step: float
) -> list[tuple[float, float]]:
    """Ordered (delta, phi_of_delta(delta)) pairs over an inclusive grid.

    Grid points are snapped to 12 decimal places so that decimal steps land
    exactly on decimal grid values (e.g. a grid over [-6, 6] contains 0.0,
    not 8.9e-16).

    Raises
    ------
    DomainError
        If the range is empty or degenerate (fewer than two points), or has
        more than 10^6 points, or step <= 0, or any bound is not finite.
    """
    delta_min = _real(delta_min, "delta_min")
    delta_max = _real(delta_max, "delta_max")
    step = _real(step, "step", 0.0)
    if delta_min >= delta_max:
        raise DomainError(
            f"delta_min must be smaller than delta_max, got [{delta_min!r}, {delta_max!r}]"
        )
    span = (delta_max - delta_min) / step + 1e-9  # inf when the width overflows
    if not span < _MAX_CURVE_POINTS:
        raise DomainError(
            f"grid has more than {_MAX_CURVE_POINTS} points; increase step"
        )
    count = int(math.floor(span)) + 1
    if count < 2:
        raise DomainError("grid is degenerate: fewer than two points; reduce step")
    points = []
    for k in range(count):
        d = round(delta_min + k * step, 12)
        points.append((d, phi_of_delta(d)))
    return points
