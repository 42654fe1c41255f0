"""Independent numpy evaluation of the paper's formulas.

The benchmark checks the program's reported estimates against these, and
uses them to keep generated tables inside the region where the delta method
is defined.  Nothing here imports margshift.
"""

from __future__ import annotations

import math

import numpy as np


def terms(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Survivals (row, column, both without the last entry) and W1, W2."""
    p = np.asarray(counts, dtype=np.float64)
    p = p / p.sum()
    row = p.sum(axis=1)
    col = p.sum(axis=0)
    surv_x = row[::-1].cumsum()[::-1][:-1]
    surv_y = col[::-1].cumsum()[::-1][:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        omega_x = row[:-1] / surv_x
        omega_y = col[:-1] / surv_y
    w1 = omega_x * (1.0 - omega_y)
    w2 = omega_y * (1.0 - omega_x)
    return surv_x, surv_y, w1, w2


def phi(counts: np.ndarray) -> float:
    """phi = (4/pi) sum_i w_i (theta_i - pi/4), theta_i = arctan(W1_i / W2_i)."""
    _, _, w1, w2 = terms(counts)
    t = w1 + w2
    theta = np.arctan2(w1, w2)
    return float(4.0 / math.pi * np.dot(t / t.sum(), theta - math.pi / 4.0))


def psi(counts: np.ndarray, lam: float) -> float:
    """Power divergence (index lam != 0) between the normalised W1, W2 profiles."""
    _, _, w1, w2 = terms(counts)
    t = w1 + w2
    keep = t > 0.0
    x = w1[keep] / t[keep]
    g = sum(np.where(v > 0.0, v * (2.0 * v) ** lam, 0.0) for v in (x, 1.0 - x))
    return float(np.dot(t[keep] / t.sum(), (g - 1.0) / (2.0**lam - 1.0)))


def phi_of_delta(delta: float) -> float:
    """Closed-form phi under a constant log-odds hazard shift delta."""
    return 4.0 / math.pi * math.atan(math.exp(-delta)) - 1.0


def delta_method_defined(counts: np.ndarray) -> bool:
    """False where a delta-method interval for phi or psi is undefined.

    Requiring every survival before the last category and every W1_i, W2_i
    to be positive rules out an exhausted survival, an index with
    W1 = W2 = 0, phi on the boundary +-1, and a psi gradient that does not
    exist.
    """
    surv_x, surv_y, w1, w2 = terms(counts)
    return bool(all(np.all(v > 0.0) for v in (surv_x, surv_y, w1, w2)))
