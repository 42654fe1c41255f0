"""Square contingency tables and their discrete-time hazard decomposition.

A square r x r table cross-classifies the same ordinal scale twice (rows =
first variable X, columns = second variable Y, e.g. pre- and
post-intervention categories).  Treating the ordered categories as discrete
time points, each margin defines a survival sequence

    s_i = P(category >= i)

and a hazard sequence

    omega_i = P(category = i | category >= i) = p_i / s_i,   i = 1..r-1.

The two hazard sequences are the raw material for the marginal-change
measures in :mod:`margshift.measures`.

All types are immutable after construction (backing arrays are read-only),
so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, ZeroTotalError

__all__ = [
    "CountTable",
    "ProbTable",
    "MarginalPair",
    "HazardPair",
    "from_counts",
    "marginals",
    "hazards",
]

# User-supplied probability tables are renormalized when their total mass is
# within this tolerance of 1, rejected otherwise.
PROB_SUM_TOL = 1e-9

_INVARIANT_TOL = 1e-12

# counts and the totals of count tables are held in int64
_MAX_COUNT = 2**63 - 1


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _tail_sums(v: np.ndarray) -> np.ndarray:
    # s_i = sum_{k >= i} v_k along the last axis, accumulated from the tail so
    # that tiny tail mass is not lost to cancellation (preferred over 1 - F_{i-1}).
    return np.flip(np.cumsum(np.flip(v, -1), -1), -1)


# The invariant checks below take any leading batch shape, so a stack of
# tables is validated in one call with the same errors a single table gets.


def _check_counts(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CountTable value invariants over (..., r, r); returns the counts as int64,
    not copied when they already are, and each table's total, shaped (..., 1, 1)."""
    if np.issubdtype(arr.dtype, np.floating):
        if not np.all(np.isfinite(arr)) or np.any(arr != np.floor(arr)):
            raise DomainError("counts must be integers")
    elif not (np.issubdtype(arr.dtype, np.integer) or _python_ints(arr)):
        raise DomainError(f"counts must be integers, got dtype {arr.dtype}")
    if np.any(arr < 0):
        raise DomainError("counts must be nonnegative")
    # refused before the cast and the sums, which would wrap silently
    top = int(arr.max())
    if top > _MAX_COUNT:
        raise DomainError(f"counts must not exceed 2^63 - 1, got {top}")
    arr = arr.astype(np.int64, copy=False)
    if top * arr.shape[-1] * arr.shape[-2] > _MAX_COUNT:  # a total may overflow
        totals = arr.astype(object).sum(axis=(-2, -1))
        if np.any(totals > _MAX_COUNT):
            raise DomainError(
                f"count table totals must not exceed 2^63 - 1, got {max(np.ravel(totals))}"
            )
    totals = arr.sum(axis=(-2, -1), keepdims=True)
    if np.any(totals == 0):
        raise ZeroTotalError("count table sums to zero")
    return arr, totals


def _python_ints(arr: np.ndarray) -> bool:
    """Whether an object array holds only integers, as numpy builds one from
    Python ints beyond the range of every integer dtype."""
    return arr.dtype == object and all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in arr.flat
    )


def _check_probs(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ProbTable invariants over (..., r, r); returns the renormalized cells,
    written to ``out`` if given (which may be ``arr`` itself)."""
    if not np.all(np.isfinite(arr)):
        raise DomainError("probabilities must be finite")
    if np.any(arr < 0):
        raise DomainError("probabilities must be nonnegative")
    total = arr.reshape(*arr.shape[:-2], -1).sum(axis=-1)[..., None, None]
    off = np.abs(total - 1.0) > PROB_SUM_TOL
    if np.any(off):
        raise DomainError(
            f"probabilities sum to {float(total[off][0])!r}, more than {PROB_SUM_TOL} away from 1"
        )
    # x / 1.0 == x, so exact-mass tables come back unchanged
    return np.divide(arr, total, out=out)


def _check_marginals(row, col, row_cum, col_cum, row_surv, col_surv) -> None:
    """MarginalPair value invariants over (..., r)."""
    for name, marg in (("row", row), ("col", col)):
        if np.any(np.abs(marg.sum(axis=-1) - 1.0) > _INVARIANT_TOL):
            raise DomainError(f"{name} marginal does not sum to 1")
    for cum, surv, name in ((row_cum, row_surv, "row"), (col_cum, col_surv, "col")):
        # s_i = 1 - F_{i-1} with F_0 = 0
        prev = np.concatenate((np.zeros_like(cum[..., :1]), cum[..., :-1]), axis=-1)
        if np.any(np.abs(surv - (1.0 - prev)) > _INVARIANT_TOL):
            raise DomainError(f"{name} survivals are inconsistent with cumulatives")
        if np.any(np.diff(surv, axis=-1) > 0.0):
            raise DomainError(f"{name} survivals must be nonincreasing")


def _check_hazards(omega_x, omega_y, exhausted_x, exhausted_y) -> None:
    """HazardPair value invariants over (..., r - 1)."""
    for omega, flag, name in (
        (omega_x, exhausted_x, "omega_x"),
        (omega_y, exhausted_y, "omega_y"),
    ):
        if np.any(omega < 0.0) or np.any(omega > 1.0):
            raise DomainError(f"{name} entries must lie in [0, 1]")
        if np.any(omega[flag] != 0.0):
            raise DomainError(f"exhausted {name} entries must be 0 by convention")


def _margins(p: np.ndarray):
    """Row and column marginals of (..., r, r) cells with their tail-sum survivals."""
    row = p.sum(axis=-1)
    col = p.sum(axis=-2)
    return row, col, _tail_sums(row), _tail_sums(col)


def _hazard(mass: np.ndarray, surv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hazards mass_i / s_i, i = 1..r-1; an exhausted s_i = 0 is flagged, hazard 0."""
    s = surv[..., :-1]
    exhausted = s == 0.0
    omega = np.where(exhausted, 0.0, mass[..., :-1] / np.where(exhausted, 1.0, s))
    return omega, exhausted


@dataclass(frozen=True, eq=False)
class CountTable:
    """Observed r x r table of nonnegative integer counts.

    Parameters
    ----------
    counts : array-like
        Square matrix of nonnegative integers; rows index the first (X)
        variable, columns the second (Y).
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.counts)  # a copy: the caller's array is never frozen or shared
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise ShapeError(
                f"counts must be a square r x r matrix with r >= 2, got shape {arr.shape}"
            )
        object.__setattr__(self, "counts", _frozen(_check_counts(arr)[0]))

    @property
    def r(self) -> int:
        """Number of categories."""
        return self.counts.shape[0]

    @property
    def n(self) -> int:
        """Total sample size."""
        return int(self.counts.sum())

    def transposed(self) -> "CountTable":
        """Table with the roles of the two variables swapped."""
        return CountTable(self.counts.T.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return np.array_equal(self.counts, other.counts)


@dataclass(frozen=True, eq=False)
class ProbTable:
    """Joint probability table p_ij with unit total mass.

    Tables whose entries sum to within ``PROB_SUM_TOL`` of 1 are
    renormalized exactly; anything further off is rejected.
    """

    p: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.p, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise ShapeError(
                f"probability table must be square r x r with r >= 2, got shape {arr.shape}"
            )
        object.__setattr__(self, "p", _frozen(_check_probs(arr)))

    @property
    def r(self) -> int:
        return self.p.shape[0]

    def transposed(self) -> "ProbTable":
        return ProbTable(self.p.T.copy())


@dataclass(frozen=True, eq=False)
class MarginalPair:
    """Row/column marginals with their cumulative and survival sequences.

    ``row_surv[i]`` is the tail mass of the row margin from category i+1 on
    (1-indexed: s_i = P(X >= i)); likewise for the column margin.
    """

    row: np.ndarray
    col: np.ndarray
    row_cum: np.ndarray
    col_cum: np.ndarray
    row_surv: np.ndarray
    col_surv: np.ndarray

    def __post_init__(self) -> None:
        for name in ("row", "col", "row_cum", "col_cum", "row_surv", "col_surv"):
            object.__setattr__(
                self, name, _frozen(np.asarray(getattr(self, name), dtype=np.float64))
            )
        r = self.row.shape[0]
        for name in ("col", "row_cum", "col_cum", "row_surv", "col_surv"):
            if getattr(self, name).shape != (r,):
                raise ShapeError(f"{name} must have length {r}")
        _check_marginals(
            self.row, self.col, self.row_cum, self.col_cum, self.row_surv, self.col_surv
        )

    @property
    def r(self) -> int:
        return self.row.shape[0]


@dataclass(frozen=True, eq=False)
class HazardPair:
    """Discrete-time hazard sequences of the two margins (length r-1).

    An index where the survival is exactly zero has no defined hazard (a
    0/0); it is flagged in ``exhausted_*`` and the hazard is set to 0 by
    convention, so downstream discordance terms at that index are governed
    solely by the other margin.
    """

    omega_x: np.ndarray
    omega_y: np.ndarray
    exhausted_x: np.ndarray
    exhausted_y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega_x", _frozen(np.asarray(self.omega_x, dtype=np.float64)))
        object.__setattr__(self, "omega_y", _frozen(np.asarray(self.omega_y, dtype=np.float64)))
        object.__setattr__(self, "exhausted_x", _frozen(np.asarray(self.exhausted_x, dtype=bool)))
        object.__setattr__(self, "exhausted_y", _frozen(np.asarray(self.exhausted_y, dtype=bool)))
        m = self.omega_x.shape[0]
        if m < 1:
            raise ShapeError("hazard sequences must have length r - 1 >= 1")
        for name in ("omega_y", "exhausted_x", "exhausted_y"):
            if getattr(self, name).shape != (m,):
                raise ShapeError(f"{name} must have length {m}")
        _check_hazards(self.omega_x, self.omega_y, self.exhausted_x, self.exhausted_y)

    @property
    def size(self) -> int:
        return self.omega_x.shape[0]


def from_counts(table: CountTable) -> ProbTable:
    """Maximum likelihood cell probabilities p_ij = n_ij / n.

    Parameters
    ----------
    table : CountTable

    Returns
    -------
    ProbTable
    """
    return ProbTable(table.counts / table.n)


def marginals(prob: ProbTable) -> MarginalPair:
    """Row/column marginals with cumulative and survival sequences.

    Survivals are accumulated as tail sums rather than 1 - F_{i-1}; the two
    forms agree mathematically but the tail sum avoids cancellation when
    the remaining mass is tiny.
    """
    row, col, row_surv, col_surv = _margins(prob.p)
    return MarginalPair(
        row=row,
        col=col,
        row_cum=np.cumsum(row),
        col_cum=np.cumsum(col),
        row_surv=row_surv,
        col_surv=col_surv,
    )


def hazards(marg: MarginalPair) -> HazardPair:
    """Discrete-time hazards omega_i = p_i / s_i for i = 1..r-1.

    Indices with s_i = 0 are flagged exhausted and get omega_i = 0; see
    :class:`HazardPair`.
    """
    omega_x, exhausted_x = _hazard(marg.row, marg.row_surv)
    omega_y, exhausted_y = _hazard(marg.col, marg.col_surv)
    # a caller-built MarginalPair may carry survivals a rounding error below
    # the mass (within its invariant tolerance); guard the last ulp
    return HazardPair(
        omega_x=np.minimum(omega_x, 1.0),
        omega_y=np.minimum(omega_y, 1.0),
        exhausted_x=exhausted_x,
        exhausted_y=exhausted_y,
    )
