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

import math
from dataclasses import dataclass, field

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


def _freeze_fields(record, **dtypes) -> None:
    """Store the named fields of a frozen dataclass ``record`` as read-only 1-d
    copies (never the caller's arrays) of their dtypes; they must share one length
    of at least 1, else a :class:`ShapeError` names them with their shapes."""
    arrays = {name: np.array(getattr(record, name), dtype=dtype) for name, dtype in dtypes.items()}
    shapes = {arr.shape for arr in arrays.values()}
    if len(shapes) != 1 or len(shape := shapes.pop()) != 1 or shape[0] < 1:
        got = ", ".join(f"{name} {arr.shape}" for name, arr in arrays.items())
        raise ShapeError(f"{', '.join(dtypes)} must be 1-d arrays of one length >= 1, got {got}")
    for name, arr in arrays.items():
        object.__setattr__(record, name, _frozen(arr))


# how messages spell the large integer bounds
_BOUND_SPELLING = {_MAX_COUNT: "2^63 - 1", 2**32: "2^32"}


def _real(value, name: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``value`` as a finite float strictly inside (lo, hi); every real range of
    the package is open.  Anything else is a DomainError naming ``name``."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (math.isfinite(x) and lo < x < hi):
        raise DomainError(f"{name} must be a finite number in ({lo:g}, {hi:g}), got {value!r}")
    return x


def _integer(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as an int in [lo, hi]: a Python or numpy integer, or a float of
    integral value.  Anything else, bools included, is a DomainError naming ``name``."""
    n = value
    if isinstance(n, (float, np.floating)) and float(n).is_integer():
        n = int(n)
    if (
        isinstance(n, bool)
        or not isinstance(n, (int, np.integer))
        or n < lo
        or (hi is not None and n > hi)
    ):
        top = "inf)" if hi is None else _BOUND_SPELLING.get(hi, str(hi)) + "]"
        raise DomainError(f"{name} must be an integer in [{lo}, {top}, got {value!r}")
    return int(n)


def _record(value, cls: type, name: str):
    """``value`` itself if it is a ``cls``; anything else is a DomainError naming ``name``."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")
    return value


def _square(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` itself if it is an r x r matrix with r >= 2, else a ShapeError."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise ShapeError(f"{what} must be a square r x r matrix with r >= 2, got shape {arr.shape}")
    return arr


def _tail_sums(v: np.ndarray) -> np.ndarray:
    # s_i = sum_{k >= i} v_k along the last axis, accumulated from the tail so
    # that tiny tail mass is not lost to cancellation (preferred over 1 - F_{i-1}).
    return np.flip(np.cumsum(np.flip(v, -1), -1), -1)


# _check_counts checks one r x r table, where it enters as a CountTable: the
# kernel (measures._table_terms) takes only a CountTable's counts and
# multinomial draws, both valid by construction.  The later checks take any
# leading batch shape, so that tests can run them on the kernel's stacks.


def _check_counts(arr: np.ndarray) -> np.ndarray:
    """CountTable value invariants of an r x r array; returns it as int64, copied only if not."""
    if np.issubdtype(arr.dtype, np.floating):
        if not np.all(np.isfinite(arr)) or np.any(arr != np.floor(arr)):
            raise DomainError("counts must be integers")
    elif not (np.issubdtype(arr.dtype, np.integer) or _python_ints(arr)):
        raise DomainError(f"counts must be integers, got dtype {arr.dtype}")
    if np.any(arr < 0):
        raise DomainError("counts must be nonnegative")
    # refused before the cast and the sum, which would wrap silently
    top = int(arr.max())
    if top > _MAX_COUNT:
        raise DomainError(f"counts must not exceed 2^63 - 1, got {top}")
    arr = arr.astype(np.int64, copy=False)
    if top * arr.size > _MAX_COUNT:  # the total may overflow: sum it exactly
        total = int(arr.astype(object).sum())
        if total > _MAX_COUNT:
            raise DomainError(f"count table totals must not exceed 2^63 - 1, got {total}")
    if top == 0:
        raise ZeroTotalError("count table sums to zero")
    return arr


def _python_ints(arr: np.ndarray) -> bool:
    """Whether an object array holds only integers, as numpy builds one from
    Python ints beyond the range of every integer dtype."""
    return arr.dtype == object and all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in arr.flat
    )


def _table_mass(arr: np.ndarray) -> np.ndarray:
    """Each table's sum over its flattened cells, (..., 1, 1); it renormalizes the table."""
    return arr.reshape(*arr.shape[:-2], -1).sum(axis=-1)[..., None, None]


def _check_probs(arr: np.ndarray) -> np.ndarray:
    """ProbTable invariants over (..., r, r); returns the renormalized cells."""
    if not np.all(np.isfinite(arr)):
        raise DomainError("probabilities must be finite")
    if np.any(arr < 0):
        raise DomainError("probabilities must be nonnegative")
    total = _table_mass(arr)
    off = np.abs(total - 1.0) > PROB_SUM_TOL
    if np.any(off):
        raise DomainError(
            f"probabilities sum to {float(total[off][0])!r}, more than {PROB_SUM_TOL} away from 1"
        )
    # x / 1.0 == x, so exact-mass tables come back unchanged
    return arr / total


def _check_marginals(row, col) -> None:
    """MarginalPair value invariants over (..., r): finite, nonnegative entries
    that sum to 1.  The cumulative and survival sequences are derived from the
    entries, so they need no check of their own."""
    for name, marg in (("row", row), ("col", col)):
        if not np.all(np.isfinite(marg)) or np.any(marg < 0.0):
            raise DomainError(f"{name} marginal entries must be finite and nonnegative")
        if np.any(np.abs(marg.sum(axis=-1) - 1.0) > _INVARIANT_TOL):
            raise DomainError(f"{name} marginal does not sum to 1")


def _check_hazards(omega_x, omega_y, exhausted_x, exhausted_y) -> None:
    """HazardPair value invariants over (..., r - 1)."""
    for omega, flag, name in (
        (omega_x, exhausted_x, "omega_x"),
        (omega_y, exhausted_y, "omega_y"),
    ):
        if not np.all((0.0 <= omega) & (omega <= 1.0)):  # NaN fails too
            raise DomainError(f"{name} entries must lie in [0, 1]")
        if np.any(omega[flag] != 0.0):
            raise DomainError(f"exhausted {name} entries must be 0 by convention")


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
        arr = _square(np.array(self.counts), "counts")  # a copy: never frozen or shared
        object.__setattr__(self, "counts", _frozen(_check_counts(arr)))

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
        arr = _square(np.asarray(self.p, dtype=np.float64), "probability table")
        object.__setattr__(self, "p", _frozen(_check_probs(arr)))

    @property
    def r(self) -> int:
        return self.p.shape[0]

    def transposed(self) -> "ProbTable":
        return ProbTable(self.p.T.copy())


@dataclass(frozen=True, eq=False)
class MarginalPair:
    """Row/column marginals with their cumulative and survival sequences.

    Only ``row`` and ``col`` are supplied; the cumulative sums and the
    survivals are derived from them.  ``row_surv[i]`` is the tail mass of the
    row margin from category i+1 on (1-indexed: s_i = P(X >= i)), accumulated
    as a tail sum rather than 1 - F_{i-1}: the two agree mathematically, but
    the tail sum avoids cancellation when the remaining mass is tiny.
    Likewise for the column margin.
    """

    row: np.ndarray
    col: np.ndarray
    row_cum: np.ndarray = field(init=False)
    col_cum: np.ndarray = field(init=False)
    row_surv: np.ndarray = field(init=False)
    col_surv: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        _freeze_fields(self, row=np.float64, col=np.float64)
        _check_marginals(self.row, self.col)
        for name, marg in (("row", self.row), ("col", self.col)):
            object.__setattr__(self, f"{name}_cum", _frozen(np.cumsum(marg)))
            object.__setattr__(self, f"{name}_surv", _frozen(_tail_sums(marg)))

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
        _freeze_fields(
            self, omega_x=np.float64, omega_y=np.float64, exhausted_x=bool, exhausted_y=bool
        )
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
    table = _record(table, CountTable, "table")
    return ProbTable(table.counts / table.n)


def marginals(prob: ProbTable) -> MarginalPair:
    """Row/column marginals with cumulative and survival sequences."""
    prob = _record(prob, ProbTable, "prob")
    return MarginalPair(row=prob.p.sum(axis=-1), col=prob.p.sum(axis=-2))


def hazards(marg: MarginalPair) -> HazardPair:
    """Discrete-time hazards omega_i = p_i / s_i for i = 1..r-1.

    Indices with s_i = 0 are flagged exhausted and get omega_i = 0; see
    :class:`HazardPair`.  Each hazard lies in [0, 1] without clamping: the
    margins are nonnegative and each survival is their tail sum
    s_i = fl(s_{i+1} + p_i) >= p_i.
    """
    marg = _record(marg, MarginalPair, "marg")
    omega_x, exhausted_x = _hazard(marg.row, marg.row_surv)
    omega_y, exhausted_y = _hazard(marg.col, marg.col_surv)
    return HazardPair(
        omega_x=omega_x, omega_y=omega_y, exhausted_x=exhausted_x, exhausted_y=exhausted_y
    )
