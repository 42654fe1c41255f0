"""Point estimation, delta-method standard errors and confidence intervals.

The cell counts are treated as one multinomial draw over the r^2 cells, so
sqrt(n) (p_hat - p) is asymptotically normal with covariance

    xi(p) = diag(p) - p p^T.

Propagating through the measure phi (or psi) with the delta method gives
se = sqrt( grad^T xi grad / n ) and CI = estimate +- z * se.  Because xi
is diag(p) - p p^T, the quadratic form never needs the r^2 x r^2 matrix:

    grad^T xi grad = p.g^2 - (p.g)^2 = p.(g - p.g)^2,      g = grad,

an O(r^2) sum, taken in the centered form: nonnegative, free of cancellation.

Two gradient routes are kept permanently: the analytic chain rule
(:func:`grad_phi`) and central finite differences (:func:`grad_fd`), so either
can audit the other.  The analytic one (:func:`_grad`) is one chain rule for
both measures V = sum_i u_i s(x_i), u_i = t_i / T, t_i = W1_i + W2_i,
T = sum_j t_j; :mod:`margshift.measures` supplies the scores s of the W1 share
x_i = W1_i / t_i and their slopes s'.  It runs over the 2r margin entries, all a
measure reads; :func:`_cells` widens it where a cell quantity is needed.  Both
routes use that the measures are homogeneous of degree 0 in the cells when
survivals are written as tail sums: coordinates can be perturbed without
renormalizing onto the simplex, and adding a multiple of the all-ones vector
to a gradient never changes the quadratic form (xi annihilates constants).

A nonparametric multinomial bootstrap (:func:`bootstrap_ci`) provides an
independent percentile interval for cross-checking the delta method.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMassError,
    DomainError,
    MethodMismatchError,
    NonDifferentiableError,
    ShapeError,
    TooManyDegenerateReplicatesError,
)
from .measures import (
    _RANGE,
    _UNDEFINED,
    _check_lambda,
    _clamp,
    _mean,
    _scalar,
    _slope,
    _table_terms,
    _terms,
    _value,
)
from .tables import CountTable, _check_probs, _integer, _real, _record, from_counts

__all__ = [
    "ConfInterval",
    "EstimateReport",
    "GroupComparison",
    "multinomial_covariance",
    "grad_phi",
    "grad_fd",
    "wald_ci",
    "bootstrap_ci",
    "compare_groups",
    "z_quantile",
]

# share of degenerate bootstrap replicates tolerated before giving up
_DEGENERATE_REPLICATE_CAP = 0.01

# what a delta-method report says when its se vanishes
_ZERO_SE_FLAG = "delta-method se is 0: the interval has zero width"

# Replicate loops draw and evaluate their tables in chunks of at most this
# many cells and at most _SEED_BLOCK tables (but at least one table), which
# bounds their working memory, the chunk's seed words included.  A chunk's
# kernel numpy calls and its one seed derivation cost the same whatever its
# size; at 2^16 cells an r = 60 chunk holds 18 tables, so that cost is small
# next to the chunk's draws.
_CHUNK_CELLS = 1 << 16
_SEED_BLOCK = 1024

# Tables of at least this many cells have a chunk's rows drawn on up to one
# thread per CPU: numpy releases the GIL inside a multinomial draw.  Two threads
# against one on a 2-CPU host: r <= 10 ran 0.53-0.93x at every n; r = 12-24 lost
# at n = 100 (r = 20: 0.83x, r = 24: 0.93x) and won only at n = 50 r^2 (1.5x);
# r >= 30 won 1.30-1.60x at every n.  So the crossover is r = 30, 900 cells.
_SPLIT_CELLS = 900

# numpy's SeedSequence hash constants (see _child_seeds)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1
# spawn keys from 2^32 on take two words, which _child_seeds does not hash
_MAX_REPLICATES = 1 << 32


@dataclass(frozen=True)
class ConfInterval:
    """A point estimate with its interval.

    Delta-method endpoints are reported raw, never clamped into the
    measure's logical range; ``exceeds_range`` flags intervals that poke
    outside it (clamping would silently distort coverage studies).
    """

    estimate: float
    se: float
    lower: float
    upper: float
    level: float
    method: str  # "delta" | "bootstrap-percentile"
    exceeds_range: bool = False


@dataclass(frozen=True)
class EstimateReport:
    """Estimate, interval and diagnostics for one table and one measure."""

    measure: str  # "phi" | "psi"
    lam: float | None
    ci: ConfInterval
    n: int
    gradient_norm: float | None
    degenerate_flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class GroupComparison:
    """Difference of two independent estimates with its Wald interval."""

    difference: ConfInterval
    significant: bool
    zero_width: bool


def _wald_level(level: float) -> float:
    """A confidence level whose z is finite: 1 - (1 - level) / 2 must stay below 1."""
    checked = _real(level, "confidence level", 0.0, 1.0)
    if 1.0 - (1.0 - checked) / 2.0 == 1.0:
        raise DomainError(f"confidence level must be at most {1.0 - 2.0**-52!r} "
                          f"for a delta-method interval, got {level!r}")
    return checked


def _check_measure(measure: str, lam: float | None) -> tuple[str, float | None]:
    if not isinstance(measure, str) or measure not in ("phi", "psi"):
        raise DomainError(f"measure must be 'phi' or 'psi', got {measure!r}")
    if measure == "phi":
        if lam is not None:
            raise DomainError(f"measure 'phi' takes no lambda value, got {lam!r}")
        return "phi", None
    return "psi", _check_lambda(lam)  # a missing lambda is refused there


def _prob_cells(p: np.ndarray) -> np.ndarray:
    """Validate a flat cell-probability vector as ProbTable cells; return it as given, r x r."""
    vec = np.asarray(p, dtype=np.float64)
    if vec.ndim != 1:
        raise ShapeError("flat probability vector must be 1-d")
    r = math.isqrt(vec.shape[0])
    if r * r != vec.shape[0] or r < 2:
        raise ShapeError(f"vector length {vec.shape[0]} is not r^2 for a table with r >= 2")
    _check_probs(cells := vec.reshape(r, r))
    return cells


def _refusals(terms, measure: str):
    """(error, message, per-index condition, reduction over the indices) for each reason
    a delta-method interval is refused, in the one order every route reports: undefined first."""
    w1, w2 = terms.w1, terms.w2
    vanish = (w1 + w2) == 0.0
    boundary = ("the estimate sits at the boundary " + measure + " = {}; "
                "the delta-method interval is undefined there")
    nondiff = NonDifferentiableError
    checks = [
        (DegenerateMassError, _UNDEFINED.format(measure), vanish, np.all),
        (nondiff, "row survival is exhausted at index {i}; the hazard there is a 0/0",
         terms.exhausted_x, np.any),
        (nondiff, "column survival is exhausted at index {i}; the hazard there is a 0/0",
         terms.exhausted_y, np.any),
        (nondiff, "both discordance terms vanish at index {i}; the angle there is undefined",
         vanish, np.any),
        # phi is -1 where every W1 vanishes and +1 where every W2 does; psi is 1 at both
        (nondiff, boundary.format(-1 if measure == "phi" else 1), w1 == 0.0, np.all),
        (nondiff, boundary.format(1), w2 == 0.0, np.all),
    ]
    if measure == "psi":
        checks.append((nondiff, "a discordance term vanishes at index {i}; psi is not "
                       "differentiable there", (w1 == 0.0) | (w2 == 0.0), np.any))
    return checks


def _refused(terms, measure: str) -> np.ndarray:
    """Mask of the tables in a stack where the gradient is refused."""
    bad = np.zeros(terms.w1.shape[:-1], dtype=bool)
    for _, _, condition, reduce in _refusals(terms, measure):
        bad |= reduce(condition, axis=-1)
    return bad


def _refuse(terms, measure: str, estimate: float | None = None) -> None:
    """Raise the first refusal that applies to one table, if any, carrying ``estimate``."""
    for error, message, condition, reduce in _refusals(terms, measure):
        if reduce(condition):
            exc = error(message.format(i=int(np.argmax(condition)) + 1))
            exc.estimate = estimate
            raise exc


def _grad(terms, measure: str, lam: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, clamped, and gradient (g_row, g_col) over the 2r margins where not :func:`_refused`
    of either measure V = sum_i u_i s(x_i) (module docstring), from one :func:`_mean`:

        dV/dW1_i = (s_i - V) / T + s'(x_i) W2_i / (T t_i)
        dV/dW2_i = (s_i - V) / T - s'(x_i) W1_i / (T t_i)
    """
    w1, w2, omega_x, omega_y = terms.w1, terms.w2, terms.omega_x, terms.omega_y
    with np.errstate(divide="ignore", invalid="ignore"):
        t, total, scores, value = _mean(w1, w2, measure, lam)
        centered = (scores - value[..., None]) / total
        slope = _slope(w1 / t, measure, lam)
        g_w1 = centered + slope * w2 / (total * t)
        g_w2 = centered - slope * w1 / (total * t)
        g_ox = g_w1 * (1.0 - omega_y) - g_w2 * omega_y
        g_oy = -g_w1 * omega_x + g_w2 * (1.0 - omega_x)
        return (_clamp(value, measure), _to_margin(g_ox, omega_x, terms.surv_x),
                _to_margin(g_oy, omega_y, terms.surv_y))


def _to_margin(g_omega: np.ndarray, omega: np.ndarray, surv: np.ndarray) -> np.ndarray:
    """Push a gradient on the hazards omega down to the margin m behind them."""
    # d omega_i / d m_k = delta_ik / s_i - (omega_i / s_i) [k >= i], s the survivals
    s = surv[..., :-1]
    running = np.cumsum(g_omega * omega / s, axis=-1)
    return np.concatenate((g_omega / s - running, 0.0 - running[..., -1:]), axis=-1)


def _cells(g_row: np.ndarray, g_col: np.ndarray) -> np.ndarray:
    """Flat row-major cell gradient: cell (i, j) gets row i's slope plus column j's."""
    # the one place that knows the cell layout; every cell quantity is widened here
    r = g_row.shape[-1]
    return (g_row[..., :, None] + g_col[..., None, :]).reshape(*g_row.shape[:-1], r * r)


def _variance(p: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """grad^T xi(p) grad over the last axis, as p.(g - p.g)^2; p is flat like grad."""
    centered = grad - np.sum(p * grad, axis=-1, keepdims=True)
    return np.sum(p * centered * centered, axis=-1)


def multinomial_covariance(p: np.ndarray) -> np.ndarray:
    """Multinomial covariance xi(p) = diag(p) - p p^T (an r^2 x r^2 matrix).

    The result is symmetric, positive semidefinite, and annihilates the
    all-ones vector (its rows sum to zero).  The interval code never builds
    it (see the module docstring); it is kept as a reference.
    """
    vec = _prob_cells(p).ravel()
    return np.diag(vec) - np.outer(vec, vec)


def _checked_grad(p: np.ndarray, measure: str, lam: float | None) -> np.ndarray:
    cells = _prob_cells(p)
    terms = _terms(cells.sum(axis=-1), cells.sum(axis=-2))
    _refuse(terms, measure)
    return _cells(*_grad(terms, measure, lam)[1:])


def grad_phi(p: np.ndarray) -> np.ndarray:
    """Analytic gradient of phi with respect to the r^2 cell probabilities.

    Chain rule through cells -> marginals -> survivals -> hazards ->
    discordance terms -> angles -> phi, with survivals written as tail sums
    so the expression extends smoothly off the simplex.

    Raises
    ------
    DegenerateMassError
        If the total discordance mass is zero; this is checked first.
    NonDifferentiableError
        If any survival in use is exhausted, any index has
        W1_i = W2_i = 0, or the estimate sits at the boundary phi = +-1.
    """
    return _checked_grad(p, "phi", None)


def grad_fd(
    p: np.ndarray, h: float = 1e-6, measure: str = "phi", lam: float | None = None
) -> np.ndarray:
    """Central-finite-difference gradient of phi (or psi), the audit route.

    Steps each of the 2r margin entries, all that a measure reads, by +-h off
    the simplex (degree-0 homogeneity makes that legitimate), in one O(r^2) call;
    :func:`_cells` gives cell (i, j) row i's slope plus column j's, as in :func:`grad_phi`.

    Parameters
    ----------
    p : array-like
        Flat cell probabilities (length r^2).
    h : float
        Step size, 0 < h < 1e-3, large enough to move every margin entry:
        a step lost in rounding beside a margin is a :class:`DomainError`.
        No step resolves a hazard whose 1 - omega_i cancels in double precision (a
        margin of 5e-18 after 0.02): that slope is wrong, unflagged; :func:`grad_phi` holds.
    measure : {"phi", "psi"}
    lam : float, optional
        Divergence index, required when measure is "psi".

    Raises
    ------
    DegenerateMassError, NonDifferentiableError
        As :func:`wald_ci`, for the same first reason, before any step.
    """
    h = _real(h, "step h", 0.0, 1e-3)
    measure, lam = _check_measure(measure, lam)
    cells = _prob_cells(p)
    row, col = cells.sum(axis=-1), cells.sum(axis=-2)
    m = np.concatenate((row, col))  # every margin entry, each of which is stepped
    if np.any(m + h == m):
        raise DomainError(f"step h = {h:g} is lost in rounding beside a margin of {m.max():g}")
    _refuse(_terms(row, col), measure)  # same contract as the analytic route
    r = row.shape[0]
    step = h * np.eye(r)
    # 4r margin pairs: row entry k stepped by +h, by -h, then column entry k alike
    t = _terms(np.concatenate((row + step, row - step, np.tile(row, (2 * r, 1)))),
               np.concatenate((np.tile(col, (2 * r, 1)), col + step, col - step)))
    v = _mean(t.w1, t.w2, measure, lam)[-1].reshape(2, 2, r)  # margin, sign, k
    return _cells(*((v[:, 0] - v[:, 1]) / (2.0 * h)))


def _chunks(count: int, r: int):
    """(start, stop) ranges covering count r x r tables, in chunks of at most
    2^16 cells and at most 1024 tables, but at least one table: 1024 tables
    up to r = 8, 18 at r = 60, one from r = 182 on."""
    size = min(_SEED_BLOCK, max(1, _CHUNK_CELLS // (r * r)))
    for start in range(0, count, size):
        yield start, min(start + size, count)


def _hashmix(words: np.ndarray, init: int, mult: int, call: int) -> np.ndarray:
    """numpy's SeedSequence hashmix of each row of ``words`` (uint32), the first
    row as the hash's call number ``call``: row i meets the hash constants
    init mult^(call + i) and init mult^(call + i + 1), mod 2^32."""
    consts = [init * pow(mult, call + i, 1 << 32) & _MASK32 for i in range(len(words) + 1)]
    consts = np.array(consts, dtype=np.uint32)[:, None]
    value = (words ^ consts[:-1]) * consts[1:]  # uint32 arrays wrap without a warning
    return value ^ (value >> 16)


def _child_seeds(seed: int, keys) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)`` for
    every key k, as one (len(keys), 4) uint64 array.

    numpy mixes the seed's own words into ``SeedSequence(seed).pool``; a
    child goes on from there, on columns of 32-bit words here: its key's one
    word is hashed into every pool word, then the eight state words out of
    the pool.  The pool took size^2 hash calls, and size more for each seed
    word beyond the pool size, so the key's hash starts at that call.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if int(keys.max()) > _MASK32:
        raise DomainError("spawn keys must lie below 2^32")
    parent = np.random.SeedSequence(seed)
    size = parent.pool_size
    words = max(1, -(-seed.bit_length() // 32))
    calls = size * size + size * max(0, words - size)
    key = np.broadcast_to(keys.astype(np.uint32), (size, len(keys)))
    hashed = _hashmix(key, _INIT_A, _MULT_A, calls)
    pool = parent.pool[:, None] * _MIX_MULT_L - hashed * _MIX_MULT_R
    pool ^= pool >> 16
    state = _hashmix(pool[np.arange(8) % size], _INIT_B, _MULT_B, 0)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _SeedWords:
    """One replicate's seed words in the place of its SeedSequence: PCG64 asks
    an ``ISeedSequence`` for them once, as ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw(rows: np.ndarray, seeds: np.ndarray, n: int, flat: np.ndarray, k: int) -> None:
    """Fill each row with a draw from its own replicate's generator, on k threads:
    thread i draws rows i, i + k, ...; thread 0 is this one, the others new.  Every
    thread started is joined before this returns, even when a start fails, and
    then the first failing thread's error is raised."""
    errors = [None] * k

    def work(i: int) -> None:
        try:
            for row, words in zip(rows[i::k], seeds[i::k]):
                row[:] = np.random.Generator(np.random.PCG64(_SeedWords(words))).multinomial(n, flat)
        except BaseException as exc:  # raised on the calling thread below
            errors[i] = exc

    workers = []
    try:
        for i in range(1, k):
            worker = threading.Thread(target=work, args=(i,))
            worker.start()
            workers.append(worker)
        work(0)
    finally:
        for worker in workers:
            worker.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _resample(p: np.ndarray, n: int, replicates: int, seed: int):
    """Multinomial tables of size n over the cells p, as (b, r, r) count stacks,
    one per :func:`_chunks` span: the replicate stream of the bootstrap and of
    the coverage study.

    Replicate k draws from the generator that ``default_rng`` builds from the
    k-th child spawned by ``SeedSequence(seed)``.  Each chunk derives its
    children's seed words in one :func:`_child_seeds` call, from numpy's own
    pool of the seed, checks its first and last row against numpy's
    SeedSequence, and seeds PCG64 from the words, so the stream is the same,
    draw for draw, without building a child.

    A chunk holds at most 2^16 cells and at most 1024 tables, but at least one
    table, so the working memory is set by the chunk, not by the replicate
    count.  Once its seeds are checked, a chunk of tables of 900 cells or more
    (r >= 30) is drawn by :func:`_draw` on min(CPUs, tables in the chunk)
    threads, as numpy releases the GIL inside a multinomial draw, and every
    thread is joined before the chunk is yielded.  A split needs two tables in
    a chunk, so from r = 182 on, one table a chunk, every draw runs on the
    calling thread.  The stream cannot depend on the thread count: each row
    still draws from its own replicate's generator into its own place.
    """
    # numpy.random loads here, not with this module: delta-method runs never draw
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    r = p.shape[-1]
    flat = p.ravel()
    cpus = _cpus() if r * r >= _SPLIT_CELLS else 1
    for lo, hi in _chunks(replicates, r):
        seeds = _child_seeds(seed, np.arange(lo, hi))
        for k, words in ((lo, seeds[0]), (hi - 1, seeds[-1])):
            child = np.random.SeedSequence(seed, spawn_key=(k,))
            if not np.array_equal(child.generate_state(4, np.uint64), words):
                raise RuntimeError(
                    f"the seed derived for replicate {k} of seed {seed} differs "
                    "from numpy's SeedSequence; this numpy changed its seeding"
                )
        draws = np.empty((hi - lo, r * r), dtype=np.int64)
        _draw(draws, seeds, n, flat, min(cpus, hi - lo))
        yield draws.reshape(-1, r, r)


def _delta(counts: np.ndarray, measure: str, lam: float | None):
    """Estimate, delta-method se, gradient and W terms of count tables (..., r, r);
    se is meaningless where :func:`_refused` holds."""
    p, totals, terms = _table_terms(counts)
    estimate, g_row, g_col = _grad(terms, measure, lam)
    grad = _cells(g_row, g_col)
    with np.errstate(all="ignore"):  # refused tables carry inf/NaN
        se = np.sqrt(_variance(p.reshape(grad.shape), grad) / totals[..., 0, 0])
    return estimate, se, grad, terms


def _wald_bounds(estimate, se, level: float):
    """The delta-method bounds estimate -+ z se, z = Phi^-1(1 - (1 - level) / 2),
    of scalars or arrays alike: the one place z and the bounds are formed."""
    z = z_quantile(1.0 - (1.0 - level) / 2.0)
    return estimate - z * se, estimate + z * se


def _wald_interval(estimate, se, level: float, lo_edge, hi_edge) -> ConfInterval:
    """The :func:`_wald_bounds` interval, flagged when it leaves [lo_edge, hi_edge]."""
    lower, upper = _wald_bounds(estimate, se, level)
    return ConfInterval(
        estimate=estimate,
        se=se,
        lower=lower,
        upper=upper,
        level=level,
        method="delta",
        exceeds_range=lower < lo_edge or upper > hi_edge,
    )


def wald_ci(
    table: CountTable,
    level: float = 0.95,
    measure: str = "phi",
    lam: float | None = None,
) -> EstimateReport:
    """Plug-in estimate with a delta-method Wald interval.

    Parameters
    ----------
    table : CountTable
        Observed counts (array-likes are accepted and wrapped).
    level : float
        Confidence level in (0, 1).
    measure : {"phi", "psi"}
    lam : float, optional
        Divergence index, required when measure is "psi".

    Returns
    -------
    EstimateReport
        With ``ci.method = "delta"``; endpoints are reported raw and
        ``ci.exceeds_range`` flags intervals leaving the logical range.
        A zero se (a diagonal table, or psi at marginal homogeneity) gives a
        zero-width interval, which ``degenerate_flags`` names.

    Raises
    ------
    DegenerateMassError, NonDifferentiableError
        The undefined measure first, then the gradient's first reason (see :func:`grad_phi`).
    """
    if not isinstance(table, CountTable):
        table = CountTable(table)
    level = _wald_level(level)
    measure, lam = _check_measure(measure, lam)

    estimate, se, grad, terms = _delta(table.counts, measure, lam)
    _refuse(terms, measure, float(estimate))
    return EstimateReport(
        measure=measure,
        lam=lam,
        ci=_wald_interval(float(estimate), float(se), level, *_RANGE[measure]),
        n=table.n,
        gradient_norm=float(np.linalg.norm(grad)),
        degenerate_flags=(_ZERO_SE_FLAG,) if se == 0.0 else (),
    )


def bootstrap_ci(
    table: CountTable,
    level: float = 0.95,
    replicates: int = 2000,
    seed: int = 0,
    measure: str = "phi",
    lam: float | None = None,
) -> EstimateReport:
    """Nonparametric multinomial bootstrap percentile interval.

    Replicates are multinomial redraws of size n from the observed cell frequencies.
    Replicates where the measure is degenerate are counted and excluded.  The endpoints
    are the alpha/2 and 1 - alpha/2 percentiles of the sorted kept replicates by numpy's
    'linear' rule: with v = (m - 1) q over m kept values, the values at floor(v) and
    floor(v) + 1 interpolated at the fraction of v (see :func:`_percentile`).

    Deterministic for a fixed seed: replicate k draws from the generator ``default_rng``
    builds from the k-th child spawned by ``SeedSequence(seed)`` (the stream of
    :func:`_resample`), and aggregation (counts plus sorted percentile extraction) does not
    depend on evaluation order.  Replicates are drawn and evaluated in the chunks, and on
    the threads, that :func:`_resample` states, so the interval is the same to the bit
    whatever the CPU count; beyond the chunk, the bootstrap keeps one float64 per
    replicate, the values it sorts.

    Raises
    ------
    DegenerateMassError, TooManyDegenerateReplicatesError
        The undefined measure first, before any draw; then over 1% degenerate replicates.
    """
    if not isinstance(table, CountTable):
        table = CountTable(table)
    level = _real(level, "confidence level", 0.0, 1.0)
    measure, lam = _check_measure(measure, lam)
    replicates = _integer(replicates, "replicates", 200, _MAX_REPLICATES)
    seed = _integer(seed, "seed", 0)
    estimate = _scalar(_delta(table.counts, measure, lam)[0], measure)  # refused before any draw

    values, done = np.empty(replicates), 0
    for counts in _resample(from_counts(table).p, table.n, replicates, seed):
        _, _, terms = _table_terms(counts)
        done += len(counts)
        values[done - len(counts):done] = _value(terms.w1, terms.w2, measure, lam)
    values.sort()  # in place; NaN, a degenerate replicate, sorts last
    degenerate = int(np.count_nonzero(np.isnan(values)))

    if degenerate > _DEGENERATE_REPLICATE_CAP * replicates:
        raise TooManyDegenerateReplicatesError(
            f"{degenerate} of {replicates} bootstrap replicates were degenerate "
            f"(cap {_DEGENERATE_REPLICATE_CAP:.0%}); the table is too sparse for "
            "a bootstrap interval"
        )

    kept = values[:replicates - degenerate]
    alpha = 1.0 - level
    lower = _percentile(kept, 100.0 * alpha / 2.0)
    upper = _percentile(kept, 100.0 * (1.0 - alpha / 2.0))
    se = float(np.std(kept, ddof=1))
    flags = ()
    if degenerate:
        flags = (f"{degenerate} of {replicates} bootstrap replicates degenerate (excluded)",)
    ci = ConfInterval(
        estimate=estimate,
        se=se,
        lower=lower,
        upper=upper,
        level=level,
        method="bootstrap-percentile",
    )
    return EstimateReport(
        measure=measure,
        lam=lam,
        ci=ci,
        n=table.n,
        gradient_norm=None,
        degenerate_flags=flags,
    )


def _percentile(ordered: np.ndarray, pct: float) -> float:
    """``np.percentile(ordered, pct)`` (method 'linear') of an ascending array.

    The same arithmetic as numpy's, so the result is the same to the bit,
    without sorting again or importing what np.percentile pulls in.
    """
    n = ordered.shape[0]
    virtual = (n - 1) * (pct / 100.0)
    if virtual >= n - 1:
        return float(ordered[-1])
    prev = math.floor(virtual)
    t = virtual - prev
    a = float(ordered[prev])
    b = float(ordered[prev + 1])
    d = b - a
    # numpy's _lerp: interpolate from whichever end is nearer
    return a + d * t if t < 0.5 else b - d * (1.0 - t)


def compare_groups(
    a: EstimateReport, b: EstimateReport, level: float = 0.95
) -> GroupComparison:
    """Wald interval for the difference of two independent estimates.

    Both reports must be delta-method reports of the same measure; the
    difference uses se = sqrt(se_a^2 + se_b^2).  A comparison where both
    standard errors vanish is flagged ``zero_width`` rather than trusted.

    Raises
    ------
    MethodMismatchError
        If either report is bootstrap-based, or the measures differ.
    """
    a, b = _record(a, EstimateReport, "a"), _record(b, EstimateReport, "b")
    level = _wald_level(level)
    for name, rep in (("first", a), ("second", b)):
        if rep.ci.method != "delta":
            raise MethodMismatchError(
                f"the {name} report uses method {rep.ci.method!r}; "
                "group comparison needs delta-method reports"
            )
    if a.measure != b.measure or a.lam != b.lam:
        raise MethodMismatchError("the two reports estimate different measures")

    lo_edge, hi_edge = _RANGE[a.measure]  # a difference lies within +-(hi_edge - lo_edge)
    diff, se = a.ci.estimate - b.ci.estimate, math.hypot(a.ci.se, b.ci.se)
    ci = _wald_interval(diff, se, level, lo_edge - hi_edge, hi_edge - lo_edge)
    return GroupComparison(
        difference=ci,
        significant=not (ci.lower <= 0.0 <= ci.upper),
        zero_width=se == 0.0,
    )


def z_quantile(q: float) -> float:
    """Standard normal quantile on (0, 1), from :class:`statistics.NormalDist`.

    ``statistics`` is imported on the first call, not with this module: a
    bootstrap never needs it, and a one-shot CLI process pays for every import.
    """
    from statistics import NormalDist

    return NormalDist().inv_cdf(_real(q, "quantile level", 0.0, 1.0))
