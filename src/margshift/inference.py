"""Point estimation, delta-method standard errors and confidence intervals.

The cell counts are treated as one multinomial draw over the r^2 cells, so
sqrt(n) (p_hat - p) is asymptotically normal with covariance

    xi(p) = diag(p) - p p^T.

Propagating through the measure phi (or psi) with the delta method gives
se = sqrt( grad^T xi grad / n ) and CI = estimate +- z * se.  Because xi
is diag(p) - p p^T, the quadratic form never needs the r^2 x r^2 matrix:

    grad^T xi grad = p.g^2 - (p.g)^2 = p.(g - p.g)^2,      g = grad,

an O(r^2) sum, evaluated in the centered form, which is nonnegative and
free of cancellation.

Two gradient routes are kept permanently: the analytic chain rule
(:func:`grad_phi`) and central finite differences (:func:`grad_fd`), so either
can audit the other.  The analytic one (:func:`_grad`) is one chain rule for
both measures V = sum_i u_i s(x_i), u_i = t_i / T, t_i = W1_i + W2_i,
T = sum_j t_j; :mod:`margshift.measures` supplies the scores s of the W1 share
x_i = W1_i / t_i and their slopes s'.  Both routes use that the measures are
homogeneous of degree 0 in the cells when survivals are written as tail sums:
coordinates can be perturbed without renormalizing onto the simplex, and
adding a multiple of the all-ones vector to a gradient never changes the
quadratic form (xi annihilates constants).

A nonparametric multinomial bootstrap (:func:`bootstrap_ci`) provides an
independent percentile interval for cross-checking the delta method.
"""

from __future__ import annotations

import math
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
    _check_lambda,
    _raw,
    _scalar,
    _scores,
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

# Replicate loops draw and evaluate their tables in chunks of at most this
# many cells and at most _SEED_BLOCK tables (but at least one table), which
# bounds their working memory.  A chunk costs some sixty numpy calls whatever
# its size; at 2^16 cells an r = 60 chunk holds 18 tables, so that cost is
# small next to the chunk's draws.
_CHUNK_CELLS = 1 << 16

# Replicate k of a seeded loop draws from the generator
# default_rng(SeedSequence(seed).spawn(...)[k]).  Its four seed words are
# derived with numpy's SeedSequence hash (pool of four 32-bit words),
# _SEED_BLOCK replicates at a time, and PCG64 seeds itself from them.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1
_SEED_BLOCK = 1024
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


def _flat_prob(p: np.ndarray) -> tuple[np.ndarray, int]:
    """Validate a flat cell-probability vector as ProbTable cells; return it as given, with r."""
    vec = np.asarray(p, dtype=np.float64)
    if vec.ndim != 1:
        raise ShapeError("flat probability vector must be 1-d")
    r = math.isqrt(vec.shape[0])
    if r * r != vec.shape[0] or r < 2:
        raise ShapeError(
            f"vector length {vec.shape[0]} is not r^2 for a table with r >= 2"
        )
    _check_probs(vec.reshape(r, r))
    return vec, r


def _refusals(terms, measure: str):
    """(error, message, per-index condition, reduction over the indices) for
    each reason the gradient is refused, in the order the reasons are reported."""
    w1, w2 = terms.w1, terms.w2
    vanish = (w1 + w2) == 0.0
    boundary = ("the estimate sits at the boundary " + measure + " = {}; "
                "the delta-method interval is undefined there")
    nondiff = NonDifferentiableError
    checks = [
        (nondiff, "row survival is exhausted at index {i}; the hazard there is a 0/0",
         terms.exhausted_x, np.any),
        (nondiff, "column survival is exhausted at index {i}; the hazard there is a 0/0",
         terms.exhausted_y, np.any),
        (DegenerateMassError, "all discordance terms vanish; the measure is undefined",
         vanish, np.all),
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


def _refuse(terms, measure: str) -> None:
    """Raise the first refusal that applies to one table, if any."""
    for error, message, condition, reduce in _refusals(terms, measure):
        if reduce(condition):
            raise error(message.format(i=int(np.argmax(condition)) + 1))


def _grad(terms, measure: str, lam: float | None) -> np.ndarray:
    """Gradient over the cells, (..., r^2), where not :func:`_refused`, of either
    measure V = sum_i u_i s(x_i) (module docstring), by one chain rule:

        dV/dW1_i = (s_i - V) / T + s'(x_i) W2_i / (T t_i)
        dV/dW2_i = (s_i - V) / T - s'(x_i) W1_i / (T t_i)
    """
    w1, w2 = terms.w1, terms.w2
    t = w1 + w2
    total = np.sum(t, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = _scores(w1, w2, measure, lam)
        centered = (scores - _raw(w1, w2, scores)[..., None]) / total
        slope = _slope(w1 / t, measure, lam)
        g_w1 = centered + slope * w2 / (total * t)
        g_w2 = centered - slope * w1 / (total * t)
        return _chain_to_cells(terms, g_w1, g_w2)


def _chain_to_cells(terms, g_w1: np.ndarray, g_w2: np.ndarray) -> np.ndarray:
    """Push gradients on (W1, W2) down to the r^2 cells."""
    omega_x, omega_y = terms.omega_x, terms.omega_y
    g_ox = g_w1 * (1.0 - omega_y) - g_w2 * omega_y
    g_oy = -g_w1 * omega_x + g_w2 * (1.0 - omega_x)

    def to_marginal(g_omega: np.ndarray, omega: np.ndarray, surv: np.ndarray) -> np.ndarray:
        # d omega_i / d m_k = delta_ik / s_i - (omega_i / s_i) [k >= i]
        s = surv[..., :-1]
        running = np.cumsum(g_omega * omega / s, axis=-1)
        return np.concatenate((g_omega / s - running, 0.0 - running[..., -1:]), axis=-1)

    g_row = to_marginal(g_ox, omega_x, terms.surv_x)
    g_col = to_marginal(g_oy, omega_y, terms.surv_y)
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
    vec, _ = _flat_prob(p)
    return np.diag(vec) - np.outer(vec, vec)


def _checked_grad(p: np.ndarray, measure: str, lam: float | None) -> np.ndarray:
    vec, r = _flat_prob(p)
    terms = _terms(vec.reshape(r, r))
    _refuse(terms, measure)
    return _grad(terms, measure, lam)


def grad_phi(p: np.ndarray) -> np.ndarray:
    """Analytic gradient of phi with respect to the r^2 cell probabilities.

    Chain rule through cells -> marginals -> survivals -> hazards ->
    discordance terms -> angles -> phi, with survivals written as tail sums
    so the expression extends smoothly off the simplex.

    Raises
    ------
    DegenerateMassError
        If the total discordance mass is zero.
    NonDifferentiableError
        If any survival in use is exhausted, any index has
        W1_i = W2_i = 0, or the estimate sits at the boundary phi = +-1.
    """
    return _checked_grad(p, "phi", None)


def _grad_psi(p: np.ndarray, lam: float) -> np.ndarray:
    """Analytic gradient of psi(., lambda); needs every W1_i, W2_i > 0."""
    return _checked_grad(p, "psi", lam)


def grad_fd(
    p: np.ndarray, h: float = 1e-6, measure: str = "phi", lam: float | None = None
) -> np.ndarray:
    """Central-finite-difference gradient of phi (or psi), the audit route.

    Each cell is stepped by +-h without renormalizing; degree-0 homogeneity
    of the measures in the cells makes that legitimate.

    Parameters
    ----------
    p : array-like
        Flat cell probabilities (length r^2).
    h : float
        Step size, 0 < h < 1e-3.
    measure : {"phi", "psi"}
    lam : float, optional
        Divergence index, required when measure is "psi".
    """
    h = _real(h, "step h", 0.0, 1e-3)
    measure, lam = _check_measure(measure, lam)
    vec, r = _flat_prob(p)
    _refuse(_terms(vec.reshape(r, r)), measure)  # same contract as the analytic route
    cells = r * r
    grad = np.empty(cells)
    for lo, hi in _chunks(cells, r):
        step = h * np.eye(hi - lo, cells, lo)  # row k steps cell lo + k
        t = _terms(np.stack((vec + step, vec - step)).reshape(2, hi - lo, r, r))
        plus, minus = _raw(t.w1, t.w2, _scores(t.w1, t.w2, measure, lam))
        grad[lo:hi] = (plus - minus) / (2.0 * h)
    return grad


def _plugin_estimate(table: CountTable, measure: str, lam: float | None) -> float:
    _, _, terms = _table_terms(table.counts)
    return _scalar(_value(terms.w1, terms.w2, measure, lam), measure)


def _chunks(count: int, r: int):
    """(start, stop) ranges covering count r x r tables, in chunks of at most
    2^16 cells and at most 1024 tables, but at least one table: 1024 tables
    up to r = 8, 18 at r = 60, one from r = 182 on."""
    size = min(_SEED_BLOCK, max(1, _CHUNK_CELLS // (r * r)))
    for start in range(0, count, size):
        yield start, min(start + size, count)


def _child_seeds(seed: int, keys) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)`` for
    every key k, as one (len(keys), 4) uint64 array.

    numpy's hash on columns of 32-bit words: the seed's little-endian words,
    zero-padded to the pool size, then the key's one word.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if int(keys.max()) > _MASK32:
        raise DomainError("spawn keys must lie below 2^32")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(1, w, dtype=np.uint32) for w in words] + [keys.astype(np.uint32)]

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    pool = [hashmix(e) for e in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(e))

    hash_const = _INIT_B
    state = []
    for i in range(8):  # four uint64 words from eight uint32 ones
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        state.append(value ^ (value >> 16))
    return np.stack(state, axis=-1).astype("<u4").view("<u8").astype(np.uint64)


def _replicate_seeds(seed: int, replicates: int):
    """Seed words of the generators of replicates 0, 1, ..., in order: the rows
    of :func:`_child_seeds`, a block at a time, the first and last row of every
    block checked against numpy's own SeedSequence."""
    for lo in range(0, replicates, _SEED_BLOCK):
        hi = min(lo + _SEED_BLOCK, replicates)
        block = _child_seeds(seed, np.arange(lo, hi))
        for k, words in ((lo, block[0]), (hi - 1, block[-1])):
            child = np.random.SeedSequence(seed, spawn_key=(k,))
            if not np.array_equal(child.generate_state(4, np.uint64), words):
                raise RuntimeError(
                    f"the seed derived for replicate {k} of seed {seed} differs "
                    "from numpy's SeedSequence; this numpy changed its seeding"
                )
        yield from block


class _SeedWords:
    """One replicate's seed words in the place of its SeedSequence: PCG64 asks
    an ``ISeedSequence`` for them once, as ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _resample(p: np.ndarray, n: int, replicates: int, seed: int):
    """Multinomial tables of size n over the cells p, as (b, r, r) count stacks.

    Replicate k draws from the generator that ``default_rng`` builds from the
    k-th child spawned by ``SeedSequence(seed)``: PCG64 is seeded from the
    child's words (:func:`_replicate_seeds`), so the stream is the same, draw
    for draw, without building the child.
    """
    # numpy.random loads here, not with this module: delta-method runs never draw
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    r = p.shape[-1]
    flat = p.ravel()
    seeds = _replicate_seeds(seed, replicates)
    for lo, hi in _chunks(replicates, r):
        draws = np.empty((hi - lo, r * r), dtype=np.int64)
        for row, words in zip(draws, seeds):  # draws first, so no seed is skipped
            row[:] = np.random.Generator(np.random.PCG64(_SeedWords(words))).multinomial(n, flat)
        yield draws.reshape(-1, r, r)


def _delta(counts: np.ndarray, measure: str, lam: float | None):
    """Estimate, delta-method se, gradient and W terms of count tables (..., r, r);
    se is meaningless where :func:`_refused` holds."""
    p, totals, terms = _table_terms(counts)
    estimate = _value(terms.w1, terms.w2, measure, lam)
    grad = _grad(terms, measure, lam)
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

    Raises
    ------
    DegenerateMassError, NonDifferentiableError
        Propagated from the measure and gradient with diagnostics.
    """
    if not isinstance(table, CountTable):
        table = CountTable(table)
    level = _wald_level(level)
    measure, lam = _check_measure(measure, lam)

    estimate, se, grad, terms = _delta(table.counts, measure, lam)
    estimate = _scalar(estimate, measure)
    _refuse(terms, measure)
    return EstimateReport(
        measure=measure,
        lam=lam,
        ci=_wald_interval(estimate, float(se), level, *_RANGE[measure]),
        n=table.n,
        gradient_norm=float(np.linalg.norm(grad)),
        degenerate_flags=(),
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

    Replicates are multinomial redraws of size n from the observed cell
    frequencies.  Replicates where the measure is degenerate are counted
    and excluded; more than 1% of them aborts with
    :class:`TooManyDegenerateReplicatesError` rather than quietly reporting
    a biased interval.  The endpoints are the alpha/2 and 1 - alpha/2
    percentiles of the sorted kept replicates by numpy's 'linear' rule:
    with v = (m - 1) q over m kept values, the values at floor(v) and
    floor(v) + 1 interpolated at the fraction of v (see :func:`_percentile`).

    Deterministic for a fixed seed: replicate k draws from the generator
    ``default_rng`` builds from the k-th child spawned by
    ``SeedSequence(seed)``, and aggregation (counts plus sorted percentile
    extraction) does not depend on evaluation order.  Replicates are drawn
    and evaluated in chunks of at most 2^16 cells and at most 1024 tables
    (see :func:`_chunks`), so the working memory is set by the chunk, not by
    ``replicates``; the children's seed words are derived a block at a time
    and each replicate's generator is seeded from its words, so the stream,
    and with it every reported number, is the same as one spawned generator
    per replicate.
    """
    if not isinstance(table, CountTable):
        table = CountTable(table)
    level = _real(level, "confidence level", 0.0, 1.0)
    measure, lam = _check_measure(measure, lam)
    replicates = _integer(replicates, "replicates", 200, _MAX_REPLICATES)
    seed = _integer(seed, "seed", 0)

    n = table.n
    chunks = []
    for counts in _resample(from_counts(table).p, n, replicates, seed):
        _, _, terms = _table_terms(counts)
        chunks.append(_value(terms.w1, terms.w2, measure, lam))
    values = np.concatenate(chunks)
    degenerate = int(np.count_nonzero(np.isnan(values)))

    if degenerate > _DEGENERATE_REPLICATE_CAP * replicates:
        raise TooManyDegenerateReplicatesError(
            f"{degenerate} of {replicates} bootstrap replicates were degenerate "
            f"(cap {_DEGENERATE_REPLICATE_CAP:.0%}); the table is too sparse for "
            "a bootstrap interval"
        )

    kept = np.sort(values[~np.isnan(values)])
    alpha = 1.0 - level
    lower = _percentile(kept, 100.0 * alpha / 2.0)
    upper = _percentile(kept, 100.0 * (1.0 - alpha / 2.0))
    se = float(np.std(kept, ddof=1))
    estimate = _plugin_estimate(table, measure, lam)
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
        exceeds_range=False,
    )
    return EstimateReport(
        measure=measure,
        lam=lam,
        ci=ci,
        n=n,
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
