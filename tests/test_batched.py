"""Batched replicate loops against frozen one-table-at-a-time oracles.

The oracles below are copies of the scalar code that ``bootstrap_ci`` and
``coverage_study`` ran before their loops were batched: one generator,
one validated table and one measure evaluation per replicate, and a Wald
interval from the dense multinomial covariance.  Counts and hits must agree
exactly; floats may differ by a few ulps, because the batched delta method
evaluates the variance as an O(r^2) sum.

The replicate draws themselves must agree bit for bit with one spawned
generator per replicate (``spawn_loop``), which ``inference._resample``
reproduces without building those generators.
"""

import math
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import margshift.inference as inference
import margshift.measures as measures
import margshift.simulate as simulate
import margshift.tables as tables
from margshift import (
    CountTable,
    CoverageStudySpec,
    DegenerateMassError,
    DomainError,
    McorScenario,
    NonDifferentiableError,
    TooManyDegenerateReplicatesError,
    bootstrap_ci,
    coverage_study,
    discordance,
    from_counts,
    grad_fd,
    grad_phi,
    hazards,
    marginals,
    phi_of_delta,
    scenario_table,
    wald_ci,
    z_quantile,
)
from margshift.measures import _check_discordance, _mean, _table_terms, _terms
from margshift.tables import _check_hazards, _check_marginals, _check_probs, _tail_sums
from conftest import ACTIVE_COUNTS

MAX_ULPS = 8

# ---------------------------------------------------------------------------
# frozen scalar oracles
# ---------------------------------------------------------------------------


def ref_probs(counts):
    p = counts / int(counts.sum())
    total = float(p.sum())
    return p / total if total != 1.0 else p


def ref_terms(p):
    """cells -> marginals -> hazards -> (omega_x, omega_y, surv_x, surv_y, W1, W2)."""
    row = p.sum(axis=1)
    col = p.sum(axis=0)
    surv_x = np.flip(np.cumsum(np.flip(row)))
    surv_y = np.flip(np.cumsum(np.flip(col)))

    def hazard(mass, surv):
        s = surv[:-1]
        exhausted = s == 0.0
        omega = np.where(exhausted, 0.0, mass[:-1] / np.where(exhausted, 1.0, s))
        return np.minimum(omega, 1.0)

    omega_x = hazard(row, surv_x)
    omega_y = hazard(col, surv_y)
    return omega_x, omega_y, surv_x, surv_y, omega_x * (1 - omega_y), omega_y * (1 - omega_x)


def ref_clamp(value, lo, hi):
    if lo - 1e-12 <= value < lo:
        return lo
    if hi < value <= hi + 1e-12:
        return hi
    return value


def ref_psi_raw(w1, w2, lam):
    t = w1 + w2
    total = np.sum(t)
    keep = t > 0.0
    x = w1[keep] / t[keep]
    u = t[keep] / total
    if abs(lam) < 1e-8:
        def f(v):
            out = np.zeros_like(v)
            pos = v > 0.0
            out[pos] = v[pos] * np.log(2.0 * v[pos])
            return out

        g = (f(x) + f(1.0 - x)) / math.log(2.0)
    else:
        def f(v):
            out = np.zeros_like(v)
            pos = v > 0.0
            out[pos] = v[pos] * (2.0 * v[pos]) ** lam
            return out

        g = (f(x) + f(1.0 - x) - 1.0) / math.expm1(lam * math.log(2.0))
    return float(np.sum(u * g))


def ref_value(p, measure, lam):
    *_, w1, w2 = ref_terms(p)
    if float(np.sum(w1 + w2)) == 0.0:
        raise DegenerateMassError("all discordance terms vanish")
    if measure == "phi":
        weight = (w1 + w2) / np.sum(w1 + w2)
        raw = float((4.0 / math.pi) * np.sum(weight * (np.arctan2(w1, w2) - math.pi / 4)))
        return ref_clamp(raw, -1.0, 1.0)
    return ref_clamp(ref_psi_raw(w1, w2, lam), 0.0, 1.0)


def ref_grad(p, measure, lam):
    """Analytic gradient; raises NonDifferentiableError tagged with its reason."""
    omega_x, omega_y, surv_x, surv_y, w1, w2 = ref_terms(p)
    t = w1 + w2
    if float(np.sum(t)) == 0.0:
        raise DegenerateMassError("all discordance terms vanish")
    for name, surv in (("row exhausted", surv_x), ("column exhausted", surv_y)):
        if np.any(surv[:-1] == 0.0):
            raise NonDifferentiableError(name)
    if np.any(t == 0.0):
        raise NonDifferentiableError("both vanish")
    if np.all(w1 == 0.0) or np.all(w2 == 0.0):
        raise NonDifferentiableError("boundary")
    total = float(np.sum(t))
    if measure == "phi":
        u = t / total
        theta = np.arctan2(w1, w2)
        rsq = w1 * w1 + w2 * w2
        centered = (theta - math.pi / 4) - float(np.sum(u * (theta - math.pi / 4)))
        g_w1 = (4.0 / math.pi) * (centered / total + u * w2 / rsq)
        g_w2 = (4.0 / math.pi) * (centered / total - u * w1 / rsq)
    else:
        if np.any((w1 == 0.0) | (w2 == 0.0)):
            raise NonDifferentiableError("psi term vanishes")
        x = w1 / t
        value = ref_psi_raw(w1, w2, lam)
        if abs(lam) < 1e-8:
            g = (x * np.log(2 * x) + (1 - x) * np.log(2 * (1 - x))) / math.log(2.0)
            gprime = (np.log(2 * x) - np.log(2 * (1 - x))) / math.log(2.0)
        else:
            denom = math.expm1(lam * math.log(2.0))
            g = (x * (2 * x) ** lam + (1 - x) * (2 * (1 - x)) ** lam - 1.0) / denom
            gprime = (lam + 1.0) * ((2 * x) ** lam - (2 * (1 - x)) ** lam) / denom
        g_w1 = (g - value) / total + gprime * w2 / (total * t)
        g_w2 = (g - value) / total - gprime * w1 / (total * t)
    g_ox = g_w1 * (1.0 - omega_y) - g_w2 * omega_y
    g_oy = -g_w1 * omega_x + g_w2 * (1.0 - omega_x)
    r = p.shape[0]

    def to_marginal(g_omega, omega, surv):
        g = np.zeros(r)
        g[: r - 1] = g_omega / surv[: r - 1]
        running = np.cumsum(g_omega * omega / surv[: r - 1])
        g[: r - 1] -= running
        g[r - 1] -= running[-1]
        return g

    g_row = to_marginal(g_ox, omega_x, surv_x)
    g_col = to_marginal(g_oy, omega_y, surv_y)
    return (g_row[:, None] + g_col[None, :]).ravel()


def ref_grad_fd_cells(p, h, measure, lam):
    """grad_fd as it stepped each of the r^2 cells by +-h through a whole table,
    O(r^4); up to r = 12 its chunked loop made this one pass."""
    r = math.isqrt(p.shape[0])
    step = h * np.eye(r * r)  # row k steps cell k
    stack = np.stack((p + step, p - step)).reshape(2, r * r, r, r)
    t = _terms(stack.sum(axis=-1), stack.sum(axis=-2))
    plus, minus = _mean(t.w1, t.w2, measure, lam)[-1]
    return (plus - minus) / (2.0 * h)


def ref_wald(counts, level, measure, lam):
    p = ref_probs(counts)
    estimate = ref_value(p, measure, lam)
    grad = ref_grad(p, measure, lam)
    vec = p.ravel()
    cov = np.diag(vec) - np.outer(vec, vec)
    se = math.sqrt(max(float(grad @ cov @ grad) / int(counts.sum()), 0.0))
    z = z_quantile(1.0 - (1.0 - level) / 2.0)
    return estimate - z * se, estimate + z * se


def spawn_loop(p, n, replicates, seed):
    """(replicates, r^2) draws, one generator spawned from SeedSequence(seed) each."""
    flat = p.ravel()
    children = np.random.SeedSequence(seed).spawn(replicates)
    return np.array([np.random.default_rng(child).multinomial(n, flat) for child in children])


def ref_bootstrap(table, level, replicates, seed, measure, lam):
    n, r = table.n, table.r
    pvec = ref_probs(table.counts).ravel()
    values = np.full(replicates, np.nan)
    degenerate = 0
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(replicates)):
        rng = np.random.default_rng(child)
        resampled = CountTable(rng.multinomial(n, pvec).reshape(r, r))
        try:
            values[k] = ref_value(ref_probs(resampled.counts), measure, lam)
        except DegenerateMassError:
            degenerate += 1
    if degenerate > 0.01 * replicates:
        raise TooManyDegenerateReplicatesError(degenerate)
    kept = np.sort(values[~np.isnan(values)])
    alpha = 1.0 - level
    return dict(
        estimate=ref_value(ref_probs(table.counts), measure, lam),
        se=float(np.std(kept, ddof=1)),
        lower=float(np.percentile(kept, 100.0 * alpha / 2.0)),
        upper=float(np.percentile(kept, 100.0 * (1.0 - alpha / 2.0))),
        degenerate=degenerate,
    )


def ref_coverage(spec):
    """(coverage, degenerate count, mean width, refusal reasons seen)."""
    truth = scenario_table(spec.scenario).p.ravel()
    r = spec.scenario.r
    true_value = phi_of_delta(spec.scenario.delta)
    hits = 0
    width_total = 0.0
    reasons = Counter()
    for child in np.random.SeedSequence(spec.seed).spawn(spec.replicates):
        counts = np.random.default_rng(child).multinomial(spec.n, truth).reshape(r, r)
        try:
            lower, upper = ref_wald(counts, spec.level, "phi", None)
        except (DegenerateMassError, NonDifferentiableError) as exc:
            reasons[str(exc)] += 1
            continue
        if lower <= true_value <= upper:
            hits += 1
        width_total += upper - lower
    effective = spec.replicates - sum(reasons.values())
    return hits / effective, sum(reasons.values()), width_total / effective, reasons


def assert_ulps(actual, expected, maxulp=MAX_ULPS):
    np.testing.assert_array_max_ulp(np.float64(actual), np.float64(expected), maxulp=maxulp)


def assert_bootstrap_matches(table, replicates, seed, measure="phi", lam=None):
    ref = ref_bootstrap(table, 0.95, replicates, seed, measure, lam)
    rep = bootstrap_ci(table, 0.95, replicates, seed, measure, lam)
    flags = ()
    if ref["degenerate"]:
        flags = (f"{ref['degenerate']} of {replicates} bootstrap replicates degenerate (excluded)",)
    assert rep.degenerate_flags == flags
    for field in ("estimate", "se", "lower", "upper"):
        assert_ulps(getattr(rep.ci, field), ref[field])
    return ref["degenerate"]


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "measure, lam", [("phi", None), ("psi", 1.0), ("psi", 0.0), ("psi", -0.5)]
)
def test_bootstrap_matches_scalar_loop(measure, lam):
    # 1500 replicates do not divide the 1024-table chunks of an r = 4 table
    assert_bootstrap_matches(CountTable(ACTIVE_COUNTS), 1500, 11, measure, lam)


@pytest.mark.parametrize("measure, lam", [("phi", None), ("psi", 0.0)])
def test_bootstrap_counts_degenerate_replicates_like_scalar_loop(measure, lam):
    # about 0.6% of redraws put all mass in one cell, where the measure is undefined
    degenerate = assert_bootstrap_matches(CountTable([[95, 2], [2, 1]]), 1000, 3, measure, lam)
    assert 0 < degenerate <= 10


def test_bootstrap_gives_up_like_scalar_loop():
    table = CountTable([[97, 1], [1, 1]])  # about 5% degenerate redraws
    with pytest.raises(TooManyDegenerateReplicatesError) as ref:
        ref_bootstrap(table, 0.95, 400, 0, "phi", None)
    with pytest.raises(TooManyDegenerateReplicatesError, match=f"^{ref.value.args[0]} of 400 "):
        bootstrap_ci(table, replicates=400, seed=0)


def test_bootstrap_with_one_table_per_chunk(monkeypatch):
    r = 91
    monkeypatch.setattr(inference, "_CHUNK_CELLS", r * r)  # each chunk holds one table
    assert [hi - lo for lo, hi in inference._chunks(3, r)] == [1, 1, 1]
    counts = np.random.default_rng(91).integers(1, 6, size=(r, r))
    assert_bootstrap_matches(CountTable(counts), 200, 5)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

# small samples on sparse margins: together they hit every refusal reason
COVERAGE_SCENARIOS = [
    ((0.05, 0.05), 0.0, 10, 400, 2),
    ((0.9, 0.9), 0.0, 10, 300, 4),
    ((0.3, 0.4, 0.5), 0.5, 500, 1300, 701),  # 1300 does not divide 1024
]


def run_coverage_scenarios():
    reasons = Counter()
    for base, delta, n, replicates, seed in COVERAGE_SCENARIOS:
        spec = CoverageStudySpec(
            scenario=McorScenario(base_haz_x=np.array(base), delta=delta),
            n=n, replicates=replicates, level=0.95, seed=seed,
        )
        coverage, degenerate, mean_width, seen = ref_coverage(spec)
        res = coverage_study(spec)
        assert res.degenerate_count == degenerate
        assert res.coverage == coverage  # same hits over the same denominator
        assert_ulps(res.mean_width, mean_width)
        reasons.update(seen)
    return reasons


def test_coverage_matches_scalar_loop():
    reasons = run_coverage_scenarios()
    assert set(reasons) == {
        "row exhausted",
        "column exhausted",
        "all discordance terms vanish",
        "both vanish",
        "boundary",
    }


def test_coverage_refuses_when_every_replicate_is_degenerate():
    spec = CoverageStudySpec(
        scenario=McorScenario(base_haz_x=np.array([0.05]), delta=-3.0),
        n=10, replicates=100, seed=4,
    )
    with pytest.raises(DegenerateMassError, match="every replicate was degenerate"):
        coverage_study(spec)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

GRADIENT_CASES = [("phi", None)] + [
    ("psi", lam) for lam in (-0.9, -0.5, 0.0, 5e-9, 1e-6, 0.5, 1.0, 3.0, 50.0)
]


@pytest.mark.parametrize("measure, lam", GRADIENT_CASES)
def test_gradient_matches_the_frozen_chain_rule(measure, lam):
    # positive cells leave no survival exhausted and no discordance term zero,
    # so the gradient is defined; Dirichlet shapes from 0.3 to 3 spread the
    # W1 shares from near 0 to near 1
    rng = np.random.default_rng(2024)
    for k in range(200):
        r = 2 + k % 10
        p = rng.dirichlet(np.full(r * r, rng.uniform(0.3, 3.0))).reshape(r, r)
        expected = ref_grad(p, measure, lam)
        actual = inference._checked_grad(p.ravel(), measure, lam)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(actual - expected)) <= MAX_ULPS * np.spacing(scale), (r, k)


@pytest.mark.parametrize("measure, lam", [("phi", None), ("psi", 1.0)])
def test_the_delta_method_scores_a_stack_once(monkeypatch, measure, lam):
    # the estimate and the gradient share one mean V, and so one pass of scores
    scores, calls = measures._scores, []

    def counted(*args):
        calls.append(args)
        return scores(*args)

    monkeypatch.setattr(measures, "_scores", counted)
    monkeypatch.setattr(inference, "_scores", counted, raising=False)
    inference._delta(np.array([ACTIVE_COUNTS, ACTIVE_COUNTS]), measure, lam)
    assert len(calls) == 1


def test_the_kernel_is_reached_only_through_the_gate(monkeypatch):
    # a table's counts are checked once, as a CountTable; the kernel trusts
    # them and the multinomial draws, so no route checks counts again
    table = CountTable(ACTIVE_COUNTS)
    spec = CoverageStudySpec(
        scenario=McorScenario(base_haz_x=np.array([0.3, 0.4, 0.5]), delta=1.0),
        n=500, replicates=2000, seed=0,
    )
    routes = {
        "wald_ci": lambda: wald_ci(table),
        "bootstrap_ci": lambda: bootstrap_ci(table, replicates=10000, seed=7),
        "coverage_study": lambda: coverage_study(spec),
    }
    check, calls = tables._check_counts, dict.fromkeys(routes, 0)

    def counted(arr):
        calls[route] += 1
        return check(arr)

    monkeypatch.setattr(tables, "_check_counts", counted)
    monkeypatch.setattr(measures, "_check_counts", counted, raising=False)
    for route, run in routes.items():
        run()
    assert calls == dict.fromkeys(routes, 0)


# ---------------------------------------------------------------------------
# the kernel's derived values
# ---------------------------------------------------------------------------

# _table_terms checks nothing; on these stacks of valid counts everything it
# derives passes the record checks it does not run, and equals the public chain
KERNEL_KINDS = ["random", "sparse", "exhausted", "single cell", "near the count limit",
                "homogeneous"]
KERNEL_SIZES = (2, 3, 5, 12, 47, 200)
MAX_COUNT = 2**63 - 1


def kernel_stack(kind, r, rng):
    """Eight r x r count tables of one kind, two at r = 200; none sums to 0."""
    shape = (2 if r > 50 else 8, r, r)
    if kind == "random":
        counts = rng.integers(0, 50, shape)
    elif kind == "sparse":
        counts = rng.integers(1, 50, shape) * (rng.random(shape) < 2.0 / r)
    elif kind == "exhausted":
        # the last categories of each margin hold no mass
        counts = rng.integers(1, 50, shape)
        for table in counts:
            table[rng.integers(1, r):, :] = 0
            table[:, rng.integers(1, r):] = 0
    elif kind == "single cell":
        counts = np.zeros(shape, dtype=np.int64)
        for table in counts:
            table[tuple(rng.integers(0, r, 2))] = rng.integers(1, MAX_COUNT, endpoint=True)
    elif kind == "near the count limit":
        # every total stays within 2^63 - 1, the largest a table may have
        top = MAX_COUNT // (r * r)
        counts = top - rng.integers(0, 1000, shape)
        counts[0] = rng.integers(0, top, shape[1:], endpoint=True)
        # last categories holding 1e-19 to 1e-17 of the mass, where 1 - F would cancel
        counts[1, -1, :] = 1
        counts[1, :, -1] = 1
    else:  # equal margins: W1 = W2 at every index
        counts = rng.integers(0, 50, shape)
        counts += counts.swapaxes(-1, -2)
    counts[..., 0, 0] += counts.sum(axis=(-2, -1)) == 0
    return counts


def kernel_stacks(kind):
    rng = np.random.default_rng(KERNEL_KINDS.index(kind))
    return [kernel_stack(kind, r, rng) for r in KERNEL_SIZES]


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_the_kernel_derives_only_values_the_records_accept(kind):
    exhausted = False
    for counts in kernel_stacks(kind):
        p, totals, t = _table_terms(counts)
        np.testing.assert_array_equal(totals[..., 0, 0], counts.sum(axis=(-2, -1)))
        _check_probs(p)
        row, col = p.sum(axis=-1), p.sum(axis=-2)
        _check_marginals(row, col)
        np.testing.assert_array_equal(t.surv_x, _tail_sums(row))
        np.testing.assert_array_equal(t.surv_y, _tail_sums(col))
        _check_hazards(t.omega_x, t.omega_y, t.exhausted_x, t.exhausted_y)
        _check_discordance(t.w1, t.w2)
        exhausted |= bool(np.any(t.exhausted_x) and np.any(t.exhausted_y))
    assert exhausted or kind not in ("exhausted", "single cell")


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_the_kernel_matches_the_public_chain_bit_for_bit(kind):
    for counts in kernel_stacks(kind):
        p, _, t = _table_terms(counts)
        for k, table in enumerate(counts):
            prob = from_counts(CountTable(table))
            d = discordance(hazards(marginals(prob)))
            np.testing.assert_array_equal(prob.p, p[k])
            np.testing.assert_array_equal(d.w1, t.w1[k])
            np.testing.assert_array_equal(d.w2, t.w2[k])


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

# every discordance term vanishes and both margins exhaust their survivals:
# the undefined measure is the reason every route reports
VANISHING_AND_EXHAUSTED = np.array([[[9, 0, 0], [0, 0, 0], [0, 0, 0]]])


def refusal(fn, *args, **kwargs):
    """None if the call returns, else the class and message of its refusal."""
    try:
        fn(*args, **kwargs)
    except (DegenerateMassError, NonDifferentiableError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("measure, lam", [("phi", None), ("psi", 1.0), ("psi", 0.0)])
@pytest.mark.parametrize("kind", KERNEL_KINDS + ["vanishing and exhausted"])
def test_every_delta_method_route_refuses_for_the_same_first_reason(kind, measure, lam):
    stacks = kernel_stacks(kind) if kind in KERNEL_KINDS else [VANISHING_AND_EXHAUSTED]
    for counts in stacks:
        refused = inference._refused(_table_terms(counts)[2], measure)
        for k, table in enumerate(counts):
            p = from_counts(CountTable(table)).p.ravel()
            wald = refusal(wald_ci, CountTable(table), measure=measure, lam=lam)
            assert refusal(inference._checked_grad, p, measure, lam) == wald, (table.shape, k)
            assert refusal(grad_fd, p, measure=measure, lam=lam) == wald, (table.shape, k)
            assert refused[k] == (wald is not None), (table.shape, k)
            if wald is not None:
                # the references tag their reasons, so only the classes must agree;
                # ref_grad goes first, as ref_wald builds the dense covariance if
                # nothing is refused
                ref = refusal(ref_grad, ref_probs(table), measure, lam)
                assert ref is not None and ref[0] is wald[0], (table.shape, k, ref, wald)
                ref = refusal(ref_wald, table, 0.95, measure, lam)
                assert ref is not None and ref[0] is wald[0], (table.shape, k, ref, wald)


@pytest.mark.parametrize("measure, lam", [("phi", None), ("psi", 1.0)])
def test_the_bootstrap_estimate_is_the_delta_method_estimate_bit_for_bit(
    measure, lam, active_table, placebo_table, monkeypatch
):
    # the estimate comes from the observed table alone, so the draws are stubbed:
    # a uniform 2 x 2 stack keeps every replicate defined at any table size
    monkeypatch.setattr(inference, "_resample",
                        lambda p, n, replicates, seed: [np.ones((replicates, 2, 2), np.int64)])
    tables = [active_table, placebo_table]
    for kind in KERNEL_KINDS:
        tables += [CountTable(t) for counts in kernel_stacks(kind) for t in counts]
    compared = 0
    for table in tables:
        if refusal(wald_ci, table, measure=measure, lam=lam) is not None:
            continue
        boot = bootstrap_ci(table, replicates=200, measure=measure, lam=lam).ci.estimate
        assert boot == wald_ci(table, measure=measure, lam=lam).ci.estimate, table.counts.shape
        compared += 1
    assert compared >= 100


@pytest.mark.parametrize("measure, lam", [("phi", None), ("psi", 1.0), ("psi", 0.0)])
def test_margin_steps_match_the_cell_stepped_reference(measure, lam):
    compared = 0
    for kind in KERNEL_KINDS:  # the exhausted and single-cell tables are all refused
        for counts in kernel_stacks(kind):
            if counts.shape[-1] > 12:
                continue
            for table in counts:
                if refusal(wald_ci, CountTable(table), measure=measure, lam=lam) is not None:
                    continue
                p = from_counts(CountTable(table)).p.ravel()
                # floored at 1: psi has a zero gradient at marginal homogeneity
                scale = max(float(np.max(np.abs(inference._checked_grad(p, measure, lam)))), 1.0)
                error = np.max(np.abs(grad_fd(p, measure=measure, lam=lam)
                                      - ref_grad_fd_cells(p, 1e-6, measure, lam)))
                assert error <= 1e-8 * scale, (kind, table.shape, error, scale)
                compared += 1
    assert compared >= 100


@pytest.mark.parametrize("measure, lam", [("phi", None), ("psi", 1.0), ("psi", 0.0)])
def test_the_margin_gradient_obeys_euler_on_the_margins(measure, lam):
    # phi and psi are homogeneous of degree 0 in the margins they read, so
    # Euler's identity row.g_row + col.g_col = 0 holds wherever they are differentiable
    checked = 0
    for kind in KERNEL_KINDS:
        for counts in kernel_stacks(kind):
            p, _, terms = _table_terms(counts)
            row, col = p.sum(axis=-1), p.sum(axis=-2)
            _, g_row, g_col = inference._grad(terms, measure, lam)
            for k in np.flatnonzero(~inference._refused(terms, measure)):
                euler = row[k] @ g_row[k] + col[k] @ g_col[k]
                scale = max(np.max(np.abs(g_row[k])), np.max(np.abs(g_col[k])), 1.0)
                assert abs(euler) <= 16 * np.finfo(float).eps * scale, (kind, counts.shape, k)
                checked += 1
    assert checked >= 100


# grad_phi on the second "near the count limit" table at r = 47, whose last row
# and column margins are 5.3e-18 beside 0.0217: (cell, dphi/dp at that cell).
# Each value is the exact derivative at the table's float64 cells, evaluated
# with mpmath at 80 digits (120 agree): the margins summed exactly, the W chain
# of the measures module docstring, and mpmath.diff in each margin entry, a cell
# taking its row's derivative plus its column's.  The entries are the largest
# ones, all in the last row or column.
NEAR_LIMIT_GRADIENT = [
    ((0, 46), 17.24299085410467044636893),
    ((46, 0), -17.24299085410467320472278),
    ((45, 46), 10.48399839655760765611401),
    ((46, 45), -10.48399839655763398134694),
]


def test_the_analytic_gradient_holds_where_a_margin_is_lost_to_rounding():
    # 1 - omega cancels at the last index, so no finite-difference step resolves
    # it (grad_fd is off by more than the gradient's largest entry there); the
    # chain rule, which wald_ci uses, is within 4.1e-16 of the scale
    table = kernel_stacks("near the count limit")[KERNEL_SIZES.index(47)][1]
    grad = grad_phi(from_counts(CountTable(table)).p.ravel()).reshape(47, 47)
    for cell, exact in NEAR_LIMIT_GRADIENT:
        assert abs(grad[cell] - exact) <= 1e-14 * 17.24, cell


def test_a_vanishing_exhausted_table_is_refused_as_undefined_by_every_route():
    table = CountTable(VANISHING_AND_EXHAUSTED[0])
    p = from_counts(table).p.ravel()
    message = "^all discordance terms vanish; phi is undefined$"
    for route, arg in ((wald_ci, table), (grad_phi, p), (grad_fd, p)):
        with pytest.raises(DegenerateMassError, match=message):
            route(arg)


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cells", [16, 7 * 16])
def test_results_do_not_depend_on_the_chunk_size(monkeypatch, cells):
    table = CountTable(ACTIVE_COUNTS)
    spec = CoverageStudySpec(
        scenario=McorScenario(base_haz_x=np.array([0.05, 0.05]), delta=0.0),
        n=10, replicates=300, seed=2,
    )
    boot = bootstrap_ci(table, replicates=500, seed=9, measure="psi", lam=1.0)
    cov = coverage_study(spec)
    monkeypatch.setattr(inference, "_CHUNK_CELLS", cells)  # 1 and 7 tables of 16 cells
    assert bootstrap_ci(table, replicates=500, seed=9, measure="psi", lam=1.0) == boot
    assert coverage_study(spec) == cov


@pytest.mark.parametrize(
    "r, size", [(2, 1024), (4, 1024), (8, 1024), (9, 809), (60, 18), (100, 6), (181, 2), (182, 1)]
)
def test_chunks_hold_a_cell_budget_of_tables_up_to_one_seed_block(r, size):
    count = 2 * size + 1
    spans = list(inference._chunks(count, r))
    assert [hi - lo for lo, hi in spans] == [size, size, 1]
    assert spans[0][0] == 0 and spans[-1][1] == count
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


# ---------------------------------------------------------------------------
# memory at large r
# ---------------------------------------------------------------------------


def traced_peak_mb(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_wald_ci_at_r150_needs_no_dense_covariance():
    # the dense r^2 x r^2 covariance would be 22500^2 doubles, about 4 GB
    r = 150
    counts = np.random.default_rng(150).integers(1, 30, size=(r, r))
    peak = traced_peak_mb(wald_ci, CountTable(counts))
    assert peak < 8.0


def test_bootstrap_memory_is_bounded_by_the_chunk():
    # all 200 tables at once would hold 200 x 100^2 cells, 15 MB per array
    r = 100
    table = CountTable(np.random.default_rng(100).integers(1, 6, size=(r, r)))
    peak = traced_peak_mb(bootstrap_ci, table, replicates=200, seed=0)
    assert peak < 8.0


def one_repeated_chunk(p, n, replicates, seed):
    """A sampler yielding one fixed chunk of 1024 draws until ``replicates`` are
    made: what the replicate loops hold beyond the chunk is then all that grows."""
    chunk = np.random.default_rng(seed).multinomial(n, p.ravel(), size=1024)
    for _ in range(replicates // 1024):
        yield chunk.reshape(-1, *p.shape)


def growth_per_replicate(monkeypatch, fn, make_args):
    """Extra traced peak bytes per extra replicate, in float64s, from 10 to 200 chunks."""
    monkeypatch.setattr(inference, "_resample", one_repeated_chunk)
    monkeypatch.setattr(simulate, "_resample", one_repeated_chunk)
    small, large = 10 * 1024, 200 * 1024
    grown = traced_peak_mb(fn, *make_args(large)) - traced_peak_mb(fn, *make_args(small))
    return grown * 2**20 / 8 / (large - small)


def test_coverage_memory_does_not_grow_with_the_replicate_count(monkeypatch):
    # a loop that holds every interval width until the end grows the peak by
    # 2.5 float64 per replicate (3.7 MB from 10 240 to 204 800 replicates); a
    # running total holds none
    scenario = McorScenario(base_haz_x=np.array([0.3, 0.4, 0.5]), delta=0.5)

    def args(replicates):
        return (CoverageStudySpec(scenario=scenario, n=500, replicates=replicates, seed=0),)

    assert growth_per_replicate(monkeypatch, coverage_study, args) <= 0.5


def test_bootstrap_keeps_one_float_per_replicate(monkeypatch):
    # the replicate values, plus np.std's temporary of the kept ones; a chunk
    # list with its concatenation, a NaN-filtered and a sorted copy grow the
    # peak by 3.9 float64 per replicate (5.9 MB from 10 240 to 204 800 replicates)
    table = CountTable(ACTIVE_COUNTS)

    def args(replicates):
        return table, 0.95, replicates, 0

    assert growth_per_replicate(monkeypatch, bootstrap_ci, args) <= 2.5


def test_bootstrap_seed_memory_is_bounded_by_the_block():
    # one block of seed words at a time peaks at about 0.86 MB; all 20 000 rows
    # derived at once peak at about 2.6 MB with the chunks unchanged, and at about
    # 3.4 MB with a 20 000-row block; test_seeds_are_derived_once_per_chunk
    # pins the blocks by count
    peak = traced_peak_mb(bootstrap_ci, CountTable(ACTIVE_COUNTS), replicates=20_000, seed=0)
    assert peak < 2.0


# ---------------------------------------------------------------------------
# replicate streams
# ---------------------------------------------------------------------------

# 1 to 7 seed words; 2^64 to 2^128 cross the pool size of 4 words
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128 - 1, 2**128, 2**128 + 1, 2**200]


@pytest.mark.parametrize("seed", SEEDS)
def test_child_seeds_match_numpy(seed):
    block = inference._SEED_BLOCK
    keys = np.concatenate((np.arange(block - 40, block + 40), [2**32 - 1]))
    expected = [
        np.random.SeedSequence(seed, spawn_key=(int(k),)).generate_state(4, np.uint64)
        for k in keys
    ]
    derived = inference._child_seeds(seed, keys)
    assert derived.dtype == np.uint64
    np.testing.assert_array_equal(derived, expected)


def random_probs(r):
    p = np.random.default_rng(r).random((r, r))
    return p / p.sum()


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize(
    "r, n, replicates, seed, chunk_cells",
    [
        (4, 320, 2100, 2**64 - 1, None),
        (30, 100, 150, 3, None),
        (60, 72_000, 1030, 7, None),
        (30, 100, 7, 5, 2 * 30 * 30),  # two tables a chunk, fewer than three CPUs
    ],
)
def test_resample_matches_the_spawn_loop(monkeypatch, r, n, replicates, seed, chunk_cells, cpus):
    # 2100 and 1030 replicates cross seed blocks; a chunk holds 72 tables at r = 30 and
    # 18 at r = 60, whose rows are split across the CPUs: the draws must not depend on it
    monkeypatch.setattr(inference, "_cpus", lambda: cpus)
    if chunk_cells:
        monkeypatch.setattr(inference, "_CHUNK_CELLS", chunk_cells)
    p = random_probs(r)
    draws = np.concatenate(list(inference._resample(p, n, replicates, seed)))
    assert draws.dtype == np.int64
    np.testing.assert_array_equal(draws.reshape(replicates, r * r), spawn_loop(p, n, replicates, seed))


def thread_starts(monkeypatch):
    """A list that grows by one each time a thread is started."""
    starts, start = [], threading.Thread.start

    def spy(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return starts


def test_small_tables_draw_on_the_calling_thread(monkeypatch):
    # below _SPLIT_CELLS a thread costs more than it saves, whatever the CPU count
    monkeypatch.setattr(inference, "_cpus", lambda: 3)
    starts = thread_starts(monkeypatch)
    list(inference._resample(random_probs(4), 119, 2100, 0))
    assert starts == []
    # from r = 182 on a chunk holds one table, and a split needs two
    list(inference._resample(random_probs(182), 10, 3, 0))
    assert starts == []
    list(inference._resample(random_probs(30), 100, 150, 0))  # chunks of 72, 72 and 6 tables
    assert len(starts) == 3 * 2


def fail_replicate(monkeypatch, k):
    """Make replicate k of seed 0 raise ValueError when its generator is seeded."""
    failing = inference._child_seeds(0, [k])[0]

    class FailingWords(inference._SeedWords):
        def generate_state(self, n_words, dtype=np.uint32):
            if np.array_equal(self.words, failing):
                raise ValueError(f"replicate {k} failed")
            return super().generate_state(n_words, dtype)

    monkeypatch.setattr(inference, "_SeedWords", FailingWords)


class TestNoThreadOutlivesADraw:
    """Every thread a split chunk starts is joined before the chunk is yielded."""

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(inference, "_cpus", lambda: 3)
        self.starts = thread_starts(monkeypatch)
        self.before = threading.active_count()
        yield
        assert threading.active_count() == self.before

    def test_a_threaded_bootstrap(self):
        table = CountTable(np.random.default_rng(60).multinomial(180_000, random_probs(60).ravel())
                           .reshape(60, 60))
        bootstrap_ci(table, replicates=216, seed=3)
        assert len(self.starts) == 12 * 2  # 12 chunks of 18 tables, each on three threads

    def test_a_sampler_closed_after_its_first_chunk(self):
        stream = inference._resample(random_probs(60), 1000, 1000, 0)
        assert len(next(stream)) == 18
        assert threading.active_count() == self.before
        stream.close()
        assert len(self.starts) == 2

    def test_a_draw_that_fails_on_a_worker(self, monkeypatch):
        # replicate 17, the last row of the first chunk, is drawn by the third thread
        fail_replicate(monkeypatch, 17)
        with pytest.raises(ValueError, match="replicate 17 failed"):
            list(inference._resample(random_probs(60), 1000, 100, 0))
        assert len(self.starts) == 2

    def test_a_draw_that_fails_on_the_calling_thread(self, monkeypatch):
        # an r = 4 chunk is drawn on the calling thread alone
        fail_replicate(monkeypatch, 17)
        with pytest.raises(ValueError, match="replicate 17 failed"):
            list(inference._resample(random_probs(4), 1000, 100, 0))
        assert self.starts == []

    def test_a_thread_that_fails_to_start(self, monkeypatch):
        # thread exhaustion, simulated: the second start of a chunk's split raises
        start, join, joined = threading.Thread.start, threading.Thread.join, []

        def start_once(thread):
            if self.starts:
                raise RuntimeError("can't start new thread")
            start(thread)

        def spy_join(thread, timeout=None):
            joined.append(thread)
            join(thread, timeout)

        monkeypatch.setattr(threading.Thread, "start", start_once)
        monkeypatch.setattr(threading.Thread, "join", spy_join)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            list(inference._resample(random_probs(60), 1000, 60, 0))
        assert len(self.starts) == 1
        assert joined == self.starts


@pytest.mark.parametrize(
    "constant", ["_INIT_A", "_MULT_A", "_INIT_B", "_MULT_B", "_MIX_MULT_L", "_MIX_MULT_R"]
)
def test_a_seed_derivation_that_drifts_from_numpy_is_refused(monkeypatch, constant):
    monkeypatch.setattr(inference, constant, getattr(inference, constant) ^ 2)
    with pytest.raises(RuntimeError, match="differs from numpy"):
        bootstrap_ci(CountTable(ACTIVE_COUNTS), replicates=200, seed=0)


def test_a_drifted_last_seed_of_a_block_is_refused(monkeypatch):
    derive = inference._child_seeds

    def drift_last(seed, keys):
        words = derive(seed, keys)
        words[-1, 3] ^= 2
        return words

    monkeypatch.setattr(inference, "_child_seeds", drift_last)
    with pytest.raises(RuntimeError, match="replicate 199 .* differs from numpy"):
        bootstrap_ci(CountTable(ACTIVE_COUNTS), replicates=200, seed=0)


def test_replicate_counts_beyond_one_word_spawn_keys_are_refused():
    # key 2^32 would need a two-word spawn key
    with pytest.raises(DomainError, match="2\\^32"):
        inference._child_seeds(0, [2**32])
    with pytest.raises(DomainError, match="2\\^32"):
        bootstrap_ci(CountTable(ACTIVE_COUNTS), replicates=2**32 + 1)
    with pytest.raises(DomainError, match="2\\^32"):
        CoverageStudySpec(
            scenario=McorScenario(base_haz_x=np.array([0.5]), delta=0.0),
            n=10, replicates=2**32 + 1,
        )


@pytest.mark.parametrize("r, replicates", [(4, 5000), (60, 1100)])
def test_seeds_are_derived_once_per_chunk(monkeypatch, r, replicates):
    calls = []
    derive = inference._child_seeds

    def spy(seed, keys):
        calls.append(np.array(keys))
        return derive(seed, keys)

    monkeypatch.setattr(inference, "_child_seeds", spy)
    counts = np.random.default_rng(r).integers(1, 6, size=(r, r))
    bootstrap_ci(CountTable(counts), replicates=replicates, seed=3)
    assert [(keys[0], keys[-1] + 1) for keys in calls] == list(inference._chunks(replicates, r))
    np.testing.assert_array_equal(np.concatenate(calls), np.arange(replicates))
