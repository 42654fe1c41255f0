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
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import margshift.inference as inference
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
    hazards,
    marginals,
    phi_of_delta,
    scenario_table,
    wald_ci,
    z_quantile,
)
from margshift.measures import _check_discordance, _table_terms
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
    for name, surv in (("row exhausted", surv_x), ("column exhausted", surv_y)):
        if np.any(surv[:-1] == 0.0):
            raise NonDifferentiableError(name)
    t = w1 + w2
    if float(np.sum(t)) == 0.0:
        raise DegenerateMassError("all discordance terms vanish")
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


# ---------------------------------------------------------------------------
# the kernel's derived values
# ---------------------------------------------------------------------------

# _table_terms checks only the counts; on these stacks everything it derives
# from them passes the record checks it does not run, and equals the public chain
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


def test_bootstrap_seed_memory_is_bounded_by_the_block():
    # one block of seed words at a time peaks at about 0.87 MB, all 20 000 rows at
    # once at about 3.4 MB; test_seeds_are_derived_one_block_at_a_time pins the blocks
    peak = traced_peak_mb(bootstrap_ci, CountTable(ACTIVE_COUNTS), replicates=20_000, seed=0)
    assert peak < 4.0


# ---------------------------------------------------------------------------
# replicate streams
# ---------------------------------------------------------------------------

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 1, 2**200]


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


@pytest.mark.parametrize("r, replicates, seed", [(4, 2100, 2**64 - 1), (60, 1030, 7)])
def test_resample_matches_the_spawn_loop(r, replicates, seed):
    # 2100 and 1030 replicates cross seed blocks; at r = 60 a chunk holds 18 tables
    p = np.random.default_rng(r).random((r, r))
    p /= p.sum()
    n = 20 * r * r
    draws = np.concatenate(list(inference._resample(p, n, replicates, seed)))
    assert draws.dtype == np.int64
    np.testing.assert_array_equal(draws.reshape(replicates, r * r), spawn_loop(p, n, replicates, seed))


@pytest.mark.parametrize("constant", ["_MIX_MULT_L"])
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
def test_seeds_are_derived_one_block_at_a_time(monkeypatch, r, replicates):
    calls = []
    derive = inference._child_seeds

    def spy(seed, keys):
        calls.append(np.array(keys))
        return derive(seed, keys)

    monkeypatch.setattr(inference, "_child_seeds", spy)
    counts = np.random.default_rng(r).integers(1, 6, size=(r, r))
    bootstrap_ci(CountTable(counts), replicates=replicates, seed=3)
    block = inference._SEED_BLOCK
    assert block >= 1024  # a derivation per 4-table chunk made r = 60 bootstraps slower
    sizes = [len(keys) for keys in calls]
    assert sizes[:-1] == [block] * (len(sizes) - 1) and 0 < sizes[-1] <= block
    np.testing.assert_array_equal(np.concatenate(calls), np.arange(replicates))
