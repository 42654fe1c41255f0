"""Multinomial sampling and Monte Carlo coverage studies.

A coverage study draws tables from a shift-model population
(:func:`margshift.mcor.scenario_table`), computes each table's interval by
:mod:`margshift.inference`'s one delta-method rule, the same one
:func:`~margshift.inference.wald_ci` uses, and reports the fraction of
intervals containing the true phi.  Replicates are independent units of
work: replicate k draws from the generator ``default_rng`` builds from the
k-th child spawned by ``SeedSequence(seed)``, seeded from the child's words,
and the aggregation (hit counts, width totals) is order-insensitive, so
results are reproducible for a fixed seed regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMassError
from .inference import _MAX_REPLICATES, _delta, _refused, _resample, _wald_bounds, _wald_level
from .mcor import McorScenario, phi_of_delta, scenario_table
from .tables import _MAX_COUNT, CountTable, ProbTable, _integer, _record

__all__ = [
    "sample_table",
    "CoverageStudySpec",
    "CoverageResult",
    "coverage_study",
]


def sample_table(prob: ProbTable, n: int, seed) -> CountTable:
    """One multinomial draw of size n over the r^2 cells.

    Parameters
    ----------
    prob : ProbTable
    n : int
        Sample size, >= 1.
    seed : int, SeedSequence or Generator
        A nonnegative integer or a SeedSequence seeds a new generator; a
        Generator is drawn from as it is.  A fixed seed gives a fixed table.
    """
    if not isinstance(prob, ProbTable):
        prob = ProbTable(prob)
    # numpy's multinomial takes n as an int64, and n becomes the drawn table's total
    n = _integer(n, "sample size", 1, _MAX_COUNT)
    if not isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        seed = _integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)  # returns a Generator as it is
    counts = rng.multinomial(n, prob.p.ravel()).reshape(prob.r, prob.r)
    return CountTable(counts)


@dataclass(frozen=True)
class CoverageStudySpec:
    """Settings for one coverage study."""

    scenario: McorScenario
    n: int
    replicates: int
    level: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        _record(self.scenario, McorScenario, "scenario")
        object.__setattr__(
            self, "replicates", _integer(self.replicates, "replicates", 100, _MAX_REPLICATES)
        )
        object.__setattr__(self, "n", _integer(self.n, "sample size", 10, _MAX_COUNT))
        object.__setattr__(self, "level", _wald_level(self.level))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of a coverage study.

    ``coverage`` is hits / (replicates - degenerate_count): replicates
    whose interval is undefined are counted and reported, never silently
    dropped, but they cannot enter the denominator.  ``mcse`` is the
    binomial Monte Carlo standard error sqrt(c (1-c) / B_effective).
    """

    delta: float
    n: int
    replicates: int
    level: float
    seed: int
    true_value: float
    coverage: float
    mean_width: float
    degenerate_count: int
    mcse: float

    def as_dict(self) -> dict:
        """Stable field ordering for JSON and CSV emission."""
        return {
            "delta": self.delta,
            "n": self.n,
            "replicates": self.replicates,
            "level": self.level,
            "seed": self.seed,
            "true_phi": self.true_value,
            "coverage": self.coverage,
            "mean_width": self.mean_width,
            "degenerate_count": self.degenerate_count,
            "mcse": self.mcse,
        }


def coverage_study(spec: CoverageStudySpec) -> CoverageResult:
    """Empirical coverage of the delta-method interval under a scenario.

    The truth is the scenario's closed-form phi; each replicate samples a
    table from the scenario population and asks whether its interval
    contains the truth.  Replicates are drawn and evaluated by the
    bootstrap's sampler (``inference._resample``) in chunks of at most 2^16
    cells and at most 1024 tables, so the working memory is set by the
    chunk, not by the replicate count.  Each replicate's generator is seeded
    from its child's words, derived a block at a time, so the stream is the
    same as one spawned generator per replicate.
    """
    spec = _record(spec, CoverageStudySpec, "spec")
    truth = scenario_table(spec.scenario)
    true_value = phi_of_delta(spec.scenario.delta)

    hits = 0
    degenerate = 0
    widths = []
    for counts in _resample(truth.p, spec.n, spec.replicates, spec.seed):
        estimate, se, _, terms = _delta(counts, "phi", None)
        ok = ~_refused(terms, "phi")  # includes every NaN estimate
        lower, upper = _wald_bounds(estimate[ok], se[ok], spec.level)
        degenerate += int(np.count_nonzero(~ok))
        hits += int(np.count_nonzero((lower <= true_value) & (true_value <= upper)))
        widths.append(upper - lower)

    effective = spec.replicates - degenerate
    if effective == 0:
        raise DegenerateMassError(
            "every replicate was degenerate; the scenario/sample size cannot "
            "support a coverage estimate"
        )
    coverage = hits / effective
    return CoverageResult(
        delta=spec.scenario.delta,
        n=spec.n,
        replicates=spec.replicates,
        level=spec.level,
        seed=spec.seed,
        true_value=true_value,
        coverage=coverage,
        # a running total in replicate order, equal to summing the intervals one by one
        mean_width=float(np.cumsum(np.concatenate(widths))[-1]) / effective,
        degenerate_count=degenerate,
        mcse=math.sqrt(coverage * (1.0 - coverage) / effective),
    )
