"""Multinomial sampling and Monte Carlo coverage studies.

A coverage study draws tables from a shift-model population
(:func:`margshift.mcor.scenario_table`), computes a delta-method interval
per table, and reports the fraction of intervals containing the true phi.
Replicates are independent units of work: replicate k draws from the
generator ``default_rng`` builds from the k-th child spawned by
``SeedSequence(seed)``, and the aggregation (hit counts, width totals) is
order-insensitive, so results are reproducible for a fixed seed regardless
of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMassError, DomainError
from .inference import _MAX_REPLICATES, _delta, _refused, _resample, z_quantile
from .mcor import McorScenario, phi_of_delta, scenario_table
from .tables import CountTable, ProbTable

__all__ = [
    "sample_table",
    "CoverageStudySpec",
    "CoverageResult",
    "coverage_study",
]

# numpy's multinomial takes the sample size as an int64
_MAX_SAMPLE_SIZE = 2**63 - 1


def _check_sample_size(n: int, floor: int) -> int:
    n = int(n)
    if not floor <= n <= _MAX_SAMPLE_SIZE:
        raise DomainError(f"sample size must lie in [{floor}, 2^63 - 1], got {n}")
    return n


def sample_table(prob: ProbTable, n: int, seed) -> CountTable:
    """One multinomial draw of size n over the r^2 cells.

    Parameters
    ----------
    prob : ProbTable
    n : int
        Sample size, >= 1.
    seed : int, SeedSequence or Generator
        Anything :func:`numpy.random.default_rng` accepts; a fixed seed
        gives a fixed table.
    """
    if not isinstance(prob, ProbTable):
        prob = ProbTable(prob)
    n = _check_sample_size(n, 1)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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
        if not isinstance(self.scenario, McorScenario):
            raise DomainError("scenario must be an McorScenario")
        if not 100 <= int(self.replicates) <= _MAX_REPLICATES:
            raise DomainError(f"replicates must lie in [100, 2^32], got {self.replicates}")
        object.__setattr__(self, "n", _check_sample_size(self.n, 10))
        if not (0.0 < float(self.level) < 1.0):
            raise DomainError(f"level must lie in (0, 1), got {self.level!r}")
        if int(self.seed) < 0:
            raise DomainError("seed must be a nonnegative integer")
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "level", float(self.level))
        object.__setattr__(self, "seed", int(self.seed))


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
    chunk, not by the replicate count.  One generator is set to each
    replicate's state, derived from ``SeedSequence(seed)`` a block at a
    time, so the stream is the same as one spawned generator per replicate.
    """
    if not isinstance(spec, CoverageStudySpec):
        raise DomainError("spec must be a CoverageStudySpec")
    truth = scenario_table(spec.scenario)
    true_value = phi_of_delta(spec.scenario.delta)

    z = z_quantile(1.0 - (1.0 - spec.level) / 2.0)
    hits = 0
    degenerate = 0
    widths = []
    for counts in _resample(truth.p, spec.n, spec.replicates, spec.seed):
        estimate, se, _, terms = _delta(counts, "phi", None)
        ok = ~_refused(terms, "phi")  # includes every NaN estimate
        lower = estimate[ok] - z * se[ok]
        upper = estimate[ok] + z * se[ok]
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
