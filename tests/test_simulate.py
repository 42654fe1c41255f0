"""Multinomial sampling and coverage studies."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from margshift import (
    CoverageStudySpec,
    DomainError,
    McorScenario,
    ProbTable,
    coverage_study,
    sample_table,
    scenario_table,
)


def spec(delta=0.0, base=(0.4, 0.5), n=200, replicates=200, level=0.95, seed=0):
    return CoverageStudySpec(
        scenario=McorScenario(base_haz_x=np.array(base), delta=delta),
        n=n,
        replicates=replicates,
        level=level,
        seed=seed,
    )


class TestSampleTable:
    def test_single_draw(self):
        t = sample_table(ProbTable(np.full((2, 2), 0.25)), 1, seed=0)
        assert t.n == 1
        assert np.count_nonzero(t.counts) == 1

    def test_deterministic(self):
        p = ProbTable([[0.1, 0.2], [0.3, 0.4]])
        assert sample_table(p, 50, seed=123) == sample_table(p, 50, seed=123)

    def test_concentration_at_large_n(self):
        n = 1_000_000
        t = sample_table(ProbTable(np.full((2, 2), 0.25)), n, seed=9)
        sd = math.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(t.counts - n / 4) <= 5 * sd)

    def test_array_like_table_is_wrapped(self):
        p = [[0.1, 0.2], [0.3, 0.4]]
        assert sample_table(p, 50, seed=123) == sample_table(ProbTable(p), 50, seed=123)

    def test_sample_size_floor(self):
        with pytest.raises(DomainError):
            sample_table(ProbTable(np.full((2, 2), 0.25)), 0, seed=0)

    def test_sample_size_ceiling(self):
        # numpy's multinomial takes an int64 sample size
        p = ProbTable(np.full((2, 2), 0.25))
        assert sample_table(p, 2**63 - 1, seed=0).n == 2**63 - 1
        with pytest.raises(DomainError, match="2\\^63 - 1"):
            sample_table(p, 2**63, seed=0)


class TestCoverageStudySpec:
    def test_invariants(self):
        with pytest.raises(DomainError):
            spec(replicates=0)
        with pytest.raises(DomainError):
            spec(replicates=99)
        with pytest.raises(DomainError):
            spec(n=9)
        with pytest.raises(DomainError):
            spec(n=10**20)
        with pytest.raises(DomainError):
            spec(level=1.0)
        with pytest.raises(DomainError):
            spec(seed=-1)


class TestCoverageStudy:
    def test_deterministic(self):
        a = coverage_study(spec(seed=21))
        b = coverage_study(spec(seed=21))
        assert a == b

    def test_result_structure(self):
        res = coverage_study(spec(delta=0.5, n=300, replicates=200, seed=3))
        assert 0.0 <= res.coverage <= 1.0
        assert res.mean_width > 0.0
        assert res.degenerate_count >= 0
        effective = res.replicates - res.degenerate_count
        assert res.mcse == pytest.approx(
            math.sqrt(res.coverage * (1.0 - res.coverage) / effective), rel=1e-12
        )
        from margshift import phi_of_delta

        assert res.true_value == phi_of_delta(0.5)

    def test_moderate_scenario_covers_near_nominal(self):
        res = coverage_study(spec(delta=0.0, base=(0.4, 0.5), n=500, replicates=500, seed=7))
        # binomial noise at B=500 is about 0.01; keep a generous band here,
        # the tight acceptance band runs at B=2000
        assert 0.90 <= res.coverage <= 0.99

    def test_width_shrinks_like_root_n(self):
        base = dict(delta=0.5, base=(0.3, 0.4, 0.5), replicates=5000, seed=11)
        w_n = coverage_study(spec(n=400, **base)).mean_width
        w_2n = coverage_study(spec(n=800, **base)).mean_width
        assert w_2n / w_n == pytest.approx(1.0 / math.sqrt(2.0), rel=0.05)

    def test_a_cell_of_the_committed_boundary_map_reruns_exactly(self):
        # data/coverage_boundary.csv is the output of `margshift simulate
        # --base-hazard 0.3,0.4,0.5 --delta 1,2,3 --n 200,1000,5000 --replicates 20000
        # --seed 1`; delta = 3, n = 1000 is its eighth study, seeded 1 + 7, where
        # the interval covers 0.57.  The row is compared as written, not bounded
        path = Path(__file__).resolve().parents[1] / "data" / "coverage_boundary.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        res = coverage_study(
            spec(delta=3.0, base=(0.3, 0.4, 0.5), n=1000, replicates=20_000, seed=8)
        )
        assert rows[0] == list(res.as_dict())
        assert rows[8] == [str(v) for v in res.as_dict().values()]

    def test_degenerate_replicates_are_counted_not_hidden(self):
        # tiny samples on a sparse-margin scenario produce some replicates
        # with undefined intervals; they must show up in the count
        res = coverage_study(
            spec(delta=0.0, base=(0.05, 0.05), n=10, replicates=400, seed=2)
        )
        assert res.degenerate_count > 0
        effective = res.replicates - res.degenerate_count
        assert 0 <= round(res.coverage * effective) <= effective
