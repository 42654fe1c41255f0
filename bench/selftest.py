"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest bench/selftest.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import margshift  # noqa: E402
from margshift.cli import main as cli_main  # noqa: E402

SEED = 7  # not the default seed, so no reference report applies


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def cli_report(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(list(argv)) == 0
    return out.getvalue().encode()


def test_wide_tables_are_deterministic_per_seed():
    first, again = workloads.wide_tables(SEED), workloads.wide_tables(SEED)
    other = workloads.wide_tables(SEED + 1)
    assert sorted(first) == list(workloads.WIDE_SIZES)
    for r, counts in first.items():
        assert np.array_equal(counts, again[r])
        assert not np.array_equal(counts, other[r])
        assert counts.shape == (r, r) and counts.sum() == workloads.WIDE_CELLS_PER_COUNT * r * r
        assert oracle.delta_method_defined(counts)


@pytest.mark.parametrize(
    "counts",
    [
        [[5, 0, 0], [0, 0, 0], [0, 0, 0]],  # survivals exhausted after the first category
        [[0, 0, 0], [0, 4, 3], [0, 2, 6]],  # W1 = W2 = 0 at the first index
        [[0, 0, 3], [0, 0, 4], [0, 0, 5]],  # phi = +1: every W2 vanishes
    ],
)
def test_gate_rejects_tables_without_a_delta_method_interval(counts):
    assert not oracle.delta_method_defined(np.array(counts))


def test_oracle_matches_the_published_sleep_figures():
    active = workloads.read_table(workloads.SLEEP_ACTIVE)
    assert oracle.phi(active) == pytest.approx(-0.6546, abs=1e-4)
    assert oracle.psi(active, 1.0) == pytest.approx(0.368, abs=1e-3)


def test_perturbed_or_changed_report_counts_as_failed():
    workload = workloads.build("sleep-trial", SEED)
    command = workload.commands[0]
    good = cli_report(command.argv)
    report = json.loads(good)
    report["results"]["estimate"] += 1e-9
    bad = (json.dumps(report, indent=2) + "\n").encode()

    tally = run.Tally()
    tally.record(command.label, checks.Checker(workload).check(command, 0, bad))
    checker = checks.Checker(workload)
    tally.record(command.label, checker.check(command, 0, good))
    tally.record(command.label, checker.check(command, 0, good))
    tally.record(command.label, checker.check(command, 0, bad))
    tally.record(command.label, checker.check(command, 1, good))
    assert (tally.attempted, tally.failed) == (5, 3)
    assert "oracle" in tally.problems[0]["problems"][0]
    assert "differs" in tally.problems[1]["problems"][0]


def test_reference_comparison_is_exact_for_integers_and_ignores_new_fields():
    reference = {"n": 120, "se": 0.25, "flag": True, "ci": {"lower": -1.5}}
    assert checks.compare_numbers(reference, {**reference, "extra": 1.0}) == []
    assert checks.compare_numbers(reference, {**reference, "se": 0.25 * (1 + 1e-12)}) == []
    assert checks.compare_numbers(reference, {**reference, "se": 0.25 * (1 + 1e-8)})
    assert checks.compare_numbers(reference, {**reference, "n": 121})
    assert checks.compare_numbers(reference, {**reference, "flag": 1})
    assert checks.compare_numbers(reference, {"n": 120, "se": 0.25, "flag": True, "ci": {}})


def small_workload():
    sleep = workloads.build("sleep-trial", SEED)
    commands = sleep.commands[:3] + (
        workloads.Command(
            "bootstrap-small",
            ("estimate", workloads.SLEEP_ACTIVE, "--ci", "bootstrap", "--replicates", "200")
            + ("--json", "-"),
            delta=False,
            replicates=200,
        ),
        workloads.Command(
            "simulate-small",
            ("simulate", "--delta=0", "--n", "200", "--replicates", "100", "--json", "-"),
            delta=True,
            replicates=100,
        ),
    )
    return commands


def test_self_times_never_exceed_the_traced_wall():
    tracer = tracing.Tracer()
    with tracer.installed():
        start = run.time.perf_counter()
        for command in small_workload():
            cli_report(command.argv)
        wall = run.time.perf_counter() - start
    layers = tracer.layer_times()
    assert all(self_s >= 0.0 for _, self_s in layers.values())
    assert sum(self_s for _, self_s in layers.values()) <= wall
    calls = {stage: n for stage, (n, _) in layers.items()}
    assert calls["cli.parse"] == 5 and calls["inference.bootstrap_ci"] == 1
    # the bootstrap's own resampled tables, validated and estimated once each
    assert calls["measures.phi"] >= 200 and calls["simulate.sample_table"] == 100
    assert tracer.counters["bootstrap.requested"] == 200
    assert tracer.counters["coverage.requested"] == 100
    # one r = 4 covariance per delta-method interval: 1 + 1 + 2, plus the simulated ones
    walds = 4 + tracer.counters["coverage.effective"]
    assert tracer.counters["inference.covariance.bytes_computed"] == 3 * 8 * 16**2 * walds


def wrapped_attributes():
    return [
        (name, attr)
        for name, module in list(sys.modules.items())
        if name == "margshift" or name.startswith("margshift.")
        for attr, value in vars(module).items()
        if hasattr(value, "traced_stage")
    ] + [
        ("CountTable", attr)
        for attr, value in vars(margshift.CountTable).items()
        if hasattr(value, "traced_stage")
    ]


def test_wrappers_reach_every_namespace_and_are_removed_afterwards():
    original = margshift.tables.from_counts
    tracer = tracing.Tracer()
    with tracer.installed():
        for module in (margshift.tables, margshift.inference, margshift.cli, margshift):
            assert module.from_counts.traced_stage == "tables.from_counts"
        assert margshift.cli.parse_table_csv.traced_stage == "cli.parse"
        assert margshift.CountTable.__post_init__.traced_stage == "tables.validate"
        assert wrapped_attributes()
    assert wrapped_attributes() == []
    assert margshift.inference.from_counts is original


def test_wrappers_are_removed_when_the_traced_run_fails():
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("stop")
    assert wrapped_attributes() == []


def test_removed_function_reports_zero_calls():
    stages = tracing.STAGES + (
        ("gone.function", "margshift.tables", "no_such_function"),
        ("gone.method", "margshift.tables", "NoSuchClass.method"),
        ("gone.module", "margshift.no_such_module", "anything"),
    )
    tracer = tracing.Tracer(stages)
    with tracer.installed():
        cli_report(small_workload()[0].argv)
    layers = tracer.layer_times()
    assert layers["gone.function"] == layers["gone.method"] == layers["gone.module"] == (0, 0.0)
    assert layers["measures.phi"][0] == 1


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (9, 0)
    assert run.tail(list(range(100))) == (90, 89)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sleep-trial", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
