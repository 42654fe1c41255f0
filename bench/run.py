#!/usr/bin/env python3
"""margshift benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a margshift source checkout.  A closed loop with one
client: the workload's ``python -m margshift.cli`` commands run one after
another as subprocesses (``PYTHONPATH=src``, BLAS/OpenMP threads pinned to
1), pass after pass, for about ``--seconds``.  With ``--trace 1`` the same
commands run in this process instead, once untraced and once under the
tracer, and the per-layer figures are reported.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (samples, context, problems) go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before numpy loads, here and in every child

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path("bench/out")

MIN_PASSES = 2  # byte-identical reruns need a second report
SETUP_SAMPLES_PER_PASS = 2
DEADLINE_S = 150  # children still running then are killed; the run must end within 180 s
SETUP_CODE = "import margshift.cli"


@dataclass
class Tally:
    """Commands attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list, detail: str = "") -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"command": label, "problems": problems[:5], "stderr": detail})


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    wall_s: float
    max_rss_mb: float


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **THREAD_PINS, "PYTHONPATH": "src" + (os.pathsep + path if path else "")}


def spawn(argv: list, env: dict, stderr_path: Path, timeout: float) -> ChildResult:
    """Run one child; wall time from process start to exit, RSS from its own rusage.

    ``os.wait4`` gives the child's own peak RSS; ``RUSAGE_CHILDREN`` would
    be the high-water mark over every child reaped so far.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out, wall, usage.ru_maxrss / 1024.0)


def tail(values: list):
    """(percentile, value): the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def describe(name: str, values: list, unit: str) -> str:
    found = tail(values)
    spread = f"p{found[0]} {found[1]:.6g}" if found else "no percentile has 10 samples beyond it"
    return f"  {name:<18} median {statistics.median(values):.6g} {unit}, {spread}, n={len(values)}"


# ---------------------------------------------------------------------------
# end to end: subprocesses, tracing off
# ---------------------------------------------------------------------------


def timed_run(workload, checker, seconds: float, tally: Tally):
    env = child_env()
    stderr_path = OUT_DIR / "child.stderr"
    setup, rss = [], []
    commands = workload.commands
    walls = {c.label: [] for c in commands}
    passes = 0
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    while True:
        pass_start = time.perf_counter()
        for _ in range(SETUP_SAMPLES_PER_PASS):
            argv = [sys.executable, "-c", SETUP_CODE]
            res = spawn(argv, env, stderr_path, deadline - time.perf_counter())
            if res.returncode != 0:
                raise RuntimeError(f"`{SETUP_CODE}` failed: {stderr_path.read_text()[-500:]}")
            setup.append(res.wall_s)
        for command in commands:
            argv = [sys.executable, "-m", "margshift.cli", *command.argv]
            for _ in range(command.repeat):
                res = spawn(argv, env, stderr_path, deadline - time.perf_counter())
                problems = checker.check(command, res.returncode, res.stdout)
                stderr = stderr_path.read_text()[-500:] if problems else ""
                tally.record(command.label, problems, stderr)
                walls[command.label].append(res.wall_s)
                rss.append(res.max_rss_mb)
        passes += 1
        now = time.perf_counter()
        out_of_time = now - start + (now - pass_start) > seconds
        if now > deadline or passes >= MIN_PASSES and out_of_time:
            break

    # a sum of per-command medians: each command's slow outliers (page
    # faults on large arrays come in bursts) are dropped independently
    medians = {label: statistics.median(samples) for label, samples in walls.items()}
    delta = [c for c in commands if c.delta]
    resampling = [c for c in commands if c.replicates]
    replicates = sum(c.replicates for c in resampling)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(medians.values()),
        "delta_s": sum(medians[c.label] for c in delta),
        "replicates_per_s": replicates / sum(medians[c.label] for c in resampling),
        "peak_rss_mb": max(rss),
    }
    units = {"replicates_per_s": "1/s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": v, "unit": units.get(name, "s")} for name, v in values.items()}

    lines = [
        describe("setup_s", setup, "s"),
        f"  {'wall_s':<18} {values['wall_s']:.6g} s, sum of the per-command medians below",
        f"  {'delta_s':<18} {values['delta_s']:.6g} s, the same over "
        + ", ".join(c.label for c in delta),
        f"  {'replicates_per_s':<18} {values['replicates_per_s']:.6g} 1/s, {replicates} "
        "replicates / the same over " + ", ".join(c.label for c in resampling),
        f"  {'peak_rss_mb':<18} {values['peak_rss_mb']:.6g} MB, max over {len(rss)} children",
        f"  {'failed_frac':<18} {tally.failed}/{tally.attempted} commands",
        f"  per-command wall time over {passes} passes:",
    ]
    lines += [describe(label, samples, "s") for label, samples in walls.items()]
    record = {"passes": passes, "wall_s": walls, "setup_s": setup, "child_max_rss_mb": rss}
    return metrics, lines, record


# ---------------------------------------------------------------------------
# per layer: in process, untraced and traced
# ---------------------------------------------------------------------------


def run_in_process(cli_main, workload, checker, tally: Tally) -> float:
    """Run the workload's commands in this process; returns their summed wall time."""
    wall = 0.0
    for command in workload.commands:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(command.argv))
        wall += time.perf_counter() - start
        problems = checker.check(command, code, out.getvalue().encode())
        tally.record(command.label, problems, err.getvalue()[-500:] if problems else "")
    return wall


def traced_run(workload, checker, seconds: float, tally: Tally):
    sys.path.insert(0, str(ROOT / "src"))
    from margshift.cli import main as cli_main

    import tracer as tracing

    tracer = tracing.Tracer()
    untraced, traced, layers = [], [], []
    peaks = None
    start = time.perf_counter()
    # one untimed command first: the process's first large allocation and
    # lazy imports would otherwise land on whichever pass runs first
    warm_up = dataclasses.replace(workload, commands=workload.commands[:1])
    run_in_process(cli_main, warm_up, checker, tally)
    while True:
        pair_start = time.perf_counter()
        # alternate which side of a pair runs first, so warm-up favours neither
        for with_tracing in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not with_tracing:
                untraced.append(run_in_process(cli_main, workload, checker, tally))
                continue
            tracer.reset()
            with tracer.installed():
                traced.append(run_in_process(cli_main, workload, checker, tally))
            layers.append(tracer.layer_times())
        if peaks is None:
            peaks = tracer.replay_peaks()
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    counters = tracer.counters
    tracer.write_spans(OUT_DIR / f"spans-{workload.name}-s{workload.seed}.csv")

    metrics = {}
    for stage in tracer.stage_names:
        metrics[f"{stage}.calls"] = {"value": layers[-1][stage][0], "unit": "count"}
        metrics[f"{stage}.self_s"] = {
            "value": statistics.median(sample[stage][1] for sample in layers),
            "unit": "s",
        }
    covered = [sum(s for _, s in sample.values()) / wall for sample, wall in zip(layers, traced)]
    extra = {
        "inference.covariance.bytes_computed": (
            counters["inference.covariance.bytes_computed"], "B"),
        "inference.wald_ci.peak_mb": (peaks["inference.wald_ci"], "MB"),
        "inference.bootstrap_ci.peak_mb": (peaks["inference.bootstrap_ci"], "MB"),
        "inference.bootstrap_ci.kept_ratio": (
            _ratio(counters["bootstrap.kept"], counters["bootstrap.requested"]), "ratio"),
        "simulate.coverage_study.effective_ratio": (
            _ratio(counters["coverage.effective"], counters["coverage.requested"]), "ratio"),
        "trace.wall_s": (statistics.median(traced), "s"),
        "trace.untraced_wall_s": (statistics.median(untraced), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
        "trace.covered_frac": (statistics.median(covered), "ratio"),
    }
    metrics.update({name: {"value": v, "unit": u} for name, (v, u) in extra.items()})

    lines = [f"  {'stage':<26} {'calls':>9} {'self_s':>10} {'share':>7}"]
    wall = statistics.median(traced)
    for stage in tracer.stage_names:
        calls, self_s = metrics[f"{stage}.calls"]["value"], metrics[f"{stage}.self_s"]["value"]
        lines.append(f"  {stage:<26} {calls:>9d} {self_s:>10.4f} {self_s / wall:>7.1%}")
    lines += [f"  {name:<40} {value:.6g} {unit}" for name, (value, unit) in extra.items()]
    record = {"traced_s": traced, "untraced_s": untraced, "layers": layers}
    return metrics, lines, record


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD's commit from the checkout's own ``.git``, if it has one."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_context() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line for line in fh if line.startswith("model name"))
        cpu = model.split(":", 1)[1].strip()
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": THREAD_PINS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": git_sha(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    os.chdir(ROOT)
    args = parse_args(argv)
    missing = ", ".join(
        p for p in ("src/margshift/cli.py", workloads.SLEEP_ACTIVE) if not Path(p).is_file()
    )
    if missing:
        print(f"error: not a margshift source checkout (missing {missing})", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed)
    checker = checks.Checker(workload, checks.load_reference(workload))
    context = run_context()
    digests = workload.input_digests()

    print(f"margshift benchmark: workload={workload.name} seed={workload.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("context: " + ", ".join(f"{k}={v}" for k, v in context.items()))
    for path, digest in digests.items():
        print(f"input: {path} sha256={digest}")

    tally = Tally()
    run = traced_run if args.trace else timed_run
    metrics, lines, record = run(workload, checker, args.seconds, tally)
    print("per-layer metrics (traced run):" if args.trace else "end-to-end metrics (tracing off):")
    print("\n".join(lines))
    for problem in tally.problems:
        print(f"FAILED {problem['command']}: {'; '.join(problem['problems'])}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    details = {**result, "workload": workload.name, "seed": workload.seed, "context": context,
               "inputs": digests, "problems": tally.problems, "samples": record}
    out = OUT_DIR / f"run-{workload.name}-s{workload.seed}-t{args.trace}.json"
    out.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
