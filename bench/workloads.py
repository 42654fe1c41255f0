"""The benchmark's workloads: which margshift CLI commands run on which inputs.

Every command is ``python -m margshift.cli <argv>`` with its report on
stdout (``--json -``).  The workload seed only picks inputs and the
``--seed`` values handed to the program.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

SLEEP_ACTIVE = "data/sleep_active.csv"
SLEEP_PLACEBO = "data/sleep_placebo.csv"
SLEEP_DELTA_REPEAT = 3  # ~0.2 s each, beside two ~3 s bootstraps per pass
INPUT_DIR = "bench/out/inputs"

COVERAGE_DELTAS = (-1.0, 0.0, 1.0)
COVERAGE_NS = (500, 1000)
COVERAGE_REPLICATES = 2000

WIDE_SIZES = (30, 60, 80)
WIDE_CELLS_PER_COUNT = 50  # n = 50 r^2
# one population for every seed: its shape sets the cost of multinomial
# sampling, so the seed only picks the draw
WIDE_SHIFT = 1.0
WIDE_WIDTH = 1.75
WIDE_ATTEMPTS = 100

WORKLOADS = (
    # the paper's r = 4 trial: start-up dominates its three delta-method
    # commands, per-replicate tables/measures overhead its two 10k bootstraps
    "sleep-trial",
    # the README coverage grid: 12,000 Wald intervals at r = 4, the only
    # workload where gradient time and the sampling loop dominate
    "coverage-grid",
    # generated r = 30/60/80 tables: the same layers by cell count instead of
    # call count, where the O(r^4) covariance dominates time and memory
    "wide-tables",
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload."""

    label: str
    argv: tuple[str, ...]
    delta: bool  # its interval comes from the delta method
    replicates: int = 0  # resampling replicates requested
    # runs per timed pass: a command that is mostly interpreter start-up
    # repeats so that its median rests on more samples; traced runs run it once
    repeat: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple[Command, ...]
    tables: dict  # input path -> counts, for the oracle

    def input_digests(self) -> dict:
        return {path: sha256(path) for path in self.tables}


def sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_table(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)


def wide_population(r: int) -> np.ndarray:
    """Near-diagonal cell probabilities whose columns drift WIDE_SHIFT categories up.

    A uniform floor holding 2% of the mass keeps every margin populated.
    """
    i = np.arange(r)[:, None]
    j = np.arange(r)[None, :]
    band = np.exp(-0.5 * ((j - i - WIDE_SHIFT) / WIDE_WIDTH) ** 2)
    p = band / band.sum()
    return 0.98 * p + 0.02 / (r * r)


def wide_tables(seed: int) -> dict:
    """r -> count table with n = 50 r^2, drawn with generator ``seed``.

    Draws where the delta method is undefined are rejected and redrawn.
    """
    rng = np.random.default_rng(seed)
    tables = {}
    for r in WIDE_SIZES:
        p = wide_population(r).ravel()
        for _ in range(WIDE_ATTEMPTS):
            counts = rng.multinomial(WIDE_CELLS_PER_COUNT * r * r, p).reshape(r, r)
            if oracle.delta_method_defined(counts):
                tables[r] = counts
                break
        else:
            raise RuntimeError(f"no valid r = {r} table in {WIDE_ATTEMPTS} draws")
    return tables


def write_table(counts: np.ndarray, path: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, counts, fmt="%d", delimiter=",")


def _estimate(label, table, *extra, replicates=0, seed=None, repeat=1):
    argv = ["estimate", table, *extra]
    if replicates:
        argv += ["--ci", "bootstrap", "--replicates", str(replicates), "--seed", str(seed)]
    return Command(label, (*argv, "--json", "-"), not replicates, replicates, repeat)


def _compare(label, table_a, table_b, repeat=1):
    return Command(label, ("compare", table_a, table_b, "--json", "-"), True, 0, repeat)


def build(name: str, seed: int) -> Workload:
    """Make the workload's inputs from ``seed`` and list its commands."""
    if name == "sleep-trial":
        commands = (
            _estimate("estimate-phi", SLEEP_ACTIVE, repeat=SLEEP_DELTA_REPEAT),
            _estimate(
                "estimate-psi1", SLEEP_ACTIVE, "--measure", "psi:1", repeat=SLEEP_DELTA_REPEAT
            ),
            _compare("compare", SLEEP_ACTIVE, SLEEP_PLACEBO, repeat=SLEEP_DELTA_REPEAT),
            _estimate("bootstrap-phi", SLEEP_ACTIVE, replicates=10000, seed=seed),
            _estimate(
                "bootstrap-psi1", SLEEP_ACTIVE, "--measure", "psi:1", replicates=10000, seed=seed
            ),
        )
        paths = (SLEEP_ACTIVE, SLEEP_PLACEBO)
        tables = {path: read_table(path) for path in paths}
    elif name == "coverage-grid":
        argv = (
            "simulate",
            "--delta=" + ",".join(f"{d:g}" for d in COVERAGE_DELTAS),
            "--n", ",".join(str(n) for n in COVERAGE_NS),
            "--replicates", str(COVERAGE_REPLICATES),
            "--seed", str(seed),
            "--json", "-",
        )
        replicates = COVERAGE_REPLICATES * len(COVERAGE_DELTAS) * len(COVERAGE_NS)
        # every replicate is a Wald (delta-method) interval
        commands = (Command("simulate", argv, delta=True, replicates=replicates),)
        tables = {}
    elif name == "wide-tables":
        tables = {}
        paths = {}
        for r, counts in wide_tables(seed).items():
            paths[r] = f"{INPUT_DIR}/wide_r{r}.csv"
            write_table(counts, paths[r])
            tables[paths[r]] = counts
        commands = (
            _estimate("estimate-phi-r80", paths[80]),
            _estimate("estimate-psi1-r80", paths[80], "--measure", "psi:1"),
            _compare("compare-r60-r30", paths[60], paths[30]),
            _estimate("bootstrap-phi-r60", paths[60], replicates=1000, seed=seed),
        )
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name, seed, commands, tables)
