"""Output checks: a command whose report fails any of them counts as failed.

1. The report validates against the package's shipped JSON schema.
2. Estimates match the independent oracle to 1e-12, and interval
   arithmetic (Wald half-width, group difference) holds.
3. At the default seed, every number in the recorded reference report is
   reproduced: 1e-9 relative for floats, exact for integers and booleans.
4. Every later report of a command is byte-identical to its first one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import NormalDist

import jsonschema

import oracle
import workloads

SCHEMA_PATH = "src/margshift/schemas/run_report.schema.json"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0

ORACLE_TOL = 1e-12
REFERENCE_RTOL = 1e-9


def _close(a, b, tol=ORACLE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: workloads.Workload) -> dict | None:
    """The recorded reference reports, which apply at the default seed only."""
    if workload.seed != DEFAULT_SEED:
        return None
    return json.loads(reference_path(workload.name).read_text(encoding="utf-8"))


def compare_numbers(reference, actual, where="report") -> list:
    """Every numeric leaf of ``reference`` must appear unchanged in ``actual``.

    Strings and fields the reference lacks are ignored, so a report may grow
    new fields without failing; a changed or missing number fails.
    """
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object"]
        return [
            problem
            for key, value in reference.items()
            for problem in compare_numbers(value, actual.get(key), f"{where}.{key}")
        ]
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return [f"{where}: expected a list of {len(reference)}"]
        return [
            problem
            for k, (ref, act) in enumerate(zip(reference, actual))
            for problem in compare_numbers(ref, act, f"{where}[{k}]")
        ]
    if isinstance(reference, int):  # bool included; type() keeps them apart
        if type(actual) is not type(reference) or actual != reference:
            return [f"{where}: {actual!r} != reference {reference!r}"]
        return []
    if isinstance(reference, float):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            return [f"{where}: {actual!r} is not a number"]
        if abs(actual - reference) > REFERENCE_RTOL * abs(reference):
            return [f"{where}: {actual!r} != reference {reference!r}"]
    return []


class Checker:
    """Checks the reports of one workload run and remembers the first of each."""

    def __init__(self, workload: workloads.Workload, reference: dict | None = None):
        schema = json.loads(Path(SCHEMA_PATH).read_text(encoding="utf-8"))
        self._validator = jsonschema.Draft202012Validator(schema)
        self._workload = workload
        self._digests = workload.input_digests()
        self._reference = reference
        self.first = {}  # label -> first report that passed every check

    def check(self, command: workloads.Command, returncode: int, output: bytes) -> list:
        """Problems with one command's result; empty when it passed."""
        if returncode != 0:
            return [f"exit code {returncode}"]
        first = self.first.get(command.label)
        if first is not None:
            return [] if output == first else ["report differs from an earlier run"]
        try:
            report = json.loads(output)
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"]
        problems = [f"schema: {err.message}" for err in self._validator.iter_errors(report)]
        if problems:
            return problems
        problems += self._check_inputs(report)
        problems += self._check_results(command, report)
        if self._reference is not None:
            problems += compare_numbers(self._reference[command.label], report, command.label)
        if not problems:
            self.first[command.label] = output
        return problems

    def _check_inputs(self, report) -> list:
        return [
            f"input {item['path']}: sha256 {item['sha256']} != {self._digests.get(item['path'])}"
            for item in report["inputs"]
            if self._digests.get(item["path"]) != item["sha256"]
        ]

    def _check_results(self, command, report) -> list:
        results = report["results"]
        kind = report["command"]
        if kind == "estimate":
            wald = results["ci"]["method"] == "delta"
            return self._check_estimate(results, command.argv[1], wald)
        if kind == "compare":
            problems = self._check_estimate(results["group_a"], command.argv[1], True)
            problems += self._check_estimate(results["group_b"], command.argv[2], True)
            a, b, diff = results["group_a"], results["group_b"], results["difference"]
            if not _close(diff["estimate"], a["estimate"] - b["estimate"]):
                problems.append(f"difference {diff['estimate']!r} != a - b")
            if not _close(diff["se"], math.hypot(a["se"], b["se"])):
                problems.append(f"difference se {diff['se']!r} != hypot(se_a, se_b)")
            problems += _check_wald(diff["estimate"], diff["se"], diff["ci"])
            return problems
        if kind == "simulate":
            return self._check_simulate(results)
        return [f"unexpected command {kind!r}"]

    def _check_estimate(self, results, path, wald: bool) -> list:
        counts = self._workload.tables[path]
        problems = []
        if results["n"] != int(counts.sum()):
            problems.append(f"n {results['n']} != {int(counts.sum())}")
        if results["measure"] == "phi":
            expected = oracle.phi(counts)
        else:
            expected = oracle.psi(counts, results["lambda"])
        if not _close(results["estimate"], expected):
            problems.append(f"{results['measure']} {results['estimate']!r} != oracle {expected!r}")
        ci = results["ci"]
        if wald:
            problems += _check_wald(results["estimate"], results["se"], ci)
        elif not ci["lower"] <= ci["upper"]:
            problems.append("bootstrap interval is inverted")
        return problems

    def _check_simulate(self, results) -> list:
        studies = results["studies"]
        grid = [(d, n) for d in workloads.COVERAGE_DELTAS for n in workloads.COVERAGE_NS]
        if [(s["delta"], s["n"]) for s in studies] != grid:
            return ["studies do not cover the requested delta x n grid in order"]
        problems = []
        for index, study in enumerate(studies):
            where = f"study delta={study['delta']:g} n={study['n']}"
            truth = oracle.phi_of_delta(study["delta"])
            if not _close(study["true_phi"], truth):
                problems.append(f"{where}: true phi {study['true_phi']!r} != oracle {truth!r}")
            if study["seed"] != self._workload.seed + index:
                problems.append(f"{where}: seed {study['seed']}")
            effective = study["replicates"] - study["degenerate_count"]
            if study["replicates"] != workloads.COVERAGE_REPLICATES or not 0 < effective:
                problems.append(f"{where}: replicate counts are inconsistent")
                continue
            c = study["coverage"]
            mcse = math.sqrt(c * (1 - c) / effective)
            if not 0.0 <= c <= 1.0 or not _close(study["mcse"], mcse):
                problems.append(f"{where}: coverage {c!r} / mcse {study['mcse']!r} inconsistent")
        return problems


def _check_wald(estimate, se, ci) -> list:
    """A Wald interval is estimate -+ z se with z the normal quantile."""
    z = NormalDist().inv_cdf(0.5 + ci["level"] / 2.0)
    if _close(ci["lower"], estimate - z * se) and _close(ci["upper"], estimate + z * se):
        return []
    return [f"interval [{ci['lower']!r}, {ci['upper']!r}] != {estimate!r} -+ z * {se!r}"]
