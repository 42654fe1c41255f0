"""Command line front end.

Subcommands::

    margshift estimate TABLE.csv [--level 0.95] [--measure phi|psi[:LAM]]
                       [--lambda LAM] [--ci delta|bootstrap]
                       [--replicates B] [--seed S] [--json PATH]
    margshift compare A.csv B.csv [--level 0.95] [--json PATH]
    margshift curve --delta-min MIN --delta-max MAX --step STEP --out CSV
                       [--json PATH]
    margshift simulate [--config FILE] [--delta D[,D...]] [--n N[,N...]]
                       [--base-hazard H,H,...] [--replicates B]
                       [--level 0.95] [--seed S] [--json PATH] [--out CSV]

Input tables are CSV files with r rows of r nonnegative integer cells; a
single header row and/or a leading row-label column are detected by
non-numeric tokens and skipped.  Exit codes: 0 success, 1 input or usage
error, 2 statistical degeneracy (undefined or boundary measure).

Reports are emitted as a single JSON document (``--json``, "-" for stdout)
that validates against ``schemas/run_report.schema.json`` shipped with the
package; every randomized command echoes its seed into the report.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DegenerateMassError,
    DomainError,
    MargshiftError,
    NonDifferentiableError,
    ShapeError,
    TableParseError,
    TooManyDegenerateReplicatesError,
    ZeroTotalError,
)
from .inference import EstimateReport, _plugin_estimate, bootstrap_ci, compare_groups, wald_ci
from .mcor import McorScenario, curve_grid
from .simulate import CoverageStudySpec, coverage_study
from .tables import _MAX_COUNT, CountTable
from .tables import from_counts  # noqa: F401 -- bench/selftest.py traces it here

SCHEMA_VERSION = "1"

ORIENTATION_NOTE = (
    "negative phi: column-variable hazard dominates (mass shifts toward lower "
    "column categories); positive phi: row-variable hazard dominates"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # statistical degeneracy here, so usage errors must become exit 1
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# table file I/O
# ---------------------------------------------------------------------------


def _is_int_token(tok: str) -> bool:
    tok = tok.strip()
    if tok and tok[0] in "+-":
        tok = tok[1:]
    # ASCII digits only: str.isdigit also accepts "²" (which int() refuses)
    # and "٣" or "１" (which int() reads as 3 and 1)
    return tok.isascii() and tok.isdigit()


def parse_table_csv(path: str) -> CountTable:
    """Parse a CSV count table, auto-detecting header and label column.

    Raises :class:`TableParseError` with file/line/column positions on any
    malformed content, and refuses non-square numeric blocks instead of
    guessing what was meant.
    """
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet tools write
        with open(path, newline="", encoding="utf-8-sig") as fh:
            raw = [[cell.strip() for cell in row] for row in csv.reader(fh)]
    except OSError as exc:
        raise TableParseError(f"{path}: {exc.strerror or exc}") from exc
    rows = [row for row in raw if any(cell != "" for cell in row)]
    if not rows:
        raise TableParseError(f"{path}: no data rows")

    # a non-integer first token below row one can only be a row label;
    # row one is then a header only if it is non-integer beyond that column
    has_labels = any(not _is_int_token(row[0]) for row in rows[1:])
    start = 1 if has_labels else 0
    has_header = any(not _is_int_token(c) for c in rows[0][start:])
    body = rows[1:] if has_header else rows
    if not body:
        raise TableParseError(f"{path}: no data rows below the header")
    width = len(body[0]) - start

    data = []
    for i, row in enumerate(body):
        line = i + (2 if has_header else 1)
        if len(row) - start != width:
            raise TableParseError(
                f"{path}:{line}: expected {width} numeric cells, found {len(row) - start}"
            )
        vals = []
        for j, tok in enumerate(row[start:]):
            col = start + j + 1
            if not _is_int_token(tok):
                raise TableParseError(
                    f"{path}:{line}: column {col}: not an integer: {tok!r}"
                )
            value = int(tok)
            if value < 0:
                raise TableParseError(
                    f"{path}:{line}: column {col}: negative count {value}"
                )
            if value > _MAX_COUNT:
                raise TableParseError(
                    f"{path}:{line}: column {col}: count {value} exceeds 2^63 - 1"
                )
            vals.append(value)
        data.append(vals)

    if len(data) != width:
        raise TableParseError(
            f"{path}: numeric block is {len(data)} x {width} after detecting "
            f"header={'yes' if has_header else 'no'}, "
            f"row labels={'yes' if has_labels else 'no'}; "
            "a square table is required and this file is ambiguous"
        )
    try:
        return CountTable(np.array(data, dtype=np.int64))
    except (ShapeError, ZeroTotalError, DomainError) as exc:
        raise TableParseError(f"{path}: {exc}") from exc


def write_table_csv(table: CountTable, path: str) -> None:
    """Write bare counts (no header, no labels); round-trips through the parser."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in table.counts:
            writer.writerow([int(v) for v in row])


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _make_report(command, argv, inputs, seed, results) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "margshift", "version": __version__},
        "command": command,
        "argv": list(argv),
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in inputs],
        "seed": seed,
        "orientation_note": ORIENTATION_NOTE,
        "results": results,
    }


def _ci_dict(ci) -> dict:
    return {
        "lower": ci.lower,
        "upper": ci.upper,
        "level": ci.level,
        "method": ci.method,
        "exceeds_range": ci.exceeds_range,
    }


def _estimate_dict(rep: EstimateReport) -> dict:
    return {
        "measure": rep.measure,
        "lambda": rep.lam,
        "n": rep.n,
        "estimate": rep.ci.estimate,
        "se": rep.ci.se,
        "ci": _ci_dict(rep.ci),
        "gradient_norm": rep.gradient_norm,
        "degenerate_flags": list(rep.degenerate_flags),
    }


def _write_json(report: dict, path: str) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _resolve_measure(args) -> tuple[str, float | None]:
    spec = args.measure
    lam = args.lam
    if spec.startswith("psi:"):
        inline = spec[4:]
        try:
            inline_val = float(inline)
        except ValueError:
            raise _UsageError(f"bad lambda in --measure {spec!r}")
        if lam is not None and lam != inline_val:
            raise _UsageError("--lambda conflicts with the value in --measure")
        return "psi", inline_val
    if spec == "psi":
        if lam is None:
            raise _UsageError("--measure psi needs --lambda (or use --measure psi:<value>)")
        return "psi", lam
    if spec == "phi":
        if lam is not None:
            raise _UsageError("--lambda only applies to --measure psi")
        return "phi", None
    raise _UsageError(f"unknown measure {spec!r}")


def cmd_estimate(args, argv) -> int:
    table = parse_table_csv(args.table)
    measure, lam = _resolve_measure(args)
    if args.ci == "delta":
        seed = None
        try:
            rep = wald_ci(table, args.level, measure, lam)
        except NonDifferentiableError as exc:
            value = _plugin_estimate(table, measure, lam)
            print(f"{measure} = {value:.6f}", file=sys.stderr)
            print(f"delta-method confidence interval refused: {exc}", file=sys.stderr)
            return 2
    else:
        seed = args.seed
        rep = bootstrap_ci(table, args.level, args.replicates, args.seed, measure, lam)

    if args.json != "-":  # keep stdout pure JSON when the report goes there
        print(f"table: {args.table}  (r={table.r}, n={table.n})")
        name = measure if lam is None else f"psi(lambda={lam:g})"
        print(f"measure: {name}")
        print(f"estimate: {rep.ci.estimate:.6f}")
        print(
            f"{100 * rep.ci.level:g}% CI ({rep.ci.method}): "
            f"[{rep.ci.lower:.6f}, {rep.ci.upper:.6f}]   se: {rep.ci.se:.6f}"
        )
        if rep.ci.exceeds_range:
            print("warning: interval endpoints leave the measure's logical range")
        for flag in rep.degenerate_flags:
            print(f"note: {flag}")
        if measure == "phi":  # psi is blind to the direction of the shift
            print(f"note: {ORIENTATION_NOTE}")

    if args.json:
        report = _make_report("estimate", argv, [args.table], seed, _estimate_dict(rep))
        _write_json(report, args.json)
    return 0


def cmd_compare(args, argv) -> int:
    table_a = parse_table_csv(args.table_a)
    table_b = parse_table_csv(args.table_b)
    rep_a = wald_ci(table_a, args.level, "phi")
    rep_b = wald_ci(table_b, args.level, "phi")
    comparison = compare_groups(rep_a, rep_b, args.level)
    diff = comparison.difference

    if args.json != "-":
        for label, path, rep in (("A", args.table_a, rep_a), ("B", args.table_b, rep_b)):
            print(
                f"group {label}: {path}  phi = {rep.ci.estimate:.6f}  "
                f"{100 * rep.ci.level:g}% CI [{rep.ci.lower:.6f}, {rep.ci.upper:.6f}]"
            )
        print(
            f"difference (A - B): {diff.estimate:.6f}  "
            f"{100 * diff.level:g}% CI [{diff.lower:.6f}, {diff.upper:.6f}]   se: {diff.se:.6f}"
        )
        alpha = 1.0 - args.level
        if comparison.zero_width:
            print("warning: both standard errors are zero; the interval is degenerate")
        if comparison.significant:
            print(f"significant at level {alpha:g} (interval excludes 0)")
        else:
            print(f"not significant at level {alpha:g} (interval contains 0)")
        print("assumption: the two tables come from independent samples")
        print(f"note: {ORIENTATION_NOTE}")

    if args.json:
        results = {
            "level": args.level,
            "assumes_independent_samples": True,
            "group_a": {"path": args.table_a, **_estimate_dict(rep_a)},
            "group_b": {"path": args.table_b, **_estimate_dict(rep_b)},
            "difference": {
                "estimate": diff.estimate,
                "se": diff.se,
                "ci": _ci_dict(diff),
            },
            "significant": comparison.significant,
            "zero_width": comparison.zero_width,
        }
        report = _make_report("compare", argv, [args.table_a, args.table_b], None, results)
        _write_json(report, args.json)
    return 0


def cmd_curve(args, argv) -> int:
    points = curve_grid(args.delta_min, args.delta_max, args.step)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta", "phi"])
        for d, value in points:
            writer.writerow([str(d), str(value)])
    if args.json != "-":
        print(f"wrote {len(points)} points to {args.out}")

    if args.json:
        results = {
            "delta_min": args.delta_min,
            "delta_max": args.delta_max,
            "step": args.step,
            "points": len(points),
            "out_path": args.out,
        }
        report = _make_report("curve", argv, [], None, results)
        _write_json(report, args.json)
    return 0


_SIMULATE_KEYS = ("delta", "base_hazard", "n", "replicates", "level", "seed")


def _parse_config(path: str) -> dict:
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise _UsageError(f"{path}: {exc.strerror or exc}")
    for line_no, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise _UsageError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _SIMULATE_KEYS:
            raise _UsageError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"bad {what}: {text!r}")


def _ints(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"bad {what}: {text!r}")


def cmd_simulate(args, argv) -> int:
    cfg = _parse_config(args.config) if args.config else {}

    def setting(name, flag_value, default):
        if flag_value is not None:
            return flag_value
        if name in cfg:
            return cfg[name]
        return default

    deltas = _floats(setting("delta", args.delta, "0"), "delta list")
    ns = _ints(setting("n", args.n, "500"), "sample-size list")
    base = _floats(setting("base_hazard", args.base_hazard, "0.3,0.4,0.5"), "base hazards")
    replicates = int(setting("replicates", args.replicates, 2000))
    level = float(setting("level", args.level, 0.95))
    seed = int(setting("seed", args.seed, 0))
    if not deltas or not ns:
        raise _UsageError("delta and n lists must be nonempty")

    studies = []
    index = 0
    for delta in deltas:
        scenario = McorScenario(base_haz_x=np.array(base), delta=delta)
        for n in ns:
            spec = CoverageStudySpec(
                scenario=scenario,
                n=n,
                replicates=replicates,
                level=level,
                seed=seed + index,
            )
            studies.append(coverage_study(spec))
            index += 1

    if args.json != "-":
        for res in studies:
            print(
                f"delta={res.delta:g} n={res.n} B={res.replicates}: "
                f"coverage={res.coverage:.4f} (mcse {res.mcse:.4f}), "
                f"true phi={res.true_value:.6f}, mean width={res.mean_width:.4f}, "
                f"degenerate={res.degenerate_count}"
            )

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            header = list(studies[0].as_dict().keys())
            writer.writerow(header)
            for res in studies:
                writer.writerow([str(v) for v in res.as_dict().values()])
        if args.json != "-":
            print(f"wrote {len(studies)} rows to {args.out}")

    if args.json:
        results = {
            "joint": "independence",
            "base_hazard_x": base,
            "studies": [res.as_dict() for res in studies],
            "csv_path": args.out,
        }
        inputs = [args.config] if args.config else []
        report = _make_report("simulate", argv, inputs, seed, results)
        _write_json(report, args.json)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="margshift", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"margshift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate phi or psi with a confidence interval")
    est.add_argument("table", help="CSV count table")
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--measure", default="phi", help="phi, psi or psi:<lambda>")
    est.add_argument("--lambda", dest="lam", type=float, default=None)
    est.add_argument("--ci", choices=["delta", "bootstrap"], default="delta")
    est.add_argument("--replicates", type=int, default=2000)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--json", default=None, help="write the JSON report here ('-' = stdout)")
    est.set_defaults(func=cmd_estimate)

    cmp_ = sub.add_parser("compare", help="compare phi between two independent tables")
    cmp_.add_argument("table_a")
    cmp_.add_argument("table_b")
    cmp_.add_argument("--level", type=float, default=0.95)
    cmp_.add_argument("--json", default=None)
    cmp_.set_defaults(func=cmd_compare)

    crv = sub.add_parser("curve", help="tabulate phi as a function of the hazard shift")
    crv.add_argument("--delta-min", type=float, required=True)
    crv.add_argument("--delta-max", type=float, required=True)
    crv.add_argument("--step", type=float, required=True)
    crv.add_argument("--out", required=True, help="CSV output path")
    crv.add_argument("--json", default=None)
    crv.set_defaults(func=cmd_curve)

    sim = sub.add_parser("simulate", help="Monte Carlo coverage study of the phi interval")
    sim.add_argument("--config", default=None, help="key=value file; flags override it")
    sim.add_argument("--delta", default=None, help="comma-separated shift values")
    sim.add_argument("--n", default=None, help="comma-separated sample sizes")
    sim.add_argument("--base-hazard", default=None, help="comma-separated row hazards in (0,1)")
    sim.add_argument("--replicates", type=int, default=None)
    sim.add_argument("--level", type=float, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--json", default=None)
    sim.add_argument("--out", default=None, help="CSV with one row per study")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TableParseError, ShapeError, ZeroTotalError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateMassError, NonDifferentiableError, TooManyDegenerateReplicatesError) as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 2
    except MargshiftError as exc:  # safety net for any remaining semantic error
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Run :func:`main` as the whole life of a process and exit with its code."""
    # The objects numpy and margshift create at import live until the process
    # exits.  Freezing them before any work keeps them out of every collection,
    # the one at interpreter exit included, which otherwise walks the whole
    # import-time heap; what the command allocates stays collectable.  main()
    # itself never freezes: callers that run it in-process would keep their
    # heaps pinned.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
