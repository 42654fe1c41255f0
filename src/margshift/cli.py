"""Command line front end.

Subcommands::

    margshift estimate TABLE.csv [--level 0.95] [--measure phi|psi:LAM]
                       [--ci delta|bootstrap] [--replicates B] [--seed S]
                       [--json PATH]
    margshift compare A.csv B.csv [--level 0.95] [--json PATH]
    margshift curve --delta-min MIN --delta-max MAX --step STEP --out CSV
                       [--json PATH]
    margshift simulate [--config FILE] [--delta D[,D...]] [--n N[,N...]]
                       [--base-hazard H,H,...] [--replicates B]
                       [--level 0.95] [--seed S] [--json PATH] [--out CSV]

Input tables are CSV files with r rows of r nonnegative integer cells; a
header row and/or row labels in the first column are detected by tokens
that are neither blank nor digits, and skipped.  Exit codes: 0 success, 1
input or usage error, 2 statistical degeneracy (undefined or boundary measure).

Output: a command prints its text to stdout, unless ``--json -`` puts its
report there instead; ``--json PATH`` writes the report to a file.  The
report is one JSON document that validates against the package's
``schemas/run_report.schema.json`` and echoes the seed of a randomized
command.  ``--out`` takes a file path, never "-", and no output path may
name an input or the other output.  A failed command prints nothing to
stdout.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import itertools
import json
import os
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


class _Refused(Exception):
    """A delta-method interval refused at a boundary; ``args`` are its stderr lines."""


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


def _is_word(tok: str) -> bool:
    """Whether a stripped cell can mark a header or a row label: neither blank
    nor digits, so a missing count or a stray "²" is refused as a count."""
    return tok != "" and not tok.lstrip("+-").isdigit()


def _read_text(path: str, error: type[Exception]) -> str:
    """The UTF-8 text of a file, or ``error`` naming the file (and the bad byte)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start}: not UTF-8 text ({exc.reason})") from exc


def parse_table_csv(path: str) -> CountTable:
    """Parse a CSV count table, auto-detecting header and label column.

    Raises :class:`TableParseError` with file/line/column positions on any
    malformed content, and refuses non-square numeric blocks instead of
    guessing what was meant.
    """
    # drop the byte-order mark that spreadsheet tools write
    text = _read_text(path, TableParseError).removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""))
    # each row keeps its own line number: blank rows are dropped below
    numbered = [(reader.line_num, [cell.strip() for cell in row]) for row in reader]
    numbered = [(line, row) for line, row in numbered if any(cell != "" for cell in row)]
    if not numbered:
        raise TableParseError(f"{path}: no data rows")
    head = numbered[0][1]

    # a word as the first token below row one can only be a row label;
    # row one is then a header only if it holds a word beyond that column
    has_labels = any(_is_word(row[0]) for _, row in numbered[1:])
    start = 1 if has_labels else 0
    has_header = any(_is_word(c) for c in head[start:])
    body = numbered[1:] if has_header else numbered
    if not body:
        raise TableParseError(f"{path}: no data rows below the header")
    width = len(body[0][1]) - start
    if width == 0:  # a label alone: the file is not a table, whatever follows
        line, row = body[0]
        raise TableParseError(f"{path}:{line}: row {row[0]!r} holds no counts after its label")

    data = []
    for line, row in body:
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


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def write_table_csv(table: CountTable, path: str) -> None:
    """Write bare counts (no header, no labels); round-trips through the parser."""
    _write_csv(path, table.counts.tolist())


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


# ---------------------------------------------------------------------------
# commands: each returns its text lines and its report's inputs, seed and
# results; main alone prints, writes the report and picks the exit code
# ---------------------------------------------------------------------------


def cmd_estimate(args) -> tuple:
    table = parse_table_csv(args.table)
    measure, lam = args.measure
    if args.ci == "delta":
        seed = None
        try:
            rep = wald_ci(table, args.level, measure, lam)
        except NonDifferentiableError as exc:
            value = _plugin_estimate(table, measure, lam)
            raise _Refused(
                f"{measure} = {value:.6f}", f"delta-method confidence interval refused: {exc}"
            ) from exc
    else:
        seed = args.seed
        rep = bootstrap_ci(table, args.level, args.replicates, args.seed, measure, lam)

    name = measure if lam is None else f"psi(lambda={lam:g})"
    lines = [
        f"table: {args.table}  (r={table.r}, n={table.n})",
        f"measure: {name}",
        f"estimate: {rep.ci.estimate:.6f}",
        f"{100 * rep.ci.level:g}% CI ({rep.ci.method}): "
        f"[{rep.ci.lower:.6f}, {rep.ci.upper:.6f}]   se: {rep.ci.se:.6f}",
    ]
    if rep.ci.exceeds_range:
        lines.append("warning: interval endpoints leave the measure's logical range")
    lines += [f"note: {flag}" for flag in rep.degenerate_flags]
    if measure == "phi":  # psi is blind to the direction of the shift
        lines.append(f"note: {ORIENTATION_NOTE}")
    return lines, [args.table], seed, _estimate_dict(rep)


def cmd_compare(args) -> tuple:
    table_a = parse_table_csv(args.table_a)
    table_b = parse_table_csv(args.table_b)
    rep_a = wald_ci(table_a, args.level, "phi")
    rep_b = wald_ci(table_b, args.level, "phi")
    comparison = compare_groups(rep_a, rep_b, args.level)
    diff = comparison.difference

    lines = [
        f"group {label}: {path}  phi = {rep.ci.estimate:.6f}  "
        f"{100 * rep.ci.level:g}% CI [{rep.ci.lower:.6f}, {rep.ci.upper:.6f}]"
        for label, path, rep in (("A", args.table_a, rep_a), ("B", args.table_b, rep_b))
    ]
    lines.append(
        f"difference (A - B): {diff.estimate:.6f}  "
        f"{100 * diff.level:g}% CI [{diff.lower:.6f}, {diff.upper:.6f}]   se: {diff.se:.6f}"
    )
    alpha = 1.0 - args.level
    if comparison.zero_width:
        lines.append("warning: both standard errors are zero; the interval is degenerate")
    if comparison.significant:
        lines.append(f"significant at level {alpha:g} (interval excludes 0)")
    else:
        lines.append(f"not significant at level {alpha:g} (interval contains 0)")
    lines += [
        "assumption: the two tables come from independent samples",
        f"note: {ORIENTATION_NOTE}",
    ]

    results = {
        "level": args.level,
        "assumes_independent_samples": True,
        "group_a": {"path": args.table_a, **_estimate_dict(rep_a)},
        "group_b": {"path": args.table_b, **_estimate_dict(rep_b)},
        "difference": {"estimate": diff.estimate, "se": diff.se, "ci": _ci_dict(diff)},
        "significant": comparison.significant,
        "zero_width": comparison.zero_width,
    }
    return lines, [args.table_a, args.table_b], None, results


def cmd_curve(args) -> tuple:
    points = curve_grid(args.delta_min, args.delta_max, args.step)
    _write_csv(args.out, [["delta", "phi"]] + [[str(d), str(value)] for d, value in points])
    results = {
        "delta_min": args.delta_min,
        "delta_max": args.delta_max,
        "step": args.step,
        "points": len(points),
        "out_path": args.out,
    }
    return [f"wrote {len(points)} points to {args.out}"], [], None, results


_SIMULATE_KEYS = ("delta", "base_hazard", "n", "replicates", "level", "seed")


def _parse_config(path: str) -> dict:
    values = {}
    for line_no, line in enumerate(_read_text(path, _UsageError).splitlines(), 1):
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


def cmd_simulate(args) -> tuple:
    # every study of the grid is specified, and so checked, before the first runs
    specs = [
        CoverageStudySpec(
            scenario=McorScenario(base_haz_x=np.array(args.base_hazard), delta=delta),
            n=n, replicates=args.replicates, level=args.level, seed=args.seed + index,
        )
        for index, (delta, n) in enumerate(itertools.product(args.delta, args.n))
    ]
    studies = [coverage_study(spec) for spec in specs]

    lines = [
        f"delta={res.delta:g} n={res.n} B={res.replicates}: "
        f"coverage={res.coverage:.4f} (mcse {res.mcse:.4f}), "
        f"true phi={res.true_value:.6f}, mean width={res.mean_width:.4f}, "
        f"degenerate={res.degenerate_count}"
        for res in studies
    ]
    if args.out:
        rows = [[str(v) for v in res.as_dict().values()] for res in studies]
        _write_csv(args.out, [list(studies[0].as_dict())] + rows)
        lines.append(f"wrote {len(studies)} rows to {args.out}")

    results = {
        "joint": "independence",
        "base_hazard_x": args.base_hazard,
        "studies": [res.as_dict() for res in studies],
        "csv_path": args.out,
    }
    inputs = [args.config] if args.config else []
    return lines, inputs, args.seed, results


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _measure(text: str) -> tuple[str, float | None]:
    """``--measure`` type: ``phi`` or ``psi:<lambda>`` as (measure, lambda)."""
    if text == "phi":
        return "phi", None
    name, _, lam = text.partition(":")
    try:
        if name == "psi":
            return "psi", float(lam)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected phi or psi:<lambda>, got {text!r}")


def _file_path(text: str) -> str:
    """``--out`` type: a writable file path, refused before any work."""
    if text == "-":
        raise argparse.ArgumentTypeError("takes a file path, not '-' (stdout)")
    parent = Path(text).parent
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(f"no such directory: {parent}")
    if not os.access(parent, os.W_OK):
        raise argparse.ArgumentTypeError(f"directory {parent} is not writable")
    if not text or Path(text).is_dir():
        raise argparse.ArgumentTypeError(f"not a file path: {text!r}")
    return text


def _output_path(text: str) -> str:
    """``--json`` type: "-" for stdout, or a file path as for ``--out``."""
    return text if text == "-" else _file_path(text)


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one does not exist (yet): compare where they would be
        return Path(a).resolve() == Path(b).resolve()


def _check_outputs(args) -> None:
    """Refuse an output path that is the same file as an input or as the other
    output, before anything is read or written."""
    inputs = [("table", "table"), ("table_a", "table_a"), ("table_b", "table_b"),
              ("config", "--config")]
    outputs = [("out", "--out"), ("json", "--json")]
    seen = [(name, getattr(args, dest)) for dest, name in inputs if getattr(args, dest, None)]
    for dest, name in outputs:
        path = getattr(args, dest, None)
        if path in (None, "-"):
            continue
        for other_name, other in seen:
            if _same_file(path, other):
                raise _UsageError(f"{name} {path} is the same file as {other_name} {other}")
        seen.append((name, path))


def _comma_list(convert):
    """A ``type=`` that reads "a,b,..." as a nonempty list of ``convert`` values."""

    def parse(text: str) -> list:
        values = [convert(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise ValueError(text)
        return values

    parse.__name__ = f"{convert.__name__} list"  # argparse names it in "invalid ... value"
    return parse


def _build_parser(config: dict | None = None) -> _Parser:
    """The CLI parser; ``config`` holds ``simulate`` defaults read from ``--config``.

    argparse converts a string default through the option's ``type=`` only
    when the flag is absent, so file values are checked exactly like flags
    and a flag always wins over the file.
    """
    parser = _Parser(prog="margshift", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"margshift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate phi or psi with a confidence interval")
    est.add_argument("table", help="CSV count table")
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--measure", type=_measure, default="phi", metavar="phi|psi:LAM")
    est.add_argument("--ci", choices=["delta", "bootstrap"], default="delta")
    est.add_argument("--replicates", type=int, default=2000)
    est.add_argument("--seed", type=int, default=0)
    est.set_defaults(func=cmd_estimate)

    cmp_ = sub.add_parser("compare", help="compare phi between two independent tables")
    cmp_.add_argument("table_a")
    cmp_.add_argument("table_b")
    cmp_.add_argument("--level", type=float, default=0.95)
    cmp_.set_defaults(func=cmd_compare)

    crv = sub.add_parser("curve", help="tabulate phi as a function of the hazard shift")
    crv.add_argument("--delta-min", type=float, required=True)
    crv.add_argument("--delta-max", type=float, required=True)
    crv.add_argument("--step", type=float, required=True)
    crv.add_argument("--out", type=_file_path, required=True, help="CSV output path")
    crv.set_defaults(func=cmd_curve)

    sim = sub.add_parser("simulate", help="Monte Carlo coverage study of the phi interval")
    sim.add_argument("--config", default=None, help="key=value file; flags override it")
    floats, ints = _comma_list(float), _comma_list(int)
    sim.add_argument("--delta", type=floats, default="0", help="comma-separated shift values")
    sim.add_argument("--n", type=ints, default="500", help="comma-separated sample sizes")
    sim.add_argument("--base-hazard", type=floats, default="0.3,0.4,0.5",
                     help="comma-separated row hazards in (0,1)")
    sim.add_argument("--replicates", type=int, default=2000)
    sim.add_argument("--level", type=float, default=0.95)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", type=_file_path, default=None, help="CSV with one row per study")
    sim.set_defaults(func=cmd_simulate, **(config or {}))
    for command in sub.choices.values():
        command.add_argument("--json", type=_output_path, default=None,
                             help="write the JSON report here ('-' = stdout)")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
        _check_outputs(args)
        if getattr(args, "config", None):
            args = _build_parser(_parse_config(args.config)).parse_args(argv)
        lines, inputs, seed, results = args.func(args)
        if args.json:
            report = json.dumps(_make_report(args.command, argv, inputs, seed, results), indent=2)
            if args.json == "-":  # the report replaces the text: stdout stays pure JSON
                lines = [report]
            else:
                Path(args.json).write_text(report + "\n", encoding="utf-8")
        print(*lines, sep="\n")
        return 0
    except _Refused as exc:
        print(*exc.args, sep="\n", file=sys.stderr)
        return 2
    except (DegenerateMassError, NonDifferentiableError, TooManyDegenerateReplicatesError) as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, OSError, MargshiftError) as exc:
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
