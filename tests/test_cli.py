"""Command line behavior: parsing, exit codes, reports, schema validity."""

import argparse
import csv
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from margshift import CountTable, TableParseError, cli, inference, wald_ci
from margshift.cli import main, parse_table_csv
from conftest import ACTIVE_COUNTS, PLACEBO_COUNTS


@pytest.fixture(scope="module")
def schema():
    text = (
        resources.files("margshift").joinpath("schemas/run_report.schema.json").read_text()
    )
    return json.loads(text)


def validate(report: dict, schema: dict) -> None:
    jsonschema.validate(report, schema, cls=jsonschema.Draft202012Validator)


def run_cli(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "margshift.cli", *args], capture_output=True, text=True
    )


def assert_clean_error(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


ZERO_SE_FLAG = "delta-method se is 0: the interval has zero width"


def write_counts(path: Path, counts) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in counts:
            writer.writerow(row)
    return str(path)


@pytest.fixture
def active_csv(tmp_path):
    return write_counts(tmp_path / "active.csv", ACTIVE_COUNTS)


@pytest.fixture
def placebo_csv(tmp_path):
    return write_counts(tmp_path / "placebo.csv", PLACEBO_COUNTS)


class TestTableIO:
    def test_round_trip(self, tmp_path, active_table):
        path = write_counts(tmp_path / "t.csv", active_table.counts.tolist())
        assert parse_table_csv(path) == active_table

    def test_header_and_labels_detected(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text(
            "pre,<20,20-30,30-60,>60\n"
            "<20,7,4,1,0\n"
            "20-30,11,5,2,2\n"
            "30-60,13,23,3,1\n"
            ">60,9,17,13,8\n"
        )
        assert parse_table_csv(str(path)) == CountTable(ACTIVE_COUNTS)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        assert parse_table_csv(str(path)) == CountTable([[1, 2], [3, 4]])

    def test_labels_only(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("x,1,2\ny,3,4\n")
        assert parse_table_csv(str(path)) == CountTable([[1, 2], [3, 4]])

    def test_position_annotated_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4.5\n")
        with pytest.raises(TableParseError, match=r"bad\.csv:2: column 2"):
            parse_table_csv(str(path))

    def test_negative_count_position(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1,2\n-3,4\n")
        with pytest.raises(TableParseError, match="negative"):
            parse_table_csv(str(path))

    def test_ambiguous_block_refused(self, tmp_path):
        path = tmp_path / "amb.csv"
        path.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(TableParseError, match="ambiguous"):
            parse_table_csv(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(TableParseError):
            parse_table_csv(str(tmp_path / "nope.csv"))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # "CSV UTF-8" as spreadsheet tools save it
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        assert parse_table_csv(str(path)) == CountTable([[1, 2], [3, 4]])

    def test_a_bad_byte_after_the_byte_order_mark_counts_it(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,\xff\n")
        with pytest.raises(TableParseError, match=r"bom\.csv: byte 9: not UTF-8"):
            parse_table_csv(str(path))

    def test_count_beyond_int64_position(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1,2\n3,99999999999999999999\n")
        with pytest.raises(TableParseError, match=r"big\.csv:2: column 2: .*2\^63 - 1"):
            parse_table_csv(str(path))

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff11"])  # ², Arabic-Indic 3, fullwidth 1
    def test_non_ascii_digits_exit_one_without_traceback(self, tmp_path, digit):
        path = tmp_path / "digits.csv"
        path.write_text(f"1,2\n3,{digit}\n", encoding="utf-8")
        proc = run_cli("estimate", str(path))
        assert_clean_error(proc)
        assert f"digits.csv:2: column 2: not an integer: '{digit}'" in proc.stderr

    @pytest.mark.parametrize(
        "text, cell", [("1,2\n\u00b2,4\n", "2: column 1"), ("1,\u00b2\n3,4\n", "1: column 2")]
    )
    def test_non_ascii_digit_taken_for_label_or_header_is_named(self, tmp_path, text, cell):
        # "²" is no integer, so it made a row label or a header and left a
        # non-square block; the message names it, not the block's shape
        path = tmp_path / "stray.csv"
        path.write_text(text, encoding="utf-8")
        proc = run_cli("estimate", str(path))
        assert_clean_error(proc)
        assert proc.stderr.count("\n") == 1
        assert f"stray.csv:{cell}: not an integer: '\u00b2'" in proc.stderr

    def test_non_utf8_table_exits_one_without_traceback(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        proc = run_cli("estimate", str(path))
        assert_clean_error(proc)
        assert proc.stderr.count("\n") == 1
        assert "latin.csv: byte 6: not UTF-8" in proc.stderr

    @pytest.mark.parametrize(
        "text", ["1,2\n3,99999999999999999999\n", f"{2**62},{2**62}\n{2**62},{2**62}\n"]
    )
    def test_oversized_tables_exit_one_without_traceback(self, tmp_path, text):
        path = tmp_path / "big.csv"
        path.write_text(text)
        proc = run_cli("estimate", str(path))
        assert_clean_error(proc)
        assert "2^63 - 1" in proc.stderr

    @pytest.mark.parametrize(
        "text, cell",
        [
            ("1,2\n\n3,x\n", "3: column 2: not an integer: 'x'"),
            ("a,b\n\n1,2\n\n3,x\n", "5: column 2: not an integer: 'x'"),
            ("\n1,\u00b2\n3,4\n", "2: column 2: not an integer: '\u00b2'"),
            ("1,2\n\n\u00b2,4\n", "3: column 1: not an integer: '\u00b2'"),
        ],
    )
    def test_positions_count_blank_lines(self, tmp_path, capsys, text, cell):
        # blank rows are skipped, but the line numbers are the file's
        path = tmp_path / "blank.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["estimate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:{cell}\n"

    @pytest.mark.parametrize("text, message", [
        ("", ": no data rows"),
        ("\n \n", ": no data rows"),
        ("a,b\n", ": no data rows below the header"),
        ("1,2\n3\n", ":2: expected 2 numeric cells, found 1"),
    ])
    def test_file_without_a_table_is_named(self, tmp_path, capsys, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["estimate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}{message}\n"

    @pytest.mark.parametrize("name, text, cell", [
        ("eat.csv", "1,2,\n3,4\n5,6\n", "1: column 3"),  # row one was taken for a header
        ("lab.csv", "7,2,3\n,4,5\n", "2: column 1"),  # 7 was taken for a row label
    ])
    def test_blank_cell_is_a_missing_count(self, tmp_path, capsys, name, text, cell):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert main(["estimate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:{cell}: not an integer: ''\n"

    def test_blank_top_left_corner_is_accepted(self, tmp_path):
        path = tmp_path / "corner.csv"
        path.write_text(",a,b\nx,1,2\ny,3,4\n", encoding="utf-8")
        assert parse_table_csv(str(path)) == CountTable([[1, 2], [3, 4]])

    def test_report_file_is_refused_at_its_first_row(self, active_csv, tmp_path, capsys):
        # the report's "{" line would be a row label with no cells after it
        report = tmp_path / "report.json"
        assert main(["estimate", active_csv, "--json", str(report)]) == 0
        capsys.readouterr()
        assert main(["estimate", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {report}:1: row '{{' holds no counts after its label\n"


class TestEstimate:
    def test_reproduces_published_values(self, active_csv, tmp_path, capsys, schema):
        out = tmp_path / "report.json"
        code = main(["estimate", active_csv, "--json", str(out)])
        assert code == 0
        shown = capsys.readouterr().out
        assert "-0.654629" in shown
        assert "column-variable hazard dominates" in shown
        report = json.loads(out.read_text())
        validate(report, schema)
        res = report["results"]
        assert res["estimate"] == pytest.approx(-0.655, abs=5e-4)
        assert res["ci"]["lower"] == pytest.approx(-0.806, abs=2e-3)
        assert res["ci"]["upper"] == pytest.approx(-0.503, abs=2e-3)
        assert report["seed"] is None

    def test_bootstrap_ci_and_seed_echo(self, active_csv, tmp_path, schema):
        out = tmp_path / "boot.json"
        code = main(
            ["estimate", active_csv, "--ci", "bootstrap", "--replicates", "300",
             "--seed", "11", "--json", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        validate(report, schema)
        assert report["seed"] == 11
        assert report["results"]["ci"]["method"] == "bootstrap-percentile"

    def test_psi_measure_flags(self, active_csv, tmp_path, schema):
        out = tmp_path / "psi.json"
        assert main(["estimate", active_csv, "--measure", "psi:1.0", "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        validate(report, schema)
        assert report["results"]["measure"] == "psi"
        assert report["results"]["lambda"] == 1.0
        assert 0.0 < report["results"]["estimate"] < 1.0

    def test_orientation_note_follows_phi_only(self, active_csv, capsys, tmp_path):
        # psi does not depend on the direction of the shift
        out = tmp_path / "psi.json"
        assert main(["estimate", active_csv, "--measure", "psi:1", "--json", str(out)]) == 0
        assert "hazard dominates" not in capsys.readouterr().out
        assert "orientation_note" in json.loads(out.read_text())
        assert main(["estimate", active_csv]) == 0
        assert "note: negative phi: column-variable hazard dominates" in capsys.readouterr().out

    def test_shape_error_exits_one(self, tmp_path, capsys):
        path = write_counts(tmp_path / "one.csv", [[3]])
        assert main(["estimate", str(path)]) == 1
        assert "square" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        assert main(["estimate", "no-such-file.csv"]) == 1

    @pytest.mark.parametrize("where, message", [
        ("{tmp}/no/r.json", "no such directory: {tmp}/no"),
        ("{tmp}/.", "not a file path: '{tmp}/.'"),
        ("", "not a file path: ''"),
    ])
    def test_report_path_that_cannot_be_written_exits_one(
        self, active_csv, tmp_path, capsys, where, message
    ):
        code = main(["estimate", active_csv, "--json", where.format(tmp=tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument --json: {message.format(tmp=tmp_path)}\n"
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize(
        "counts, measure", [([[5, 0], [0, 5]], "phi"), ([[3, 1], [1, 3]], "psi:1")]
    )
    def test_zero_width_interval_is_noted(self, tmp_path, capsys, schema, counts, measure):
        path = write_counts(tmp_path / "t.csv", counts)
        assert main(["estimate", path, "--measure", measure]) == 0
        shown = capsys.readouterr().out.splitlines()
        assert "95% CI (delta): [0.000000, 0.000000]   se: 0.000000" in shown
        assert f"note: {ZERO_SE_FLAG}" in shown
        assert main(["estimate", path, "--measure", measure, "--json", "-"]) == 0
        report = json.loads(capsys.readouterr().out)
        validate(report, schema)
        assert report["results"]["degenerate_flags"] == [ZERO_SE_FLAG]

    def test_boundary_table_exits_two(self, tmp_path, capsys):
        path = write_counts(tmp_path / "left.csv", [[0, 0, 0], [0, 0, 0], [40, 60, 0]])
        assert main(["estimate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "phi = -1.000000" in err
        assert "refused" in err

    @pytest.mark.parametrize("counts, measure, edge", [
        ([[0, 3], [0, 0]], "phi", "phi = 1;"),
        ([[0, 3], [0, 0]], "psi:0", "psi = 1;"),
        ([[0, 0], [3, 0]], "psi:1", "psi = 1;"),
    ])
    def test_boundary_refusal_names_the_measure(self, tmp_path, capsys, counts, measure, edge):
        path = write_counts(tmp_path / "edge.csv", counts)
        assert main(["estimate", str(path), "--measure", measure]) == 2
        err = capsys.readouterr().err
        assert f"refused: the estimate sits at the boundary {edge}" in err

    def test_refused_table_is_evaluated_once(self, tmp_path, capsys, monkeypatch):
        # the refusal's line shows the estimate wald_ci evaluated, not a second one
        table_terms, calls = inference._table_terms, Counter()

        def counted(counts):
            calls["_table_terms"] += 1
            return table_terms(counts)

        monkeypatch.setattr(inference, "_table_terms", counted)
        path = write_counts(tmp_path / "left.csv", [[5, 0], [3, 0]])
        assert main(["estimate", path]) == 2
        assert capsys.readouterr().err.splitlines()[0] == "phi = -1.000000"
        assert calls["_table_terms"] == 1

    def test_psi_label_names_the_lambda_used(self, active_csv, capsys):
        # six significant digits where they read back as lambda, every digit otherwise
        for measure, label in (("psi:1", "psi(lambda=1)"),
                               ("psi:0.1234567", "psi(lambda=0.1234567)"),
                               ("psi:-0.9999999", "psi(lambda=-0.9999999)")):
            assert main(["estimate", active_csv, "--measure", measure]) == 0
            assert f"measure: {label}\n" in capsys.readouterr().out

    def test_degenerate_table_exits_two(self, tmp_path, capsys):
        path = write_counts(tmp_path / "pm.csv", [[9, 0], [0, 0]])
        assert main(["estimate", str(path)]) == 2

    def test_conflicting_lambda_exits_one(self, active_csv):
        assert main(["estimate", active_csv, "--measure", "psi:1", "--lambda", "2"]) == 1

    def test_missing_lambda_exits_one(self, active_csv, capsys):
        assert main(["estimate", active_csv, "--measure", "psi"]) == 1
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["psi", "psi:abc"])
    def test_psi_without_numeric_lambda_exits_one(self, active_csv, spec):
        proc = run_cli("estimate", active_csv, "--measure", spec)
        assert_clean_error(proc)
        assert "lambda" in proc.stderr

    def test_lambda_flag_is_unknown(self, active_csv):
        # lambda is spelled inside --measure: psi:2
        proc = run_cli("estimate", active_csv, "--lambda", "2")
        assert_clean_error(proc)
        assert "unrecognized arguments: --lambda 2" in proc.stderr

    def test_overflowing_lambda_exits_one(self, active_csv):
        # 2^1100 overflows a double
        proc = run_cli("estimate", active_csv, "--measure", "psi:1100")
        assert_clean_error(proc)
        assert "lambda" in proc.stderr

    def test_interval_beyond_the_range_is_flagged(self, tmp_path, capsys):
        path = write_counts(tmp_path / "t.csv", [[4, 4], [0, 2]])
        assert main(["estimate", path]) == 0
        shown = capsys.readouterr().out
        assert "95% CI (delta): [0.469801, 1.109651]" in shown
        assert "warning: interval endpoints leave the measure's logical range" in shown
        assert main(["estimate", path, "--json", "-"]) == 0
        ci = json.loads(capsys.readouterr().out)["results"]["ci"]
        assert ci["upper"] == pytest.approx(1.1097, abs=1e-4)
        assert ci["exceeds_range"] is True

    def test_json_to_stdout_is_pure(self, active_csv, capsys, schema):
        assert main(["estimate", active_csv, "--json", "-"]) == 0
        report = json.loads(capsys.readouterr().out)  # no human prefix
        validate(report, schema)
        assert report["results"]["estimate"] == pytest.approx(-0.655, abs=5e-4)


# tables whose delta-method interval is undefined, with their exit-2 stderr: the
# label is blank for estimate and "group B: PATH: " for compare with the table as B
UNDEFINED = [
    ([[2, 1], [0, 0]],
     "{label}phi = 1.000000\n"
     "delta-method confidence interval refused: the estimate sits at the boundary phi = 1; "
     "the delta-method interval is undefined there\n"),
    ([[10, 0], [0, 0]], "degenerate: {label}all discordance terms vanish; phi is undefined\n"),
]


class TestCompare:
    def test_published_conclusion(self, active_csv, placebo_csv, tmp_path, capsys, schema):
        out = tmp_path / "cmp.json"
        code = main(["compare", active_csv, placebo_csv, "--json", str(out)])
        assert code == 0
        shown = capsys.readouterr().out
        assert "not significant" in shown
        assert "independent samples" in shown
        report = json.loads(out.read_text())
        validate(report, schema)
        assert report["results"]["significant"] is False
        assert report["results"]["difference"]["estimate"] == pytest.approx(-0.202, abs=2e-3)
        assert len(report["inputs"]) == 2

    def test_table_against_itself(self, active_csv, capsys):
        assert main(["compare", active_csv, active_csv]) == 0
        assert "difference (A - B): 0.000000" in capsys.readouterr().out

    def test_zero_width_is_warned(self, tmp_path, capsys):
        # a diagonal table has phi = 0 and se = 0
        a = write_counts(tmp_path / "a.csv", [[4, 0], [0, 3]])
        b = write_counts(tmp_path / "b.csv", [[5, 0], [0, 2]])
        assert main(["compare", a, b]) == 0
        shown = capsys.readouterr().out
        assert "difference (A - B): 0.000000  95% CI [0.000000, 0.000000]" in shown
        assert "warning: both standard errors are zero; the interval is degenerate" in shown
        assert main(["compare", a, b, "--json", "-"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["zero_width"] is True
        for group in ("group_a", "group_b"):
            assert results[group]["degenerate_flags"] == [ZERO_SE_FLAG]

    @pytest.mark.parametrize("diag_first", [True, False], ids=["A", "B"])
    def test_a_zero_width_group_is_noted_under_its_own_line(
        self, active_csv, tmp_path, capsys, diag_first
    ):
        diag = write_counts(tmp_path / "diag.csv", [[5, 0], [0, 5]])
        assert main(["compare", *((diag, active_csv) if diag_first else (active_csv, diag))]) == 0
        shown = capsys.readouterr().out.splitlines()
        at = 0 if diag_first else 1
        assert shown[at] == f"group {'AB'[at]}: {diag}  phi = 0.000000  95% CI [0.000000, 0.000000]"
        assert shown[at + 1] == f"note: {ZERO_SE_FLAG}"
        # the sleep table's group has no note, and its nonzero se leaves no zero-width warning
        assert [line for line in shown if line.startswith(("note: delta", "warning"))] == [
            f"note: {ZERO_SE_FLAG}"
        ]

    def test_an_out_of_range_group_is_warned_under_its_own_line(
        self, active_csv, tmp_path, capsys
    ):
        edge = write_counts(tmp_path / "edge.csv", [[1, 5], [0, 1]])
        assert main(["compare", edge, active_csv]) == 0
        shown = capsys.readouterr().out.splitlines()
        assert shown[0].startswith(f"group A: {edge}  phi = ")
        assert shown[1] == "warning: interval endpoints leave the measure's logical range"
        assert shown[2].startswith(f"group B: {active_csv}  phi = ")

    @pytest.mark.parametrize("counts, err", UNDEFINED, ids=["boundary", "all-vanish"])
    def test_an_undefined_group_is_named_in_the_exit_two_message(
        self, active_csv, tmp_path, capsys, counts, err
    ):
        path = write_counts(tmp_path / "c.csv", counts)
        for argv in (["compare", active_csv, path], ["compare", active_csv, path, "--json", "-"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == err.format(label=f"group B: {path}: ")

    @pytest.mark.parametrize("counts, err", UNDEFINED, ids=["boundary", "all-vanish"])
    def test_estimate_names_no_group_for_the_same_tables(self, tmp_path, capsys, counts, err):
        path = write_counts(tmp_path / "c.csv", counts)
        assert main(["estimate", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err.format(label="")

    def test_a_malformed_table_b_beside_a_refused_table_a_exits_one(self, tmp_path, capsys):
        # both tables are parsed before either interval
        refused = write_counts(tmp_path / "c.csv", UNDEFINED[0][0])
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        assert main(["compare", refused, str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}:2: expected 2 numeric cells, found 1\n"

    def test_table_against_transpose(self, active_csv, tmp_path, capsys):
        transposed = write_counts(
            tmp_path / "t.csv", np.array(ACTIVE_COUNTS).T.tolist()
        )
        assert main(["compare", active_csv, transposed]) == 0
        shown = capsys.readouterr().out
        phi_hat = wald_ci(CountTable(ACTIVE_COUNTS)).ci.estimate
        assert f"difference (A - B): {2 * phi_hat:.6f}" in shown


class TestCurve:
    def test_grid_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            ["curve", "--delta-min", "-6", "--delta-max", "6", "--step", "0.1",
             "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "delta,phi"
        assert len(rows) == 122  # header + 121 points
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert "0.0,0.0" in rows

    def test_json_report(self, tmp_path, schema):
        out = tmp_path / "curve.csv"
        rep = tmp_path / "curve.json"
        code = main(
            ["curve", "--delta-min", "-2", "--delta-max", "2", "--step", "0.5",
             "--out", str(out), "--json", str(rep)]
        )
        assert code == 0
        report = json.loads(rep.read_text())
        validate(report, schema)
        assert report["results"]["points"] == 9

    def test_bad_step_exits_one(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["curve", "--delta-min", "-1", "--delta-max", "1",
                     "--step", "0", "--out", str(out)]) == 1

    def test_bad_range_exits_one(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["curve", "--delta-min", "2", "--delta-max", "1",
                     "--step", "0.1", "--out", str(out)]) == 1

    def test_huge_grid_exits_one_before_allocating(self, tmp_path):
        out = tmp_path / "c.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "margshift.cli", "curve", "--delta-min", "0",
             "--delta-max", "1e9", "--step", "1e-9", "--out", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert_clean_error(proc)
        assert "points" in proc.stderr
        assert not out.exists()

    def test_unwritable_path_exits_one(self, tmp_path):
        assert main(["curve", "--delta-min", "-1", "--delta-max", "1",
                     "--step", "0.5", "--out", str(tmp_path / "no" / "dir" / "c.csv")]) == 1


def no_study(spec):
    raise AssertionError("a study ran before the command was refused")


@pytest.mark.parametrize("argv", [
    ["curve", "--delta-min", "-1", "--delta-max", "1", "--step", "0.5"],
    ["simulate", "--n", "100", "--replicates", "100"],
], ids=["curve", "simulate"])
def test_csv_output_to_dash_is_refused_before_any_work(argv, tmp_path, capsys, monkeypatch):
    # "-" means stdout for --json only; --out writes a CSV file, never stdout
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "coverage_study", no_study)
    monkeypatch.setattr(cli, "curve_grid", lambda *args: no_study(args))
    assert main(argv + ["--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument --out: takes a file path, not '-' (stdout)\n"
    assert list(tmp_path.iterdir()) == []


CURVE = ["curve", "--delta-min", "-1", "--delta-max", "1", "--step", "0.5"]


@pytest.mark.parametrize("argv, clash", [
    (["estimate", "t.csv", "--json", "./t.csv"], "--json ./t.csv is the same file as table t.csv"),
    (["compare", "t.csv", "u.csv", "--json", "u.csv"],
     "--json u.csv is the same file as table_b u.csv"),
    (CURVE + ["--out", "t.csv", "--json", "t.csv"],
     "--json t.csv is the same file as --out t.csv"),
    (CURVE + ["--out", "new.csv", "--json", "./new.csv"],
     "--json ./new.csv is the same file as --out new.csv"),
    (["simulate", "--config", "c.cfg", "--json", "c.cfg"],
     "--json c.cfg is the same file as --config c.cfg"),
    (["simulate", "--config", "c.cfg", "--out", "./c.cfg"],
     "--out ./c.cfg is the same file as --config c.cfg"),
], ids=["estimate", "compare", "curve", "curve-new", "simulate-json", "simulate-out"])
def test_output_that_names_an_input_or_the_other_output_is_refused(
    argv, clash, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "coverage_study", no_study)
    monkeypatch.setattr(cli, "curve_grid", lambda *args: no_study(args))
    write_counts(tmp_path / "t.csv", ACTIVE_COUNTS)
    write_counts(tmp_path / "u.csv", PLACEBO_COUNTS)
    (tmp_path / "c.cfg").write_text("n = 100\nreplicates = 100\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {clash}\n"
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def run_cli_to(stdout, *args) -> subprocess.CompletedProcess:
    """``run_cli`` with stdout going to ``stdout``, an open file or PIPE."""
    return subprocess.run([sys.executable, "-m", "margshift.cli", *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("target", [
    "file",
    pytest.param("/dev/stdout", marks=pytest.mark.skipif(
        not Path("/dev/stdout").exists(), reason="no /dev/stdout on this platform")),
])
@pytest.mark.parametrize("argv", [
    ["estimate", "{active}", "--json", "{out}"],
    CURVE + ["--out", "{out}"],
], ids=["estimate-json", "curve-out"])
def test_an_output_that_is_stdout_is_refused_before_any_work(argv, target, active_csv, tmp_path):
    # the text would overwrite the report (stdout a file) or mix with it (a pipe)
    stdout = tmp_path / "stdout.txt"
    path = str(stdout) if target == "file" else target
    argv = [a.format(active=active_csv, out=path) for a in argv]
    with open(stdout, "w") as fh:
        proc = run_cli_to(fh if target == "file" else subprocess.PIPE, *argv)
    assert_clean_error(proc)
    flag = argv[-2]
    assert proc.stderr == f"error: {flag} {path} is the same file as stdout\n"
    assert proc.stdout in (None, "")
    assert stdout.read_bytes() == b""


def test_an_output_at_the_null_device_is_allowed_when_stdout_is_too(active_csv):
    with open(os.devnull, "w") as fh:
        proc = run_cli_to(fh, "estimate", active_csv, "--json", os.devnull)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["estimate", "{active}"],
    ["compare", "{active}", "{placebo}"],
    ["simulate", "--delta=0", "--n", "50", "--replicates", "100"],
], ids=["estimate", "compare", "simulate"])
def test_level_with_an_infinite_z_is_refused_by_name(
    argv, active_csv, placebo_csv, capsys, monkeypatch
):
    # 1 - (1 - level) / 2 rounds to 1 at the largest level below 1
    monkeypatch.setattr(cli, "coverage_study", no_study)
    argv = [a.format(active=active_csv, placebo=placebo_csv) for a in argv]
    assert main(argv + ["--level", "0.9999999999999999"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: confidence level must be at most 0.9999999999999998 for a "
        "delta-method interval, got 0.9999999999999999\n"
    )


@pytest.mark.parametrize("level, label", [
    ("0.9999999", "99.99999% CI"),
    ("0.9999999999999998", "99.99999999999997% CI"),  # 100 * level, to 16 digits
])
@pytest.mark.parametrize("argv, lines", [
    (["estimate", "{active}"], 1),
    (["estimate", "{active}", "--ci", "bootstrap", "--replicates", "200"], 1),
    (["compare", "{active}", "{placebo}"], 3),
], ids=["estimate", "bootstrap", "compare"])
def test_a_level_below_one_is_never_labelled_100(
    argv, lines, level, label, active_csv, placebo_csv, capsys
):
    argv = [a.format(active=active_csv, placebo=placebo_csv) for a in argv]
    assert main(argv + ["--level", level]) == 0
    out = capsys.readouterr().out
    assert "100%" not in out
    assert out.count(f"{label} ") == lines


# ---------------------------------------------------------------------------
# inputs: main reads each once, and the report hashes the bytes it parsed
# ---------------------------------------------------------------------------

_opens = []  # holds one Counter of opened paths while a test records


def _count_open(event, args):
    if event == "open" and _opens and isinstance(args[0], (str, os.PathLike)):
        _opens[0][os.fspath(args[0])] += 1


@pytest.fixture
def opens():
    """Every file path opened during the test, counted: open(), pathlib and
    os.open all raise the "open" audit event.  An audit hook cannot be
    removed, so one is added once and counts only inside this fixture."""
    if not getattr(_count_open, "added", False):
        sys.addaudithook(_count_open)
        _count_open.added = True
    _opens.append(Counter())
    yield _opens[0]
    _opens.clear()


@pytest.mark.parametrize("argv", [
    ["estimate", "{active}"],
    ["estimate", "{active}", "--ci", "bootstrap", "--replicates", "200"],
    ["compare", "{active}", "{placebo}"],
    ["simulate", "--config", "{config}"],
], ids=["estimate", "bootstrap", "compare", "simulate"])
def test_each_input_is_opened_once(argv, active_csv, placebo_csv, tmp_path, capsys, opens):
    config = tmp_path / "study.cfg"
    config.write_text("n = 100\nreplicates = 200\n")
    argv = [a.format(active=active_csv, placebo=placebo_csv, config=config) for a in argv]
    paths = [a for a in argv if a in (active_csv, placebo_csv, str(config))]
    opens.clear()
    assert main(argv + ["--json", "-"]) == 0
    assert {path: opens[path] for path in paths} == dict.fromkeys(paths, 1)
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"] == [
        {"path": path, "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
        for path in paths
    ]


needs_dev_stdin = pytest.mark.skipif(
    not Path("/dev/stdin").exists(), reason="no /dev/stdin on this platform"
)


def piped_report(data: bytes, *argv) -> dict:
    """The report of a command that reads ``data`` through a pipe, whose one
    input must be recorded with the digest of those bytes."""
    proc = subprocess.run(
        [sys.executable, "-m", "margshift.cli", *argv, "--json", "-"],
        input=data, capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["inputs"] == [{"path": "/dev/stdin", "sha256": hashlib.sha256(data).hexdigest()}]
    return report


@needs_dev_stdin
def test_a_piped_table_is_hashed_as_parsed():
    data = "".join(",".join(map(str, row)) + "\n" for row in ACTIVE_COUNTS).encode()
    report = piped_report(data, "estimate", "/dev/stdin")
    assert report["results"]["n"] == int(np.sum(ACTIVE_COUNTS))


@needs_dev_stdin
def test_a_piped_config_is_hashed_as_parsed():
    report = piped_report(b"n = 100\nreplicates = 200\nseed = 5\n", "simulate", "--config",
                          "/dev/stdin")
    assert report["seed"] == 5
    assert [study["n"] for study in report["results"]["studies"]] == [100]


def test_a_table_named_twice_is_listed_twice(active_csv, capsys):
    assert main(["compare", active_csv, active_csv, "--json", "-"]) == 0
    digest = hashlib.sha256(Path(active_csv).read_bytes()).hexdigest()
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"] == [{"path": active_csv, "sha256": digest}] * 2


def test_a_missing_input_is_reported_before_any_input_is_parsed(tmp_path, capsys):
    malformed = tmp_path / "odd.csv"
    malformed.write_text("1,2,3\n4,5,6\n")
    missing = tmp_path / "missing.csv"
    assert main(["compare", str(malformed), str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {missing}: No such file or directory\n"


# one malformed value for each --config key, with the error its flag gives
MALFORMED_CONFIG = [
    ("level = x", "argument --level: invalid float value: 'x'"),
    ("seed = 1.5", "argument --seed: invalid int value: '1.5'"),
    ("replicates = 1e3", "argument --replicates: invalid int value: '1e3'"),
    ("delta = x", "argument --delta: invalid float list value: 'x'"),
    ("n = 1.5", "argument --n: invalid int list value: '1.5'"),
    ("base_hazard = 0.3,y", "argument --base-hazard: invalid float list value: '0.3,y'"),
]


class TestSimulate:
    @pytest.mark.parametrize("flag", ["--out", "--json"])
    def test_output_in_a_missing_directory_is_refused_before_any_study(
        self, tmp_path, capsys, monkeypatch, flag
    ):
        monkeypatch.setattr(cli, "coverage_study", no_study)
        out = tmp_path / "no" / "x.csv"
        code = main(["simulate", "--delta=-1,0,1", "--n", "500,1000", "--replicates", "2000",
                     flag, str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument {flag}: no such directory: {out.parent}\n"
        assert not out.parent.exists()

    def test_bad_grid_cell_is_refused_before_any_study(self, tmp_path, capsys, monkeypatch):
        # (delta, n) = (0, 500) is valid; n = 5 in the second cell is not
        monkeypatch.setattr(cli, "coverage_study", no_study)
        out = tmp_path / "x.csv"
        code = main(["simulate", "--delta=0,1", "--n", "500,5", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sample size") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path, schema):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        argv = ["simulate", "--delta", "0", "--n", "500", "--replicates", "2000",
                "--seed", "42", "--json"]
        assert main(argv + [str(first)]) == 0
        assert main(argv + [str(second)]) == 0
        a = first.read_bytes()
        b = second.read_bytes()
        # the written path differs inside argv; normalize it before comparing
        assert a.replace(str(first).encode(), b"X") == b.replace(str(second).encode(), b"X")
        report = json.loads(a)
        validate(report, schema)
        assert report["seed"] == 42
        study = report["results"]["studies"][0]
        assert 0.9 <= study["coverage"] <= 1.0

    def test_grid_sweep_rows(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["simulate", "--delta=-1,0,1", "--n", "100",
                     "--replicates", "100", "--seed", "3", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 scenarios
        assert rows[0].startswith("delta,n,replicates")

    def test_replicate_floor_exits_one(self):
        assert main(["simulate", "--replicates", "50", "--n", "100"]) == 1

    def test_sample_size_beyond_int64_exits_one(self):
        proc = run_cli("simulate", "--delta=0", "--n", str(10**20), "--replicates", "100")
        assert_clean_error(proc)
        assert "sample size" in proc.stderr

    def test_config_file_with_flag_override(self, tmp_path, schema):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "# coverage study settings\n"
            "delta = 0.5\n"
            "base-hazard = 0.4,0.5\n"
            "n = 120\n"
            "replicates = 100\n"
            "seed = 9\n"
        )
        rep = tmp_path / "sim.json"
        code = main(["simulate", "--config", str(cfg), "--n", "150", "--json", str(rep)])
        assert code == 0
        report = json.loads(rep.read_text())
        validate(report, schema)
        study = report["results"]["studies"][0]
        assert study["n"] == 150  # flag wins over config
        assert study["delta"] == 0.5
        assert report["results"]["base_hazard_x"] == [0.4, 0.5]
        assert report["inputs"][0]["path"] == str(cfg)

    def test_unknown_config_key_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("horizon = 12\n")
        assert main(["simulate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("line, message", MALFORMED_CONFIG)
    def test_malformed_config_value_exits_one_like_the_flag(
        self, tmp_path, capsys, line, message
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        proc = run_cli("simulate", "--config", str(cfg))
        assert_clean_error(proc)
        assert proc.stderr == f"error: {message}\n"
        key, _, value = (part.strip() for part in line.partition("="))
        assert main(["simulate", f"--{key.replace('_', '-')}={value}"]) == 1
        assert capsys.readouterr().err == proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["--delta=,"], "argument --delta: invalid float list value: ','"),
        (["--n", " "], "argument --n: invalid int list value: ' '"),
    ], ids=["delta", "n"])
    def test_a_list_value_without_an_item_exits_one(self, capsys, argv, message):
        assert main(["simulate", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_every_config_key_has_a_malformed_value_case(self):
        keys = [line.partition("=")[0].strip() for line, _ in MALFORMED_CONFIG]
        assert sorted(keys) == sorted(cli._SIMULATE_KEYS)
        # and every simulate flag that is not a file path is a config key
        flags = _parser_flags()["simulate"] - {"--config", "--out", "--json"}
        assert flags == {f"--{key.replace('_', '-')}" for key in keys}

    def test_config_with_a_byte_order_mark_is_read(self, tmp_path, capsys):
        # "UTF-8 with BOM", as some editors save it; read like a table with one
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn = 100\nreplicates = 100\n")
        assert main(["simulate", "--config", str(cfg), "--json", "-"]) == 0
        study = json.loads(capsys.readouterr().out)["results"]["studies"][0]
        assert (study["n"], study["replicates"]) == (100, 100)

    @pytest.mark.parametrize("first, second", [("n", "n"), ("base-hazard", "base_hazard")])
    def test_a_repeated_config_key_exits_one(self, tmp_path, capsys, first, second):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(f"{first} = 0.5\n# again\n{second} = 0.6\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        key = first.replace("-", "_")
        assert captured.err == f"error: {cfg}:3: key {key!r} is already set on line 1\n"

    def test_config_value_a_flag_overrides_is_never_parsed(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("level = x\nn = 100\nreplicates = 100\n")
        assert main(["simulate", "--config", str(cfg), "--level", "0.9"]) == 0

    def test_config_line_without_a_value_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# settings\nn 100\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value, got 'n 100'\n"

    def test_non_utf8_config_exits_one_without_traceback(self, tmp_path):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfen = 100\n")
        proc = run_cli("simulate", "--config", str(cfg))
        assert_clean_error(proc)
        assert proc.stderr.count("\n") == 1
        assert "utf16.cfg: byte 0: not UTF-8" in proc.stderr


def _docstring_flags() -> dict[str, set[str]]:
    usage = cli.__doc__.split("Subcommands::")[1].split("\n\n")[1]
    blocks = re.split(r"^\s*margshift (\w+)", usage, flags=re.M)[1:]
    return {
        name: set(re.findall(r"--[a-z][a-z-]*", text))
        for name, text in zip(blocks[::2], blocks[1::2])
    }


def _parser_flags() -> dict[str, set[str]]:
    (subparsers,) = [
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: {flag for action in sub._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }


def test_module_docstring_lists_every_flag_of_every_subcommand():
    documented = _docstring_flags()
    assert set(documented) == {"estimate", "compare", "curve", "simulate"}
    assert documented == _parser_flags()


# One run of each command, with "{active}", "{placebo}" and "{tmp}" to fill in
COMMANDS = {
    "phi": ["estimate", "{active}"],
    "psi": ["estimate", "{active}", "--measure", "psi:1"],
    "bootstrap": ["estimate", "{active}", "--ci", "bootstrap", "--replicates", "500",
                  "--seed", "7"],
    "compare": ["compare", "{active}", "{placebo}"],
    "simulate": ["simulate", "--delta=-1,1", "--n", "200", "--replicates", "200", "--seed", "3"],
    "curve": ["curve", "--delta-min", "-1", "--delta-max", "1", "--step", "0.25",
              "--out", "{tmp}/curve.csv"],
}


class TestEntryPoint:
    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_process_entry_prints_what_main_prints(
        self, argv, active_csv, placebo_csv, tmp_path, capsys
    ):
        argv = [a.format(active=active_csv, placebo=placebo_csv, tmp=tmp_path) for a in argv]
        argv += ["--json", "-"]
        proc = run_cli(*argv)
        assert proc.returncode == 0, proc.stderr
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_json_to_stdout_is_one_report_and_nothing_else(
        self, argv, active_csv, placebo_csv, tmp_path, capsys, schema
    ):
        argv = [a.format(active=active_csv, placebo=placebo_csv, tmp=tmp_path) for a in argv]
        assert main(argv + ["--json", "-"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)  # one document: any other text fails to parse
        validate(report, schema)
        assert report["command"] == argv[0]
        assert captured.err == ""

    def test_exit_codes_pass_through_the_process_entry(self, tmp_path):
        boundary = write_counts(tmp_path / "left.csv", [[0, 0, 0], [0, 0, 0], [40, 60, 0]])
        assert run_cli("estimate", boundary).returncode == 2
        usage = run_cli("estimate", boundary, "--ci", "jackknife")
        assert_clean_error(usage)
        assert "invalid choice" in usage.stderr

    def test_console_script_freezes_and_exits_with_the_code_of_main(self, tmp_path):
        boundary = write_counts(tmp_path / "left.csv", [[0, 0, 0], [0, 0, 0], [40, 60, 0]])
        code = (
            "import gc, sys\n"
            "from margshift.cli import entry\n"
            f"sys.argv = ['margshift', 'estimate', {boundary!r}]\n"
            "try:\n"
            "    entry()\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.get_freeze_count() > 0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.split() == ["2", "True"]

    def test_console_script_points_at_the_entry(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"margshift": "margshift.cli:entry"}

    def test_main_does_not_freeze(self, active_csv, capsys):
        before = gc.get_freeze_count()
        assert main(["estimate", active_csv, "--ci", "bootstrap", "--replicates", "200"]) == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, loaded", [
        (["estimate", "{active}"], "False"),
        (["compare", "{active}", "{placebo}"], "False"),
        (["estimate", "{active}", "--ci", "bootstrap", "--replicates", "200"], "True"),
    ], ids=["estimate", "compare", "bootstrap"])
    def test_only_replicate_loops_load_numpy_random(self, argv, loaded, active_csv, placebo_csv):
        # loading numpy.random costs a one-shot process some 20 ms
        code = (
            "import sys, numpy\n"
            "eager = 'numpy.random' in sys.modules\n"
            "from margshift.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print(status, eager, 'numpy.random' in sys.modules, file=sys.stderr)\n"
        )
        argv = [a.format(active=active_csv, placebo=placebo_csv) for a in argv]
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        status, eager, after = proc.stderr.split()
        if eager == "True":
            pytest.skip("this numpy loads numpy.random with numpy itself")
        assert (status, after) == ("0", loaded)

    def test_commands_load_only_the_stdlib_numpy_and_margshift(self, active_csv, placebo_csv):
        # the README promises plain numpy and no other runtime dependency
        code = (
            "import contextlib, io, json, sys\n"
            "bare = {name.partition('.')[0] for name in sys.modules}\n"
            "from margshift.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "new = {name.partition('.')[0] for name in sys.modules} - bare\n"
            "print(json.dumps([status, {name: hasattr(sys.modules[name], '__file__')\n"
            "                           for name in new - set(sys.stdlib_module_names)}]))\n"
        )
        commands = [
            ["estimate", active_csv],
            ["estimate", active_csv, "--ci", "bootstrap", "--replicates", "200"],
            ["compare", active_csv, placebo_csv],
            ["simulate", "--n", "100", "--replicates", "200"],
        ]
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        status, outside = json.loads(proc.stdout)
        assert status == [0] * len(commands)
        # numpy's Cython extensions register file-less runtime modules
        cython = {name for name, has_file in outside.items()
                  if not has_file and (name == "cython_runtime" or name.startswith("_cython_"))}
        assert set(outside) - cython <= {"numpy", "margshift"}

    def test_module_invocation(self, active_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "margshift.cli", "estimate", active_csv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "-0.654629" in proc.stdout

    def test_usage_error_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "margshift.cli", "estimate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1


# The seeded JSON reports, byte for byte, as sha256 prefixes of stdout; any change
# to what a command computes or prints moves one of them.
REPORT_DIGESTS = [
    ("estimate data/sleep_active.csv", "1761c7e98f5843f5"),
    ("compare data/sleep_active.csv data/sleep_placebo.csv", "09fd5cedbe25ee59"),
    ("estimate data/sleep_active.csv --measure psi:1 --ci bootstrap --replicates 10000 --seed 7",
     "052f3bc6c668e3a0"),
    ("simulate --delta=-1,0,1 --n 500,1000 --replicates 2000 --seed 42", "bb8b7a6fb2a99643"),
]


@pytest.mark.parametrize("command, digest", REPORT_DIGESTS)
def test_seeded_reports_are_byte_identical(command, digest, capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parents[1])  # the report names its inputs
    assert main([*command.split(), "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == digest
