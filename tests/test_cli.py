import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import trapcc
from locus_oracle import locus_beta
from array_reference import worst_order
from peak_rss import peak_rss_mb
from trapcc import cli, regions
from trapcc.cli import (
    BOUNDARY_CSV_HEADER,
    EX_COLLISION,
    EX_DEGENERATE,
    EX_OK,
    EX_REFUSED,
    EX_SOFTWARE,
    EX_USAGE,
    EX_VERIFY_FAILED,
    MASSES_CSV_HEADER,
    RASTER_CSV_HEADER,
    TRAJECTORY_CSV_HEADER,
    fnum,
    main,
)
from trapcc.dynamics import MAX_STEPS
from trapcc.geometry import TrapezoidParams
from trapcc.masses import RegionLabel, solve_masses
from trapcc.regions import (
    bisect,
    cell_centers,
    exact_f3,
    f1_approx,
    f3_approx,
    raster,
)

SRC = str(Path(trapcc.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def degenerate_beta(alpha=0.9):
    return bisect(lambda beta: float(exact_f3(alpha, beta)), 0.1, 1.0, xtol=0.0)


def degenerate_row_grid():
    """A 12x9 grid ``(alpha_range, beta_range, n_alpha, n_beta)`` with one
    cell centre on f3 = 0: the beta range is shifted until that centre is
    the bisected degenerate beta."""
    alpha_range, n_alpha, n_beta, row = (0.3, 0.8), 12, 9, 4
    alpha = float(cell_centers(*alpha_range, n_alpha)[7])
    beta0 = degenerate_beta(alpha)
    span = 0.5
    lo = beta0 - (row + 0.5) * span / n_beta
    for _ in range(64):
        centre = float(cell_centers(lo, lo + span, n_beta)[row])
        if centre == beta0:
            break
        lo += beta0 - centre
    return alpha_range, (lo, lo + span), n_alpha, n_beta


class TestMasses:
    def test_square_json(self, capsys):
        code, doc, _ = run_json(capsys, "masses", "--alpha", "1", "--beta", "1")
        assert code == EX_OK
        payload = doc["payload"]
        assert payload["m"] == pytest.approx(0.3693980, abs=1e-7)
        assert payload["M"] == payload["m"]
        assert payload["label"] == "BothPositive"
        assert payload["lambda"] == 1.0
        assert doc["command"] == "masses"
        assert doc["warnings"] == []

    def test_half_unit_json(self, capsys):
        code, doc, _ = run_json(capsys, "masses", "--alpha", "0.5", "--beta", "1", "--format", "json")
        assert code == EX_OK
        assert doc["payload"]["m"] == pytest.approx(0.5202495, abs=1e-6)
        assert doc["payload"]["M"] == pytest.approx(0.1814672, abs=1e-6)

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "masses", "--alpha", "0.5", "--beta", "1", "--format", "csv")
        assert code == EX_OK
        lines = out.splitlines()
        assert lines[0] == MASSES_CSV_HEADER
        assert lines[1].endswith(",BothPositive")

    def test_json_prints_the_solved_cubes_and_signs(self, capsys):
        code, doc, _ = run_json(capsys, "masses", "--alpha", "0.7", "--beta", "0.9", "--format", "json")
        assert code == EX_OK
        solution = solve_masses(TrapezoidParams(0.7, 0.9))
        for name in ("a", "b", "f1", "f2", "f3"):
            assert doc["payload"][name] == getattr(solution, name), name

    def test_invalid_alpha_is_usage_error(self, capsys):
        code, _, err = run(capsys, "masses", "--alpha", "0", "--beta", "1")
        assert code == EX_USAGE
        assert "alpha" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "masses", "--alpha", "1")
        assert code == EX_USAGE

    def test_solves_the_masses_once(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_masses(*args, **kwargs)

        monkeypatch.setattr(trapcc.cli, "solve_masses", counted)
        monkeypatch.setattr(trapcc.masses, "solve_masses", counted)
        code, doc, _ = run_json(capsys, "masses", "--alpha", "0.5", "--beta", "0.5")
        assert code == EX_OK
        assert doc["payload"]["label"] == "OnlyMUpperPositive"
        assert len(calls) == 1

    def test_degenerate_exit_code(self, capsys):
        code, _, err = run(
            capsys, "masses", "--alpha", "0.9", "--beta", repr(degenerate_beta())
        )
        assert code == EX_DEGENERATE
        assert "degenerate" in err

    def test_tiny_alpha_matches_raster_label(self, capsys, tmp_path):
        # at alpha = 1e-16 the cubed distances a and b are the same float,
        # so f2 = 0 and M = -0.0: the masses decide, in both commands
        code, doc, err = run_json(capsys, "masses", "--alpha", "1e-16", "--beta", "1")
        assert code == EX_OK and err == ""
        assert doc["payload"]["f2"] == 0.0
        assert doc["payload"]["label"] == "OnlyMUpperPositive"
        out = tmp_path / "tiny.csv"
        code, _, _ = run(capsys, "raster", "--alpha-range", "0,1e-16", "--beta-range",
                         "0.5,1.5", "--resolution", "1x1", "--out", str(out))
        assert code == EX_OK
        assert out.read_text().splitlines()[1].endswith(",OnlyMUpperPositive")

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "masses", "--alpha", "0.7", "--beta", "0.9")
        _, second, _ = run(capsys, "masses", "--alpha", "0.7", "--beta", "0.9")
        assert first == second


class TestVerify:
    def test_square_passes(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--alpha", "1", "--beta", "1")
        assert code == EX_OK
        assert doc["payload"]["is_central_configuration"] is True
        assert doc["payload"]["max_residual"] <= 1e-12

    def test_generic_point_reports_defect(self, capsys):
        # the closed-form masses satisfy only the reduced balance equations
        # away from the consistency locus, so the full check fails here
        code, doc, _ = run_json(capsys, "verify", "--alpha", "0.5", "--beta", "1")
        assert code == EX_VERIFY_FAILED
        assert doc["payload"]["is_central_configuration"] is False
        assert doc["payload"]["relative_residual"] > 1e-3

    def test_negative_mass_warning(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--alpha", "0.5", "--beta", "0.5")
        assert any(w.startswith("NEGATIVE-MASS") for w in doc["warnings"])
        assert code in (EX_OK, EX_VERIFY_FAILED)

    def test_missing_flags(self, capsys):
        code, _, _ = run(capsys, "verify", "--alpha", "0.5")
        assert code == EX_USAGE

    def test_zero_tolerance_is_accepted(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--alpha", "1", "--beta", "1", "--tol", "0")
        assert code == EX_VERIFY_FAILED
        assert doc["payload"]["max_residual"] > 0.0

    @pytest.mark.parametrize("tol, message", [("-1", "non-negative"), ("nan", "finite"), ("inf", "finite")])
    def test_bad_tolerance_is_usage_error(self, capsys, tol, message):
        code, stdout, err = run(capsys, "verify", "--alpha", "1", "--beta", "1", f"--tol={tol}")
        assert code == EX_USAGE
        assert "argument --tol: " in err and message in err
        assert stdout == ""

    def test_degenerate_exit(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--alpha", "0.9", "--beta", repr(degenerate_beta())
        )
        assert code == EX_DEGENERATE

    @pytest.mark.parametrize("alpha, beta", [("1e-10", "1"), ("1e-200", "1e-200")])
    def test_coincident_bodies_are_degenerate(self, capsys, alpha, beta):
        code, stdout, err = run(capsys, "verify", "--alpha", alpha, "--beta", beta)
        assert code == EX_DEGENERATE
        assert stdout == ""
        assert err.startswith("degenerate: bodies closer than")


class TestRaster:
    def test_writes_grid_and_sidecar(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        code, doc, _ = run_json(
            capsys,
            "raster",
            "--alpha-range", "0,1",
            "--beta-range", "0,1",
            "--resolution", "10",
            "--out", str(out),
        )
        assert code == EX_OK
        lines = out.read_text().splitlines()
        assert lines[0] == RASTER_CSV_HEADER
        assert len(lines) == 1 + 100
        # row-major in beta then alpha: first two rows share beta
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[1] == second[1]
        assert first[0] != second[0]
        sidecar = out.with_name(out.name + ".meta.json")
        assert sidecar.exists()
        meta = json.loads(sidecar.read_text())
        assert meta["payload"]["rows"] == 100
        assert doc["payload"]["label_counts"]

    def test_known_cell_labels(self, capsys, tmp_path):
        out = tmp_path / "cell.csv"
        code, _, _ = run_json(
            capsys,
            "raster",
            "--alpha-range", "0,1",
            "--beta-range", "0.5,1.5",
            "--resolution", "1x1",
            "--out", str(out),
        )
        assert code == EX_OK
        row = out.read_text().splitlines()[1]
        assert row.startswith("0.5,1.0,")
        assert row.endswith(",BothPositive")

    def test_threads_flag_is_gone(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, "raster", "--resolution", "4", "--threads", "3",
                                "--out", str(out))
        assert code == EX_USAGE
        assert "unrecognized arguments: --threads 3" in err
        assert stdout == "" and not out.exists()

    def test_zero_resolution_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "raster",
            "--resolution", "0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == EX_USAGE

    @pytest.mark.parametrize("beta_range", ["0,1e60", "0,1e50"])
    def test_overflow_is_usage_error(self, capsys, tmp_path, beta_range):
        # at 1e60 the cube products overflow, at 1e50 only the masses do;
        # unchecked, numpy warns and the CSV gets -inf or nan rows
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "raster", "--beta-range", beta_range,
                                    "--resolution", "2", "--out", str(out))
        assert code == EX_USAGE
        assert err == "usage error: the sign functions overflow: --beta-range too large\n"
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("existing", [None, b"kept\n"], ids=["no-file", "existing-file"])
    def test_overflow_in_a_later_block_writes_nothing(self, capsys, tmp_path, existing):
        # one row per block: the first row (beta 2.5e25) is finite, the
        # second (7.5e25) overflows
        assert len(regions.row_blocks(16384, 20)) == 20
        out = tmp_path / "x.csv"
        if existing is not None:
            out.write_bytes(existing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "raster", "--beta-range", "0,1e27",
                                    "--resolution", "16384x20", "--out", str(out))
        assert code == EX_USAGE
        assert err == "usage error: the sign functions overflow: --beta-range too large\n"
        assert stdout == ""
        assert (out.read_bytes() if out.exists() else None) == existing
        assert not Path(f"{out}.meta.json").exists()

    @pytest.mark.parametrize("n_alpha, n_beta", [(10, 10), (200, 170), (20000, 2)])
    def test_one_raster_call_per_block(self, capsys, tmp_path, monkeypatch, n_alpha, n_beta):
        calls = []

        def counted(*args):
            block = regions.raster(*args)
            calls.append((args[4], block.f1.size))
            return block

        monkeypatch.setattr(cli, "raster", counted)
        code, _, _ = run(capsys, "raster", "--resolution", f"{n_alpha}x{n_beta}",
                         "--out", str(tmp_path / "x.csv"))
        assert code == EX_OK
        assert [rows for rows, _ in calls] == regions.row_blocks(n_alpha, n_beta)
        assert sum(size for _, size in calls) == n_alpha * n_beta

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "raster",
            "--resolution", "2",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 74
        assert "x.csv" in err

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("resolution", ["4x4", "256x256"])
    def test_a_failing_write_is_one_io_error_line(self, resolution):
        # /dev/full opens and then refuses every write: at 4x4 the text
        # fails when the file is closed, at 256x256 while it is written
        proc = subprocess.run(
            [sys.executable, "-m", "trapcc.cli", "raster", "--resolution", resolution,
             "--out", "/dev/full"],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
        )
        assert proc.returncode == 74
        assert proc.stdout == ""
        assert proc.stderr == "io error: cannot write /dev/full: [Errno 28] No space left on device\n"
        assert not Path("/dev/full.meta.json").exists()

    @staticmethod
    def reference_csv(grid):
        """The per-cell writer that the row-wise one replaced, kept as the
        byte reference."""
        labels = tuple(RegionLabel)
        lines = [RASTER_CSV_HEADER]
        for i, beta in enumerate(grid.beta_axis):
            for j, alpha in enumerate(grid.alpha_axis):
                lines.append(
                    ",".join(
                        (
                            fnum(alpha),
                            fnum(beta),
                            fnum(grid.f1[i, j]),
                            fnum(grid.f3[i, j]),
                            fnum(grid.m[i, j]),
                            fnum(grid.M[i, j]),
                            labels[grid.labels[i, j]].value,
                        )
                    )
                )
        return "\n".join(lines) + "\n"

    def assert_matches_reference(self, capsys, tmp_path, alpha_range, beta_range, n_alpha, n_beta):
        out = tmp_path / "grid.csv"
        code, _, _ = run_json(
            capsys,
            "raster",
            "--alpha-range", "%r,%r" % alpha_range,
            "--beta-range", "%r,%r" % beta_range,
            "--resolution", f"{n_alpha}x{n_beta}",
            "--out", str(out),
        )
        assert code == EX_OK
        text = out.read_bytes().decode("utf-8")
        reference = self.reference_csv(raster(alpha_range, beta_range, n_alpha, n_beta))
        # name the first differing row: a diff of the whole files is slow
        rows, expected = text.split("\n"), reference.split("\n")
        assert len(rows) == len(expected)
        differ = [i for i, (row, want) in enumerate(zip(rows, expected)) if row != want]
        assert not differ, f"{len(differ)} rows differ; first {rows[differ[0]]!r} != {expected[differ[0]]!r}"
        return text

    def test_rows_match_per_cell_reference(self, capsys, tmp_path):
        self.assert_matches_reference(capsys, tmp_path, (0.05, 0.95), (0.1, 1.4), 37, 23)

    @pytest.mark.parametrize("n_alpha, n_beta", [(200, 170), (20000, 2)])
    def test_rows_match_per_cell_reference_across_blocks(self, capsys, tmp_path, n_alpha, n_beta):
        # written a block of rows at a time: three blocks, the last one
        # partial, and rows wider than a block
        assert len(regions.row_blocks(n_alpha, n_beta)) > 1
        self.assert_matches_reference(capsys, tmp_path, (0.05, 0.95), (0.1, 1.4), n_alpha, n_beta)

    def test_degenerate_row_matches_per_cell_reference(self, capsys, tmp_path):
        text = self.assert_matches_reference(capsys, tmp_path, *degenerate_row_grid())
        assert ",nan,nan,Degenerate\n" in text

    @pytest.mark.parametrize(
        "grid", [((0.0, 1.0), (0.0, 1.0), 20000, 2), degenerate_row_grid()],
        ids=["20000x2", "12x9-degenerate-row"],
    )
    def test_label_counts_count_the_csv_labels(self, capsys, tmp_path, grid):
        # stdout and the sidecar carry the same counts, in RegionLabel
        # order, without zero entries, summed over every block
        alpha_range, beta_range, n_alpha, n_beta = grid
        out = tmp_path / "grid.csv"
        code, doc, _ = run_json(
            capsys,
            "raster",
            "--alpha-range", "%r,%r" % alpha_range,
            "--beta-range", "%r,%r" % beta_range,
            "--resolution", f"{n_alpha}x{n_beta}",
            "--out", str(out),
        )
        assert code == EX_OK
        column = Counter(row.rsplit(",", 1)[1] for row in out.read_text().splitlines()[1:])
        expected = {
            label.value: column.pop(label.value) for label in RegionLabel if label.value in column
        }
        assert not column and len(expected) > 1
        sidecar = json.loads(out.with_name(out.name + ".meta.json").read_text())
        for payload in (doc["payload"], sidecar["payload"]):
            assert list(payload["label_counts"].items()) == list(expected.items())
            assert sum(payload["label_counts"].values()) == payload["rows"] == n_alpha * n_beta

    @pytest.mark.parametrize(
        "grid",
        [*(((0.0, 1.0), (0.0, 1.0), n_alpha, n_beta)
           for n_alpha, n_beta in [(37, 53), (1, 1), (1250, 800), (20000, 3), (3, 20000)]),
         degenerate_row_grid()],
        ids=["37x53", "1x1", "1250x800", "20000x3", "3x20000", "12x9-degenerate-row"],
    )
    def test_blocks_equal_rows_of_the_whole_grid(self, grid):
        # each cell gets the same operations whichever rows are evaluated
        # with it: the blocks of row_blocks, and rows in any order with
        # repeats, as the worst cells of compare-approx come
        full = raster(*grid)
        n_alpha, n_beta = grid[2:]
        picks = [*regions.row_blocks(n_alpha, n_beta), np.array([n_beta - 1, 0, n_beta - 1])]
        for rows in picks:
            block = raster(*grid, rows)
            assert block.alpha_axis.tobytes() == full.alpha_axis.tobytes()
            for name in ("beta_axis", "f1", "f3", "m", "M"):
                assert getattr(block, name).tobytes() == getattr(full, name)[rows].tobytes(), name
            assert block.labels.tolist() == full.labels[rows].tolist()

    def test_deterministic_file_output(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run(
                capsys,
                "raster",
                "--alpha-range", "0,1",
                "--beta-range", "0,2",
                "--resolution", "8x6",
                "--out", str(out),
            )
        assert out1.read_bytes() == out2.read_bytes()


class TestBoundary:
    def test_exact_root_row(self, capsys, tmp_path):
        out = tmp_path / "boundary.csv"
        code, _, _ = run_json(
            capsys,
            "boundary",
            "--which", "f1",
            "--axis", "alpha",
            "--fixed", "0.5",
            "--search-interval", "0.5,1",
            "--out", str(out),
        )
        assert code == EX_OK
        lines = out.read_text().splitlines()
        assert lines[0] == BOUNDARY_CSV_HEADER
        fixed, root, f_value, method = lines[1].split(",")
        assert fixed == "0.5"
        assert float(root) == pytest.approx(0.8714, abs=1e-3)
        assert abs(float(f_value)) <= 1e-10
        assert method == "exact-rootfind"

    def test_published_domain_error_row(self, capsys, tmp_path):
        out = tmp_path / "published.csv"
        code, _, _ = run_json(
            capsys,
            "boundary",
            "--which", "f1",
            "--axis", "beta",
            "--fixed", "0.5",
            "--method", "published",
            "--out", str(out),
        )
        assert code == EX_OK
        row = out.read_text().splitlines()[1]
        assert row == "0.5,domain_error:NegativeRadicandError,,published-approximation"

    @pytest.mark.parametrize("fixed", ["nan", "inf", "-inf", "0.5,nan"])
    def test_non_finite_fixed_is_usage_error(self, capsys, tmp_path, fixed):
        out = tmp_path / "boundary.csv"
        code, _, err = run(
            capsys,
            "boundary",
            "--which", "f1",
            "--axis", "alpha",
            f"--fixed={fixed}",
            "--out", str(out),
        )
        assert code == EX_USAGE
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--axis", "alpha", "--fixed", "0.5", "--search-interval", "1e200,1e201"],
            ["--axis", "beta", "--fixed", "1e200"],
        ],
        ids=["search-interval", "fixed"],
    )
    def test_overflow_is_usage_error(self, capsys, tmp_path, extra):
        out = tmp_path / "boundary.csv"
        code, stdout, err = run(capsys, "boundary", "--which", "f1", *extra, "--out", str(out))
        assert code == EX_USAGE
        assert "overflow" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("interval", ["0,inf", "-inf,1", "nan,1"])
    def test_non_finite_search_interval_is_usage_error(self, capsys, tmp_path, interval):
        # an empty --fixed list never bisects, so only the parser can refuse
        out = tmp_path / "boundary.csv"
        code, _, err = run(
            capsys,
            "boundary",
            "--which", "f1",
            "--axis", "alpha",
            "--fixed", "",
            f"--search-interval={interval}",
            "--out", str(out),
        )
        assert code == EX_USAGE
        assert "finite" in err
        assert not out.exists()

    def test_empty_fixed_list_gives_header_only(self, capsys, tmp_path):
        out = tmp_path / "empty.csv"
        code, _, _ = run_json(
            capsys,
            "boundary",
            "--which", "f3",
            "--axis", "alpha",
            "--fixed", "",
            "--out", str(out),
        )
        assert code == EX_OK
        assert out.read_text() == BOUNDARY_CSV_HEADER + "\n"


class TestSimulate:
    def test_square_one_period(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, doc, _ = run_json(
            capsys,
            "simulate",
            "--alpha", "1",
            "--beta", "1",
            "--periods", "1",
            "--out", str(out),
        )
        assert code == EX_OK
        assert doc["payload"]["max_distance_deviation"] <= 1e-5
        lines = out.read_text().splitlines()
        assert lines[0] == TRAJECTORY_CSV_HEADER
        assert len(lines) > 10

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("stride", ["100", "1"])
    def test_a_failing_write_is_one_io_error_line(self, stride):
        # the trajectory is written to one open file a block of rows at a
        # time: 6 rows fail when the file is closed, 3,143 while written
        proc = subprocess.run(
            [sys.executable, "-m", "trapcc.cli", "simulate", "--alpha", "1", "--beta", "1",
             "--periods", "0.5", "--stride", stride, "--out", "/dev/full"],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
        )
        assert proc.returncode == 74
        assert proc.stdout == ""
        assert proc.stderr == "io error: cannot write /dev/full: [Errno 28] No space left on device\n"

    def test_off_locus_point_warns_on_stderr(self, capsys, tmp_path):
        out = tmp_path / "off.csv"
        code, doc, err = run_json(
            capsys,
            "simulate",
            "--alpha", "0.5",
            "--beta", "1.0",
            "--periods", "0.1",
            "--out", str(out),
        )
        assert code == EX_VERIFY_FAILED
        assert "not a central configuration" in err
        assert "relative residual 1.06" in err
        assert doc["warnings"] == []
        assert out.read_text().splitlines()[0] == TRAJECTORY_CSV_HEADER

    def test_locus_point_does_not_warn(self, capsys, tmp_path):
        code, _, err = run_json(
            capsys,
            "simulate",
            "--alpha", "0.5",
            "--beta", repr(locus_beta(0.5)),
            "--periods", "0.1",
            "--out", str(tmp_path / "on.csv"),
        )
        assert code == EX_OK
        assert err == ""

    def test_refuses_negative_mass_without_force(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "simulate",
            "--alpha", "0.5",
            "--beta", "0.5",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == EX_REFUSED
        assert "force" in err

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_degenerate_point_exits_2(self, capsys, tmp_path, force):
        # (1, 1e-5) is labelled Degenerate: no masses, so no refusal to
        # build negative ones either, with or without --force
        out = tmp_path / "t.csv"
        code, stdout, err = run(capsys, "simulate", "--alpha", "1", "--beta", "1e-5",
                                *force, "--out", str(out))
        assert code == EX_DEGENERATE
        assert stdout == "" and not out.exists()
        assert err.startswith("degenerate: f3 = ")
        assert "refused" not in err

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_coincident_bodies_are_degenerate(self, capsys, tmp_path, force):
        out = tmp_path / "t.csv"
        code, stdout, err = run(capsys, "simulate", "--alpha", "1e-10", "--beta", "1",
                                *force, "--out", str(out))
        assert code == EX_DEGENERATE
        assert stdout == "" and not out.exists()
        assert err.startswith("degenerate: bodies 2 and 3")

    def test_zero_periods_header_only(self, capsys, tmp_path):
        out = tmp_path / "zero.csv"
        code, doc, _ = run_json(
            capsys,
            "simulate",
            "--alpha", "1",
            "--beta", "1",
            "--periods", "0",
            "--out", str(out),
        )
        assert code == EX_OK
        assert out.read_text() == TRAJECTORY_CSV_HEADER + "\n"
        assert doc["payload"]["max_distance_deviation"] == 0.0

    def test_step_longer_than_the_run_still_integrates(self, capsys, tmp_path):
        out = tmp_path / "one-step.csv"
        code, doc, _ = run_json(
            capsys,
            "simulate",
            "--alpha", "1",
            "--beta", "1",
            "--periods", "1",
            "--dt", "1e13",
            "--out", str(out),
        )
        assert code != EX_OK
        assert doc["payload"]["samples"] == 2
        last = out.read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == 2.0 * math.pi

    def test_bad_dt_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "simulate",
            "--alpha", "1",
            "--beta", "1",
            "--dt", "0",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == EX_USAGE

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--stride", "0", "at least 1"),
            ("--periods", "inf", "finite"),
            ("--dt", "nan", "finite"),
        ],
    )
    def test_bad_flag_is_usage_error(self, capsys, tmp_path, flag, value, message):
        out = tmp_path / "t.csv"
        code, stdout, err = run(
            capsys, "simulate", "--alpha", "1", "--beta", "1", flag, value, "--out", str(out)
        )
        assert code == EX_USAGE
        assert f"argument {flag}: " in err and message in err
        assert stdout == ""
        assert not out.exists()

    def test_every_step_recorded_with_stride_one(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, doc, _ = run_json(
            capsys, "simulate", "--alpha", "1", "--beta", "1",
            "--periods", "0.01", "--stride", "1", "--out", str(out),
        )
        assert code == EX_OK
        steps = math.ceil(0.01 * 2.0 * math.pi / 1e-3)
        assert doc["payload"]["samples"] == steps + 1
        assert len(out.read_text().splitlines()) == steps + 2

    @pytest.mark.parametrize(
        "periods, dt",
        [("1", "0.0006283185307179584"), ("2", "0.0012566370614359168")],
    )
    def test_dt_a_rounding_error_below_t_end_over_n(self, capsys, tmp_path, periods, dt):
        # t_end / dt is 10000.000000000004: the steps reach t_end after 10000
        out = tmp_path / "t.csv"
        code, _, err = run(
            capsys, "simulate", "--alpha", "1", "--beta", "1",
            "--periods", periods, "--dt", dt, "--out", str(out),
        )
        assert code == EX_OK, err
        last_t = float(out.read_text().splitlines()[-1].split(",")[0])
        assert last_t == float(periods) * 2.0 * math.pi

    def test_periods_overflowing_the_end_time_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, stdout, err = run(
            capsys, "simulate", "--alpha", "1", "--beta", "1",
            "--periods", "1e308", "--out", str(out),
        )
        assert code == EX_USAGE
        assert "--periods too large" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("steps", [MAX_STEPS, MAX_STEPS + 1, math.inf])
    def test_more_steps_than_the_cap_is_usage_error(self, capsys, tmp_path, monkeypatch, steps):
        # the refusal comes before the initial data, so the stub sees only
        # runs at or under the cap; inf is --dt 1e-300 over 1e10 periods
        def stub(*args, **kwargs):
            raise RuntimeError("built the initial data")

        monkeypatch.setattr(cli, "init_relative_equilibrium", stub)
        out = tmp_path / "t.csv"
        periods, dt = ("1", 2.0 * math.pi / steps) if steps < math.inf else ("1e10", 1e-300)
        while 2.0 * math.pi / dt > MAX_STEPS >= steps:  # a rounding error over the cap
            dt = math.nextafter(dt, math.inf)
        code, stdout, err = run(capsys, "simulate", "--alpha", "1", "--beta", "1",
                                "--periods", periods, "--dt", repr(dt), "--out", str(out))
        if steps == MAX_STEPS:
            assert code == EX_SOFTWARE and "built the initial data" in err
        else:
            assert code == EX_USAGE
            assert err.startswith("usage error: --periods and --dt ask for ")
            assert err.endswith(" RK4 steps, more than 100000000\n") and err.count("\n") == 1
        assert stdout == "" and not out.exists()

    def test_collision_writes_partial_and_exits_3(self, capsys, tmp_path, monkeypatch):
        # no CLI-reachable initial data collides within a few periods, so
        # drive the handler directly with an aborting integrator
        import trapcc.cli as cli_module
        from trapcc.dynamics import CollisionError, integrate

        def aborting(initial, dt, t_end, output_stride):
            partial = integrate(initial, dt=dt, t_end=0.0)
            raise CollisionError("synthetic abort", partial)

        monkeypatch.setattr(cli_module, "integrate", aborting)
        out = tmp_path / "partial.csv"
        code, _, err = run(
            capsys,
            "simulate",
            "--alpha", "1",
            "--beta", "1",
            "--out", str(out),
        )
        assert code == EX_COLLISION
        assert "collision" in err
        lines = out.read_text().splitlines()
        assert lines[0] == TRAJECTORY_CSV_HEADER
        assert len(lines) == 2  # the initial sample survived the abort


class TestCompareApprox:
    def test_report_structure(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, doc, _ = run_json(
            capsys, "compare-approx", "--resolution", "20", "--out", str(out)
        )
        assert code == EX_OK
        payload = doc["payload"]
        assert 0.0 <= payload["f1"]["sign_agreement"] <= 1.0
        assert 0.0 <= payload["f3"]["sign_agreement"] <= 1.0
        assert payload["published_domains"]["g1_real_intervals"] == []
        assert out.exists()
        assert json.loads(out.read_text())["payload"]["f1"]["sign_agreement"] == payload["f1"]["sign_agreement"]

    @staticmethod
    def assert_matches_meshgrid_reference(capsys, n_alpha, n_beta, disagreeing=("f1", "f3")):
        # the report as it was computed before the surrogates were evaluated
        # on broadcast axes: on a full meshgrid, once for the statistics and
        # once for the worst cells, which are ordered by the plain Python
        # reference of compare-approx's rule
        code, doc, _ = run_json(capsys, "compare-approx", "--resolution", f"{n_alpha}x{n_beta}")
        assert code == EX_OK
        grid = raster((0.0, 1.0), (0.0, 1.0), n_alpha, n_beta)
        grid_a, grid_b = np.meshgrid(grid.alpha_axis, grid.beta_axis)
        for which, exact, surrogate in (("f1", grid.f1, f1_approx), ("f3", grid.f3, f3_approx)):
            approx = surrogate(grid_a, grid_b)
            agree = np.sign(exact) == np.sign(approx)
            dev = np.abs(exact - approx)
            cells = [[float(grid_a[idx]), float(grid_b[idx])] for idx in zip(*np.nonzero(~agree))]
            worst = []
            for idx in worst_order(dev):
                i, j = np.unravel_index(idx, dev.shape)
                worst.append(
                    {
                        "alpha": float(grid.alpha_axis[j]),
                        "beta": float(grid.beta_axis[i]),
                        "exact": float(exact[i, j]),
                        "approx": float(approx[i, j]),
                    }
                )
            # the comparison covers disagreeing cells
            assert bool(cells) == (which in disagreeing)
            assert doc["payload"][which] == {
                "sign_agreement": float(agree.mean()),
                "max_abs_deviation": float(dev.max()),
                "mean_abs_deviation": float(dev.mean()),
                "disagreement_count": len(cells),
                "disagreement_cells": cells[:50],
                "worst_cells": worst,
            }

    def test_matches_meshgrid_reference(self, capsys):
        self.assert_matches_meshgrid_reference(capsys, 37, 53)

    @pytest.mark.parametrize(
        "n_alpha, n_beta, disagreeing",
        [(20000, 3, ("f3",)), (3, 20000, ("f1", "f3"))],
        ids=["20000x3", "3x20000"],
    )
    def test_matches_meshgrid_reference_across_blocks(self, capsys, n_alpha, n_beta, disagreeing):
        # rows wider than a block, and a partial last block
        assert len(regions.row_blocks(n_alpha, n_beta)) > 1
        self.assert_matches_meshgrid_reference(capsys, n_alpha, n_beta, disagreeing)

    @pytest.mark.parametrize(
        "n_alpha, n_beta", [(37, 53), (1, 1), (1250, 800), (20000, 3), (3, 20000)]
    )
    def test_evaluates_raster_blocks_and_the_worst_rows(self, capsys, monkeypatch, n_alpha, n_beta):
        # compare-approx evaluates the signs of the grid with raster's
        # evaluator on the rows each node of numpy's pairwise sum touches,
        # unless they lie inside the rows evaluated for the node before, and
        # nothing else: neither row_blocks nor the worst cells' rows again,
        # and never the masses.  Each evaluation gets the betas of its rows
        # and of the top row, with cell_centers' bits, and no other beta
        evaluated = []
        evaluate = regions._evaluate

        def capture(*args):
            evaluated.append(args)
            return evaluate(*args)

        monkeypatch.setattr(regions, "_evaluate", capture)
        code, doc, _ = run_json(capsys, "compare-approx", "--resolution", f"{n_alpha}x{n_beta}")
        assert code == EX_OK
        nodes = []
        regions._pairwise(0, n_alpha * n_beta, lambda first, last: nodes.append((first, last)) or 0)
        # the nodes cover the flat grid once, in order, each at most a block
        assert [first for first, _ in nodes] == [0, *(last for _, last in nodes[:-1])]
        assert nodes[-1][1] == n_alpha * n_beta
        assert all(last - first <= regions._BLOCK_CELLS for first, last in nodes)
        touched = []
        for first, last in nodes:
            rows = slice(first // n_alpha, (last - 1) // n_alpha + 1)
            if not touched or not touched[-1].start <= rows.start < rows.stop <= touched[-1].stop:
                touched.append(rows)
        alphas, betas = cell_centers(0.0, 1.0, n_alpha), cell_centers(0.0, 1.0, n_beta)
        assert len(evaluated) == len(touched)
        for (got_alphas, got_betas, values), rows in zip(evaluated, touched):
            assert got_alphas.tobytes() == alphas.tobytes()
            assert got_betas.tobytes() == np.append(betas[rows], betas[-1]).tobytes()
            assert values is regions.sign_values
        # the worst cells' coordinates are cell centres
        for which in ("f1", "f3"):
            for cell in doc["payload"][which]["worst_cells"]:
                assert cell["alpha"] in alphas.tolist() and cell["beta"] in betas.tolist()

    @pytest.mark.parametrize("n_alpha, n_beta", [(2000, 3), (37, 53), (128, 9), (300, 1)])
    def test_evaluates_each_row_a_bounded_number_of_times(self, monkeypatch, n_alpha, n_beta):
        # nodes far smaller than a row share that row's evaluation, so the
        # cells evaluated stay within twice those of one pass over
        # row_blocks, each block with the top row
        monkeypatch.setattr(regions, "_BLOCK_CELLS", 128)
        evaluated = []
        evaluate = regions._evaluate

        def capture(alphas, betas, values):
            evaluated.append(alphas.size * betas.size)
            return evaluate(alphas, betas, values)

        monkeypatch.setattr(regions, "_evaluate", capture)
        regions.compare_exact_vs_approx((0.0, 1.0), (0.0, 1.0), n_alpha, n_beta)
        walk = sum(evaluated)
        blocks = sum(n_alpha * (len(range(n_beta)[rows]) + 1) for rows in regions.row_blocks(n_alpha, n_beta))
        assert walk <= 2 * blocks

    def test_zero_resolution(self, capsys):
        code, _, _ = run(capsys, "compare-approx", "--resolution", "0")
        assert code == EX_USAGE


def test_the_cell_cap_admits_exactly_max_cells():
    assert cli.MAX_CELLS == 10**8
    assert cli._parse_resolution("10000") == (10000, 10000)
    assert cli._parse_resolution("1x100000000") == (1, 10**8)
    for text in ("10001x10000", "10000x10001", "100000001x1", "100000"):
        with pytest.raises(cli.UsageError, match=f"'{text}' asks for more than 100000000 cells"):
            cli._parse_resolution(text)


@pytest.mark.parametrize("command", ["raster", "compare-approx"])
@pytest.mark.parametrize("resolution", ["10001x10000", "100000"])
def test_plane_commands_refuse_more_cells_than_the_cap(
    capsys, tmp_path, monkeypatch, command, resolution
):
    # refused before any grid is evaluated or allocated: the stubs stand for
    # the functions that do both, and would fail the command
    def stub(*args):
        raise RuntimeError("evaluated the grid")

    monkeypatch.setattr(cli, "raster", stub)
    monkeypatch.setattr(cli, "compare_exact_vs_approx", stub)
    out = tmp_path / "x.out"
    code, stdout, err = run(capsys, command, "--resolution", resolution, "--out", str(out))
    assert code == EX_USAGE
    assert err == f"usage error: --resolution '{resolution}' asks for more than 100000000 cells\n"
    assert stdout == "" and not out.exists() and not Path(f"{out}.meta.json").exists()


def _top_cases():
    rng = np.random.default_rng(2024)
    cases = [(f"random-{n}", rng.random(n)) for n in (12, 100, 10_000)]
    cases.append(("random-2d", rng.random((37, 53))))
    ties_inside = rng.random(500)
    order = np.argsort(ties_inside)[::-1]
    ties_inside[order[3]] = ties_inside[order[2]]
    cases.append(("tie-inside", ties_inside))
    ties_edge = rng.random(500)
    order = np.argsort(ties_edge)[::-1]
    ties_edge[order[10]] = ties_edge[order[9]]
    cases.append(("tie-at-edge", ties_edge))
    ties_below = rng.random(500)
    order = np.argsort(ties_below)[::-1]
    ties_below[order[11]] = ties_below[order[10]]
    cases.append(("tie-below-edge", ties_below))
    cases.append(("many-ties", rng.integers(0, 4, 1000).astype(float)))
    cases.append(("signed-zeros", np.array([0.0, -0.0] * 20)))
    with_nan = rng.random(500)
    with_nan[[7, 300]] = np.nan
    cases.append(("nans", with_nan))
    one_nan = rng.random(500)
    one_nan[42] = np.nan
    cases.append(("one-nan", one_nan))
    cases.append(("all-nan", np.full(30, np.nan)))
    cases.extend((f"short-{n}", rng.random(n)) for n in (0, 1, 5, 10, 11))
    return [pytest.param(values, id=name) for name, values in cases]


@pytest.mark.parametrize("values", _top_cases())
def test_top_indices_equal_full_argsort(values):
    # _worst gives the ten worst positions of a full sort by the explicit
    # rule, ties and NaNs included, in its order
    assert regions._worst(values.ravel()).tolist() == worst_order(values)


def test_top_indices_on_random_draws():
    # half the draws of few distinct values, so ties are common, and up to
    # three NaNs, some of them all NaN or shorter than ten
    rng = np.random.default_rng(7)
    tied = 0
    for _ in range(300):
        n = int(rng.integers(0, 400))
        distinct = int(rng.integers(2, 40)) if rng.random() < 0.5 else 2**53
        values = rng.integers(0, distinct, n).astype(float)
        if n and rng.random() < 0.3:
            values[rng.integers(0, n, int(rng.integers(1, 4)))] = np.nan
        expected = worst_order(values, 11)
        tied += len(set(values[expected].tolist())) < len(expected)
        assert regions._worst(values).tolist() == expected[:10]
    assert tied > 100


@pytest.mark.parametrize("values", _top_cases())
@pytest.mark.parametrize("block", [1, 7, 11, 12, 100, None])
def test_merged_block_tops_equal_full_argsort(values, block):
    # compare-approx keeps the ten worst of each node of numpy's pairwise
    # tree, a block of the flat grid, in order, and the ten worst of those
    # are the whole's: equal values lie in flat order among the kept
    values = values.ravel()
    size = block or max(values.size, 1)
    kept, indices = [np.empty(0)], [np.empty(0, dtype=np.intp)]
    for first in range(0, values.size, size):
        part = values[first:first + size]
        keep = regions._worst(part)
        kept.append(part[keep])
        indices.append(keep + first)
    top = regions._worst(np.concatenate(kept))
    assert np.concatenate(indices)[top].tolist() == worst_order(values)


@pytest.mark.parametrize(
    "argv, limit_mib",
    [
        (["compare-approx", "--resolution", "1000x1000"], 12),
        (["compare-approx", "--resolution", "2000x2000"], 12),
        (["raster", "--resolution", "256x256"], 2),
    ],
    ids=["compare-approx-1000x1000", "compare-approx-2000x2000", "raster-256x256"],
)
def test_plane_command_traced_peak(capsys, tmp_path, argv, limit_mib):
    # numpy reports its buffers to tracemalloc; holding the whole grid
    # several times over took 21.4 MiB at 256x256, a block's CSV text whole
    # and the block before it 4.5 MiB (1.4 MiB a row at a time), and
    # compare-approx's two whole deviation grids took 26 and 98 MiB
    if argv[0] == "raster":
        argv = argv + ["--out", str(tmp_path / "r.csv")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EX_OK
    assert peak <= limit_mib * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_simulate_every_step_traced_peak(capsys, tmp_path):
    # 3,143 samples: a sample is 19 floats in one buffer, and the CSV is
    # formatted a block of rows at a time; a sample as a list of Python
    # floats and the CSV text held whole took 2.9 MiB
    argv = ["simulate", "--alpha", "1", "--beta", "1", "--periods", "0.5", "--stride", "1",
            "--out", str(tmp_path / "t.csv")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EX_OK
    assert json.loads(capsys.readouterr().out)["payload"]["samples"] == 3143
    assert peak <= 2 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def fresh_peak_rss_mb(*argv) -> float:
    """The peak resident set of a fresh ``trapcc`` process, in MB."""
    return peak_rss_mb("-m", "trapcc.cli", *argv)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_a_fresh_peak_is_not_the_test_processs_own():
    # started straight from this process, ``python -c pass`` reported the
    # peak of this process, at least the 64 MiB held here
    held = b"\1" * 2**26
    assert peak_rss_mb("-c", "pass") < 40.0
    del held


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_compare_approx_peak_rss_barely_grows_with_the_grid():
    # four times the cells took 2.6 MB more, the disagreeing cells held as
    # 16 bytes each among them; as tuples of two floats they took 6.5 MB,
    # and the whole deviation grids 57 MB at 1000x1000 and 133 MB at
    # 2000x2000
    small = fresh_peak_rss_mb("compare-approx", "--resolution", "1000")
    large = fresh_peak_rss_mb("compare-approx", "--resolution", "2000")
    assert large - small <= 4.0, f"{small:.1f} MB at 1000x1000, {large:.1f} MB at 2000x2000"


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_raster_peak_rss_barely_grows_with_the_grid(tmp_path):
    # 4,096 times the cells took 1.7 MB more, a block of rows and one row
    # of its text held at a time; a block's text held whole took 6.5 MB
    small = fresh_peak_rss_mb("raster", "--resolution", "4x4", "--out", str(tmp_path / "s.csv"))
    large = fresh_peak_rss_mb("raster", "--resolution", "256x256",
                              "--out", str(tmp_path / "l.csv"))
    assert large - small <= 2.5, f"{small:.1f} MB at 4x4, {large:.1f} MB at 256x256"


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_a_tall_raster_peaks_like_a_square_one(tmp_path):
    # each block computes the betas of its own rows and of the top row:
    # rebuilding the whole beta axis for every block took 5.2 MB more at
    # 1x400000 than at 640x625, and 29 MB more at 1x2000000
    square = fresh_peak_rss_mb("raster", "--resolution", "640x625",
                               "--out", str(tmp_path / "s.csv"))
    tall = fresh_peak_rss_mb("raster", "--resolution", "1x400000",
                             "--out", str(tmp_path / "t.csv"))
    assert tall - square <= 2.0, f"{square:.1f} MB at 640x625, {tall:.1f} MB at 1x400000"


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_a_tall_compare_approx_peaks_like_a_square_one():
    # each node evaluation computes the betas of its own rows, and the
    # reports those of the cells they list: the whole beta axis took 12 MB
    # more at 1x1000000 than at 1000x1000
    square = fresh_peak_rss_mb("compare-approx", "--resolution", "1000x1000")
    tall = fresh_peak_rss_mb("compare-approx", "--resolution", "1x1000000")
    assert tall - square <= 2.0, f"{square:.1f} MB at 1000x1000, {tall:.1f} MB at 1x1000000"


def test_internal_error_exits_70_with_one_line(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(trapcc.cli, "cmd_masses", broken)
    code, out, err = run(capsys, "masses", "--alpha", "1", "--beta", "1")
    assert code == EX_SOFTWARE == 70
    assert out == ""
    assert err == "internal error: RuntimeError('boom\\nsecond line')\n"


def test_unknown_command_usage_error(capsys):
    assert main(["frobnicate"]) == EX_USAGE
    capsys.readouterr()


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("trapcc ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["masses", "--alpha", "0.5", "--beta", "1"],
        ["boundary", "--which", "f1", "--axis", "alpha", "--fixed", "0.5,0.7", "--method", "exact"],
        ["boundary", "--which", "f3", "--axis", "beta", "--fixed", "0.3,0.9", "--method", "published"],
    ],
)
def test_scalar_commands_do_not_load_numpy(tmp_path, argv):
    # a fresh interpreter, since this one has numpy loaded already
    if argv[0] == "boundary":
        argv = argv + ["--out", str(tmp_path / "b.csv")]
    script = (
        "import sys\n"
        "from trapcc.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('numpy.'))\n"
        "print(code, loaded, file=sys.stderr)\n"
    )
    src = str(Path(trapcc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env={"PYTHONPATH": src}, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "0 []"


def _env_after(tmp_path, script, **env):
    """OPENBLAS_NUM_THREADS as a fresh interpreter leaves it after ``script``."""
    script += "import os\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, **env}, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


RASTER_MAIN = (
    "from trapcc.cli import main\n"
    "assert main(['raster', '--resolution', '4', '--out', 'r.csv']) == 0\n"
)


def test_cli_starts_openblas_with_one_thread(tmp_path):
    assert _env_after(tmp_path, RASTER_MAIN) == "1"


def test_cli_keeps_a_set_openblas_thread_count(tmp_path):
    assert _env_after(tmp_path, RASTER_MAIN, OPENBLAS_NUM_THREADS="2") == "2"


def test_library_import_leaves_openblas_alone(tmp_path):
    script = "import trapcc, trapcc.cli\ntrapcc.raster((0.0, 1.0), (0.0, 1.0), 4, 4)\n"
    assert _env_after(tmp_path, script) == "None"


def test_in_process_main_leaves_environment(capsys, tmp_path, monkeypatch):
    # numpy is running in this interpreter, so its thread pool exists
    assert np.zeros(1).sum() == 0.0
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    code, _, _ = run(capsys, "raster", "--resolution", "4", "--out", str(tmp_path / "r.csv"))
    assert code == EX_OK
    assert dict(os.environ) == before
