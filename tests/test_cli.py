import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import trapcc
from locus_oracle import locus_beta
from trapcc import regions
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
from trapcc.masses import solve_masses
from trapcc.regions import (
    bisect,
    cell_centers,
    exact_f3,
    f1_approx,
    f3_approx,
    raster,
    top_indices,
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
    found = bisect(lambda beta: float(exact_f3(alpha, beta)), 0.1, 1.0, xtol=0.0)
    return found.root


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

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "raster",
            "--resolution", "2",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 74
        assert "x.csv" in err

    @staticmethod
    def reference_csv(grid):
        """The per-cell writer that the row-wise one replaced, kept as the
        byte reference."""
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
                            grid.labels[i, j].value,
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
        # put one cell centre on f3 = 0 by shifting the beta range until
        # that centre is the bisected degenerate beta
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
        text = self.assert_matches_reference(capsys, tmp_path, alpha_range, (lo, lo + span), n_alpha, n_beta)
        assert ",nan,nan,Degenerate\n" in text

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
        # once for the worst cells
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
            for idx in np.argsort(dev.ravel())[::-1][:10]:
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
    def test_signs_equal_raster_bits(self, capsys, monkeypatch, n_alpha, n_beta):
        # compare-approx evaluates f1 and f3 a block of rows at a time, then
        # again on the rows of the worst cells; each evaluation keeps the
        # bits of the matching rows of raster
        evaluated = []
        exact_signs = regions._exact_signs

        def capture(alphas, betas):
            f1, f3 = exact_signs(alphas, betas)
            evaluated.append((alphas, betas, f1, f3))
            return f1, f3

        monkeypatch.setattr(regions, "_exact_signs", capture)
        code, _, _ = run(capsys, "compare-approx", "--resolution", f"{n_alpha}x{n_beta}")
        assert code == EX_OK
        full = raster((0.0, 1.0), (0.0, 1.0), n_alpha, n_beta)
        blocks = regions.row_blocks(n_alpha, n_beta)
        assert len(evaluated) == len(blocks) + 2
        for k, (alphas, betas, f1, f3) in enumerate(evaluated):
            rows = np.searchsorted(full.beta_axis, betas[:, 0])
            if k < len(blocks):
                assert np.array_equal(rows, np.arange(n_beta)[blocks[k]])
            assert alphas.tobytes() == full.alpha_axis[None, :].tobytes()
            assert betas.tobytes() == full.beta_axis[rows, None].tobytes()
            assert f1.tobytes() == full.f1[rows].tobytes()
            assert f3.tobytes() == full.f3[rows].tobytes()

    def test_zero_resolution(self, capsys):
        code, _, _ = run(capsys, "compare-approx", "--resolution", "0")
        assert code == EX_USAGE


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
    expected = np.argsort(values.ravel())[::-1][:10]
    assert np.array_equal(top_indices(values, 10), expected)


def test_top_indices_on_random_draws():
    # few distinct values, so ties are common, and up to three NaNs: on
    # about a quarter of these draws sorting only the partitioned top
    # differs from the full argsort
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(0, 400))
        values = rng.integers(0, int(rng.integers(2, 40)), n).astype(float)
        if n and rng.random() < 0.3:
            values[rng.integers(0, n, int(rng.integers(1, 4)))] = np.nan
        expected = np.argsort(values)[::-1][:10]
        assert np.array_equal(top_indices(values, 10), expected)


@pytest.mark.parametrize(
    "argv, limit_mib",
    [(["compare-approx", "--resolution", "1000x1000"], 32), (["raster", "--resolution", "256x256"], 8)],
    ids=["compare-approx-1000x1000", "raster-256x256"],
)
def test_plane_command_traced_peak(capsys, tmp_path, argv, limit_mib):
    # numpy reports its buffers to tracemalloc; holding the whole grid
    # several times over takes 48.6 and 21.4 MiB
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
