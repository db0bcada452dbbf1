import json
import subprocess
import sys
from pathlib import Path

import pytest

import trapcc
from trapcc.regions import audit_published_domains, compare_exact_vs_approx

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(trapcc.__file__).resolve().parents[1])

FILES = [
    "region_f1.csv", "region_f3.csv", "region_m.csv", "region_both.csv",
    "raster_full.csv", "boundary_f1.csv", "boundary_f3.csv", "approx_report.json",
]


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    """The figure script's output directory at --resolution 6."""
    tmp_path = tmp_path_factory.mktemp("figure_data")
    outdir = tmp_path / "figures"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_figure_data.py"),
         "--resolution", "6", "--outdir", str(outdir)],
        capture_output=True, text=True, env={"PYTHONPATH": SRC}, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return outdir


def rows_of(path):
    """The header and the data rows, split into fields, of a CSV file."""
    header, *rows = path.read_text().splitlines()
    return header, [row.split(",") for row in rows]


def test_figure_script_writes_its_files_and_the_library_report(outdir):
    assert sorted(p.name for p in outdir.iterdir()) == sorted(FILES)
    assert len((outdir / "raster_full.csv").read_text().splitlines()) == 1 + 6 * 6

    reports = compare_exact_vs_approx((0.0, 1.0), (0.0, 1.0), 100, 100)
    audit = audit_published_domains()
    expected = {
        "f1_sign_agreement": reports["f1"].sign_agreement,
        "f3_sign_agreement": reports["f3"].sign_agreement,
        "f1_max_abs_deviation": reports["f1"].max_abs_deviation,
        "f3_max_abs_deviation": reports["f3"].max_abs_deviation,
        "g1_real_intervals": [list(iv) for iv in audit.g1_intervals],
        "g3_real_intervals": [list(iv) for iv in audit.g3_intervals],
    }
    report = json.loads((outdir / "approx_report.json").read_text())
    assert list(report) == list(expected)
    assert report == expected


def test_region_files_agree_with_the_full_raster(outdir):
    # alpha,beta,f1,f3,m,M,label
    _, full = rows_of(outdir / "raster_full.csv")
    labels = [row[6] for row in full]
    assert len(set(labels)) >= 3

    def sign(text):
        value = float(text)
        return (value > 0.0) - (value < 0.0)

    expected = {
        "region_f1.csv": ("sign", [sign(row[2]) for row in full]),
        "region_f3.csv": ("sign", [sign(row[3]) for row in full]),
        "region_m.csv": (
            "member", [int(label in ("BothPositive", "OnlyMUpperPositive")) for label in labels]
        ),
        "region_both.csv": ("member", [int(label == "BothPositive") for label in labels]),
    }
    for name, (column, values) in expected.items():
        header, rows = rows_of(outdir / name)
        assert header == f"alpha,beta,{column}", name
        assert [row[:2] for row in rows] == [row[:2] for row in full], name
        assert [int(row[2]) for row in rows] == values, name
