import json
import subprocess
import sys
from pathlib import Path

import trapcc
from trapcc.regions import audit_published_domains, compare_exact_vs_approx

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(trapcc.__file__).resolve().parents[1])

FILES = [
    "region_f1.csv", "region_f3.csv", "region_m.csv", "region_both.csv",
    "raster_full.csv", "boundary_f1.csv", "boundary_f3.csv", "approx_report.json",
]


def test_figure_script_writes_its_files_and_the_library_report(tmp_path):
    outdir = tmp_path / "figures"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_figure_data.py"),
         "--resolution", "6", "--outdir", str(outdir)],
        capture_output=True, text=True, env={"PYTHONPATH": SRC}, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
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
