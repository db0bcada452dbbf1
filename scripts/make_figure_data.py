#!/usr/bin/env python3
"""Produce the data files behind the parameter-plane figures.

Writes, into --outdir:

  region_f1.csv / region_f3.csv    sign rasters of f1 and f3 over (0,1)^2
  region_m.csv / region_both.csv   the m > 0 set and the both-positive set
  raster_full.csv                  the full 400x400 classification grid
  boundary_f1.csv, boundary_f3.csv exact zero-set samples (alpha sweeps)
  approx_report.json               exact-versus-published comparison

Everything goes through the library, so this doubles as an end-to-end
exercise of the public API.  Plot with any CSV-capable tool; beta is the
vertical axis.
"""

import argparse
import json
import pathlib

import numpy as np

from trapcc.cli import raster_csv
from trapcc.masses import RegionLabel
from trapcc.regions import (
    audit_published_domains,
    compare_exact_vs_approx,
    raster,
    trace_boundary,
)


def write_sign_raster(grid, values, path):
    lines = ["alpha,beta,sign"]
    for i, beta in enumerate(grid.beta_axis):
        for j, alpha in enumerate(grid.alpha_axis):
            lines.append(f"{float(alpha)!r},{float(beta)!r},{int(np.sign(values[i, j]))}")
    path.write_text("\n".join(lines) + "\n")


def write_membership(grid, mask, path):
    lines = ["alpha,beta,member"]
    for i, beta in enumerate(grid.beta_axis):
        for j, alpha in enumerate(grid.alpha_axis):
            lines.append(f"{float(alpha)!r},{float(beta)!r},{int(mask[i, j])}")
    path.write_text("\n".join(lines) + "\n")


def write_boundary(which, path, n=60):
    alphas = (np.arange(n) + 0.5) / n
    curve = trace_boundary(which, "alpha", [float(a) for a in alphas],
                           search_interval=(1e-4, 2.0))
    lines = ["alpha,beta,f_value,status"]
    for sample in curve.samples:
        root = repr(sample.root) if sample.root is not None else ""
        f_value = repr(sample.f_value) if sample.f_value is not None else ""
        lines.append(f"{sample.fixed!r},{root},{f_value},{sample.status}")
    path.write_text("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figure_data")
    parser.add_argument("--resolution", type=int, default=400)
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = args.resolution

    grid = raster((0.0, 1.0), (0.0, 1.0), n, n)
    write_sign_raster(grid, grid.f1, outdir / "region_f1.csv")
    write_sign_raster(grid, grid.f3, outdir / "region_f3.csv")

    m_positive = np.isin(
        grid.labels, [RegionLabel.BOTH_POSITIVE, RegionLabel.ONLY_M_UPPER_POSITIVE]
    )
    both = grid.labels == RegionLabel.BOTH_POSITIVE
    write_membership(grid, m_positive, outdir / "region_m.csv")
    write_membership(grid, both, outdir / "region_both.csv")
    with (outdir / "raster_full.csv").open("w") as fh:
        fh.writelines(raster_csv(grid))

    write_boundary("f1", outdir / "boundary_f1.csv")
    write_boundary("f3", outdir / "boundary_f3.csv")

    report = compare_exact_vs_approx((0.0, 1.0), (0.0, 1.0), 100, 100)
    audit = audit_published_domains()
    (outdir / "approx_report.json").write_text(
        json.dumps(
            {
                "f1_sign_agreement": report.f1_sign_agreement,
                "f3_sign_agreement": report.f3_sign_agreement,
                "f1_max_abs_deviation": report.f1_max_abs_deviation,
                "f3_max_abs_deviation": report.f3_max_abs_deviation,
                "g1_real_intervals": [list(iv) for iv in audit.g1_intervals],
                "g3_real_intervals": [list(iv) for iv in audit.g3_intervals],
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote figure data to {outdir}/")


if __name__ == "__main__":
    main()
