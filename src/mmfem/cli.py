"""Benchmark command line: `bench antiplane|bending|lc-sweep`.

Each subcommand writes a CSV table plus a JSON summary into --out, and
emits a small plotting stub; outputs are deterministic for a fixed
configuration.
"""

from __future__ import annotations

import csv
import json
import os
import sys

import click
import numpy as np

from .benchmarks import BenchConfig, run_antiplane, run_bending, run_lc_sweep
from .errors import InvalidParam, MMFemError

_PLOT_STUB = """\
# Minimal plotting helper for the benchmark outputs in this directory.
# Reads results.csv and plots the obvious columns with matplotlib.
import csv
import sys

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open("results.csv")))
cols = rows[0].keys()
if "err_u" in cols:
    plt.loglog([float(r["dofs"]) for r in rows], [float(r["err_u"]) for r in rows], "o-")
    plt.xlabel("dofs"); plt.ylabel("u error")
elif "p11" in cols:
    plt.plot([float(r["z"]) for r in rows], [float(r["p11"]) for r in rows], "-")
    plt.plot([float(r["z"]) for r in rows], [float(r["p11_exact"]) for r in rows], "--")
    plt.xlabel("z"); plt.ylabel("P11")
else:
    plt.semilogx([float(r["lc"]) for r in rows], [float(r["energy"]) for r in rows], "o-")
    plt.xlabel("lc"); plt.ylabel("energy")
plt.savefig(sys.argv[1] if len(sys.argv) > 1 else "plot.png", dpi=150)
"""


def _write_outputs(out_dir, rows, summary):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "plot_results.py"), "w") as fh:
        fh.write(_PLOT_STUB)


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return x


@click.group()
def cli():
    """Relaxed micromorphic benchmark driver."""


_common = [
    click.option("--p", "p", type=int, default=1, show_default=True,
                 help="H(curl) polynomial degree; displacement runs at p+1."),
    click.option("--refine", type=int, default=0, show_default=True,
                 help="Mesh refinement level."),
    click.option("--family", type=click.Choice(["nedelec1", "nedelec2"]),
                 default="nedelec1", show_default=True),
    click.option("--out", "out_dir", type=click.Path(), default="bench-out",
                 show_default=True),
    click.option("--mesh", "mesh_path", type=click.Path(exists=True),
                 default=None, help="JSON mesh overriding the generator."),
    click.option("--params", "params_path", type=click.Path(exists=True),
                 default=None,
                 help="JSON file overriding material parameters."),
]


def _lc_values(text):
    """The --lc list as floats, None if not given."""
    if not text:
        return None
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise InvalidParam(f"--lc: {exc}") from None


def _with_common(cmd):
    for opt in reversed(_common):
        cmd = opt(cmd)
    return cmd


@cli.command()
@_with_common
def antiplane(p, refine, family, out_dir, mesh_path, params_path):
    """Manufactured-solution convergence ladder on the disk."""
    cfg = BenchConfig("antiplane", p=p, refine=refine, family=family,
                      mesh_path=mesh_path, params_path=params_path)
    result = run_antiplane(cfg)
    rows = [{k: _fmt(v) for k, v in r.items()} for r in result["rows"]]
    summary = {k: v for k, v in result.items() if k != "rows"}
    summary.update({"benchmark": "antiplane", "p": p, "family": family})
    _write_outputs(out_dir, rows, summary)
    click.echo(f"antiplane: {len(rows)} levels"
               + (f", u-slope {result['slope_u']:.2f}" if "slope_u" in result else ""))


@cli.command()
@_with_common
def bending(p, refine, family, out_dir, mesh_path, params_path):
    """Cylindrical bending of the plate; emits the P11(z) profile."""
    cfg = BenchConfig("bending", p=p, refine=refine, family=family,
                      mesh_path=mesh_path, params_path=params_path)
    result = run_bending(cfg)
    rows = [{"z": _fmt(z), "p11": _fmt(v), "p11_exact": _fmt(e)}
            for z, v, e in zip(result["z"], result["p11"], result["p11_exact"])]
    summary = {k: (v if not isinstance(v, np.ndarray) else None)
               for k, v in result.items() if k not in ("z", "p11", "p11_exact")}
    summary.update({"benchmark": "bending"})
    _write_outputs(out_dir, rows, summary)
    click.echo(f"bending: rel profile deviation {result['rel_dev']:.4f} "
               f"(dofs {result['dofs']})")


@cli.command(name="lc-sweep")
@_with_common
@click.option("--lc", "lc_list", default=None,
              help="Comma-separated characteristic lengths (default: 16-point log grid).")
@click.option("--bound-degree", type=int, default=6, show_default=True,
              help="Polynomial degree of the Cauchy bound solves.")
def lc_sweep(p, refine, family, out_dir, mesh_path, params_path, lc_list,
             bound_degree):
    """Energy versus characteristic length with Cauchy bounds."""
    cfg = BenchConfig("lc-sweep", p=p, refine=refine, family=family,
                      mesh_path=mesh_path, lc_values=_lc_values(lc_list),
                      params_path=params_path, bound_degree=bound_degree)
    result = run_lc_sweep(cfg)
    rows = [{"lc": _fmt(lc), "energy": _fmt(e)}
            for lc, e in zip(result["lc"], result["energy"])]
    summary = {k: v for k, v in result.items()
               if k not in ("lc", "energy", "residuals")}
    summary.update({"benchmark": "lc-sweep"})
    _write_outputs(out_dir, rows, summary)
    click.echo(f"lc-sweep: I in [{min(result['energy']):.6f}, "
               f"{max(result['energy']):.6f}], bounds "
               f"[{result['i_macro']:.6f}, {result['i_micro']:.6f}]")


def main():
    try:
        cli.main(prog_name="bench")
    except MMFemError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
