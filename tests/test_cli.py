import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from mmfem.cli import cli

STAGES = {"assembly", "dirichlet", "analysis", "factor", "solve"}


@pytest.fixture()
def runner():
    return CliRunner()

def test_help(runner):
    result = runner.invoke(cli, ["--help"])
    assert result.exit_code == 0
    for name in ("antiplane", "bending", "lc-sweep"):
        assert name in result.output


def test_antiplane_outputs(runner, tmp_path):
    out = tmp_path / "anti"
    result = runner.invoke(cli, ["antiplane", "--p", "0", "--family",
                                 "nedelec1", "--refine", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(open(out / "results.csv")))
    assert [int(r["level"]) for r in rows] == [0, 1]
    assert float(rows[1]["err_u"]) < float(rows[0]["err_u"])
    summary = json.load(open(out / "summary.json"))
    assert "slope_u" in summary
    # one record of solver stages per level, not in the table; values unchecked
    assert "stages" not in rows[0]
    assert [set(st) for st in summary["stages"]] == [STAGES] * 2
    assert (out / "plot_results.py").exists()


def test_antiplane_deterministic(runner, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = runner.invoke(cli, ["antiplane", "--p", "0", "--refine", "0",
                                     "--out", str(out)])
        assert result.exit_code == 0
        outs.append((out / "results.csv").read_text())
    assert outs[0] == outs[1]


def test_lc_sweep_outputs(runner, tmp_path):
    out = tmp_path / "sweep"
    result = runner.invoke(cli, ["lc-sweep", "--p", "1", "--family", "nedelec1",
                                 "--refine", "0", "--lc", "0.01,1.0,100.0",
                                 "--bound-degree", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(open(out / "results.csv")))
    energies = [float(r["energy"]) for r in rows]
    assert energies == sorted(energies)
    summary = json.load(open(out / "summary.json"))
    assert summary["monotone"] is True
    assert summary["i_micro"] > summary["i_macro"]
    # the stages of both solve chains, each summed over its solutions
    assert set(rows[0]) == {"lc", "energy"}
    assert {k: set(v) for k, v in summary["stages"].items()} == {
        "sweep": STAGES, "bound": STAGES}
    # the memory of each factorization, none for PCG values
    direct = [path == "direct" for path in summary["solver_path"]]
    for key in ("factor_bytes", "analysis_bytes", "matrix_bytes"):
        assert [v is not None and v > 0 for v in summary[key]] == direct


def test_mesh_override(runner, tmp_path):
    from mmfem.mesh import generate_disk, io_write
    mesh_path = tmp_path / "disk.json"
    io_write(generate_disk(10.0, n_rings=2), mesh_path)
    out = tmp_path / "anti"
    result = runner.invoke(cli, ["antiplane", "--p", "0", "--refine", "0",
                                 "--mesh", str(mesh_path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(open(out / "results.csv")))
    assert int(rows[0]["n_cells"]) == 24


def _bench(*args):
    """``python -m mmfem.cli``, the console script's ``main``, with this
    source tree first on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "mmfem.cli", *args],
                          capture_output=True, text=True, env=env)


def test_error_exit_code(tmp_path):
    proc = _bench("antiplane", "--p", "-3", "--out", str(tmp_path))
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")


_PARAMS_FILES = {"bad_json": '{"lc": 1.0,\n "mu_e": }', "string_modulus": '{"lc": "2"}',
                 "null_modulus": '{"mu_e": null}', "not_an_object": "[1.0, 2.0]"}


@pytest.mark.parametrize("args,message", [
    (("antiplane", "--refine", "-1"), "refine must be >= 0"),
    (("lc-sweep", "--refine", "-1"), "refine must be >= 0"),
    (("lc-sweep", "--lc", "0.1,abc"), "'abc'"),
    (("lc-sweep", "--p", "0", "--bound-degree", "1", "--lc", "nan"),
     "coefficient nan is not finite"),
    (("lc-sweep", "--p", "0", "--bound-degree", "1", "--lc", "1,inf"),
     "coefficient inf is not finite"),
    (("antiplane", "--params", "{bad_json}"), "bad_json.json: invalid JSON at line 2"),
    (("bending", "--params", "{string_modulus}"), "material key 'lc' must be a number"),
    (("lc-sweep", "--params", "{null_modulus}"), "material key 'mu_e' must be a number"),
    (("lc-sweep", "--params", "{not_an_object}"), "not_an_object.json: not a JSON object"),
    (("lc-sweep", "--p", "0", "--bound-degree", "1", "--lc", "-1,1"),
     "lc values must be >= 0, got -1.0"),
])
def test_bad_bench_input_is_a_typed_error(tmp_path, args, message):
    # "{name}" in args stands for a --params file of _PARAMS_FILES
    paths = {name: str(tmp_path / f"{name}.json") for name in _PARAMS_FILES}
    for name, text in _PARAMS_FILES.items():
        (tmp_path / f"{name}.json").write_text(text)
    proc = _bench(*(arg.format(**paths) for arg in args), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["antiplane", "bending", "lc-sweep"])
def test_mesh_file_with_refine_is_a_typed_error(tmp_path, name):
    # a mesh file is used as given: refine > 0 with one is rejected, not
    # ignored
    from mmfem.mesh import generate_box, io_write
    mesh_path = tmp_path / "box.json"
    io_write(generate_box(((-1, 1),) * 3, 1), mesh_path)
    proc = _bench(name, "--p", "1", "--refine", "1", "--mesh", str(mesh_path),
                  "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "refine must be 0" in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "out").exists()


def test_bench_entry_point(tmp_path):
    # a library error exits 2 with one line on stderr and no traceback; a
    # one-hex cube, whose degree-1 bound systems have no free dofs, runs
    from mmfem.mesh import generate_box, io_write
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1.0}))
    proc = _bench("lc-sweep", "--params", str(bad), "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: unknown material keys")
    assert "Traceback" not in proc.stderr
    mesh_path = tmp_path / "hex.json"
    io_write(generate_box(((-1, 1),) * 3, 1), mesh_path)
    out = tmp_path / "hex"
    proc = _bench("lc-sweep", "--p", "0", "--bound-degree", "1", "--mesh",
                  str(mesh_path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(list(csv.DictReader(open(out / "results.csv")))) == 16


def test_lc_sweep_deterministic(runner, tmp_path):
    outputs = {}
    for run in ("1", "2"):
        out = tmp_path / f"sweep{run}"
        result = runner.invoke(cli, ["lc-sweep", "--p", "1", "--lc",
                                     "1e-4,0.3,0.01,10,0.3", "--bound-degree",
                                     "2", "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs[run] = (out / "results.csv").read_bytes()
    # one solve chain: byte-identical tables
    assert outputs["1"] == outputs["2"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["solver_path"][0] == "direct"
    assert len(summary["iterations"]) == 5
    assert summary["n_factorizations"] == summary["solver_path"].count("direct")


def test_params_override(runner, tmp_path):
    import json as _json
    pth = tmp_path / "params.json"
    pth.write_text(_json.dumps({"mu_micro": 4.0}))
    out = tmp_path / "anti"
    result = runner.invoke(cli, ["antiplane", "--p", "0", "--refine", "0",
                                 "--params", str(pth), "--out", str(out)])
    assert result.exit_code == 0, result.output
    bad = tmp_path / "bad.json"
    bad.write_text(_json.dumps({"nonsense": 1.0}))
    result = runner.invoke(cli, ["antiplane", "--p", "0", "--refine", "0",
                                 "--params", str(bad), "--out", str(out)])
    assert result.exit_code != 0


def test_bending_outputs(runner, tmp_path):
    from mmfem.benchmarks import BENDING_ZGRID
    from mmfem.mesh import generate_box, io_write
    mesh_path = tmp_path / "plate.json"
    io_write(generate_box(((-10.0, 10.0), (-10.0, 10.0), (-0.5, 0.5)),
                          (2, 2, np.asarray(BENDING_ZGRID))), mesh_path)
    out = tmp_path / "bend"
    result = runner.invoke(cli, ["bending", "--p", "1", "--mesh", str(mesh_path),
                                 "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(open(out / "results.csv")))
    assert len(rows) == 101
    summary = json.load(open(out / "summary.json"))
    assert summary["benchmark"] == "bending"
    # the solver's stage timings reach the summary; their values are not checked
    assert set(summary["stages"]) == STAGES
