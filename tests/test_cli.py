import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rfuncds
from rfuncds import cli, ds, reactor
from rfuncds.errors import IntegratorFailure
from rfuncds.exprtext import parse_infix
from rfuncds.expr import eval_arrays
from rfuncds.reactor import CQA_BASIS

REPO = Path(__file__).resolve().parents[1]
KELVIN_CFG = REPO / "presets" / "kelvin-activation.cfg"
REPORT_FIXTURE = REPO / "perfbench" / "fixtures" / "kelvin-alpha1.json"


def run(argv):
    return cli.main(argv)


def test_demo_circles(tmp_path, capsys):
    out = tmp_path / "demo"
    assert run(["demo", "circles-4.1", "--grid", "64", "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"and.svg", "or.svg", "and_field.csv", "or_field.csv",
            "expressions.txt"} <= names
    assert "wrote" in capsys.readouterr().out


def test_demo_unknown_name_exits_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        run(["demo", "circles-9.9", "--out", str(tmp_path)])
    assert info.value.code == 2


def test_demo_expressions_file_matches_closed_form(tmp_path):
    out = tmp_path / "demo"
    assert run(["demo", "parabolas-4.2", "--grid", "32", "--out", str(out)]) == 0
    text = (out / "expressions.txt").read_text()
    section = None
    infix = {}
    for line in text.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif line.startswith("infix_abs = "):
            infix[section] = line.removeprefix("infix_abs = ")
    expr = parse_infix(infix["and"])
    x, y = np.meshgrid(np.linspace(-2, 4, 50), np.linspace(-6, 2, 50), indexing="ij")
    values = eval_arrays(expr, {"x": x, "y": y})
    expected = 2 * x - x**2 - np.abs(4 * y + 9) / 4 - 0.25
    assert np.abs(values - expected).max() <= 1e-9


def test_demo_slabs_slices(tmp_path):
    out = tmp_path / "demo3d"
    assert run(["demo", "slabs-A1", "--grid", "24", "--slices", "9",
                "--out", str(out)]) == 0
    for label in ("and", "or"):
        slices = [p for p in out.iterdir() if p.name.startswith(f"{label}_slice")]
        assert len(slices) == 9
        assert (out / f"{label}_field.csv").exists()


def test_identify_and_check_flow(tmp_path, capsys):
    out = tmp_path / "ds"
    code = run(["identify", "--n", "32", "--grid", "64", "--out", str(out),
                "--config", str(KELVIN_CFG)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "purity" in printed and "profit" in printed and "R2" in printed
    names = {p.name for p in out.iterdir()}
    assert {"ds_report.json", "joint_ds.svg", "constraint_boundaries.svg",
            "phi_purity.csv", "phi_profit.csv", "joint.csv"} <= names
    report = json.loads((out / "ds_report.json").read_text())
    assert report["format"] == "rfuncds-ds-report/1"
    assert report["files"]["joint_svg"] == "joint_ds.svg"

    # membership queries against the saved report: high-T corner is inside
    # under the kelvin reading, the low-T corner violates purity
    rpt = str(out / "ds_report.json")
    assert run(["check", rpt, "290,275"]) == 0
    assert run(["check", rpt, "250,250"]) == 3
    assert run(["check", rpt, "T=290,t=275"]) == 0
    assert run(["check", rpt, "240,250"]) == 2      # out of box
    assert run(["check", rpt, "oops"]) == 2
    assert run(["check", str(tmp_path / "missing.json"), "275,275"]) == 2


def test_check_boundary_exit_code(tmp_path):
    # single synthetic constraint whose boundary T + t = 550 is exact
    box = (ds.BoxAxis("T", 250.0, 300.0), ds.BoxAxis("t", 250.0, 300.0))
    spec = ds.ConstraintSpec("sum", 550.0)
    report = ds.identify([spec], box, 16, CQA_BASIS, contour_resolution=None,
                         model=lambda points: points[:, :1] + points[:, 1:])
    path = tmp_path / "synthetic.json"
    ds.save_report(report, path)
    assert run(["check", str(path), "275,275"]) == 4


def test_identify_rejects_small_n(tmp_path, capsys):
    assert run(["identify", "--n", "4", "--out", str(tmp_path)]) == 2
    assert "basis size" in capsys.readouterr().err


def test_identify_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 1.0\n")
    assert run(["identify", "--n", "8", "--out", str(tmp_path / "o"),
                "--config", str(cfg)]) == 2
    cfg.write_text("r_gas ~ 1.0\n")
    assert run(["identify", "--n", "8", "--out", str(tmp_path / "o"),
                "--config", str(cfg)]) == 2


def test_sobol_command(capsys):
    assert run(["sobol", "2", "3"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows == ["0.5,0.5", "0.75,0.25", "0.25,0.75"]
    assert run(["sobol", "1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0.5"
    assert run(["sobol", "0", "1"]) == 2


def test_outputs_stay_in_outdir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "only-here"
    assert run(["demo", "circles-4.1", "--grid", "32", "--out", str(out)]) == 0
    assert list(workdir.iterdir()) == []


def test_identify_default_run_reports_high_r2(tmp_path, capsys):
    # default model, default n=64: both metamodels must report R2 >= 0.99
    out = tmp_path / "ds_default"
    assert run(["identify", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    r2_values = [float(tok.rstrip(",")) for line in printed.splitlines()
                 for tok in line.split() if tok.startswith("0.9")]
    assert len(r2_values) >= 4
    assert all(v >= 0.99 for v in r2_values)
    report = json.loads((out / "ds_report.json").read_text())
    for c in report["constraints"]:
        assert c["r_squared"] >= 0.99
        assert c["validation_r_squared"] >= 0.99


# ----------------------------------------------------------------------
# malformed input: exit 2 with one error line, before any model run

def assert_usage_error(code, capsys):
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.fixture
def no_model_runs(monkeypatch):
    # identify's model is reactor.cqa_closed, whose first step is batch_cqa
    def fail(*args, **kwargs):
        raise AssertionError("a model run started before input validation")
    monkeypatch.setattr(reactor, "batch_cqa", fail)


def test_no_model_runs_guard_trips(tmp_path, no_model_runs):
    with pytest.raises(AssertionError, match="a model run started"):
        run(["identify", "--n", "8", "--grid", "8", "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("config", [
    "T_lo = 310\n",
    "T_lo = -5\n",
    "t_lo = 300\nt_hi = 260\n",
    "t_lo = 0\n",
], ids=["T_lo>T_hi", "T_lo<0", "t_lo>t_hi", "t_lo=0"])
def test_identify_rejects_bad_box(config, tmp_path, capsys, no_model_runs):
    cfg = tmp_path / "box.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert_usage_error(run(["identify", "--config", str(cfg), "--out", str(out)]), capsys)
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["2", "-1", "nan"])
def test_identify_rejects_alpha(alpha, tmp_path, capsys, no_model_runs):
    out = tmp_path / "o"
    line = assert_usage_error(run(["identify", "--alpha", alpha, "--out", str(out)]), capsys)
    assert "alpha" in line
    assert not out.exists()


def test_demo_rejects_alpha(tmp_path, capsys):
    out = tmp_path / "o"
    line = assert_usage_error(
        run(["demo", "circles-4.1", "--alpha", "-1", "--out", str(out)]), capsys)
    assert "alpha" in line
    assert not out.exists()


def test_check_rejects_corrupt_joint_tree(tmp_path, capsys):
    assert run(["check", str(REPORT_FIXTURE), "290,275"]) == 0
    report = json.loads(REPORT_FIXTURE.read_text())
    report["joint"]["tree"] = {"op": "bogus"}
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(report))
    line = assert_usage_error(run(["check", str(path), "290,275"]), capsys)
    assert "cannot read report" in line


def test_runtime_failure_exits_1(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise IntegratorFailure("step size underflow")
    monkeypatch.setattr(reactor, "batch_cqa", fail)
    assert run(["identify", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: step size underflow\n"


def test_closed_refinement_failure_exits_1(tmp_path, capsys, monkeypatch):
    # C_B that halves with the interval count fails batch_cqa's own check
    monkeypatch.setattr(reactor, "_batch_b_final",
                        lambda T, t, params, n: np.full(T.shape, float(n)))
    assert run(["identify", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: fast-path refinement estimate 5.000e-01 exceeds")


@pytest.mark.parametrize("argv", [["--grid", "1", "--n", "8"], ["--skip", "-5"]],
                         ids=["grid=1", "skip=-5"])
def test_identify_rejects_bad_grid_and_skip(argv, tmp_path, capsys, no_model_runs):
    out = tmp_path / "o"
    line = assert_usage_error(run(["identify", *argv, "--out", str(out)]), capsys)
    assert argv[0] in line
    assert not out.exists()


@pytest.mark.parametrize("argv", [["2", "-1"], ["2", "3", "--skip", "-1"]],
                         ids=["n=-1", "skip=-1"])
def test_sobol_rejects_bad_counts(argv, capsys):
    assert_usage_error(run(["sobol", *argv]), capsys)


@pytest.mark.parametrize("point, needle", [
    ("T=290,t=275,z=1", "'z'"),
    ("T=290,T=275,t=275", "given twice"),
    ("T=290", "missing coordinate 't'"),
], ids=["unknown", "repeated", "missing"])
def test_check_rejects_bad_coordinate_names(point, needle, capsys):
    line = assert_usage_error(run(["check", str(REPORT_FIXTURE), point]), capsys)
    assert needle in line


def test_identify_provenance_names_model(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["identify", "--n", "16", "--grid", "16", "--out", str(out)]) == 0
    capsys.readouterr()
    expected = (f"rfuncds {rfuncds.__version__} | rfuncds identify --n 16 --grid 16 "
                f"--out {out} | model reactor.cqa_closed")
    assert json.loads((out / "ds_report.json").read_text())["provenance"] == expected
    assert (out / "joint.csv").read_text().splitlines()[0] == f"# {expected}"


def test_default_paths_never_import_scipy(tmp_path):
    # a child interpreter, so no other test's imports count
    code = (
        "import sys\n"
        "import rfuncds\n"
        "from rfuncds import cli\n"
        "assert cli.main(['identify', '--n', '16', '--grid', '16',\n"
        "                 '--config', sys.argv[1], '--out', 'ds']) == 0\n"
        "assert cli.main(['check', 'ds/ds_report.json', '290,275']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(rfuncds.__file__)\n"
    )
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    pkg_root = Path(rfuncds.__file__).resolve().parents[1]
    env["PYTHONPATH"] = str(pkg_root) + (os.pathsep + extra if extra else "")
    proc = subprocess.run([sys.executable, "-c", code, str(KELVIN_CFG)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules, pkg_file = proc.stdout.splitlines()[-2:]
    assert Path(pkg_file).resolve() == Path(rfuncds.__file__).resolve()
    assert modules == "[]"
