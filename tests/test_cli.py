import copy
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import rfuncds
from rfuncds import cli, ds, errors, reactor
from rfuncds.errors import RankDeficient
from rfuncds.exprtext import MAX_DEPTH
from rfuncds.reactor import CQA_BASIS
from conftest import chain_report, fitted_report
from infix_eval import infix_eval

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
    x, y = np.meshgrid(np.linspace(-2, 4, 50), np.linspace(-6, 2, 50), indexing="ij")
    values = infix_eval(infix["and"], {"x": x, "y": y})
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
    report = ds.identify([spec], box, 16, CQA_BASIS,
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


def test_identify_rejects_a_repeated_config_key(tmp_path, capsys, no_model_runs):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("r_gas = 1.0\n# SI after all\n r_gas=8.314\n")
    out = tmp_path / "o"
    line = assert_usage_error(run(["identify", "--config", str(cfg), "--out", str(out)]), capsys)
    assert line == f"error: {cfg}:3: key 'r_gas' given twice"
    assert not out.exists()


@pytest.mark.parametrize("argv, model", [
    (["demo", "circles-4.1", "--grid", "16"], ""),
    (["demo", "slabs-A1", "--grid", "8", "--slices", "2"], ""),
    (["identify", "--n", "8", "--grid", "16"], " | model reactor.cqa_closed"),
], ids=["demo-2d", "demo-3d", "identify"])
def test_every_svg_written_is_well_formed_xml(argv, model, tmp_path):
    # XML comments may not hold "--", so the invocation cannot go in one
    out = tmp_path / "a&b <c> --d"
    argv = [*argv, "--out", str(out)]
    assert run(argv) == 0
    svgs = sorted(out.glob("*.svg"))
    assert len(svgs) >= 2
    for path in svgs:
        desc = ElementTree.parse(path).getroot()[0]
        assert desc.text == f"rfuncds {rfuncds.__version__} | rfuncds {' '.join(argv)}{model}"


# an --out that is not UTF-8 (Python decodes the byte to a lone surrogate) and
# one that holds a newline; each reads back as an escape in the provenance
@pytest.mark.parametrize("name, shown", [("d\udcff", "d\\udcff"), ("n\nx", "n\\nx")],
                         ids=["not-utf8", "newline"])
@pytest.mark.parametrize("argv, model, csvs", [
    (["demo", "circles-4.1", "--grid", "8"], "", ("and_field.csv", "or_field.csv")),
    (["identify", "--n", "16", "--grid", "8"], " | model reactor.cqa_closed",
     ("phi_purity.csv", "phi_profit.csv", "joint.csv")),
], ids=["demo", "identify"])
def test_provenance_is_one_utf8_line_whatever_argv_holds(argv, model, csvs, name, shown,
                                                         tmp_path, capsys):
    out = tmp_path / name
    assert run([*argv, "--out", str(out)]) == 0
    assert all(line.isprintable() for line in capsys.readouterr().out.splitlines())
    expected = (f"rfuncds {rfuncds.__version__} | rfuncds {' '.join(argv)} "
                f"--out {tmp_path}/{shown}{model}")
    texts = {path.name: path.read_bytes().decode("utf-8", errors="strict")
             for path in out.iterdir()}
    for csv_name in csvs:
        rows = list(csv.reader(io.StringIO(texts[csv_name])))
        assert rows[0] == [f"# {expected}"]
        assert rows[1] in (["x", "y", "value"], ["polyline", "point", "x", "y", "closed"])
    if argv[0] == "demo":
        assert texts["expressions.txt"].splitlines()[:2] == [
            f"# {expected}", "# case circles-4.1, alpha=1.0"]
    else:
        assert json.loads(texts["ds_report.json"])["provenance"] == expected
    for svg in (path for path in out.iterdir() if path.suffix == ".svg"):
        assert ElementTree.parse(svg).getroot()[0].text == expected


def test_escaped_keeps_printable_text_and_escapes_the_rest():
    printable = "".join(map(chr, range(32, 127))) + " \u00e9 \u65e5"
    assert cli._escaped(printable) == printable
    assert cli._escaped("a\tb\r\n\x1b\x7f\x85\u2028\udcff") == (
        "a\\tb\\r\\n\\x1b\\x7f\\x85\\u2028\\udcff")


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

def parse_error_code(argv):
    """The exit code of a command line that argparse itself rejects."""
    with pytest.raises(SystemExit) as info:
        run(argv)
    return info.value.code


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
    "T_hi = inf\n",
    "t_hi = inf\n",
    "T_lo = nan\n",
], ids=["T_lo>T_hi", "T_lo<0", "t_lo>t_hi", "t_lo=0", "T_hi=inf", "t_hi=inf", "T_lo=nan"])
def test_identify_rejects_bad_box(config, tmp_path, capsys, no_model_runs):
    cfg = tmp_path / "box.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert_usage_error(run(["identify", "--config", str(cfg), "--out", str(out)]), capsys)
    assert not out.exists()


@pytest.mark.parametrize("name", ["missing.cfg", "a-directory"], ids=["missing", "directory"])
def test_identify_rejects_unreadable_config(name, tmp_path, capsys, no_model_runs):
    (tmp_path / "a-directory").mkdir()
    out = tmp_path / "o"
    assert_usage_error(run(["identify", "--config", str(tmp_path / name), "--out", str(out)]),
                       capsys)
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


def test_check_rejects_a_report_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + REPORT_FIXTURE.read_text().encode("utf-16-le"))
    line = assert_usage_error(run(["check", str(path), "290,275"]), capsys)
    assert "cannot read report" in line and "is not UTF-8 text" in line


@pytest.mark.parametrize("argv", [["identify", "--n", "abc"], ["demo", "circles-9.9"], []],
                         ids=["bad-int", "unknown-demo", "no-subcommand"])
def test_argparse_errors_are_one_line(argv, capsys):
    # argparse's own format is a usage block, then "rfuncds ...: error: ..."
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert "usage:" not in assert_usage_error(info.value.code, capsys)


def _repeat_axis_name(report):
    # both axes named T, and the variable t with them
    report.update(json.loads(json.dumps(report).replace('"t"', '"T"')))


def _edited_report(tmp_path, edit):
    report = json.loads(REPORT_FIXTURE.read_text())
    edit(report)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(report))
    return path


@pytest.mark.parametrize("edit, needle", [
    pytest.param(lambda r: r.update(alpha=5), "alpha must satisfy", id="alpha=5"),
    pytest.param(lambda r: r["box"][0].update(lo=300.0, hi=250.0),
                 "lo < hi, got [300.0, 250.0]", id="lo>hi"),
    pytest.param(lambda r: r["box"][0].update(lo=float("nan")), "lo < hi, got [nan, 300.0]",
                 id="nan-lo"),
    pytest.param(lambda r: r["constraints"][0].update(threshold=10**400),
                 "threshold must be a number, got 1000", id="threshold=10**400"),
    pytest.param(lambda r: r["constraints"][0]["coefficients"].__setitem__(0, 10**400),
                 "coefficient must be a number, got 1000", id="coefficient=10**400"),
    # JSON's NaN and Infinity tokens, which json.loads reads as floats
    pytest.param(lambda r: r["constraints"][0]["coefficients"].__setitem__(2, math.nan),
                 "coefficient must be a finite number, got nan", id="coefficient=NaN"),
    pytest.param(lambda r: r["constraints"][1]["coefficients"].__setitem__(0, math.inf),
                 "coefficient must be a finite number, got inf", id="coefficient=Infinity"),
    pytest.param(lambda r: r["constraints"][0].update(threshold=-math.inf),
                 "threshold must be a finite number, got -inf", id="threshold=-Infinity"),
    pytest.param(lambda r: r["constraints"][1].update(residual_max_abs=-10**400),
                 "residual_max_abs must be a number, got -1000", id="residual=-10**400"),
    # numbers and counts are JSON numbers, as in the tree format, not bools or strings
    pytest.param(lambda r: r["box"][0].update(lo=False), "lo must be a number, got False",
                 id="lo=false"),
    pytest.param(lambda r: r.update(alpha="1"), "alpha must be a number, got '1'",
                 id='alpha="1"'),
    pytest.param(lambda r: r["constraints"][0]["coefficients"].__setitem__(0, "0.5"),
                 "coefficient must be a number, got '0.5'", id='coefficient="0.5"'),
    pytest.param(lambda r: r["constraints"][0].update(threshold="0.8"),
                 "threshold must be a number, got '0.8'", id='threshold="0.8"'),
    pytest.param(lambda r: r["sampling"].update(n_train=64.9),
                 "n_train must be a non-negative integer below 2^1024, got 64.9",
                 id="n_train=64.9"),
    pytest.param(lambda r: r["validation"].update(n_points=True),
                 "n_points must be a non-negative integer below 2^1024, got True",
                 id="n_points=true"),
    pytest.param(lambda r: r["constraints"][0]["basis"]["monomials"][1].__setitem__(0, math.inf),
                 "basis exponent must be a non-negative integer below 2^1024, got inf",
                 id="monomial-exponent=inf"),
    *[pytest.param(lambda r, e=e: r["constraints"][0]["basis"]["monomials"][1].__setitem__(0, e),
                   f"basis exponent must be a non-negative integer below 2^1024, got {e!r}",
                   id=f"monomial-exponent={json.dumps(e)}")
      for e in (1.5, 1.0, True, "1", "01")],
    pytest.param(lambda r: r["sampling"].pop("skip"), "report has no field 'skip'",
                 id="no-skip"),
    pytest.param(lambda r: r.pop("sampling"), "report has no field 'sampling'",
                 id="no-sampling"),
    pytest.param(lambda r: r.update(constraints=[]), "report has no constraints",
                 id="no-constraints"),
    pytest.param(lambda r: r.pop("validation"), "report has no field 'validation'",
                 id="no-validation"),
    pytest.param(lambda r: r["constraints"][1].pop("validation_r_squared"),
                 "report has no field 'validation_r_squared'", id="no-validation-r-squared"),
    pytest.param(_repeat_axis_name, "variable names repeat", id="repeated-axis-name"),
    pytest.param(lambda r: r["constraints"][0]["basis"].update(vars=["a", "b"]),
                 "basis variables ('a', 'b') != box axes ('T', 't')", id="basis-vars"),
    # a string is not read as its characters, though tuple("Tt") is ("T", "t")
    pytest.param(lambda r: r["constraints"][0]["basis"].update(vars="Tt"),
                 "basis variables must be a list, got 'Tt'", id='basis-vars="Tt"'),
    pytest.param(lambda r: r["constraints"][0]["basis"].update(vars=["T", 5]),
                 "basis variable must be a non-empty string, got 5", id="basis-var=5"),
    # names are non-empty strings, as a var name of the tree format must be
    *[pytest.param(lambda r, v=v: r["constraints"][1].update(name=v),
                   f"constraint name must be a non-empty string, got {v!r}",
                   id=f"constraint-name={json.dumps(v)}")
      for v in (5, None, "", ["profit"])],
    *[pytest.param(lambda r, v=v: r["box"][0].update(name=v),
                   f"box axis name must be a non-empty string, got {v!r}",
                   id=f"axis-name={json.dumps(v)}")
      for v in (5, None, "")],
    *[pytest.param(lambda r, v=v: r["box"][1].update(unit=v),
                   f"box axis unit must be a string or null, got {v!r}",
                   id=f"unit={json.dumps(v)}")
      for v in (7, False, ["min"])],
])
def test_check_rejects_invalid_report_fields(edit, needle, tmp_path, capsys):
    path = _edited_report(tmp_path, edit)
    line = assert_usage_error(run(["check", str(path), "290,275"]), capsys)
    assert "cannot read report" in line and needle in line


def test_check_rejects_too_deep_report(tmp_path, capsys):
    # the deep tree is spliced in as text, since json.dumps itself recurses
    path = _edited_report(tmp_path, lambda r: r["joint"].update(tree="DEEP"))
    deep = '{"kind":"neg","args":[' * 900 + '{"kind":"var","name":"T"}' + "]}" * 900
    path.write_text(path.read_text().replace('"DEEP"', deep))
    line = assert_usage_error(run(["check", str(path), "290,275"]), capsys)
    assert "cannot read report" in line and "deeper than" in line


def test_check_reads_trees_at_the_depth_limit(tmp_path, capsys):
    # 1 + T + T^2 + ... + T^125: the phi and joint trees are MAX_DEPTH levels
    # deep (the tree reader's own limit: test_exprtext.py, "depth limit")
    path = tmp_path / "deep.json"
    ds.save_report(chain_report(MAX_DEPTH), path)
    assert run(["check", str(path), "0.5,0.5"]) == 0
    assert capsys.readouterr() == ("inside (joint expression = 2.0)\n", "")


@pytest.mark.parametrize("terms", [
    # a square is a product, which gives inf as numpy does
    pytest.param({(2, 0): 1e305, (0, 0): -1.0}, id="huge-coefficient"),
    # every power from exponent 3 on is products too, which give inf where
    # float ** int raises OverflowError
    # (test_compile.py, test_scalar_power_overflow_gives_the_array_value)
    pytest.param({(130, 0): 1.0, (0, 0): -1.0}, id="float-power"),
])
def test_check_reports_inf_when_a_float_power_overflows(terms, tmp_path, capsys):
    report = ds.load_report(REPORT_FIXTURE)
    path = tmp_path / "inf.json"
    ds.save_report(fitted_report(report.box, [("big", 0.0, terms)]), path)
    assert run(["check", str(path), "290,275"]) == 0
    assert capsys.readouterr() == ("inside (joint expression = inf)\n", "")


def _zero_purity(report):
    # the purity fit set to 0 and its phi_tree to the constant -1, so purity
    # fails everywhere; joint.tree still holds the fitted purity
    purity = report["constraints"][0]
    purity["coefficients"] = [0.0] * len(purity["coefficients"])
    purity["phi_tree"] = {"kind": "const", "value": -1.0}


def _edit_joint_tree(report):
    # the joint of the fixture at alpha 1 is min(purity phi, profit phi); profit
    # alone answers "inside" at points where purity is too low
    report["joint"]["tree"] = report["constraints"][1]["phi_tree"]


def _float_exponents(tree):
    # "exponent": 2.0 for 2 in every power node: equal as decoded JSON values,
    # not as JSON text
    stack = [tree]
    while stack:
        node = stack.pop()
        if node["kind"] == "pow":
            node["exponent"] = float(node["exponent"])
        stack.extend(node.get("args", ()))


def _lower_text(holder, key):
    # an infix text whose value is one lower than its fit's
    holder[key] += "-1.0"


@pytest.mark.parametrize("edit, needle", [
    pytest.param(_edit_joint_tree, "joint.tree differs", id="joint-tree"),
    pytest.param(lambda r: r["constraints"][1]["coefficients"].__setitem__(0, 0.5),
                 "phi_tree of constraint 'profit' differs", id="one-coefficient"),
    pytest.param(_zero_purity, "phi_tree of constraint 'purity' differs", id="zero-purity"),
    pytest.param(lambda r: _float_exponents(r["constraints"][0]["phi_tree"]),
                 "phi_tree of constraint 'purity' differs", id="float-exponent-phi"),
    pytest.param(lambda r: _float_exponents(r["joint"]["tree"]),
                 "joint.tree differs", id="float-exponent-joint"),
    pytest.param(lambda r: _lower_text(r["constraints"][0], "phi_infix"),
                 "phi_infix of constraint 'purity' differs", id="phi-infix"),
    pytest.param(lambda r: _lower_text(r["constraints"][1], "phi_infix"),
                 "phi_infix of constraint 'profit' differs", id="phi-infix-profit"),
    pytest.param(lambda r: _lower_text(r["joint"], "infix_abs"),
                 "joint.infix_abs differs", id="infix-abs"),
    pytest.param(lambda r: _lower_text(r["joint"], "infix_sqrt"),
                 "joint.infix_sqrt differs", id="infix-sqrt"),
    pytest.param(lambda r: r["joint"].update(note="hand-edited"),
                 "joint holds 'infix_sqrt', 'infix_abs', 'tree', 'note'", id="joint-extra-field"),
])
def test_check_refuses_a_report_whose_trees_differ_from_its_fits(edit, needle, tmp_path,
                                                                   capsys):
    path = _edited_report(tmp_path, edit)
    line = assert_usage_error(run(["check", str(path), "290,275"]), capsys)
    assert "cannot read report" in line and needle in line


@pytest.mark.parametrize("point, code", [("-5,275", 3), ("-5e0,2.75e2", 3), ("-0.5,275", 3),
                                         ("-inf,275", 2), ("-nan,275", 2), ("-5", 2)])
def test_check_reads_a_negative_first_coordinate_as_a_value(point, code, tmp_path, capsys):
    # "-5,275" starts like an option; it is read as "-- -5,275" is
    path = _edited_report(tmp_path, lambda r: r["box"][0].update(lo=-10.0))
    answers = [(run(argv), capsys.readouterr())
               for argv in (["check", str(path), point], ["check", str(path), "--", point])]
    assert answers[0] == answers[1]
    assert answers[0][0] == code
    out, err = answers[0][1]
    if code == 3:
        assert out.startswith("outside (joint expression = -")
    else:
        assert err.startswith("error: ") and "required" not in err


def test_an_option_takes_a_negative_number_with_an_exponent(tmp_path):
    assert run(["demo", "circles-4.1", "--alpha", "-1e-3", "--grid", "8",
                "--out", str(tmp_path)]) == 0
    assert "# case circles-4.1, alpha=-0.001" in (tmp_path / "expressions.txt").read_text()


def test_check_still_reads_its_options(capsys):
    with pytest.raises(SystemExit) as exit_:
        run(["check", str(REPORT_FIXTURE), "-h"])
    assert exit_.value.code == 0 and capsys.readouterr().out.startswith("usage: rfuncds check")
    with pytest.raises(SystemExit) as exit_:
        run(["check", str(REPORT_FIXTURE), "--bogus"])
    assert exit_.value.code == 2 and capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value, code, verdict", [
    (0.5, 0, "inside"), (-0.5, 3, "outside"), (1e-9, 4, "boundary"), (-1e-9, 4, "boundary"),
    (1.5e-9, 0, "inside"), (-1.5e-9, 3, "outside"), (math.nan, 3, "outside"),
])
def test_check_evaluates_the_joint_expression_once(value, code, verdict, monkeypatch, capsys):
    # the verdict comes from the one printed value, with membership's tolerance
    report = ds.load_report(REPORT_FIXTURE)
    calls = []

    def scalars(inputs):
        calls.append(list(inputs))
        return value
    report.joint.scalar_program.__dict__["function"] = scalars
    monkeypatch.setattr(ds, "load_report", lambda path: report)
    assert run(["check", str(REPORT_FIXTURE), "t=280,T=290"]) == code
    assert calls == [[290.0, 280.0]]
    assert capsys.readouterr() == (f"{verdict} (joint expression = {value!r})\n", "")


# what a mutated report field becomes: numbers beyond the float range or
# the basis' integers, special floats, wrong types and a foreign tree node
_MUTANTS = [10**400, -10**400, 10**30, 2**70, math.inf, -math.inf, math.nan, 0, -1, 0.5,
            1e200, "x", "", None, True, [], {}, [1.0, 2.0], {"kind": "var", "name": "T"}]


def _mutate(rnd, report):
    """Replace or delete one value anywhere in ``report``."""
    slots, stack = [], [report]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            for key in keys:
                slots.append((node, key))
                stack.append(node[key])
    node, key = rnd.choice(slots)
    if rnd.random() < 0.2:
        del node[key]
    else:
        node[key] = copy.deepcopy(rnd.choice(_MUTANTS))


def test_check_never_ends_in_a_traceback_on_a_mutated_report(tmp_path, capsys):
    # the documented exit codes and one error line for every mutation
    text = REPORT_FIXTURE.read_text()
    path = tmp_path / "mutant.json"
    rnd = random.Random(1)
    for case in range(300):
        report = json.loads(text)
        for _ in range(rnd.randint(1, 3)):
            _mutate(rnd, report)
        path.write_text(json.dumps(report))
        code = run(["check", str(path), "290,275"])
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (case, err)
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("error: "), (case, err)
        else:
            assert err == "" and out.startswith(("inside", "outside", "boundary")), case


def test_runtime_failure_exits_1(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RankDeficient("design matrix is rank deficient")
    monkeypatch.setattr(reactor, "batch_cqa", fail)
    assert run(["identify", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: design matrix is rank deficient\n"


# every package error class, as main's exit-code table sees it
PACKAGE_ERRORS = [cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.RfuncdsError)]


def test_run_failures_are_the_four_runtime_error_classes():
    run_failures = {cls for cls in PACKAGE_ERRORS if issubclass(cls, errors.RunFailure)}
    assert run_failures == {errors.RunFailure, errors.ToleranceNotMet, errors.RankDeficient,
                            errors.InsufficientPoints, errors.NonFiniteValue}


@pytest.mark.parametrize("cls", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
def test_main_exits_1_for_a_run_failure_and_2_for_every_other_package_error(cls, capsys,
                                                                           monkeypatch):
    exc = cls.__new__(cls)   # each class takes its own arguments; the message is set here
    exc.args = ("the message",)

    def fail(args, provenance):
        raise exc
    monkeypatch.setattr(cli, "cmd_sobol", fail)
    assert run(["sobol", "2", "1"]) == (1 if issubclass(cls, errors.RunFailure) else 2)
    assert capsys.readouterr().err == "error: the message\n"


def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 TiB for an array")
    monkeypatch.setattr(cli, "grid_eval", fail)
    assert run(["demo", "circles-4.1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 74.5 TiB for an array\n"


@pytest.mark.parametrize("config, needle", [
    ("volume = 1e308\n", "model returned inf or nan at 7 of 64 points"),
    ("T_hi = 1e308\n", "monomial (2, 0) in ('T', 't') is not finite"),
], ids=["volume=1e308", "T_hi=1e308"])
def test_identify_non_finite_values_exit_1(config, needle, tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert run(["identify", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
    assert not out.exists()


def _refuse_constant(token):
    raise ValueError(f"JSON constant {token}")


def test_identify_keeps_r_squared_finite_near_the_float_limit(tmp_path, capsys):
    # profit scales with the volume; squaring its deviations would overflow
    cfg = tmp_path / "big.cfg"
    cfg.write_text("volume = 1e300\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["identify", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out / "ds_report.json").read_text(), parse_constant=_refuse_constant)
    values = [c[key] for c in report["constraints"]
              for key in ("r_squared", "validation_r_squared")]
    assert len(values) == 4 and all(math.isfinite(v) for v in values)


def test_identify_keeps_r_squared_finite_for_a_subnormal_target(tmp_path, capsys):
    # purity falls to about 1e-311, below the normal floats
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("k1_0 = 1e300\n")
    out = tmp_path / "o"
    assert run(["identify", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out / "ds_report.json").read_text(), parse_constant=_refuse_constant)
    assert all(math.isfinite(c[key]) for c in report["constraints"]
               for key in ("r_squared", "validation_r_squared"))


def test_identify_unknown_config_key_is_one_plain_line(tmp_path, capsys, no_model_runs):
    cfg = tmp_path / "extra.cfg"
    cfg.write_text("rtol = 1e-6\n")
    line = assert_usage_error(run(["identify", "--config", str(cfg),
                                   "--out", str(tmp_path / "o")]), capsys)
    assert line.startswith("error: unknown config keys: ['rtol']; known: ")


def test_closed_refinement_failure_exits_1(tmp_path, capsys, failing_estimate):
    assert run(["identify", "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"error: closed-form C_B error estimate \d\.\d{3}e-0[56] exceeds 1e-07",
                        lines[0])


@pytest.mark.parametrize("config", [
    "e1 = 0\ne2 = 0\nk1_0 = 1e-13\nk2_0 = 4e-12\nc_a0 = 1\n",
    "T_lo = 0.5\n",
], ids=["frozen-kinetics", "T_lo=0.5"])
def test_identify_runs_where_reactions_freeze(config, tmp_path, capsys):
    # gamma + lam below 1e-6 at some model points: the closed form's
    # expansion covers them
    cfg = tmp_path / "frozen.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert run(["identify", "--config", str(cfg), "--n", "8", "--grid", "8",
                "--out", str(out)]) == 0
    assert ds.load_report(out / "ds_report.json").validation.n_points == 256


@pytest.mark.parametrize("argv", [["--grid", "1", "--n", "8"], ["--skip", "-5"]],
                         ids=["grid=1", "skip=-5"])
def test_identify_rejects_bad_grid_and_skip(argv, tmp_path, capsys, no_model_runs):
    out = tmp_path / "o"
    line = assert_usage_error(parse_error_code(["identify", *argv, "--out", str(out)]), capsys)
    assert argv[0] in line
    assert not out.exists()


@pytest.mark.parametrize("argv", [["2", "-1"], ["2", "3", "--skip", "-1"]],
                         ids=["n=-1", "skip=-1"])
def test_sobol_rejects_bad_counts(argv, capsys):
    assert_usage_error(parse_error_code(["sobol", *argv]), capsys)


@pytest.mark.parametrize("argv, line", [
    (["--grid", "1"], "error: argument --grid: must be >= 2, got 1"),
    (["--slices", "0"], "error: argument --slices: must be >= 1, got 0"),
    (["--slices", "two"], "error: argument --slices: invalid count value: 'two'"),
], ids=["grid=1", "slices=0", "slices=two"])
def test_demo_rejects_bad_counts(argv, line, tmp_path, capsys):
    out = tmp_path / "o"
    assert assert_usage_error(
        parse_error_code(["demo", "slabs-A1", *argv, "--out", str(out)]), capsys) == line
    assert not out.exists()


def test_demo_one_slice_field_is_the_middle_z_level(tmp_path):
    out = tmp_path / "o"
    assert run(["demo", "slabs-A1", "--grid", "8", "--slices", "1", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("and_*")) == ["and_field.csv", "and_slice00.svg"]
    rows = list(csv.reader(io.StringIO((out / "and_field.csv").read_text())))[2:]
    assert len(rows) == 8 * 8
    assert {row[2] for row in rows} == {"0.0"}


def test_identify_skip_beyond_the_sequence_runs_no_model(tmp_path, capsys, no_model_runs):
    # the training block fits below 2^32 - 1, the validation block does not
    out = tmp_path / "o"
    line = assert_usage_error(run(["identify", "--n", "8", "--skip", "4294967200",
                                   "--out", str(out)]), capsys)
    assert "exceeds 2^32 - 1" in line
    assert not out.exists()


@pytest.mark.parametrize("point, needle", [
    ("T=290,t=275,z=1", "'z'"),
    ("T=290,T=275,t=275", "given twice"),
    ("T=290", "missing coordinate 't'"),
    # an empty coordinate is malformed, not dropped
    ("290,,280", "malformed point"),
    ("290,280,", "malformed point"),
    (",290,280", "malformed point"),
    ("T=290,,t=280", "malformed point"),
    ("290,280,1", "point has 3 coordinates, box has 2"),
], ids=["unknown", "repeated", "missing", "empty-middle", "empty-last", "empty-first",
        "empty-named", "three-coordinates"])
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


def _run_child(*args, cwd=REPO):
    """Run a child interpreter that imports this package; it must exit 0."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    pkg_root = Path(rfuncds.__file__).resolve().parents[1]
    env["PYTHONPATH"] = str(pkg_root) + (os.pathsep + extra if extra else "")
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_default_paths_never_import_scipy(tmp_path):
    # a child interpreter, so no other test's imports count; with scipy
    # blocked, any import of it raises ImportError
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import rfuncds\n"
        "from rfuncds import cli\n"
        "assert cli.main(['identify', '--n', '16', '--grid', '16',\n"
        "                 '--config', sys.argv[1], '--out', 'ds']) == 0\n"
        "assert cli.main(['check', 'ds/ds_report.json', '290,275']) == 0\n"
        "assert cli.main(['demo', 'circles-4.1', '--grid', '16', '--out', 'd2']) == 0\n"
        "assert cli.main(['demo', 'slabs-A1', '--grid', '8', '--slices', '2',\n"
        "                 '--out', 'd3']) == 0\n"
        "assert cli.main(['sobol', '2', '4']) == 0\n"
        "print(sorted(m for m, v in sys.modules.items()\n"
        "             if m.split('.')[0] == 'scipy' and v is not None))\n"
        "print(rfuncds.__file__)\n"
    )
    proc = _run_child("-c", code, str(KELVIN_CFG), cwd=tmp_path)
    modules, pkg_file = proc.stdout.splitlines()[-2:]
    assert Path(pkg_file).resolve() == Path(rfuncds.__file__).resolve()
    assert modules == "[]"


def test_import_load_and_check_never_import_numpy():
    # a child interpreter, so no other test's imports count
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "import rfuncds\n"
        "print(loaded())\n"
        "from rfuncds import cli, ds\n"
        "reports = [ds.load_report(p) for p in sys.argv[1:]]\n"
        "print(loaded())\n"
        "codes = [cli.main(['check', p, '290,280']) for p in sys.argv[1:]]\n"
        "print(codes, loaded())\n"
        "points = [[290, 280], (290.0, 280.0), {'T': 290, 't': 280}]\n"
        "print([ds.membership(r, u) for r in reports for u in points], loaded())\n"
        "print(rfuncds.__file__)\n"
    )
    fixtures = [str(REPORT_FIXTURE), str(REPORT_FIXTURE.with_name("kelvin-alpha0.json"))]
    out = _run_child("-c", code, *fixtures).stdout.splitlines()
    assert out[:2] == ["[]", "[]"] and out[-3] == "[0, 0] []"
    assert out[-2] == f"{['inside'] * 6} []"
    assert Path(out[-1]).resolve() == Path(rfuncds.__file__).resolve()


def test_an_overflowing_power_at_one_point_never_imports_numpy():
    # a child interpreter, so no other test's imports count; a cube is
    # products, inf on overflow, in eval_expr and in both verdict frames
    code = (
        "import sys\n"
        "from rfuncds.expr import Const, Mul, Pow, Region, Var, compile_verdict, eval_expr\n"
        "region = Region(Pow(Mul(Const(1e200), Var('x')), 3), ('x',))\n"
        "framed = compile_verdict(region, [(0.0, 2.0)])\n"
        "print(eval_expr(region, [1.0]), region.verdict([1.0]), framed([1.0]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    assert _run_child("-c", code).stdout == "inf inside inside\n[]\n"


def _cold_check_imports():
    """The modules a fresh ``check`` process imports, from -X importtime."""
    proc = _run_child("-X", "importtime", "-m", "rfuncds.cli", "check", str(REPORT_FIXTURE),
                      "290,280")
    assert proc.stdout == "inside (joint expression = 0.0013891360431317334)\n"
    imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "rfuncds.errors" in imported
    return imported


def test_cold_check_imports_no_numpy_or_scipy():
    imported = _cold_check_imports()
    assert [m for m in imported if m.split(".")[0] in ("numpy", "scipy")] == []


def test_cold_check_imports_no_dataclasses_nor_drawing_modules():
    unwanted = {"dataclasses", "inspect", "rfuncds.geometry", "rfuncds.contour", "rfuncds.emit",
                "rfuncds.reactor"}
    imported = _cold_check_imports()
    assert "rfuncds.expr" in imported
    assert [m for m in imported if m in unwanted] == []


# the names `import rfuncds` provides: those it provided when it imported
# every module, less the ODE oracle's, which moved to tests/ode_oracle.py,
# with the shape functions in place of the geometry spec records and
# ``primitive``, and without the r_and/r_or/r_not spellings of RAnd/ROr/Neg
# or the Min/Max spellings of alpha = 1 RAnd/ROr
EXPORTS = (
    "Abs", "Add", "And", "BasisSpec", "BoolTree", "BoxAxis", "CQA_BASIS", "Const",
    "ConstraintSpec", "ContourSet", "DEFAULT_PARAMS", "DSReport", "Expr",
    "FitResult", "KineticParams", "Leaf", "Mul", "Neg", "Not", "Or",
    "PROFIT_MIN", "PURITY_MIN", "Polyline", "Pow", "RAnd", "ROr",
    "Region", "ScalarField", "Sqrt", "Sub", "TESTCASE_NAMES", "TestCase", "Var",
    "batch_cqa", "circle", "compose", "contour", "cqa_closed", "cylinder_z", "design_matrix",
    "ds", "errors", "eval_arrays", "eval_expr", "expr", "exprtext", "fit_least_squares",
    "geometry", "grid_eval", "identify", "inside_fraction", "load_report", "marching_squares",
    "membership", "parabola", "paraboloid", "parse_tree_text", "plot_count", "polyfit", "qmc",
    "reactor", "save_report", "scale", "sign_class", "slab",
    "slice_contours_3d", "sobol", "testcase", "to_expr", "to_infix", "to_tree_text",
)


def test_every_export_resolves_and_is_listed():
    code = (
        "import importlib, sys\n"
        "import rfuncds\n"
        "names = sys.argv[1:]\n"
        "print([n for n in names if n not in dir(rfuncds)])\n"
        "print(sorted(set(rfuncds.__all__) ^ set(names)))\n"
        "wrong = []\n"
        "for n in names:\n"
        "    value = getattr(rfuncds, n)\n"
        "    exec(f'from rfuncds import {n} as imported')\n"
        "    homes = [m for k, m in sys.modules.items() if k.startswith('rfuncds.')\n"
        "             and (m is value or getattr(m, n, None) is value)]\n"
        "    if imported is not value or not homes:\n"
        "        wrong.append(n)\n"
        "print(wrong)\n"
        "try:\n"
        "    rfuncds.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    out = _run_child("-c", code, *EXPORTS).stdout.splitlines()
    assert out == ["[]", "[]", "[]", "module 'rfuncds' has no attribute 'no_such_name'"]
