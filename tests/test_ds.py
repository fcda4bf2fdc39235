import json
import random
from pathlib import Path

import numpy as np
import pytest

from rfuncds import cli, reactor
from rfuncds.contour import grid_eval, marching_squares
from rfuncds.ds import (
    BoxAxis,
    ConstraintSpec,
    identify,
    load_report,
    membership,
    plot_count,
    save_report,
)
from rfuncds.emit import emit_contours_csv
from rfuncds.errors import (
    AlphaOutOfRange, BoundsMismatch, DTooSmall, EmptyConstraintList, ModelOutputShape, OutOfBox, ParseError,
    RfuncdsError, SampleCountTooLarge,
)
from rfuncds.expr import depth, eval_arrays, eval_expr
from rfuncds.exprtext import MAX_DEPTH, parse_infix, serialize
from rfuncds.polyfit import BasisSpec
from rfuncds.qmc import scale, sobol
from rfuncds.reactor import CQA_BASIS

REPO = Path(__file__).resolve().parents[1]
KELVIN_CFG = REPO / "presets" / "kelvin-activation.cfg"
REPORT_FIXTURES = [REPO / "perfbench" / "fixtures" / f"kelvin-alpha{a}.json" for a in (0, 1)]

BOX = (BoxAxis("T", 250.0, 300.0, unit="K"), BoxAxis("t", 250.0, 300.0, unit="min"))

SUM_SPEC = ConstraintSpec("sum", 550.0)
PROD_SPEC = ConstraintSpec("product", 75625.0)


def sum_model(points):
    return points[:, :1] + points[:, 1:]


def sum_prod_model(points):
    return np.column_stack((points[:, 0] + points[:, 1], points[:, 0] * points[:, 1]))


def synthetic_report(**kw):
    return identify([SUM_SPEC, PROD_SPEC], BOX, 32, CQA_BASIS, alpha=1.0,
                    model=sum_prod_model, **kw)


def grid_points(n=101):
    T, t = np.meshgrid(np.linspace(250, 300, n), np.linspace(250, 300, n), indexing="ij")
    return T.ravel(), t.ravel()


def test_polynomial_constraints_recovered_exactly():
    report = synthetic_report()
    coeff_sum = dict(zip(CQA_BASIS.monomials, report.constraints[0].fit.coefficients))
    assert coeff_sum[(1, 0)] == pytest.approx(1.0, abs=1e-8)
    assert coeff_sum[(0, 1)] == pytest.approx(1.0, abs=1e-8)
    assert abs(coeff_sum[(2, 0)]) <= 1e-8 and abs(coeff_sum[(1, 1)]) <= 1e-8
    coeff_prod = dict(zip(CQA_BASIS.monomials, report.constraints[1].fit.coefficients))
    assert coeff_prod[(1, 1)] == pytest.approx(1.0, abs=1e-8)
    for c in report.constraints:
        assert c.fit.r_squared >= 1 - 1e-12
        assert c.validation_r_squared >= 1 - 1e-12


def test_joint_membership_matches_threshold_oracle():
    report = synthetic_report()
    T, t = grid_points(101)
    joint = eval_arrays(report.joint.expr, {"T": T, "t": t})
    oracle = (T + t >= 550.0) & (T * t >= 75625.0)
    # this grid hits both thresholds exactly (e.g. T + t == 550 along the
    # anti-diagonal); there the fitted phi is zero up to ~1e-10 coefficient
    # noise and its sign is meaningless, so compare strictly off-threshold
    off = (np.abs(T + t - 550.0) > 1e-6) & (np.abs(T * t - 75625.0) > 1e-6)
    assert np.array_equal((joint >= 0)[off], oracle[off])
    assert off.sum() > 10_000


def test_validation_statistics():
    report = synthetic_report()
    assert report.validation.n_points == 256
    assert report.validation.agreement_rate == 1.0
    assert report.validation.n_disagreements == 0
    assert report.sampling.validation_skip == report.sampling.skip + report.sampling.n_train


def test_single_constraint_joint_is_identity():
    report = identify([SUM_SPEC], BOX, 16, CQA_BASIS, model=sum_model)
    phi = report.constraints[0].phi
    T, t = grid_points(21)
    joint_vals = eval_arrays(report.joint.expr, {"T": T, "t": t})
    phi_vals = eval_arrays(phi.expr, {"T": T, "t": t})
    assert np.array_equal(joint_vals, phi_vals)


def test_membership_examples():
    report = synthetic_report()
    assert membership(report, (300.0, 300.0)) == "inside"      # 600 >= 550, 9e4 >= 75625
    assert membership(report, (250.0, 250.0)) == "outside"     # 500 < 550
    assert membership(report, {"T": 300.0, "t": 300.0}) == "inside"


def test_membership_boundary_single_constraint():
    report = identify([SUM_SPEC], BOX, 16, CQA_BASIS, model=sum_model)
    assert membership(report, (275.0, 275.0)) == "boundary"    # T + t = 550 exactly


def test_membership_out_of_box():
    report = synthetic_report()
    with pytest.raises(OutOfBox):
        membership(report, (240.0, 275.0))
    with pytest.raises(OutOfBox):
        membership(report, (275.0,))
    with pytest.raises(OutOfBox):
        membership(report, {"T": 275.0})
    with pytest.raises(OutOfBox, match="'z'"):
        membership(report, {"T": 275.0, "t": 275.0, "z": 1.0})


def test_membership_never_calls_model():
    calls = []

    def counting_sum(points):
        calls.append(points.shape)
        return sum_model(points)

    report = identify([SUM_SPEC], BOX, 16, CQA_BASIS, model=counting_sum)
    assert calls == [(16, 2), (256, 2)]
    for u in [(260.0, 280.0), (290.0, 290.0), (275.0, 275.0)]:
        membership(report, u)
    assert calls == [(16, 2), (256, 2)]


def test_skip_beyond_the_sequence_fails_before_any_model_run():
    # skip + n fits below 2^32 - 1; the validation block after it does not
    calls = []

    def counting_sum(points):
        calls.append(points.shape)
        return sum_model(points)

    with pytest.raises(SampleCountTooLarge):
        identify([SUM_SPEC], BOX, 8, CQA_BASIS, model=counting_sum, skip=2**32 - 109)
    assert calls == []


def test_order_invariance_of_sign():
    fwd = synthetic_report()
    rev = identify([PROD_SPEC, SUM_SPEC], BOX, 32, CQA_BASIS, alpha=1.0,
                   model=lambda points: sum_prod_model(points)[:, ::-1])
    T, t = grid_points(41)
    env = {"T": T, "t": t}
    assert np.array_equal(eval_arrays(fwd.joint.expr, env) >= 0,
                          eval_arrays(rev.joint.expr, env) >= 0)


def test_decomposition_equality_alpha1():
    report = synthetic_report()
    T, t = grid_points(41)
    env = {"T": T, "t": t}
    joint = eval_arrays(report.joint.expr, env)
    phis = np.minimum.reduce([eval_arrays(c.phi.expr, env) for c in report.constraints])
    assert np.array_equal(np.sign(joint), np.sign(phis))


def report_points(report, block):
    """The Sobol points of a report's training or validation block."""
    s = report.sampling
    n, skip = (s.n_train, s.skip) if block == "train" else (s.n_validation, s.validation_skip)
    return scale(sobol(2, n, skip), [(a.lo, a.hi) for a in report.box])


def test_model_shares_runs_across_constraints():
    blocks = []

    def model(points):
        blocks.append(points.copy())
        return sum_prod_model(points)

    report = identify([SUM_SPEC, PROD_SPEC], BOX, 16, CQA_BASIS, model=model)
    # one call per block, each serving both constraints
    assert [b.shape for b in blocks] == [(16, 2), (256, 2)]
    assert np.array_equal(blocks[0], report_points(report, "train"))
    assert np.array_equal(blocks[1], report_points(report, "validation"))
    assert [c.fit.n_points for c in report.constraints] == [16, 16]


@pytest.mark.parametrize("shape", [lambda n: (n,), lambda n: (n, 1), lambda n: (n, 3),
                                   lambda n: (n + 1, 2), lambda n: (2, n)],
                         ids=["flat", "too-few-columns", "too-many-columns",
                              "extra-row", "transposed"])
def test_identify_rejects_wrong_model_shape(shape):
    calls = []

    def model(points):
        calls.append(points.shape)
        return np.zeros(shape(points.shape[0]))

    with pytest.raises(ModelOutputShape, match=r"expected \(16, 2\)") as info:
        identify([SUM_SPEC, PROD_SPEC], BOX, 16, CQA_BASIS, model=model)
    assert isinstance(info.value, RfuncdsError)
    assert calls == [(16, 2)]   # caught on the training block, before any fit


def test_identify_validation_errors():
    with pytest.raises(EmptyConstraintList):
        identify([], BOX, 16, CQA_BASIS, model=sum_model)
    with pytest.raises(TypeError):
        identify([SUM_SPEC], BOX, 16, CQA_BASIS)  # model= is required
    bad_basis = BasisSpec(vars=("a", "b"), monomials=((0, 0),))
    with pytest.raises(ValueError):
        identify([SUM_SPEC], BOX, 16, bad_basis, model=sum_model)


@pytest.mark.parametrize("lo, hi", [(300, 250), (250, 250), (float("nan"), 300),
                                    (250, float("inf")), (float("-inf"), 300)])
def test_box_axis_rejects_bad_bounds(lo, hi):
    with pytest.raises(BoundsMismatch, match="lo < hi, got"):
        BoxAxis("T", lo, hi)


def test_box_axis_stores_floats():
    axis = BoxAxis("T", 250, 300, unit="K")
    assert (type(axis.lo), type(axis.hi)) == (float, float)
    assert axis == BoxAxis("T", 250.0, 300.0, unit="K")


def test_readme_identify_example_runs():
    # the README's library example, run as written
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("Design-space identification:", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    assert membership(namespace["report"], (290.0, 280.0)) == "inside"


@pytest.mark.parametrize("alpha", [2.0, -1.0, float("nan")])
def test_identify_checks_alpha_before_model_runs(alpha):
    def model(p):
        raise AssertionError("model ran before alpha was checked")
    with pytest.raises(AlphaOutOfRange):
        identify([SUM_SPEC], BOX, 16, CQA_BASIS, alpha=alpha, model=model)


def test_contours_present_in_2d(tmp_path):
    # identify leaves the contours to the CLI: one CSV per constraint plus
    # the joint, each the marching-squares boundary of the saved expression
    out = tmp_path / "ds"
    assert cli.main(["identify", "--n", "32", "--grid", "64", "--out", str(out),
                     "--config", str(KELVIN_CFG)]) == 0
    report = load_report(out / "ds_report.json")
    bounds = [(a.lo, a.hi) for a in report.box]
    regions = {c.name: c.phi for c in report.constraints} | {"joint": report.joint}
    for name, region in regions.items():
        emit_contours_csv(tmp_path / "expected.csv",
                          marching_squares(grid_eval(region, bounds, 64)))
        rows = (out / ("joint.csv" if name == "joint" else f"phi_{name}.csv")).read_text()
        assert rows.splitlines()[1:] == (tmp_path / "expected.csv").read_text().splitlines()
        # the purity boundary, and with it the joint one, crosses the kelvin box
        if name != "profit":
            assert len(rows.splitlines()) > 2


def test_joint_expression_single_constraint():
    report = identify([SUM_SPEC], BOX, 16, CQA_BASIS, model=sum_model)
    text = serialize(report.joint.expr, "infix")
    back = parse_infix(text)
    for T, t in [(250.0, 250.0), (275.0, 280.0), (300.0, 265.0)]:
        assert eval_expr(back, {"T": T, "t": t}) == pytest.approx(T + t - 550.0, abs=1e-6)


def test_joint_expression_structure_two_constraints():
    report = synthetic_report()
    abs_text = serialize(report.joint.expr, "infix", alpha1_style="abs")
    sqrt_text = serialize(report.joint.expr, "infix", alpha1_style="sqrt")
    assert abs_text.count("abs(") == 1 and "sqrt(" not in abs_text
    assert sqrt_text.count("sqrt(") == 1 and "abs(" not in sqrt_text


def test_joint_expression_round_trip(rng):
    from rfuncds.exprtext import parse
    from rewrites import canonicalize_alpha1, desugar_r_nodes

    report = synthetic_report()
    joint = report.joint.expr
    references = {
        ("infix", "sqrt"): desugar_r_nodes(joint),
        ("infix", "abs"): desugar_r_nodes(canonicalize_alpha1(joint)),
        ("tree", "sqrt"): joint,
    }
    for (fmt, style), reference in references.items():
        text = serialize(joint, fmt, alpha1_style=style)
        back = parse(text, fmt)
        for _ in range(20):
            T = float(rng.uniform(250, 300))
            t = float(rng.uniform(250, 300))
            env = {"T": T, "t": t}
            assert eval_expr(back, env) == pytest.approx(
                eval_expr(reference, env), abs=1e-12)


def test_plot_count():
    assert plot_count(2) == 1
    assert plot_count(3) == 9
    assert plot_count(4) == 54
    with pytest.raises(DTooSmall):
        plot_count(1)


def test_report_save_load_round_trip(tmp_path):
    report = synthetic_report()
    path = tmp_path / "report.json"
    save_report(report, path, artifacts={"joint_svg": "joint.svg"}, provenance="test run")
    loaded = load_report(path)
    assert [a.name for a in loaded.box] == ["T", "t"]
    assert loaded.box[0].unit == "K"
    assert loaded.alpha == 1.0
    assert loaded.validation.agreement_rate == report.validation.agreement_rate
    assert [c.name for c in loaded.constraints] == ["sum", "product"]
    for c_new, c_old in zip(loaded.constraints, report.constraints):
        assert np.array_equal(c_new.fit.coefficients, c_old.fit.coefficients)
        assert c_new.threshold == c_old.threshold
    for u in [(300.0, 300.0), (250.0, 250.0), (275.0, 275.0), (265.0, 290.0)]:
        assert membership(loaded, u) == membership(report, u)


def test_reloaded_fit_predicts_bit_for_bit(tmp_path):
    params, box = reactor.apply_config({})
    report = identify([ConstraintSpec("purity", reactor.PURITY_MIN),
                       ConstraintSpec("profit", reactor.PROFIT_MIN)],
                      box, 16, CQA_BASIS, model=lambda p: reactor.cqa_closed(p, params))
    save_report(report, tmp_path / "report.json")
    loaded = load_report(tmp_path / "report.json")
    lo, hi = np.array([(a.lo, a.hi) for a in box]).T
    points = np.random.default_rng(3).uniform(lo, hi, (1000, 2))
    for new, old in zip(loaded.constraints, report.constraints):
        assert type(new.fit.coefficients) is type(old.fit.coefficients) is tuple
        assert new.fit == old.fit
        assert new.fit.predict(points).tobytes() == old.fit.predict(points).tobytes()


def test_load_rejects_coefficients_that_do_not_match_the_basis(tmp_path):
    report = json.loads(REPORT_FIXTURES[1].read_text())
    report["constraints"][0]["coefficients"].pop()
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    with pytest.raises(ParseError, match="4 coefficients for 5 monomials"):
        load_report(path)


@pytest.mark.parametrize("fixture", REPORT_FIXTURES, ids=lambda p: p.stem)
def test_saved_report_round_trips_byte_for_byte(fixture, tmp_path):
    # pins the tree reader, the tree writer and the infix printer on real trees
    saved = json.loads(fixture.read_text())
    path = tmp_path / "again.json"
    save_report(load_report(fixture), path, artifacts=saved["files"],
                provenance=saved["provenance"])
    assert path.read_bytes() == fixture.read_bytes()


@pytest.mark.parametrize("field", ["phi_tree", "joint"])
def test_load_report_takes_trees_of_max_depth_levels(field, tmp_path):
    # the report's one nesting check bounds a phi_tree (inside the report,
    # constraints and constraint) and joint.tree (inside the report and
    # joint) to exactly MAX_DEPTH levels
    report = json.loads(REPORT_FIXTURES[1].read_text())
    if field == "joint":
        report["joint"]["tree"] = "DEEP"
    else:
        report["constraints"][0]["phi_tree"] = "DEEP"
    text = json.dumps(report)
    path = tmp_path / "deep.json"
    for levels in (MAX_DEPTH, MAX_DEPTH + 1):
        chain = ('{"kind":"neg","args":[' * (levels - 1) + '{"kind":"var","name":"T"}'
                 + "]}" * (levels - 1))
        path.write_text(text.replace('"DEEP"', chain))
        if levels == MAX_DEPTH:
            loaded = load_report(path)
            tree = loaded.joint if field == "joint" else loaded.constraints[0].phi
            assert depth(tree.expr) == MAX_DEPTH
        else:
            with pytest.raises(ParseError, match="deeper than"):
                load_report(path)


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ParseError, match="not a rfuncds-ds-report/1 file"):
        load_report(path)


def test_load_rejects_a_file_that_is_not_utf8(tmp_path):
    # the fixture saved as UTF-16 with its byte-order mark, ff fe
    path = tmp_path / "report.json"
    path.write_bytes(b"\xff\xfe" + REPORT_FIXTURES[1].read_text().encode("utf-16-le"))
    with pytest.raises(ParseError, match="is not UTF-8 text: invalid start byte at byte 0"):
        load_report(path)


@pytest.mark.parametrize("edit", [
    lambda r: r.update(format="rfuncds-ds-report/2"),
    lambda r: r.update(format=None),
    lambda r: r.pop("format"),
    lambda r: r.clear(),
], ids=["other-version", "null", "missing", "empty-object"])
def test_load_rejects_a_missing_or_wrong_format_key(edit, tmp_path):
    report = json.loads(REPORT_FIXTURES[1].read_text())
    edit(report)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    with pytest.raises(ParseError, match="not a rfuncds-ds-report/1 file"):
        load_report(path)


@pytest.mark.parametrize("text", ["[]", "1.5", '"rfuncds-ds-report/1"', "null"])
def test_load_rejects_json_that_is_not_an_object(text, tmp_path):
    path = tmp_path / "report.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="not a rfuncds-ds-report/1 file"):
        load_report(path)


def _fuzzed_reports(rnd, n):
    """(kind, text): seeded truncations and one-character edits of the
    report fixtures."""
    texts = [p.read_text() for p in REPORT_FIXTURES]
    structural = [[k for k, c in enumerate(t) if c in '{}[]:,"'] for t in texts]
    for _ in range(n):
        i = rnd.randrange(len(texts))
        text = texts[i]
        k = rnd.randrange(len(text))
        kind = rnd.choice(["truncate", "delete", "insert", "replace"])
        if kind == "truncate":   # every proper prefix of the JSON is invalid
            yield kind, text[:rnd.randrange(len(text.rstrip()))]
        elif kind == "delete":   # a bracket, quote, colon or comma
            k = rnd.choice(structural[i])
            yield kind, text[:k] + text[k + 1:]
        elif kind == "insert":
            yield kind, text[:k] + rnd.choice('{}[]:,"') + text[k:]
        else:
            yield kind, text[:k] + rnd.choice("0-.eE9xN ") + text[k + 1:]


def test_load_report_raises_only_package_errors_on_fuzzed_text(tmp_path):
    # an edit inside a string or a number may leave a valid report, which
    # then loads; any other exception than an RfuncdsError fails the test
    path = tmp_path / "fuzzed.json"
    raised = {"truncate": 0, "delete": 0, "insert": 0, "replace": 0}
    made = dict.fromkeys(raised, 0)
    for kind, text in _fuzzed_reports(random.Random(11), 1500):
        path.write_text(text)
        made[kind] += 1
        try:
            load_report(path)
        except RfuncdsError:
            raised[kind] += 1
    assert raised["truncate"] == made["truncate"]
    assert sum(raised.values()) >= 0.8 * sum(made.values())


@pytest.mark.parametrize("old, new", [
    ('"alpha": 1.0', '"alpha": 5'),
    ('"alpha": 1.0', '"alpha": NaN'),
    ('"lo": 250.0, "hi": 300.0', '"lo": 300.0, "hi": 250.0'),
    ('"lo": 250.0, "hi": 300.0', '"lo": 250.0, "hi": 250.0'),
    ('"lo": 250.0, "hi": 300.0', '"lo": NaN, "hi": 300.0'),
    ('"lo": 250.0, "hi": 300.0', '"lo": 250.0, "hi": Infinity'),
    ('"joint": {', '"joint": {"deep": ' + "[" * 300 + "]" * 300 + ", "),
], ids=["alpha=5", "alpha=nan", "lo>hi", "lo=hi", "lo=nan", "hi=inf", "deep"])
def test_load_rejects_invalid_alpha_box_and_nesting(old, new, tmp_path):
    path = tmp_path / "report.json"
    save_report(synthetic_report(), path)
    text = " ".join(path.read_text().split())
    assert old in text
    path.write_text(text)
    load_report(path)
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ParseError):
        load_report(path)
