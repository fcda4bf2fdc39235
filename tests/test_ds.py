import functools
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from rfuncds import cli, reactor
from rfuncds.contour import grid_eval, marching_squares
from rfuncds.ds import (
    BoxAxis,
    ConstraintSpec,
    DSReport,
    SamplingMeta,
    ValidationStats,
    box_point,
    identify,
    joint_values,
    load_report,
    membership,
    plot_count,
    save_report,
)
from rfuncds.emit import contour_texts, emit_contours_csv
from rfuncds.errors import (
    AlphaOutOfRange, BoundsMismatch, DTooSmall, EmptyConstraintList, InsufficientPoints,
    ModelOutputShape, NegativeSqrtArgument, NonFiniteValue, OutOfBox, ParseError, RfuncdsError,
    SampleCountTooLarge,
)
from rfuncds.expr import (
    Const, Mul, Neg, Pow, Region, Sqrt, Sub, Var, classify, depth, eval_arrays, eval_expr,
)
from rfuncds.exprtext import (
    FIELD_KINDS, MAX_DEPTH, from_tree_obj, parse_tree_text, read_field, to_infix, to_tree_text,
)
from rfuncds.polyfit import BasisSpec
from rfuncds.qmc import scale, sobol
from rfuncds.reactor import CQA_BASIS
from conftest import chain_report
from dags import dags
from infix_eval import infix_eval

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


@pytest.mark.parametrize("huge", [10**400, -10**400, 10**5000], ids=["1e400", "-1e400", "1e5000"])
def test_a_coordinate_beyond_the_floats_is_out_of_box(huge):
    # float() raises OverflowError for these ints, and repr of 10**5000 raises ValueError
    report = load_report(REPORT_FIXTURES[1])
    for name, make in [("T", lambda: [huge, 280.0]), ("t", lambda: (290.0, huge)),
                       ("T", lambda: {"T": huge, "t": 280}), ("t", lambda: {"t": huge, "T": 290}),
                       ("t", lambda: (v for v in (290, huge)))]:
        for query in (membership, box_point):
            with pytest.raises(OutOfBox, match=rf"^{name} is beyond the float range, "
                                               rf"outside \[250.0, 300.0\]$"):
                query(report, make())


def test_membership_refuses_a_str_or_bytes_point():
    # read character by character, "29" was the point (2, 9) and "91" (9, 1)
    kelvin = load_report(REPORT_FIXTURES[1])
    square = _report_of(Region(Sub(Var("x"), Var("y")), ("x", "y")),
                        [BoxAxis("x", 0.0, 10.0), BoxAxis("y", 0.0, 10.0)])
    for report, point in [(kelvin, "29"), (kelvin, b"29"), (square, "91"), (square, b"91")]:
        name = type(point).__name__
        with pytest.raises(TypeError, match=f"^point must be a sequence or mapping "
                                            f"of numbers, not {name}$"):
            membership(report, point)


@pytest.mark.parametrize("kind", [bytearray, memoryview])
def test_membership_and_box_point_refuse_bytes_like_points(kind):
    # read as its byte values, bytearray(b"\x09\x01") was the point (9, 1)
    kelvin = load_report(REPORT_FIXTURES[1])
    square = _report_of(Region(Sub(Var("x"), Var("y")), ("x", "y")),
                        [BoxAxis("x", 0.0, 10.0), BoxAxis("y", 0.0, 10.0)])
    message = f"^point must be a sequence or mapping of numbers, not {kind.__name__}$"
    for report, raw in [(kelvin, b"\xff\xff"), (square, b"\x09\x01"), (square, b"\x01\x09")]:
        for query in (membership, box_point):
            with pytest.raises(TypeError, match=message):
                query(report, kind(raw))


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


def _report_of(joint: Region, box) -> DSReport:
    """A report that holds only a joint region and its box."""
    return DSReport(box=tuple(box), alpha=1.0, constraints=(), joint=joint,
                    sampling=SamplingMeta(0, 0, 0, 0), validation=ValidationStats(1.0, 0, 0))


def _outcome(query, report, make_point):
    """The verdict, or the type and message of the error raised."""
    try:
        return query(report, make_point())
    except Exception as exc:
        return type(exc), str(exc)


def _checked(report, u):
    """membership's checked path: box_point, then the joint region's program."""
    return classify(eval_expr(report.joint, box_point(report, u)))


def _point_makers(report, seed):
    """Functions that each make one query point (a generator is made anew
    for each query), the seeded in-box lists first."""
    box, names = report.box, [axis.name for axis in report.box]
    rng = random.Random(seed)
    seeded = [[rng.uniform(axis.lo, axis.hi) for axis in box] for _ in range(20)]
    corners = [list(c) for c in itertools.product(*[(axis.lo, axis.hi) for axis in box])]
    mid = [(axis.lo + axis.hi) / 2 for axis in box]
    points = [
        *seeded, *corners, [-0.0, *mid[1:]], [*mid[:-1], -0.0],
        [np.float64(v) for v in mid], [repr(v) for v in mid], ["abc", *mid[1:]],
        [None, *mid[1:]], [b"1", *mid[1:]], mid[:-1], [*mid, mid[0]], [],
        *[[bad, *mid[1:]] for bad in (math.nan, math.inf, -math.inf, box[0].lo - 1e-9,
                                      box[0].hi + 1e-9, 10 ** 400)],
    ]
    makers = [lambda p=p: list(p) for p in points]
    makers += [lambda p=p: tuple(p) for p in points]
    makers += [lambda p=p: dict(zip(names, p)) for p in points]
    makers += [lambda p=p: (v for v in p) for p in points]
    makers += [lambda: dict(zip(names[1:], mid)), lambda: {**dict(zip(names, mid)), "z": 1.0},
               lambda: np.array(mid), lambda: "".join(map(str, range(len(mid)))), lambda: 5]
    return makers, len(seeded)


def _assert_membership_pinned_to_the_checked_path(report, seed=0):
    makers, n_seeded = _point_makers(report, seed)
    for make in makers:
        assert _outcome(membership, report, make) == _outcome(_checked, report, make), make()
    # the compiled verdict answers the seeded in-box lists itself, or raises
    # as the checked path does
    for make in makers[:n_seeded]:
        assert _outcome(lambda r, u: r.verdict(u), report, make) is not None, make()


@pytest.mark.parametrize("path", REPORT_FIXTURES, ids=lambda p: p.stem)
def test_membership_gives_the_checked_verdicts_and_errors_on_fixtures(path):
    report = load_report(path)
    _assert_membership_pinned_to_the_checked_path(report)
    assert "verdict" in vars(report)
    assert all(report.verdict(u) is not None
               for u in ([290.0, 280.0], (250.0, 300.0), [np.float64(275.0), "280"]))


@given(dags())
def test_membership_gives_the_checked_verdicts_and_errors_on_shared_dags(expr):
    box = (BoxAxis("x", -5.0, 5.0), BoxAxis("y", -2.0, 3.0))
    _assert_membership_pinned_to_the_checked_path(_report_of(Region(expr, ("x", "y")), box))


def test_the_checked_path_compiles_no_verdict_of_the_joint_region():
    report = load_report(REPORT_FIXTURES[1])
    # a generator is no list, tuple or dict: the report's frame leaves it to the checked path
    assert report.verdict(v for v in (290.0, 280.0)) is None
    assert membership(report, (v for v in (290.0, 280.0))) == "inside"
    assert "scalar_program" in vars(report.joint) and "verdict" not in vars(report.joint)


@pytest.mark.parametrize("exponent", [2, 3])
def test_membership_answers_an_overflowing_power_in_the_frame(exponent):
    # (1e200*T)^n - 1: the power is multiplies, which give inf as numpy does
    box = load_report(REPORT_FIXTURES[1]).box
    joint = Region(Sub(Pow(Mul(Const(1e200), Var("T")), exponent), Const(1.0)), ("T", "t"))
    report = _report_of(joint, box)
    assert report.verdict([290.0, 280.0]) == "inside"
    assert report.verdict({"T": 250.0, "t": 300.0}) == "inside"
    _assert_membership_pinned_to_the_checked_path(report)


def test_membership_raises_the_checked_negative_sqrt_error():
    box = load_report(REPORT_FIXTURES[1]).box
    report = _report_of(Region(Sqrt(Var("T") - 275.0), ("T", "t")), box)
    with pytest.raises(NegativeSqrtArgument, match="-15.0"):
        membership(report, [260.0, 280.0])
    assert membership(report, (275.0, 280.0)) == "boundary"
    _assert_membership_pinned_to_the_checked_path(report, seed=1)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_a_non_finite_threshold_fails_before_any_model_run(threshold):
    calls = []

    def counting_sum(points):
        calls.append(points.shape)
        return sum_model(points)

    with pytest.raises(ValueError, match=f"constraint 'sum' needs a finite threshold, "
                                         f"got {threshold!r}"):
        identify([ConstraintSpec("sum", threshold)], BOX, 8, CQA_BASIS, model=counting_sum)
    assert calls == []


@pytest.mark.parametrize("n_samples", [3, 4])
def test_too_few_training_points_fail_before_any_draw_or_model_run(n_samples, monkeypatch):
    calls = []

    def counting_sum(points):
        calls.append(points.shape)
        return sum_model(points)

    def sobol(*args):
        raise AssertionError("sobol called")
    monkeypatch.setattr("rfuncds.ds.sobol", sobol)
    with pytest.raises(InsufficientPoints, match=f"^{n_samples} points for 5 monomials$"):
        identify([SUM_SPEC], BOX, n_samples, CQA_BASIS, model=counting_sum)
    assert calls == []


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


def test_repeated_axis_name_fails_before_any_model_run():
    # no basis can name a variable twice, so none matches such a box
    calls = []

    def counting_sum(points):
        calls.append(points.shape)
        return sum_model(points)

    box = (BoxAxis("T", 250.0, 300.0), BoxAxis("T", 250.0, 300.0))
    with pytest.raises(ValueError, match="box axes"):
        identify([SUM_SPEC], box, 16, CQA_BASIS, model=counting_sum)
    assert calls == []
    with pytest.raises(ValueError, match="repeat"):
        BasisSpec(vars=("T", "T"), monomials=((1, 0),))


@pytest.mark.parametrize("lo, hi", [(300, 250), (250, 250), (float("nan"), 300),
                                    (250, float("inf")), (float("-inf"), 300)])
def test_box_axis_rejects_bad_bounds(lo, hi):
    with pytest.raises(BoundsMismatch, match="lo < hi, got"):
        BoxAxis("T", lo, hi)


def test_box_axis_stores_floats():
    axis = BoxAxis("T", 250, 300, unit="K")
    assert (type(axis.lo), type(axis.hi)) == (float, float)
    assert axis._values() == ("T", 250.0, 300.0, "K")


def _readme_example(heading):
    """The first python block after ``heading`` in the README, as written."""
    section = (REPO / "README.md").read_text(encoding="utf-8").split(heading, 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_identify_example_runs():
    namespace = {}
    exec(_readme_example("Design-space identification:"), namespace)
    assert membership(namespace["report"], (290.0, 280.0)) == "inside"


def test_readme_library_tour_runs():
    namespace = {}
    exec(_readme_example("## Library tour"), namespace)
    assert eval_expr(namespace["lens"].expr, {"x": 1.0, "y": 1.5}) == 0.75
    assert namespace["contours"].polylines


@pytest.mark.parametrize("alpha", [2.0, -1.0, float("nan")])
def test_identify_checks_alpha_before_model_runs(alpha):
    def model(p):
        raise AssertionError("model ran before alpha was checked")
    with pytest.raises(AlphaOutOfRange):
        identify([SUM_SPEC], BOX, 16, CQA_BASIS, alpha=alpha, model=model)


CUBE = tuple(BoxAxis(name, 0.0, 1.0) for name in "xyz")


def total_degree_basis(degree):
    """Every monomial in x, y, z of total degree at most ``degree``."""
    return BasisSpec(("x", "y", "z"), tuple(
        m for m in itertools.product(range(degree + 1), repeat=3) if sum(m) <= degree))


def exp_model(points):
    return np.exp(points.sum(axis=1, keepdims=True))


def test_identify_refuses_a_joint_expression_too_deep_for_a_report():
    # polyfit.to_expr chains one Add per monomial: 165 monomials give 167 levels
    calls = []

    def model(points):
        calls.append(len(points))
        return exp_model(points)
    with pytest.raises(ValueError, match=f"basis of 165 monomials gives a joint expression "
                                         f"167 levels deep; the tree format holds at most "
                                         f"{MAX_DEPTH}"):
        identify([ConstraintSpec("e", 2.0)], CUBE, 512, total_degree_basis(8), model=model)
    assert calls == [512]       # the training run only


def test_identify_report_below_the_depth_limit_saves_and_loads(tmp_path):
    basis = total_degree_basis(7)
    report = identify([ConstraintSpec("e", 2.0)], CUBE, 512, basis, model=exp_model)
    assert (len(basis), depth(report.joint.expr)) == (120, 122)
    save_report(report, tmp_path / "deep.json")
    save_report(load_report(tmp_path / "deep.json"), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "deep.json").read_bytes()


def test_save_report_refuses_a_tree_deeper_than_the_limit(tmp_path):
    report = load_report(REPORT_FIXTURES[1])
    chain = Var("T")
    for _ in range(20_000):
        chain = Neg(chain)
    deep = DSReport(report.box, report.alpha, report.constraints,
                    Region(chain, report.joint.vars), report.sampling, report.validation)
    with pytest.raises(ValueError, match=f"expression 20001 levels deep; "
                                         f"the tree format holds at most {MAX_DEPTH}"):
        save_report(deep, tmp_path / "deep.json")
    assert not (tmp_path / "deep.json").exists()


@pytest.mark.parametrize("bad_run", [1, 2], ids=["training", "validation"])
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_identify_refuses_non_finite_model_values(bad_run, bad):
    runs = []

    def model(points):
        runs.append(len(points))
        values = sum_prod_model(points)
        if len(runs) == bad_run:
            values[5, 1] = bad
        return values
    with pytest.raises(NonFiniteValue, match=r"model returned inf or nan at 1 of \d+ points"):
        identify([SUM_SPEC, PROD_SPEC], BOX, 32, CQA_BASIS, model=model)
    assert len(runs) == bad_run


@pytest.mark.parametrize("alpha", ["1", "0.5", "0", "-0.5"])
def test_contours_present_in_2d(alpha, tmp_path):
    # identify leaves the contours to the CLI: one CSV per constraint plus
    # the joint, each the marching-squares boundary of the saved expression;
    # the CLI composes the joint field from the phi fields, and its contours
    # equal those of the joint expression evaluated on the grid
    out = tmp_path / "ds"
    assert cli.main(["identify", "--n", "32", "--grid", "64", "--out", str(out),
                     "--config", str(KELVIN_CFG), "--alpha", alpha]) == 0
    report = load_report(out / "ds_report.json")
    bounds = [(a.lo, a.hi) for a in report.box]
    regions = {c.name: c.phi for c in report.constraints} | {"joint": report.joint}
    for name, region in regions.items():
        contours = marching_squares(grid_eval(region, bounds, 64))
        emit_contours_csv(tmp_path / "expected.csv", contours, *contour_texts([contours]))
        rows = (out / ("joint.csv" if name == "joint" else f"phi_{name}.csv")).read_text()
        assert rows.splitlines()[1:] == (tmp_path / "expected.csv").read_text().splitlines()
        # the purity boundary, and with it the joint one, crosses the kelvin box
        if name != "profit":
            assert len(rows.splitlines()) > 2


SKEW_SPEC = ConstraintSpec("skew", 210.0)


def sum_prod_skew_model(points):
    T, t = points.T
    return np.column_stack((T + t, T * t, T - 0.5 * t + 1e-3 * T * T))


def _assert_joint_values_equal_the_joint_field(report):
    bounds = [(a.lo, a.hi) for a in report.box]
    for resolution in (33, (17, 40)):
        phis = [grid_eval(c.phi, bounds, resolution).values for c in report.constraints]
        want = grid_eval(report.joint, bounds, resolution).values
        got = joint_values(phis, report.alpha)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.0, -0.5])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_joint_values_of_the_phi_fields_equal_the_joint_field(count, alpha):
    # the identify command's joint field: the joint rule over the phi fields
    report = identify([SUM_SPEC, PROD_SPEC, SKEW_SPEC][:count], BOX, 32, CQA_BASIS,
                      alpha=alpha, model=lambda p: sum_prod_skew_model(p)[:, :count])
    assert len(report.constraints) == count
    _assert_joint_values_equal_the_joint_field(report)


@pytest.mark.parametrize("path", REPORT_FIXTURES, ids=lambda p: p.stem)
def test_joint_values_equal_the_joint_field_on_fixtures(path):
    _assert_joint_values_equal_the_joint_field(load_report(path))


def test_joint_expression_single_constraint():
    report = identify([SUM_SPEC], BOX, 16, CQA_BASIS, model=sum_model)
    text = to_infix(report.joint.expr)
    for T, t in [(250.0, 250.0), (275.0, 280.0), (300.0, 265.0)]:
        assert infix_eval(text, {"T": T, "t": t}) == pytest.approx(T + t - 550.0, abs=1e-6)


def test_joint_expression_structure_two_constraints():
    report = synthetic_report()
    abs_text = to_infix(report.joint.expr, alpha1_style="abs")
    sqrt_text = to_infix(report.joint.expr, alpha1_style="sqrt")
    assert abs_text.count("abs(") == 1 and "sqrt(" not in abs_text
    assert sqrt_text.count("sqrt(") == 1 and "abs(" not in sqrt_text


def test_joint_expression_round_trip(rng):
    from rewrites import canonicalize_alpha1, desugar_r_nodes

    report = synthetic_report()
    joint = report.joint.expr
    # (text, its value at env, the expression the text stands for)
    references = [
        (to_infix(joint, alpha1_style="sqrt"), infix_eval, desugar_r_nodes(joint)),
        (to_infix(joint), infix_eval, desugar_r_nodes(canonicalize_alpha1(joint))),
        (to_tree_text(joint), lambda text, env: eval_expr(parse_tree_text(text), env), joint),
    ]
    for text, value, reference in references:
        for _ in range(20):
            T = float(rng.uniform(250, 300))
            t = float(rng.uniform(250, 300))
            env = {"T": T, "t": t}
            assert value(text, env) == pytest.approx(
                eval_expr(reference, env), abs=1e-12)


def test_plot_count():
    assert plot_count(2) == 1
    assert plot_count(3) == 9
    assert plot_count(4) == 54
    with pytest.raises(DTooSmall):
        plot_count(1)


def test_report_save_load_round_trip(tmp_path):
    report = synthetic_report()
    path, again = tmp_path / "report.json", tmp_path / "again.json"
    save_report(report, path, artifacts={"joint_svg": "joint.svg"}, provenance="test run")
    loaded = load_report(path)
    # the loaded report writes back the file it came from, byte for byte
    save_report(loaded, again, artifacts={"joint_svg": "joint.svg"}, provenance="test run")
    assert again.read_bytes() == path.read_bytes()
    assert [a.name for a in loaded.box] == ["T", "t"]
    assert loaded.box[0].unit == "K"
    assert loaded.alpha == 1.0
    assert loaded.validation.agreement_rate == report.validation.agreement_rate
    assert [c.name for c in loaded.constraints] == ["sum", "product"]
    for c_new, c_old in zip(loaded.constraints, report.constraints):
        assert np.array_equal(c_new.fit.coefficients, c_old.fit.coefficients)
        assert c_new.threshold == c_old.threshold
    # rebuilt from the fits as identify built it: each phi is read by the joint
    assert loaded.joint.expr.a is loaded.constraints[0].phi.expr
    assert loaded.joint.expr.b is loaded.constraints[1].phi.expr
    for u in [(300.0, 300.0), (250.0, 250.0), (275.0, 275.0), (265.0, 290.0)]:
        assert membership(loaded, u) == membership(report, u)


def test_reloaded_fit_predicts_bit_for_bit(tmp_path):
    params, box = reactor.apply_config({})
    report = identify([ConstraintSpec("purity", reactor.PURITY_MIN),
                       ConstraintSpec("profit", reactor.PROFIT_MIN)],
                      box, 16, CQA_BASIS, model=lambda p: reactor.cqa_closed(p, params))
    save_report(report, tmp_path / "report.json")
    loaded = load_report(tmp_path / "report.json")
    save_report(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "report.json").read_bytes()
    lo, hi = np.array([(a.lo, a.hi) for a in box]).T
    points = np.random.default_rng(3).uniform(lo, hi, (1000, 2))
    for new, old in zip(loaded.constraints, report.constraints):
        assert type(new.fit.coefficients) is type(old.fit.coefficients) is tuple
        assert new.fit.coefficients == old.fit.coefficients
        assert new.fit.predict(points).tobytes() == old.fit.predict(points).tobytes()


def test_load_rejects_coefficients_that_do_not_match_the_basis(tmp_path):
    report = json.loads(REPORT_FIXTURES[1].read_text())
    report["constraints"][0]["coefficients"].pop()
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    with pytest.raises(ParseError, match="4 coefficients for 5 monomials"):
        load_report(path)


# each field kind: values it takes with what they convert to, values it
# refuses, and what its messages say a field of the kind must be; then a
# tree node and a report edit that put a value into a field of the kind,
# with the field's name in messages (a unit is no field of the tree format)
FIELD_CASES = {
    "number": ([(1, 1.0), (2.5, 2.5), (2 ** 1023, 2.0 ** 1023)],
               [True, "1", 10 ** 400, None], "a number",
               (lambda v: {"kind": "const", "value": v}, "const value"),
               (lambda r, v: r["constraints"][0].update(threshold=v), "threshold")),
    "count": ([(0, 0), (64, 64), (2 ** 1023, 2 ** 1023)],
              [64.9, 1.0, True, "1", -1, 10 ** 400], "a non-negative integer below 2^1024",
              (lambda v: {"kind": "pow", "exponent": v, "args": [{"kind": "var", "name": "T"}]},
               "pow exponent"),
              (lambda r, v: r["sampling"].update(n_train=v), "n_train")),
    "name": ([("T", "T"), (" ", " ")], ["", 5, None, ["T"]], "a non-empty string",
             (lambda v: {"kind": "var", "name": v}, "var name"),
             (lambda r, v: r["constraints"][1].update(name=v), "constraint name")),
    "unit": ([("K", "K"), ("", ""), (None, None)], [7, False, ["min"]], "a string or null",
             None, (lambda r, v: r["box"][1].update(unit=v), "box axis unit")),
}


@pytest.mark.parametrize("kind", FIELD_CASES)
def test_field_kinds_convert_and_word_failures_alike_in_trees_and_reports(kind, tmp_path):
    assert set(FIELD_CASES) == set(FIELD_KINDS)
    accepted, refused, what, tree_field, report_field = FIELD_CASES[kind]
    for value, expected in accepted:
        got = read_field(value, kind, "field")
        assert got == expected and type(got) is type(expected)
    fixture = json.loads(REPORT_FIXTURES[1].read_text())
    path = tmp_path / "edited.json"
    for value in refused:
        subjects = [("field", lambda: read_field(value, kind, "field"))]
        if tree_field:
            make_node, subject = tree_field
            subjects.append((subject, lambda: from_tree_obj(make_node(value))))
        edit, subject = report_field
        report = json.loads(json.dumps(fixture))
        edit(report, value)
        path.write_text(json.dumps(report))
        subjects.append((subject, lambda: load_report(path)))
        for subject, read in subjects:
            with pytest.raises(ParseError) as info:
                read()
            assert str(info.value) == f"parse error: {subject} must be {what}, got {value!r}"


@pytest.mark.parametrize("fixture", REPORT_FIXTURES, ids=lambda p: p.stem)
def test_saved_report_round_trips_byte_for_byte(fixture, tmp_path):
    # pins the tree reader, the tree writer and the infix printer on real trees
    saved = json.loads(fixture.read_text())
    path = tmp_path / "again.json"
    save_report(load_report(fixture), path, artifacts=saved["files"],
                provenance=saved["provenance"])
    assert path.read_bytes() == fixture.read_bytes()


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.0, -0.5])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_saved_expression_fields_equal_separate_calls(count, alpha, tmp_path):
    # save_report prints every expression field from one fold over the joint
    report = identify([SUM_SPEC, PROD_SPEC, SKEW_SPEC][:count], BOX, 32, CQA_BASIS,
                      alpha=alpha, model=lambda p: sum_prod_skew_model(p)[:, :count])
    path = tmp_path / "r.json"
    save_report(report, path)
    saved = json.loads(path.read_text())
    compact = functools.partial(json.dumps, separators=(",", ":"))
    for c, stored in zip(report.constraints, saved["constraints"]):
        assert stored["phi_infix"] == to_infix(c.phi.expr)
        assert compact(stored["phi_tree"]) == to_tree_text(c.phi.expr)
    joint = saved["joint"]
    assert list(joint) == ["infix_sqrt", "infix_abs", "tree"]
    assert joint["infix_sqrt"] == to_infix(report.joint.expr, alpha1_style="sqrt")
    assert joint["infix_abs"] == to_infix(report.joint.expr)
    assert compact(joint["tree"]) == to_tree_text(report.joint.expr)
    assert load_report(path).alpha == alpha


def _json_layout_reports():
    for fixture in REPORT_FIXTURES:
        saved = json.loads(fixture.read_text())
        yield load_report(fixture), {"artifacts": saved["files"],
                                     "provenance": saved["provenance"]}
    # non-ASCII text, control characters and line separators in the provenance
    yield load_report(REPORT_FIXTURES[1]), {
        "provenance": "rfuncds | caf\u00e9 \u2603 \U0001f600 nul\x00 esc\x1b "
                      "ls\u2028 ps\u2029 quote\" back\\ lone\udcff"}
    # null units, and trees at the depth limit
    yield identify([SUM_SPEC], (BoxAxis("T", 250.0, 300.0), BoxAxis("t", 250.0, 300.0)),
                   16, CQA_BASIS, model=sum_model), {}
    yield chain_report(MAX_DEPTH), {"artifacts": {}, "provenance": ""}


def test_save_report_writes_the_layout_of_json_dumps_indent_2(tmp_path):
    for k, (report, kwargs) in enumerate(_json_layout_reports()):
        path = tmp_path / f"r{k}.json"
        save_report(report, path, **kwargs)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert text.isascii()
    assert k == 4


@pytest.mark.parametrize("field", ["phi_tree", "joint"])
def test_load_report_takes_trees_of_max_depth_levels(field, tmp_path):
    # a consistent report whose phi_tree and joint.tree are MAX_DEPTH levels
    # deep loads; the report's one nesting check refuses a tree of one level
    # more in either place (inside the report, constraints and constraint,
    # or inside the report and joint) before the file is decoded
    path = tmp_path / "deep.json"
    save_report(chain_report(MAX_DEPTH), path)
    loaded = load_report(path)
    tree = loaded.joint if field == "joint" else loaded.constraints[0].phi
    assert depth(tree.expr) == MAX_DEPTH
    report = json.loads(path.read_text())
    if field == "joint":
        report["joint"]["tree"] = "DEEP"
    else:
        report["constraints"][0]["phi_tree"] = "DEEP"
    chain = ('{"kind":"neg","args":[' * MAX_DEPTH + '{"kind":"var","name":"T"}'
             + "]}" * MAX_DEPTH)
    path.write_text(json.dumps(report).replace('"DEEP"', chain))
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


@pytest.mark.parametrize("unit", [None, "", "K", "absent"])
def test_load_takes_a_string_null_or_absent_unit(unit, tmp_path):
    report = json.loads(REPORT_FIXTURES[1].read_text())
    if unit == "absent":
        del report["box"][0]["unit"]
    else:
        report["box"][0]["unit"] = unit
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert load_report(path).box[0].unit == (None if unit == "absent" else unit)
