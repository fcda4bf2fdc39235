import numpy as np
import pytest

from rfuncds.ds import (
    BoxAxis,
    ConstraintSpec,
    identify,
    joint_expression,
    load_report,
    membership,
    plot_count,
    save_report,
)
from rfuncds.errors import (
    AlphaOutOfRange, DTooSmall, EmptyConstraintList, ModelOutputShape, OutOfBox, RfuncdsError,
)
from rfuncds.expr import eval_arrays, eval_expr
from rfuncds.exprtext import parse_infix
from rfuncds.polyfit import BasisSpec
from rfuncds.qmc import scale, sobol
from rfuncds.reactor import CQA_BASIS

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
    return scale(sobol(2, n, skip), [(a.lo, a.hi) for a in report.box]).points


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


@pytest.mark.parametrize("alpha", [2.0, -1.0, float("nan")])
def test_identify_checks_alpha_before_model_runs(alpha):
    def model(p):
        raise AssertionError("model ran before alpha was checked")
    with pytest.raises(AlphaOutOfRange):
        identify([SUM_SPEC], BOX, 16, CQA_BASIS, alpha=alpha, model=model)


def test_contours_present_in_2d():
    report = synthetic_report(contour_resolution=64)
    assert set(report.contours) == {"sum", "product", "joint"}
    assert all(len(cs.polylines) >= 1 for cs in report.contours.values())


def test_joint_expression_single_constraint():
    report = identify([SUM_SPEC], BOX, 16, CQA_BASIS, model=sum_model)
    text = joint_expression(report, "infix")
    back = parse_infix(text)
    for T, t in [(250.0, 250.0), (275.0, 280.0), (300.0, 265.0)]:
        assert eval_expr(back, {"T": T, "t": t}) == pytest.approx(T + t - 550.0, abs=1e-6)


def test_joint_expression_structure_two_constraints():
    report = synthetic_report()
    abs_text = joint_expression(report, "infix", alpha1_style="abs")
    sqrt_text = joint_expression(report, "infix", alpha1_style="sqrt")
    assert abs_text.count("abs(") == 1 and "sqrt(" not in abs_text
    assert sqrt_text.count("sqrt(") == 1 and "abs(" not in sqrt_text


def test_joint_expression_round_trip(rng):
    from rfuncds.expr import canonicalize_alpha1, desugar_r_nodes
    from rfuncds.exprtext import parse

    report = synthetic_report()
    joint = report.joint.expr
    references = {
        ("infix", "sqrt"): desugar_r_nodes(joint),
        ("infix", "abs"): desugar_r_nodes(canonicalize_alpha1(joint)),
        ("tree", "sqrt"): joint,
    }
    for (fmt, style), reference in references.items():
        text = joint_expression(report, fmt, alpha1_style=style)
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


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_report(path)
