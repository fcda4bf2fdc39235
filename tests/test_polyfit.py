import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rfuncds.ds import load_report
from rfuncds.errors import DimensionMismatch, InsufficientPoints, NonFiniteValue, RankDeficient
from rfuncds.expr import Const, eval_arrays, eval_expr
from rfuncds.exprtext import to_tree_text
from rfuncds.polyfit import (
    BLOCK_ROWS, BasisSpec, FitResult, _r_squared, design_matrix, fit_least_squares, r_squared,
    to_expr,
)
from rfuncds.qmc import scale, sobol
from rfuncds.reactor import CQA_BASIS

LINE = BasisSpec(vars=("x",), monomials=((0,), (1,)))

REPORT = load_report(Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
                     / "kelvin-alpha1.json")
FITS = [c.fit for c in REPORT.constraints]


def _box_points(n, seed=0):
    lo, hi = zip(*[(axis.lo, axis.hi) for axis in REPORT.box])
    return np.random.default_rng(seed).uniform(lo, hi, size=(n, len(lo)))


def test_basis_validation():
    with pytest.raises(ValueError):
        BasisSpec(vars=("x",), monomials=())
    with pytest.raises(ValueError):
        BasisSpec(vars=("x",), monomials=((0,), (0,)))
    with pytest.raises(ValueError):
        BasisSpec(vars=("x",), monomials=((-1,),))
    with pytest.raises(ValueError):
        BasisSpec(vars=("x", "y"), monomials=((1,),))


def test_design_matrix_rows():
    quad = BasisSpec(vars=("T",), monomials=((0,), (1,), (2,)))
    assert design_matrix([[2.0]], quad).tolist() == [[1.0, 2.0, 4.0]]
    one = BasisSpec(vars=("T",), monomials=((0,),))
    assert design_matrix([[123.0]], one).tolist() == [[1.0]]
    row = design_matrix([[275.0, 275.0]], CQA_BASIS)[0]
    assert row.tolist() == [1.0, 275.0, 75625.0, 275.0, 75625.0]


def test_design_matrix_dimension_check():
    with pytest.raises(DimensionMismatch):
        design_matrix([[1.0, 2.0]], LINE)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_fit_refuses_non_finite_targets_and_points(bad):
    with pytest.raises(NonFiniteValue, match="fit target holds inf or nan at 1 of 3 points"):
        fit_least_squares([[1.0], [2.0], [3.0]], [1.0, bad, 3.0], LINE)
    with pytest.raises(NonFiniteValue, match=r"monomial \(1,\) in \('x',\) is not finite"):
        fit_least_squares([[1.0], [bad], [3.0]], [1.0, 2.0, 3.0], LINE)


def test_design_matrix_refuses_an_entry_that_overflows():
    quad = BasisSpec(vars=("T", "t"), monomials=((0, 0), (2, 0), (1, 1)))
    with pytest.raises(NonFiniteValue, match=r"monomial \(2, 0\) in \('T', 't'\) is not "
                                             r"finite at point \[1e\+200, 1\.0\]"):
        design_matrix([[1.0, 2.0], [1e200, 1.0]], quad)


def test_exact_line_fit():
    pts = [[0.0], [1.0], [2.0]]
    fit = fit_least_squares(pts, [2.0, 5.0, 8.0], LINE)
    assert fit.coefficients == pytest.approx([2.0, 3.0], abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.residual_max_abs <= 1e-12


def test_underdetermined_square_fit_by_hand():
    # y = x^2 sampled at -1, 0, 1 against {1, x}: best fit is the mean 2/3,
    # slope 0, and the residual equals the total variation (R^2 = 0)
    fit = fit_least_squares([[-1.0], [0.0], [1.0]], [1.0, 0.0, 1.0], LINE)
    assert fit.coefficients == pytest.approx([2.0 / 3.0, 0.0], abs=1e-12)
    assert fit.r_squared == pytest.approx(0.0, abs=1e-12)


def test_constant_target_convention():
    one = BasisSpec(vars=("x",), monomials=((0,),))
    fit = fit_least_squares([[0.0], [1.0], [2.0]], [4.0, 4.0, 4.0], one)
    assert fit.coefficients == pytest.approx([4.0])
    assert fit.r_squared == 1.0


def test_recovers_polynomial_in_basis(rng):
    true = np.array([1.2e2, -3.0, 4.5e-3, 2.0, -1.0e-4])
    pts = scale(sobol(2, 64, 1), [(250, 300), (250, 300)])
    values = design_matrix(pts, CQA_BASIS) @ true
    fit = fit_least_squares(pts, values, CQA_BASIS)
    assert np.abs((fit.coefficients - true) / true).max() <= 1e-8
    assert fit.r_squared >= 1 - 1e-12


def test_prediction_invariant_to_scaling(rng):
    pts = rng.uniform(-1, 1, size=(40, 1))
    values = 0.5 + 2.0 * pts[:, 0] + rng.normal(0, 0.1, size=40)
    fit = fit_least_squares(pts, values, LINE)
    raw, *_ = np.linalg.lstsq(design_matrix(pts, LINE), values, rcond=None)
    grid = np.linspace(-1, 1, 50)[:, None]
    ours = fit.predict(grid)
    theirs = design_matrix(grid, LINE) @ raw
    assert np.abs(ours - theirs).max() <= 1e-9


@pytest.mark.parametrize("fit", FITS, ids=[c.name for c in REPORT.constraints])
@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               3 * BLOCK_ROWS + 7])
def test_predict_in_blocks_is_the_one_shot_product_bit_for_bit(fit, n):
    pts = _box_points(n)
    got = fit.predict(pts)
    want = design_matrix(pts, fit.basis) @ np.array(fit.coefficients)
    assert got.shape == (n,) and got.tobytes() == want.tobytes()


def test_predict_names_the_first_non_finite_point_of_a_later_block():
    fit = FITS[0]
    pts = _box_points(4 * BLOCK_ROWS)
    first = 2 * BLOCK_ROWS + 5                     # inside block 3
    pts[first, 1] = np.inf
    pts[first + 1, 0] = np.nan                     # later in the same block
    pts[3 * BLOCK_ROWS + 2, 0] = np.inf            # in block 4
    with pytest.raises(NonFiniteValue) as one_shot:
        design_matrix(pts, fit.basis)
    assert f"at point {pts[first].tolist()}" in str(one_shot.value)
    with pytest.raises(NonFiniteValue) as blocked:
        fit.predict(pts)
    assert str(blocked.value) == str(one_shot.value)


@pytest.mark.parametrize("shape", [(0, 3), (5, 3), (BLOCK_ROWS + 1, 1)])
def test_predict_refuses_a_wrong_point_width(shape):
    with pytest.raises(DimensionMismatch, match=f"points have {shape[1]} coordinates"):
        FITS[0].predict(np.zeros(shape))


def test_predict_memory_is_the_output_and_one_block():
    fit = FITS[0]
    pts = _box_points(2 ** 18)
    out_bytes = pts.shape[0] * 8
    block_bytes = BLOCK_ROWS * len(fit.basis) * 8   # one block of the design matrix
    tracemalloc.start()
    try:
        fit.predict(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole design matrix alone would be 5 x the output
    assert peak < 2 * out_bytes + block_bytes


def test_duplicate_point_keeps_exact_fit():
    pts = [[0.0], [1.0], [2.0]]
    values = [2.0, 5.0, 8.0]
    base = fit_least_squares(pts, values, LINE)
    dup = fit_least_squares(pts + [[1.0]], values + [5.0], LINE)
    assert dup.r_squared >= base.r_squared - 1e-12


def test_insufficient_points():
    with pytest.raises(InsufficientPoints):
        fit_least_squares([[0.0]], [1.0], LINE)


def test_rank_deficient_points():
    pts = [[1.0], [1.0], [1.0]]
    with pytest.raises(RankDeficient):
        fit_least_squares(pts, [1.0, 1.0, 1.0], LINE)


def test_holdout_r_squared():
    pts = [[0.0], [1.0], [2.0]]
    fit = fit_least_squares(pts, [2.0, 5.0, 8.0], LINE)
    assert r_squared(fit, [[3.0], [4.0]], [11.0, 14.0]) == pytest.approx(1.0, abs=1e-12)


def test_r_squared_refuses_values_that_do_not_match_the_points():
    fit = fit_least_squares([[0.0], [1.0], [2.0]], [2.0, 5.0, 8.0], LINE)
    with pytest.raises(DimensionMismatch, match=r"1 points but \(3,\) values"):
        r_squared(fit, [[3.0]], [11.0, 14.0, 17.0])
    with pytest.raises(DimensionMismatch, match=r"2 points but \(2, 1\) values"):
        r_squared(fit, [[3.0], [4.0]], [[11.0], [14.0]])
    with pytest.raises(DimensionMismatch, match="points have 2 coordinates"):
        r_squared(fit, [[3.0, 4.0]], [11.0])


def test_r_squared_of_a_target_near_the_float_limit():
    # the squared deviations of a target near 1e301 would overflow; R^2 is
    # taken over values scaled by a power of two, which changes no bit of it
    pts, y = [[0.0], [1.0], [2.0], [3.0]], np.array([1.0, 2.5, 2.0, 4.0])
    fit = fit_least_squares(pts, y, LINE)
    k = 2.0 ** 1000
    big = FitResult(LINE, tuple(c * k for c in fit.coefficients), fit.r_squared,
                    fit.n_points, fit.residual_max_abs * k)
    with np.errstate(over="raise", invalid="raise"):
        assert r_squared(big, pts, y * k) == r_squared(fit, pts, y)
        assert fit_least_squares(pts, y * k, LINE).r_squared == pytest.approx(fit.r_squared)
    assert 0.0 < fit.r_squared < 1.0


def test_r_squared_of_a_subnormal_target():
    # the power of two that scales a target near 1e-310 up is beyond the float range
    y = np.array([1e-310, 3e-310, 2e-310])
    value = _r_squared(y, y - 2e-310)
    k = 2.0 ** 1000
    assert math.isfinite(value) and value == _r_squared(y * k, (y - 2e-310) * k)


def test_to_expr_values():
    fit = fit_least_squares([[0.0], [1.0], [2.0]], [2.0, 5.0, 8.0], LINE)
    expr = to_expr(fit)
    assert eval_expr(expr, {"x": 1.0}) == pytest.approx(5.0, abs=1e-12)


def test_to_expr_zero():
    fit = fit_least_squares([[0.0], [1.0]], [0.0, 0.0], LINE)
    assert to_tree_text(to_expr(fit)) == to_tree_text(Const(0.0))


def test_to_expr_matches_design_matrix(rng):
    pts = scale(sobol(2, 64, 1), [(250, 300), (250, 300)])
    values = rng.normal(size=64)
    fit = fit_least_squares(pts, values, CQA_BASIS)
    expr = to_expr(fit)
    grid = scale(sobol(2, 100, 65), [(250, 300), (250, 300)])
    via_expr = eval_arrays(expr, {"T": grid[:, 0], "t": grid[:, 1]})
    via_matrix = design_matrix(grid, CQA_BASIS) @ fit.coefficients
    assert np.abs(via_expr - via_matrix).max() <= 1e-10

