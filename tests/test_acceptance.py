"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import filecmp
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import boolean_oracle, grid_env

import rfuncds
from rfuncds import ds
from rfuncds.contour import grid_eval, inside_fraction, marching_squares
from rfuncds.expr import Var, eval_arrays, r_and, r_or
from rfuncds.geometry import testcase as load_case
from rfuncds.qmc import scale, sobol
from rfuncds.reactor import (
    CQA_BASIS,
    DEFAULT_PARAMS,
    KineticParams,
    OperatingPoint,
    PROFIT_MIN,
    PURITY_MIN,
    batch_cqa,
    cqa_closed,
    cqa_ode,
    integrate,
    rate_constants,
)

REPO = Path(__file__).resolve().parents[1]
KELVIN_CFG = REPO / "presets" / "kelvin-activation.cfg"
# the directory holding the rfuncds package this process imported; child
# interpreters put it first on PYTHONPATH so they run the same source, from
# any working directory and whether or not the package is installed
PKG_ROOT = Path(rfuncds.__file__).resolve().parents[1]
BOX = (ds.BoxAxis("T", 250.0, 300.0, unit="K"), ds.BoxAxis("t", 250.0, 300.0, unit="min"))
ALPHAS = (-0.9, -0.5, 0.0, 0.5, 1.0)


@pytest.fixture(scope="module")
def ab_sample():
    rng = np.random.default_rng(1701)
    return rng.uniform(-10.0, 10.0, size=(100_000, 2))


@pytest.fixture(scope="module")
def default_pipeline():
    """Shared N=64 identification run against the default reactor, with the
    adaptive-ODE backend as the model."""
    model = cqa_ode
    specs = [ds.ConstraintSpec("purity", PURITY_MIN),
             ds.ConstraintSpec("profit", PROFIT_MIN)]
    t0 = time.perf_counter()
    report = ds.identify(specs, BOX, 64, CQA_BASIS, alpha=1.0, model=model,
                         contour_resolution=None)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def kelvin_pipeline():
    """The same run under the kelvin-units preset, also with the ODE model."""
    params = KineticParams(r_gas=1.0)
    model = lambda points: cqa_ode(points, params)  # noqa: E731
    specs = [ds.ConstraintSpec("purity", PURITY_MIN),
             ds.ConstraintSpec("profit", PROFIT_MIN)]
    return ds.identify(specs, BOX, 64, CQA_BASIS, model=model, contour_resolution=None)


def _sign(values, band=1e-12):
    out = np.sign(values)
    out[np.abs(values) <= band] = 0.0
    return out


def test_criterion_01_sign_consistency(ab_sample):
    a, b = ab_sample[:, 0], ab_sample[:, 1]
    env = {"a": a, "b": b}
    t0 = time.perf_counter()
    for alpha in ALPHAS:
        v_and = eval_arrays(r_and(Var("a"), Var("b"), alpha), env)
        v_or = eval_arrays(r_or(Var("a"), Var("b"), alpha), env)
        assert np.array_equal(_sign(v_and), _sign(np.minimum(a, b)))
        assert np.array_equal(_sign(v_or), _sign(np.maximum(a, b)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nCRITERION 1 PASS: sign consistency for alpha in {ALPHAS} on 1e5 pairs "
          f"({elapsed:.2f}s < 5s)")


def test_criterion_02_alpha1_oracle_equivalence(ab_sample):
    a, b = ab_sample[:, 0], ab_sample[:, 1]
    env = {"a": a, "b": b}
    d_and = np.abs(eval_arrays(r_and(Var("a"), Var("b"), 1.0), env) - np.minimum(a, b))
    d_or = np.abs(eval_arrays(r_or(Var("a"), Var("b"), 1.0), env) - np.maximum(a, b))
    assert d_and.max() <= 1e-12
    assert d_or.max() <= 1e-12
    print(f"\nCRITERION 2 PASS: alpha=1 equals min/max "
          f"(max dev {max(d_and.max(), d_or.max()):.2e} <= 1e-12)")


def test_criterion_03_parabola_closed_form():
    f_and, _, _ = load_case("parabolas-4.2")
    x, y = np.meshgrid(np.linspace(-2, 4, 50), np.linspace(-6, 2, 50), indexing="ij")
    values = eval_arrays(f_and.expr, {"x": x, "y": y})
    expected = 2 * x - x**2 - np.abs(4 * y + 9) / 4 - 0.25
    dev = np.abs(values - expected).max()
    assert dev <= 1e-9
    print(f"\nCRITERION 3 PASS: parabola conjunction matches closed form "
          f"(max dev {dev:.2e} <= 1e-9 on 50x50)")


def test_criterion_04_circles_min_max_oracle():
    f_and, f_or, case = load_case("circles-4.1")
    env = grid_env(case.bounds, 256)
    phi1 = 1.5**2 - (env["x"] - 1.0) ** 2 - (env["y"] - 2.0) ** 2
    phi2 = 1.0**2 - (env["x"] - 1.0) ** 2 - (env["y"] - 1.0) ** 2
    band = 1e-9
    checked = 0
    for region, oracle in ((f_and, np.minimum(phi1, phi2)), (f_or, np.maximum(phi1, phi2))):
        values = eval_arrays(region.expr, env)
        keep = np.abs(values) > band
        assert np.array_equal(values[keep] >= 0, oracle[keep] >= 0)
        checked += int(keep.sum())
    print(f"\nCRITERION 4 PASS: circle and/or signs match min/max oracle on "
          f"{checked} grid nodes outside 1e-9 band")


def test_criterion_05_3d_composites():
    t0 = time.perf_counter()
    band = 1e-9
    total = 0
    for name in ("slabs-A1", "paraboloid-cylinders-A2"):
        first, second, case = load_case(name)
        env = grid_env(case.bounds, 64)
        for region, (label, tree) in zip((first, second), case.trees):
            values = eval_arrays(region.expr, env)
            keep = np.abs(values) > band
            assert np.array_equal((values >= 0)[keep], boolean_oracle(tree, env)[keep])
            total += int(keep.sum())
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nCRITERION 5 PASS: 3D composites match Boolean oracle on {total} "
          f"of 4x64^3 nodes ({elapsed:.1f}s < 30s)")


def test_criterion_06_reactor_integrator():
    pts = scale(sobol(2, 16, 1), [(250, 300), (250, 300)]).points
    taus = np.linspace(0.1, 1.0, 10)
    worst_riccati = worst_defect = 0.0
    for T, t in pts:
        tr = integrate(OperatingPoint(T, t), dense=True)
        k1, _ = rate_constants(T)
        exact = DEFAULT_PARAMS.c_a0 / (1.0 + 2.0 * t * k1 * DEFAULT_PARAMS.c_a0 * taus)
        numeric = tr.interpolant(taus)[0]
        worst_riccati = max(worst_riccati, float(np.abs((numeric - exact) / exact).max()))
        worst_defect = max(worst_defect, tr.conservation_defect)
    assert worst_riccati <= 1e-6
    assert worst_defect <= 1e-6
    print(f"\nCRITERION 6 PASS: C_A matches Riccati closed form "
          f"(max rel err {worst_riccati:.2e} <= 1e-6), conservation defect "
          f"{worst_defect:.2e} <= 1e-6 at 16 Sobol points")


def test_criterion_07_metamodel_quality(default_pipeline):
    report, elapsed = default_pipeline
    assert elapsed < 60.0
    for c in report.constraints:
        assert c.fit.r_squared >= 0.99
        assert c.validation_r_squared >= 0.99
    stats = ", ".join(
        f"{c.name} R2 train {c.fit.r_squared:.4f}/val {c.validation_r_squared:.4f}"
        for c in report.constraints)
    print(f"\nCRITERION 7 PASS: N=64 metamodels, {stats} (all >= 0.99; "
          f"pipeline {elapsed:.1f}s < 60s)")


def test_criterion_08_ds_self_consistency(default_pipeline, kelvin_pipeline):
    report, _ = default_pipeline
    g = np.meshgrid(np.linspace(250, 300, 100), np.linspace(250, 300, 100), indexing="ij")
    T, t = g[0].ravel(), g[1].ravel()
    purity, profit, _ = batch_cqa(T, t)
    oracle = (purity >= PURITY_MIN) & (profit >= PROFIT_MIN)
    predicted = eval_arrays(report.joint.expr, {"T": T, "t": t}) >= 0
    agree = predicted == oracle
    rate = agree.mean()
    assert rate >= 0.98
    if (~agree).any():
        in_band = np.zeros(int((~agree).sum()), dtype=bool)
        for c in report.constraints:
            phi = eval_arrays(c.phi.expr, {"T": T[~agree], "t": t[~agree]})
            in_band |= np.abs(phi) <= c.fit.residual_max_abs
        assert in_band.all()
    print(f"\nCRITERION 8 PASS: joint-DS membership vs direct thresholding "
          f"agrees on {rate:.4f} of 100x100 grid (>= 0.98), "
          f"{int((~agree).sum())} disagreements all within residual bands")

    # informational: the kelvin-units preset gives a non-empty design space;
    # its fuzzier metamodel boundary stays inside the residual bands too
    krep = kelvin_pipeline
    kpur, kprof, _ = batch_cqa(T, t, KineticParams(r_gas=1.0))
    k_oracle = (kpur >= PURITY_MIN) & (kprof >= PROFIT_MIN)
    k_pred = eval_arrays(krep.joint.expr, {"T": T, "t": t}) >= 0
    k_agree = k_pred == k_oracle
    k_in_band = np.zeros(int((~k_agree).sum()), dtype=bool)
    for c in krep.constraints:
        phi = eval_arrays(c.phi.expr, {"T": T[~k_agree], "t": t[~k_agree]})
        k_in_band |= np.abs(phi) <= c.fit.residual_max_abs
    assert k_in_band.all()
    print(f"  (info: kelvin preset agreement {k_agree.mean():.4f}, inside fraction "
          f"{k_oracle.mean():.3f}, all {int((~k_agree).sum())} disagreements in-band)")


@pytest.mark.parametrize("preset", ["si", "kelvin"])
def test_closed_model_matches_ode_pipeline(preset, default_pipeline, kelvin_pipeline):
    # identify's model (the closed form, one batch_cqa call per block) against
    # the ODE runs of criteria 7 and 8.  The ODE's absolute tolerance (atol
    # 1e-10) bounds its accuracy on the smallest concentration an attribute
    # uses: in SI, C_B is about 2e-7, so purity carries about 5e-4 relative
    # error from the ODE alone (the closed form's refinement estimate is
    # 3e-11), and its fit may move by twice that.  Every other attribute is
    # limited by rtol 1e-8, which the fit amplifies to at most about 6e-7;
    # 1e-5 leaves a wide margin and still catches a wrong model.
    if preset == "si":
        params, ode = DEFAULT_PARAMS, default_pipeline[0]
    else:
        params, ode = KineticParams(r_gas=1.0), kelvin_pipeline
    model = lambda points: cqa_closed(points, params)  # noqa: E731
    specs = [ds.ConstraintSpec("purity", PURITY_MIN),
             ds.ConstraintSpec("profit", PROFIT_MIN)]
    closed = ds.identify(specs, BOX, 64, CQA_BASIS, model=model, contour_resolution=None)
    for c_ode, c_closed in zip(ode.constraints, closed.constraints, strict=True):
        rtol = 1e-3 if (preset, c_ode.name) == ("si", "purity") else 1e-5
        np.testing.assert_allclose(c_closed.fit.coefficients, c_ode.fit.coefficients,
                                   rtol=rtol, atol=0.0)
        assert c_closed.fit.r_squared >= 0.99 and c_closed.validation_r_squared >= 0.99
    assert closed.validation == ode.validation
    assert closed.sampling == ode.sampling


def test_criterion_09_plot_count():
    assert ds.plot_count(2) == 1
    assert ds.plot_count(3) == 9
    assert ds.plot_count(4) == 54
    print("\nCRITERION 9 PASS: plot counts 2->1, 3->9, 4->54")


def test_criterion_10_contour_accuracy():
    from rfuncds.geometry import Circle, primitive

    contours = marching_squares(
        grid_eval(primitive(Circle(0.0, 0.0, 1.0)), ((-2, 2), (-2, 2)), 256))
    assert len(contours.polylines) == 1
    pts = contours.polylines[0].points
    cell_diag = np.hypot(4 / 255, 4 / 255)
    radial = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0).max()
    assert radial <= 2 * cell_diag

    # two-disc intersection area: standard circular-segment formula
    d, big_r, small_r = 1.0, 1.5, 1.0
    lens = (
        big_r**2 * np.arccos((d**2 + big_r**2 - small_r**2) / (2 * d * big_r))
        + small_r**2 * np.arccos((d**2 + small_r**2 - big_r**2) / (2 * d * small_r))
        - 0.5 * np.sqrt((-d + big_r + small_r) * (d + big_r - small_r)
                        * (d - big_r + small_r) * (d + big_r + small_r))
    )
    f_and, _, case = load_case("circles-4.1")
    field = grid_eval(f_and, case.bounds, 256)
    box_area = np.prod([hi - lo for lo, hi in case.bounds])
    estimate = inside_fraction(field) * box_area
    rel = abs(estimate - lens) / lens
    assert rel <= 0.02
    print(f"\nCRITERION 10 PASS: circle contour radial error {radial:.4f} <= "
          f"{2 * cell_diag:.4f}; lens area {estimate:.4f} vs analytic {lens:.4f} "
          f"({rel:.3%} <= 2%)")


def _run_python(args, cwd):
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(PKG_ROOT) + (os.pathsep + extra if extra else "")
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_cli(args, cwd):
    return _run_python(["-m", "rfuncds.cli", *args], cwd)


def _assert_identical_trees(a: Path, b: Path):
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert filecmp.cmp(a / name, b / name, shallow=False), f"{name} differs"
    return files_a


def test_criterion_11_cli_determinism(tmp_path):
    # identical invocations, run from two different working directories
    cwd1, cwd2 = tmp_path / "run1", tmp_path / "run2"
    cwd1.mkdir(), cwd2.mkdir()

    # the children must run the package under test, not an installed copy
    for cwd in (cwd1, cwd2):
        child_pkg = _run_python(["-c", "import rfuncds; print(rfuncds.__file__)"], cwd)
        assert Path(child_pkg.strip()).resolve() == Path(rfuncds.__file__).resolve()

    demo_args = ["demo", "circles-4.1", "--grid", "128", "--out", "out"]
    _run_cli(demo_args, cwd=cwd1)
    _run_cli(demo_args, cwd=cwd2)
    demo_files = _assert_identical_trees(cwd1 / "out", cwd2 / "out")

    id_args = ["identify", "--n", "32", "--grid", "64",
               "--config", str(KELVIN_CFG), "--out", "ds"]
    out1 = _run_cli(id_args, cwd=cwd1)
    out2 = _run_cli(id_args, cwd=cwd2)
    id_files = _assert_identical_trees(cwd1 / "ds", cwd2 / "ds")
    assert out1 == out2
    print(f"\nCRITERION 11 PASS: byte-identical outputs on repeated identical "
          f"invocations (demo: {len(demo_files)} files, identify: {len(id_files)} files)")
