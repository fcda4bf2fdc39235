import numpy as np
import pytest

from rfuncds import reactor
from rfuncds.errors import NonpositiveTemperature, ToleranceNotMet
from rfuncds.qmc import scale, sobol
from rfuncds.reactor import (
    DEFAULT_PARAMS,
    Box,
    KineticParams,
    OperatingPoint,
    _mu_weights,
    apply_config,
    batch_cqa,
    cqa_closed,
    cqa_ode,
    integrate,
    rate_constants,
    simulate,
)

# the activation-energy table read as E/R in kelvin; gives a regime where
# both quality attributes are O(1) and the purity threshold crosses the box
KELVIN_PARAMS = KineticParams(r_gas=1.0)

U_CENTER = OperatingPoint(275.0, 275.0)

# regression values pinned from rtol=1e-11/atol=1e-13 runs (Radau and LSODA
# agree to ~1e-9 relative)
PINNED = {
    "default": (1.2770035887964606e-10, -0.0053430303962393524),
    "kelvin": (0.7814622798566331, 269.7391378473544),
}


def sobol_points(n=16):
    return scale(sobol(2, n, 1), [(250, 300), (250, 300)]).points


def test_rate_constants_high_temperature_limit():
    k1, k2 = rate_constants(1e12)
    assert k1 == pytest.approx(DEFAULT_PARAMS.k1_0, rel=1e-9)
    assert k2 == pytest.approx(DEFAULT_PARAMS.k2_0, rel=1e-9)


def test_rate_constants_at_300k():
    k1, k2 = rate_constants(300.0)
    assert k1 == pytest.approx(0.0666 * np.exp(-2500.2 / (8.314 * 300.0)), rel=1e-14)
    assert k2 == pytest.approx(10333.5 * np.exp(-5000.1 / (8.314 * 300.0)), rel=1e-14)


def test_rate_constants_zero_energy():
    params = KineticParams(e1=0.0, e2=0.0)
    for T in (1.0, 250.0, 5000.0):
        k1, k2 = rate_constants(T, params)
        assert k1 == params.k1_0
        assert k2 == params.k2_0


def test_rate_constants_temperature_validation():
    with pytest.raises(NonpositiveTemperature):
        rate_constants(0.0)
    with pytest.raises(NonpositiveTemperature):
        rate_constants(-5.0)


def test_params_validation():
    with pytest.raises(ValueError):
        KineticParams(c_a0=-1.0)
    with pytest.raises(ValueError):
        KineticParams(k1_0=0.0)
    KineticParams(e1=0.0)  # zero energy is allowed


@pytest.mark.parametrize("label,params", [("default", DEFAULT_PARAMS),
                                          ("kelvin", KELVIN_PARAMS)])
def test_pinned_regression_values(label, params):
    purity, profit = PINNED[label]
    out = simulate(U_CENTER, params)
    assert out.purity == pytest.approx(purity, rel=1e-5 if label == "default" else 1e-6)
    assert out.profit == pytest.approx(profit, rel=1e-6)


def test_no_reaction_limit():
    params = KineticParams(k1_0=1e-300)
    out = simulate(OperatingPoint(275.0, 275.0), params)
    assert out.c_a == pytest.approx(params.c_a0, rel=1e-12)
    assert out.c_b <= 1e-30 and out.c_c <= 1e-30
    assert out.purity <= 1e-30
    (purity, profit), = cqa_ode([(275.0, 275.0)], params)
    assert profit == pytest.approx(-20.0 * params.c_a0 * params.volume / (275.0 + 30.0),
                                   rel=1e-12)


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, KELVIN_PARAMS])
def test_riccati_oracle_and_conservation(params):
    # closed-form solution of the decoupled A equation as an independent check
    for T, t in sobol_points(4):
        u = OperatingPoint(T, t)
        tr = integrate(u, params, dense=True)
        k1, _ = rate_constants(T, params)
        taus = np.linspace(0.05, 1.0, 10)
        a_exact = params.c_a0 / (1.0 + 2.0 * t * k1 * params.c_a0 * taus)
        a_num = tr.interpolant(taus)[0]
        assert np.abs((a_num - a_exact) / a_exact).max() <= 1e-6
        defect = np.abs(tr.states[0] + 2 * (tr.states[1] + tr.states[2]) - params.c_a0)
        assert defect.max() / params.c_a0 <= 1e-6


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, KELVIN_PARAMS])
def test_monotone_decay_and_nonnegativity(params):
    tr = integrate(U_CENTER, params)
    a = tr.states[0]
    assert np.all(np.diff(a) < 0)
    assert tr.states.min() >= -1e-9 * params.c_a0


def test_purity_in_unit_interval():
    for T, t in sobol_points(8):
        out = simulate(OperatingPoint(T, t), KELVIN_PARAMS)
        assert 0.0 <= out.purity <= 1.0


def test_integrator_methods_agree():
    for params in (DEFAULT_PARAMS, KELVIN_PARAMS):
        a = simulate(U_CENTER, params, method="lsoda")
        b = simulate(U_CENTER, params, method="radau")
        scale_c = params.c_a0
        for fa, fb in ((a.c_a, b.c_a), (a.c_b, b.c_b), (a.c_c, b.c_c)):
            assert abs(fa - fb) <= 1e-7 * scale_c


def test_tolerance_halving_stability():
    # in the O(1) regime the CQA values move by far less than 1e-7 relative
    pts = sobol_points(16)
    a = cqa_ode(pts, KELVIN_PARAMS, rtol=1e-8, atol=1e-10)
    b = cqa_ode(pts, KELVIN_PARAMS, rtol=5e-9, atol=5e-11)
    assert (np.abs(a - b) / np.abs(b)).max() < 1e-7


def test_tolerance_halving_stability_default_regime():
    # default purity sits at the integrator's absolute noise floor (~1e-10),
    # so compare against a mixed relative/absolute yardstick
    pts = sobol_points(16)
    a = cqa_ode(pts, rtol=1e-8, atol=1e-10)
    b = cqa_ode(pts, rtol=5e-9, atol=5e-11)
    assert (np.abs(a - b) <= 1e-7 * np.maximum(np.abs(b), 1.0)).all()


def test_integrate_reports_statistics():
    tr = integrate(U_CENTER, KELVIN_PARAMS)
    assert tr.steps >= 10
    assert tr.nfev > tr.steps
    assert 0 <= tr.conservation_defect <= 1e-6
    out = simulate(U_CENTER, KELVIN_PARAMS)
    assert out.steps == tr.steps
    assert out.error_estimate == tr.conservation_defect


def test_fast_path_matches_generic(rng):
    pts = sobol_points(16)
    for params in (DEFAULT_PARAMS, KELVIN_PARAMS):
        purity, profit, est = batch_cqa(pts[:, 0], pts[:, 1], params)
        assert est <= 1e-8
        ref = cqa_ode(pts, params, rtol=1e-10, atol=1e-12)
        for fast, ref_col in ((purity, ref[:, 0]), (profit, ref[:, 1])):
            assert (np.abs(fast - ref_col) <= 1e-8 * np.maximum(1.0, np.abs(ref_col))).all()


def test_fast_path_validation():
    with pytest.raises(NonpositiveTemperature):
        batch_cqa([-1.0], [250.0])
    with pytest.raises(ValueError):
        batch_cqa([250.0], [0.0])
    with pytest.raises(ValueError):
        batch_cqa([250.0, 260.0], [250.0])


def test_apply_config():
    params, box = apply_config({"r_gas": 1.0, "T_lo": 240.0})
    assert params.r_gas == 1.0
    assert params.e1 == DEFAULT_PARAMS.e1
    assert box.T == (240.0, 300.0)
    for key in ("gas_constant", "rtol", "atol"):
        with pytest.raises(KeyError):
            apply_config({key: 1.0})


def test_box_contains():
    box = Box()
    assert box.contains(OperatingPoint(250.0, 300.0))
    assert not box.contains(OperatingPoint(249.9, 275.0))


# ----------------------------------------------------------------------
# model backends

def test_backends_share_the_model_contract():
    pts = sobol_points(8)
    for params in (DEFAULT_PARAMS, KELVIN_PARAMS):
        closed = cqa_closed(pts, params)
        purity, profit, _ = batch_cqa(pts[:, 0], pts[:, 1], params)
        assert closed.shape == (8, 2)
        assert np.array_equal(closed, np.column_stack((purity, profit)))
        ode = cqa_ode(pts, params)
        assert ode.shape == (8, 2)
        for (T, t), row in zip(pts, ode):
            out = simulate(OperatingPoint(T, t), params)
            assert row.tolist() == [out.purity, out.profit]
    assert cqa_closed(pts[:1]).shape == cqa_ode(pts[:1]).shape == (1, 2)


def test_ode_backend_runs_simulate_in_row_order(monkeypatch):
    seen = []
    real = reactor.simulate

    def spy(u, *args, **kwargs):
        seen.append(tuple(u))
        return real(u, *args, **kwargs)

    monkeypatch.setattr(reactor, "simulate", spy)
    pts = sobol_points(4)
    cqa_ode(pts, KELVIN_PARAMS, rtol=1e-7, atol=1e-9)
    assert seen == [tuple(p) for p in pts.tolist()]


def test_closed_backend_keeps_refinement_check(monkeypatch):
    # halving the interval count changes C_B by a half: far above check_tol
    monkeypatch.setattr(reactor, "_batch_b_final",
                        lambda T, t, params, n: np.full(T.shape, float(n)))
    with pytest.raises(ToleranceNotMet, match="refinement estimate"):
        cqa_closed(sobol_points(4))


# ----------------------------------------------------------------------
# _mu_weights against the version that evaluated both branches everywhere

def reference_mu_weights(z):
    small = z < 0.5
    zr = np.where(small, 1.0, z)   # dummy where the series branch wins
    er = np.exp(-zr)
    mu0r = (1.0 - er) / zr
    mu1r = (1.0 - mu0r) / zr
    mu2r = (1.0 - 2.0 * mu1r) / zr
    mu3r = (1.0 - 3.0 * mu2r) / zr

    es = np.exp(-np.where(small, z, 0.0))
    term = np.ones_like(z)
    s = [np.zeros_like(z) for _ in range(4)]
    zs = np.where(small, z, 0.0)
    for k in range(17):
        if k > 0:
            term = term * zs / k
        for m in range(4):
            s[m] += term / (k + m + 1)
    return tuple(np.where(small, es * s[m], (mu0r, mu1r, mu2r, mu3r)[m]) for m in range(4))


def _z_arrays():
    rng = np.random.default_rng(7)
    edges = np.array([0.0, 5e-324, 1e-300, 0.4999999999999999, 0.5, 0.5000000000000001])
    small = rng.uniform(0.0, 0.5, size=(37, 64))
    large = np.exp(rng.uniform(np.log(0.5), np.log(1e6), size=(37, 64)))
    mixed = np.where(rng.random((37, 64)) < 0.5, small, large)
    mixed.ravel()[:edges.size] = edges
    return {"all-small": small, "all-large": large, "mixed": mixed,
            "edges": edges, "empty": np.empty((3, 0))}


@pytest.mark.parametrize("name", ["all-small", "all-large", "mixed", "edges", "empty"])
def test_mu_weights_bitwise_equal_to_both_branch_version(name):
    z = _z_arrays()[name]
    got = _mu_weights(z)
    want = reference_mu_weights(z)
    assert len(got) == 4
    for g, w in zip(got, want):
        assert g.shape == z.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, KELVIN_PARAMS], ids=["si", "kelvin"])
def test_batch_cqa_bitwise_unchanged_by_branch_split(params, monkeypatch):
    pts = scale(sobol(2, 320, 1), [(250, 300), (250, 300)]).points
    got = batch_cqa(pts[:, 0], pts[:, 1], params)
    monkeypatch.setattr(reactor, "_mu_weights", reference_mu_weights)
    want = batch_cqa(pts[:, 0], pts[:, 1], params)
    for g, w in zip(got[:2], want[:2]):
        assert g.tobytes() == w.tobytes()
    assert got[2] == want[2]
