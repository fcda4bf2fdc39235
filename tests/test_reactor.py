import json
from pathlib import Path

import numpy as np
import pytest

import ode_oracle
from ode_oracle import cqa_ode, integrate, rate_constants, simulate
from rfuncds.errors import NonpositiveTemperature, ToleranceNotMet
from rfuncds.qmc import scale, sobol
from rfuncds.reactor import (
    DEFAULT_PARAMS,
    KineticParams,
    _b_final,
    _rates,
    apply_config,
    batch_cqa,
    cqa_closed,
)

# the activation-energy table read as E/R in kelvin; gives a regime where
# both quality attributes are O(1) and the purity threshold crosses the box
KELVIN_PARAMS = KineticParams(r_gas=1.0)

U_CENTER = (275.0, 275.0)

# regression values pinned from rtol=1e-11/atol=1e-13 runs (Radau and LSODA
# agree to ~1e-9 relative)
PINNED = {
    "default": (1.2770035887964606e-10, -0.0053430303962393524),
    "kelvin": (0.7814622798566331, 269.7391378473544),
}


def sobol_points(n=16):
    return scale(sobol(2, n, 1), [(250, 300), (250, 300)])


def closed_b_final(T, t, params):
    """C_B and its error estimate from the closed form at (T, t) arrays."""
    return _b_final(t, *_rates(T, params), params)


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
    out = simulate(*U_CENTER, params)
    assert out.purity == pytest.approx(purity, rel=1e-5 if label == "default" else 1e-6)
    assert out.profit == pytest.approx(profit, rel=1e-6)


def test_no_reaction_limit():
    params = KineticParams(k1_0=1e-300)
    out = simulate(275.0, 275.0, params)
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
        tr = integrate(T, t, params, dense=True)
        k1, _ = rate_constants(T, params)
        taus = np.linspace(0.05, 1.0, 10)
        a_exact = params.c_a0 / (1.0 + 2.0 * t * k1 * params.c_a0 * taus)
        a_num = tr.interpolant(taus)[0]
        assert np.abs((a_num - a_exact) / a_exact).max() <= 1e-6
        defect = np.abs(tr.states[0] + 2 * (tr.states[1] + tr.states[2]) - params.c_a0)
        assert defect.max() / params.c_a0 <= 1e-6


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, KELVIN_PARAMS])
def test_monotone_decay_and_nonnegativity(params):
    tr = integrate(*U_CENTER, params)
    a = tr.states[0]
    assert np.all(np.diff(a) < 0)
    assert tr.states.min() >= -1e-9 * params.c_a0


def test_purity_in_unit_interval():
    for T, t in sobol_points(8):
        out = simulate(T, t, KELVIN_PARAMS)
        assert 0.0 <= out.purity <= 1.0


def test_integrator_methods_agree():
    for params in (DEFAULT_PARAMS, KELVIN_PARAMS):
        a = simulate(*U_CENTER, params, method="lsoda")
        b = simulate(*U_CENTER, params, method="radau")
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
    tr = integrate(*U_CENTER, KELVIN_PARAMS)
    assert tr.steps >= 10
    assert tr.nfev > tr.steps
    assert 0 <= tr.conservation_defect <= 1e-6
    out = simulate(*U_CENTER, KELVIN_PARAMS)
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
    for T, t in ((np.nan, 250.0), (np.inf, 250.0), (250.0, np.nan), (250.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            batch_cqa([T], [t])


def test_apply_config():
    params, box = apply_config({"r_gas": 1.0, "T_lo": 240.0})
    assert params.r_gas == 1.0
    assert params.e1 == DEFAULT_PARAMS.e1
    assert (box[0].lo, box[0].hi) == (240.0, 300.0)
    for key in ("gas_constant", "rtol", "atol"):
        with pytest.raises(ValueError, match="unknown config keys"):
            apply_config({key: 1.0})


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
            out = simulate(T, t, params)
            assert row.tolist() == [out.purity, out.profit]
    assert cqa_closed(pts[:1]).shape == cqa_ode(pts[:1]).shape == (1, 2)


def test_ode_backend_runs_simulate_in_row_order(monkeypatch):
    seen = []
    real = ode_oracle.simulate

    def spy(T, t, *args, **kwargs):
        seen.append((T, t))
        return real(T, t, *args, **kwargs)

    monkeypatch.setattr(ode_oracle, "simulate", spy)
    pts = sobol_points(4)
    cqa_ode(pts, KELVIN_PARAMS, rtol=1e-7, atol=1e-9)
    assert seen == [tuple(p) for p in pts.tolist()]


def test_closed_backend_keeps_refinement_check(failing_estimate):
    with pytest.raises(ToleranceNotMet, match="error estimate 2.500e-06 exceeds 1e-07"):
        cqa_closed([(300.0, 1.0)], KELVIN_PARAMS)


def test_closed_form_stays_finite_where_reactions_freeze_or_race():
    # T -> 0 underflows k2 and then k1; gamma = 0 means no A reacts, C_B = 0
    purity, profit, est = batch_cqa([1e-3, 1e300], [275.0, 275.0])
    assert purity[0] == 0.0 and profit[0] == -20.0 * DEFAULT_PARAMS.c_a0 / 305.0
    assert np.isfinite(purity).all() and np.isfinite(profit).all() and est <= 1e-15
    # rate constants so large that gamma and lam overflow: B decays at once
    purity, profit, est = batch_cqa([275.0], [275.0], KineticParams(k1_0=1e300, k2_0=1e300))
    assert purity[0] == 0.0 and np.isfinite(profit).all() and est == 0.0
    # gamma tiny but not zero with lam = 0: the expansion gives C_B = amp
    purity, profit, est = batch_cqa([0.5], [275.0])
    k1, _ = rate_constants(0.5)
    assert purity[0] == pytest.approx(275.0 * k1 * DEFAULT_PARAMS.c_a0, rel=1e-13)
    assert profit[0] == -20.0 * DEFAULT_PARAMS.c_a0 / 305.0 and est <= 1e-15


def test_expansion_where_reactions_freeze_matches_ode():
    # gamma + lam between 2.2e-7 and 8.8e-7; C_A0 = 1e4 puts C_B far above
    # the integrator's atol
    params = KineticParams(e1=0.0, e2=0.0, k1_0=1e-11, k2_0=2e-8, c_a0=1e4)
    pts = [(300.0, 1.0), (300.0, 2.5), (300.0, 4.0)]
    closed, ode = cqa_closed(pts, params), cqa_ode(pts, params)
    assert (np.abs(closed - ode) <= 1e-10 * np.abs(ode)).all()
    # the kelvin preset at T = 20 K: gamma about 4e-50, lam about 8e-103
    purity, _, est = batch_cqa([20.0], [275.0], KELVIN_PARAMS)
    k1, _ = rate_constants(20.0, KELVIN_PARAMS)
    assert purity[0] == pytest.approx(275.0 * k1 * KELVIN_PARAMS.c_a0, rel=1e-13)
    assert est <= 1e-15


# ----------------------------------------------------------------------
# closed form against 60-digit mpmath values (tests/make_cb_reference.py)

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "cb_reference.json").read_text(encoding="utf-8"))


def _reference_case(row):
    params = KineticParams(**row["params"])
    return np.array([row["T"]]), np.array([row["t"]]), params


@pytest.mark.parametrize("row", REFERENCE["points"], ids=lambda row: row["label"])
def test_closed_form_matches_mpmath_reference(row):
    T, t, params = _reference_case(row)
    (purity,), (profit,), est = batch_cqa(T, t, params)
    (c_b,), _ = closed_b_final(T, t, params)
    assert est <= 1e-7
    assert abs(c_b - row["c_b"]) <= 1e-14 * abs(row["c_b"])
    assert abs(purity - row["purity"]) <= 1e-14 * abs(row["purity"])
    profit_scale = (100.0 * abs(row["c_b"]) + 20.0 * row["c_a"]) / (row["t"] + 30.0)
    assert abs(profit - row["profit"]) <= 1e-14 * profit_scale


@pytest.mark.parametrize("row", REFERENCE["points"], ids=lambda row: row["label"])
def test_error_estimate_covers_actual_error(row):
    (c_b,), (est,) = closed_b_final(*_reference_case(row))
    assert abs(c_b - row["c_b"]) <= max(est, 1e-14) * abs(row["c_b"])
    assert est <= 1e-7


# ----------------------------------------------------------------------
# the piecewise-cubic quadrature that the closed form replaced, kept as an
# oracle of stated accuracy (1e-9 relative in C_B)

def quadrature_mu_weights(z: np.ndarray) -> tuple[np.ndarray, ...]:
    """mu_m(z) = integral_0^1 xi^m exp(-z (1 - xi)) dxi for m = 0..3.

    Downward recurrence is stable for z >= 0.5; a short exponential series
    covers z < 0.5 where the recurrence would cancel.  Each branch runs only
    on its own entries.
    """
    small = z < 0.5
    mu = np.empty((4,) + z.shape)

    large = ~small
    zr = z[large]
    mu0r = (1.0 - np.exp(-zr)) / zr
    mu1r = (1.0 - mu0r) / zr
    mu2r = (1.0 - 2.0 * mu1r) / zr
    mu3r = (1.0 - 3.0 * mu2r) / zr
    mu[:, large] = (mu0r, mu1r, mu2r, mu3r)

    zs = z[small]
    term = np.ones_like(zs)
    part = np.empty_like(zs)
    s = np.zeros((4,) + zs.shape)
    for k in range(17):
        if k > 0:
            term *= zs
            term /= k
        for m in range(4):
            s[m] += np.divide(term, k + m + 1, out=part)
    s *= np.exp(-zs)
    mu[:, small] = s
    return tuple(mu)


def quadrature_b_final(T, t, params, n_intervals, mu_weights=quadrature_mu_weights):
    """C_B at tau=1 by exact integrating factor + piecewise-cubic source."""
    k1 = params.k1_0 * np.exp(-params.e1 / (params.r_gas * T))
    k2 = params.k2_0 * np.exp(-params.e2 / (params.r_gas * T))
    gamma = 2.0 * t * k1 * params.c_a0       # Riccati rate of the A equation
    lam = t * k2                             # stiff decay rate of B
    amp = t * k1 * params.c_a0 ** 2          # source strength at tau = 0

    xi = np.linspace(0.0, 1.0, n_intervals + 1)
    # nodes geometric in (1 + gamma s): resolves the initial source layer
    tiny = gamma < 1e-12
    L = np.log1p(np.where(tiny, 0.0, gamma))
    grid = np.expm1(np.outer(L, xi))
    s = np.where(tiny[:, None], xi[None, :], grid / np.where(tiny, 1.0, gamma)[:, None])

    a = s[:, :-1]
    h = np.diff(s, axis=1)
    b_node = s[:, 1:]

    def source(ss):
        return amp[:, None] / (1.0 + gamma[:, None] * ss) ** 2

    q0 = source(a)
    q1 = source(a + h / 3.0)
    q2 = source(a + 2.0 * h / 3.0)
    q3 = source(a + h)
    d1 = q1 - q0
    d2 = q2 - 2.0 * q1 + q0
    d3 = q3 - 3.0 * q2 + 3.0 * q1 - q0
    c0 = q0
    c1 = 3.0 * d1 - 1.5 * d2 + d3
    c2 = 4.5 * (d2 - d3)
    c3 = 4.5 * d3

    z = lam[:, None] * h
    mu0, mu1, mu2, mu3 = mu_weights(z)
    piece = h * (c0 * mu0 + c1 * mu1 + c2 * mu2 + c3 * mu3)
    decay = np.exp(-lam[:, None] * (1.0 - b_node))
    return (piece * decay).sum(axis=1)


def quadrature_cqa(T, t, params, mu_weights=quadrature_mu_weights):
    """C_B, purity, profit and refinement estimate, as batch_cqa computed them.

    The estimate is the max relative change of C_B when the interval count
    is halved from 1024.
    """
    b_full = quadrature_b_final(T, t, params, 1024, mu_weights)
    b_half = quadrature_b_final(T, t, params, 512, mu_weights)
    rel = np.abs(b_full - b_half) / np.maximum(np.abs(b_full), params.c_a0 * 1e-16)
    k1 = params.k1_0 * np.exp(-params.e1 / (params.r_gas * T))
    a_final = params.c_a0 / (1.0 + 2.0 * t * k1 * params.c_a0)
    c_final = (params.c_a0 - a_final) / 2.0 - b_full
    purity = b_full / (a_final + b_full + c_final)
    profit = (100.0 * b_full - 20.0 * a_final) * params.volume / (t + 30.0)
    return b_full, purity, profit, float(rel.max(initial=0.0))


def identify_points():
    # the 64 training and 256 validation points of a default identify run
    return scale(sobol(2, 320, 1), [(250, 300), (250, 300)])


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, KELVIN_PARAMS], ids=["si", "kelvin"])
def test_quadrature_oracle_agrees_with_closed_form(params):
    T, t = identify_points().T
    b_quad, purity_quad, profit_quad, est = quadrature_cqa(T, t, params)
    assert est <= 1e-7
    b_closed, _ = closed_b_final(T, t, params)
    purity, profit, _ = batch_cqa(T, t, params)
    assert (np.abs(b_quad - b_closed) <= 1e-9 * b_closed).all()
    assert (np.abs(purity_quad - purity) <= 1e-9 * purity).all()
    assert (np.abs(profit_quad - profit) <= 1e-9 * np.abs(profit)).all()


# ----------------------------------------------------------------------
# quadrature_mu_weights against the version that evaluated both branches
# everywhere

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
    got = quadrature_mu_weights(z)
    want = reference_mu_weights(z)
    assert len(got) == 4
    for g, w in zip(got, want):
        assert g.shape == z.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, KELVIN_PARAMS], ids=["si", "kelvin"])
def test_batch_cqa_bitwise_unchanged_by_branch_split(params):
    # the quadrature oracle (batch_cqa before the closed form) gives the
    # same bits with either weight function
    T, t = identify_points().T
    got = quadrature_cqa(T, t, params)
    want = quadrature_cqa(T, t, params, mu_weights=reference_mu_weights)
    for g, w in zip(got[:3], want[:3]):
        assert g.tobytes() == w.tobytes()
    assert got[3] == want[3]
