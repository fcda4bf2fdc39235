"""Generate the high-precision reference values for the closed-form C_B.

Writes ``tests/data/cb_reference.json``: for each operating point, C_B at
tau = 1 and the resulting purity and profit, computed with mpmath at 60
significant digits from the exact binary values of T, t and the kinetic
parameters.  Each C_B is computed twice, from the exponential-integral
form and by adaptive quadrature of the integrating-factor integral, and the
two must agree to 1e-30 relative.

    python tests/make_cb_reference.py           # (re)write the fixture
    python tests/make_cb_reference.py --check   # regenerate, exit 1 on any difference

The ``frozen`` and ``tiny-gamma-*`` points have gamma + lam <= 1e-6, where
``reactor._b_final`` uses its second-order expansion in place of the
bracket, whose O(1) terms cancel there.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rfuncds.qmc import scale, sobol  # noqa: E402
from rfuncds.reactor import KineticParams  # noqa: E402

FIXTURE = ROOT / "tests" / "data" / "cb_reference.json"
DPS = 60
BOX = [(250.0, 300.0), (250.0, 300.0)]


def _direct(gamma: float, lam: float) -> dict:
    """Parameters with k1 = k1_0 and k2 = k2_0, so at t = 1 and C_A0 = 1
    gamma = 2 k1_0 = ``gamma`` and lam = k2_0 = ``lam`` exactly."""
    return {"e1": 0.0, "e2": 0.0, "k1_0": gamma / 2.0, "k2_0": lam, "c_a0": 1.0}


def points() -> list[dict]:
    out = []
    corners = [(250.0, 250.0), (250.0, 300.0), (300.0, 250.0), (300.0, 300.0)]
    sampled = [tuple(p) for p in scale(sobol(2, 8, 1), BOX).tolist()]
    for regime, params in (("si", {}), ("kelvin", {"r_gas": 1.0})):
        for k, (T, t) in enumerate(sampled + corners):
            out.append({"label": f"{regime}-{k}", "T": T, "t": t, "params": params})
    direct = [
        ("x-32", 1.0, 16.0),                  # x = 32: series, not asymptotic
        ("beta-30-x-33", 0.1, 3.0),           # beta = 30, x = 33
        ("x-below-cut", 1.0, 19.95),          # x = 39.9
        ("x-above-cut", 1.0, 20.05),          # x = 40.1
        ("beta-below-cut", 0.025, 0.99),      # beta = 39.6, x = 40.59
        ("beta-above-cut", 0.025, 1.0125),    # beta = 40.5
        ("large-beta-x-39", 0.25, 7.8),       # beta = 31.2, x = 39
        ("large-beta-x-39.7", 0.0125, 0.49),  # beta = 39.2, x = 39.69
        ("both-asymptotic", 1e-3, 0.5),       # beta = 500
        ("both-moderate", 3.0, 60.0),         # beta = 20, x = 80
        ("tiny-gamma", 1e-10, 1.0),           # beta = 1e10
        ("tiny-gamma-tiny-lam", 1e-10, 1e-9),  # beta = 10
        ("tiny-gamma-beta-40", 1e-10, 4e-9),
        ("frozen-below-cut", 1e-7, 8.9e-7),   # gamma + lam = 9.9e-7, beta = 8.9
        ("frozen-large-beta", 1e-12, 9e-7),   # beta = 9e5
        ("frozen-lam-underflow", 1e-12, 1e-300),
        ("tiny-lam", 1.0, 1e-12),
        ("tiny-lam-large-gamma", 10.0, 1e-9),
        ("subnormal-scale-lam", 5.0, 1e-300),
    ]
    for label, gamma, lam in direct:
        out.append({"label": label, "T": 300.0, "t": 1.0, "params": _direct(gamma, lam)})
    return out


def _exact(point: dict) -> dict:
    p = KineticParams(**point["params"])
    T, t = mp.mpf(point["T"]), mp.mpf(point["t"])
    k1 = mp.mpf(p.k1_0) * mp.exp(-mp.mpf(p.e1) / (mp.mpf(p.r_gas) * T))
    k2 = mp.mpf(p.k2_0) * mp.exp(-mp.mpf(p.e2) / (mp.mpf(p.r_gas) * T))
    c_a0 = mp.mpf(p.c_a0)
    gamma = 2 * t * k1 * c_a0
    lam = t * k2
    amp = t * k1 * c_a0 ** 2
    beta = lam / gamma
    x = lam + beta
    c_b = amp / gamma * (beta * mp.exp(-x) * mp.ei(x) - 1 / (1 + gamma) + mp.exp(-lam)
                         - beta * mp.exp(-lam - beta) * mp.ei(beta))

    # independent check: quadrature of the source term against the decay,
    # split at the source layer near 0 and the decay layer near 1
    def integrand(s):
        return amp / (1 + gamma * s) ** 2 * mp.exp(-lam * (1 - s))
    cuts = {mp.mpf(0), mp.mpf(1)}
    for scale_ in (1, 10, 100):
        cuts.update(c for c in (scale_ / gamma, 1 - scale_ / lam) if 0 < c < 1)
    quad = mp.quad(integrand, sorted(cuts))
    if abs(quad - c_b) > mp.mpf("1e-30") * abs(c_b):
        raise SystemExit(f"{point['label']}: Ei form {c_b} and quadrature {quad} disagree")

    c_a = c_a0 / (1 + gamma)
    purity = 2 * c_b / (c_a0 + c_a)
    profit = (100 * c_b - 20 * c_a) * mp.mpf(p.volume) / (t + 30)
    return {"c_b": float(c_b), "c_a": float(c_a), "purity": float(purity),
            "profit": float(profit)}


def generate() -> dict:
    with mp.workdps(DPS):
        rows = [{**point, **_exact(point)} for point in points()]
    return {"generator": "tests/make_cb_reference.py", "mpmath": mp.__version__,
            "dps": DPS, "points": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the checked-in fixture instead of writing it")
    args = parser.parse_args(argv)
    text = json.dumps(generate(), indent=1) + "\n"
    if args.check:
        if FIXTURE.read_text(encoding="utf-8") != text:
            print(f"error: {FIXTURE.relative_to(ROOT)} differs from regenerated values",
                  file=sys.stderr)
            return 1
        print(f"{FIXTURE.relative_to(ROOT)} matches regenerated values")
        return 0
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(text, encoding="utf-8")
    print(f"wrote {FIXTURE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
