"""Two-stage batch reactor model (2A -> B -> C) and its quality attributes.

The state evolves over scaled time tau in [0, 1] for a batch of duration
t minutes at temperature T:

    dC_A/dtau = -2 t k1 C_A^2
    dC_B/dtau =  t (k1 C_A^2 - k2 C_B)
    dC_C/dtau =  t  k2 C_B          k_j = k_j0 exp(-E_j / (R T))

with C_A(0) = C_A0 and C_B(0) = C_C(0) = 0.  B is the desired product; the
quality attributes are Purity = C_B / (C_A + C_B + C_C) and
Profit = (100 C_B - 20 C_A) V / (t + 30).  The stoichiometry conserves
C_A + 2 (C_B + C_C) exactly.

The C_B equation is stiff (decay rate t*k2 can exceed 1e5 per unit tau),
so the model is not integrated at all: ``batch_cqa`` is a vectorized
closed form for point sets.  C_A has the closed-form Riccati solution, C_B
follows exactly from an integrating factor in terms of the exponential
integral Ei, and C_C from conservation.  Ei is evaluated in numpy alone,
by an all-positive power series up to 40 and by the asymptotic sum above,
with no quadrature; where the reactions nearly freeze, a second-order
expansion of C_B replaces the Ei form.  An a-posteriori estimate (the
truncation bound of the sum or expansion that ran plus a rounding bound
that shows cancellation) guards every point.  The test suite holds the
closed form to high-precision reference values and to an adaptive-ODE
oracle (``tests/ode_oracle.py``).

The one model backend, ``cqa_closed``, has the design-space identifier's
contract: an ``(n, 2)`` array of (T, t) rows in, one ``batch_cqa`` call
with its error estimate check, and an ``(n, 2)`` array of (purity, profit)
rows out.
"""

from __future__ import annotations

import math

import numpy as np

from .ds import BoxAxis
from .errors import BoundsMismatch, NonpositiveTemperature, ToleranceNotMet
from .polyfit import BasisSpec
from .record import Record

PURITY_MIN = 0.80      # fraction
PROFIT_MIN = 128.0     # $/min

# response surface for the CQAs: quadratic in T, linear in t, TT interaction
CQA_BASIS = BasisSpec(vars=("T", "t"),
                      monomials=((0, 0), (1, 0), (2, 0), (0, 1), (1, 1)))


class KineticParams(Record):
    __slots__ = ("e1", "e2", "k1_0", "k2_0", "r_gas", "c_a0", "volume")

    def __init__(self,
                 e1: float = 2500.2,       # activation energy, J/mol
                 e2: float = 5000.1,       # activation energy, J/mol
                 k1_0: float = 0.0666,     # pre-exponential factor
                 k2_0: float = 10333.5,    # pre-exponential factor
                 r_gas: float = 8.314,     # gas constant, J/(mol K)
                 c_a0: float = 2000.0,     # initial concentration of A
                 volume: float = 1.0):     # vessel volume, m^3
        super().__init__(e1, e2, k1_0, k2_0, r_gas, c_a0, volume)
        for name, v in zip(self._fields, self._values()):
            # energies may be zero (temperature-independent rate); the rest
            # must be strictly positive
            floor_ok = v >= 0 if name in ("e1", "e2") else v > 0
            if not (math.isfinite(v) and floor_ok):
                raise ValueError(f"KineticParams.{name} out of range: {v!r}")


DEFAULT_PARAMS = KineticParams()


# config file schema: KineticParams fields plus box bounds
_PARAM_KEYS = set(KineticParams._fields)
_BOX_KEYS = {"T_lo", "T_hi", "t_lo", "t_hi"}
CONFIG_KEYS = _PARAM_KEYS | _BOX_KEYS


def apply_config(overrides: dict) -> tuple[KineticParams, tuple[BoxAxis, BoxAxis]]:
    """Apply a key->float override mapping to ``DEFAULT_PARAMS`` and the
    default 250..300 box; returns (params, (T axis, t axis))."""
    unknown = set(overrides) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}; known: {sorted(CONFIG_KEYS)}")
    params = KineticParams(*[float(overrides.get(name, getattr(DEFAULT_PARAMS, name)))
                             for name in KineticParams._fields])
    box = (BoxAxis("T", overrides.get("T_lo", 250.0), overrides.get("T_hi", 300.0), unit="K"),
           BoxAxis("t", overrides.get("t_lo", 250.0), overrides.get("t_hi", 300.0), unit="min"))
    if not box[0].lo > 0:
        raise NonpositiveTemperature(box[0].lo)
    if not box[1].lo > 0:
        raise BoundsMismatch(f"processing time must be positive, got t_lo = {box[1].lo!r}")
    return params, box


# ----------------------------------------------------------------------
# vectorized closed form

_EULER_M1 = 0.5772156649015329 - 1.0    # Euler's constant minus one
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_SERIES_CUT = 40.0       # power series for y <= 40, asymptotic sum above
_ROUNDING_UNITS = 4.0    # rounding errors per bracket term, in units of eps
_FROZEN = 1e-6           # gamma + lam at or below this: second-order expansion
_CHECK_TOL = 1e-7        # largest relative C_B error estimate batch_cqa accepts


def _ei_series(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_{k>=1} y^k / (k (k+1) k!) to double precision, plus a tail bound.

    All terms are positive; the tail bound is the first omitted term over
    one minus the ratio bound y/(k+2) of later terms.
    """
    term = y.copy()          # y^k / k!
    total = y / 2.0
    k = 1
    while True:
        k += 1
        term *= y / k
        nxt = term / (k * (k + 1))
        if not np.any(nxt > _EPS * total):
            return total, nxt / (1.0 - y / (k + 2))
        total += nxt


def _ei_asymptotic(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_{k>=1} k! / y^k up to its smallest term, plus the first omitted term."""
    term = 1.0 / y
    total = term.copy()
    omitted = np.zeros_like(y)
    live = np.ones(y.shape, dtype=bool)
    k = 1
    while live.any():
        k += 1
        nxt = term * (k / y)
        stop = live & ~((nxt < term) & (nxt > _EPS * total))
        omitted[stop] = nxt[stop]
        live &= ~stop
        term[live] = nxt[live]
        total[live] += nxt[live]
    return total, omitted


def _d_term(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D(y) = y F(y) - 1 with F(y) = exp(-y) Ei(y), for y >= 0.

    Returns the value, the sum of the magnitudes of the parts it was added
    from (for the rounding bound) and the truncation bound.  For y <= 40,
    D(y) = exp(-y) (y (gamma_E - 1 + ln y + S(y)) - 1) with the positive
    series S of ``_ei_series``: gamma_E - 1 + ln y - 1/y + S(y) is
    Ei(y) - e^y/y, so the leading 1 of y F(y) never has to cancel.  Above
    40, D(y) is the asymptotic sum.
    """
    value = np.empty_like(y)
    size = np.empty_like(y)
    trunc = np.empty_like(y)
    low = y <= _SERIES_CUT
    ys = y[low]
    s, tail = _ei_series(ys)
    log_y = np.log(np.where(ys > 0.0, ys, 1.0))     # y ln y -> 0 at y = 0
    decay = np.exp(-ys)
    value[low] = decay * (ys * (_EULER_M1 + log_y + s) - 1.0)
    size[low] = decay * (ys * (-_EULER_M1 + np.abs(log_y) + s) + 1.0)
    trunc[low] = decay * ys * tail
    high = ~low
    a, omitted = _ei_asymptotic(y[high])
    value[high] = size[high] = a
    trunc[high] = omitted
    return value, size, trunc


def _rates(T, params: KineticParams) -> tuple[np.ndarray, np.ndarray]:
    """Arrhenius rate constants (k1, k2) at the temperatures ``T``."""
    k1 = params.k1_0 * np.exp(-params.e1 / (params.r_gas * T))
    k2 = params.k2_0 * np.exp(-params.e2 / (params.r_gas * T))
    return k1, k2


def _b_final(t, k1, k2, params: KineticParams) -> tuple[np.ndarray, np.ndarray]:
    """C_B at tau=1 in closed form, with its relative error estimate, for
    batch times ``t`` and the rate constants of ``_rates``.

    With gamma = 2 t k1 C_A0, lam = t k2, beta = lam/gamma, x = lam + beta
    and amp/gamma = C_A0/2, the integrating factor gives

        C_B(1) = (C_A0/2) [D(x)/(1+gamma) - exp(-lam) D(beta)],

    which is (amp/gamma) [beta F(x) - 1/(1+gamma) + exp(-lam) -
    beta exp(-lam-beta) Ei(beta)] regrouped with beta/x = 1/(1+gamma).
    The estimate adds the truncation bounds of the sums that ran and
    ``_ROUNDING_UNITS`` eps times the magnitudes of the parts, relative to
    the bracket, so cancellation shows in it.

    Where the reactions nearly freeze (gamma + lam <= ``_FROZEN``) the
    bracket's two O(1) terms would cancel to O(gamma), so the second-order
    expansion of the integrating-factor integral replaces it:

        C_B(1) = (gamma C_A0/2) (1 - gamma - lam/2 + gamma^2
                                 + gamma lam/3 + lam^2/6),

    whose truncation is below (gamma + lam)^3 relative.
    """
    gamma = 2.0 * t * k1 * params.c_a0       # Riccati rate of the A equation
    lam = t * k2                             # stiff decay rate of B
    # gamma = 0 (k1 underflowed) means no A reacts: beta = inf gives C_B = 0
    beta = np.divide(lam, gamma, out=np.full_like(lam, np.inf), where=gamma > 0.0)
    d_x, size_x, trunc_x = _d_term(lam + beta)
    d_b, size_b, trunc_b = _d_term(beta)
    inv = 1.0 / (1.0 + gamma)
    decay = np.exp(-lam)
    bracket = inv * d_x - decay * d_b
    error = (inv * trunc_x + decay * trunc_b
             + _ROUNDING_UNITS * _EPS * (inv * size_x + decay * size_b))
    rel = error / np.maximum(np.abs(bracket), _TINY)
    frozen = gamma + lam <= _FROZEN
    if frozen.any():
        g, lf = gamma[frozen], lam[frozen]
        bracket[frozen] = g * (1.0 - g - 0.5 * lf + g * g + g * lf / 3.0 + lf * lf / 6.0)
        rel[frozen] = (g + lf) ** 3 + _ROUNDING_UNITS * _EPS
    return 0.5 * params.c_a0 * bracket, rel


def batch_cqa(T, t, params: KineticParams = DEFAULT_PARAMS
              ) -> tuple[np.ndarray, np.ndarray, float]:
    """Purity and profit for arrays of operating points, plus an error estimate.

    The estimate is the largest relative error estimate of C_B over the
    points (see ``_b_final``); exceeding ``_CHECK_TOL`` (1e-7) raises
    ToleranceNotMet.
    """
    T = np.asarray(T, dtype=float).ravel()
    t = np.asarray(t, dtype=float).ravel()
    if T.shape != t.shape:
        raise ValueError("T and t must have the same shape")
    if not (np.isfinite(T).all() and np.isfinite(t).all()):
        raise ValueError("operating points must be finite")
    if np.any(T <= 0):
        raise NonpositiveTemperature(float(T.min()))
    if np.any(t <= 0):
        raise ValueError("processing times must be positive")

    k1, k2 = _rates(T, params)
    b_final, rel = _b_final(t, k1, k2, params)
    worst = float(rel.max(initial=0.0))
    if not worst <= _CHECK_TOL:
        raise ToleranceNotMet(
            f"closed-form C_B error estimate {worst:.3e} exceeds {_CHECK_TOL:.0e}")

    a_final = params.c_a0 / (1.0 + 2.0 * t * k1 * params.c_a0)
    c_final = (params.c_a0 - a_final) / 2.0 - b_final
    purity = b_final / (a_final + b_final + c_final)
    profit = (100.0 * b_final - 20.0 * a_final) * params.volume / (t + 30.0)
    return purity, profit, worst


# ----------------------------------------------------------------------
# model backend: (n, 2) rows of (T, t) in, (n, 2) rows of (purity, profit) out

def cqa_closed(points, params: KineticParams = DEFAULT_PARAMS) -> np.ndarray:
    """(purity, profit) rows for (T, t) rows from one ``batch_cqa`` call.

    Its error estimate check raises ToleranceNotMet when the estimate
    exceeds ``_CHECK_TOL`` (1e-7).
    """
    points = np.asarray(points, dtype=float)
    purity, profit, _ = batch_cqa(points[:, 0], points[:, 1], params)
    return np.column_stack((purity, profit))
