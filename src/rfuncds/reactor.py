"""Two-stage batch reactor model (2A -> B -> C) and its quality attributes.

State is integrated over scaled time tau in [0, 1] for a batch of duration
t minutes at temperature T:

    dC_A/dtau = -2 t k1 C_A^2
    dC_B/dtau =  t (k1 C_A^2 - k2 C_B)
    dC_C/dtau =  t  k2 C_B          k_j = k_j0 exp(-E_j / (R T))

with C_A(0) = C_A0 and C_B(0) = C_C(0) = 0.  B is the desired product; the
quality attributes are Purity = C_B / (C_A + C_B + C_C) and
Profit = (100 C_B - 20 C_A) V / (t + 30).  The stoichiometry conserves
C_A + 2 (C_B + C_C) exactly, which serves as an a-posteriori accuracy check.

The C_B equation is stiff (decay rate t*k2 can exceed 1e5 per unit tau), so
the generic path uses an adaptive implicit integrator.  ``batch_cqa`` is a
vectorized closed form for point sets: C_A has the closed-form Riccati
solution, C_B follows from an exact integrating factor with piecewise-cubic
quadrature of the source term, and C_C from conservation.  It is verified
against the generic path in the test suite.

Two model backends share the design-space identifier's contract, an
``(n, 2)`` array of (T, t) rows in and an ``(n, 2)`` array of (purity,
profit) rows out: ``cqa_closed`` (``batch_cqa``, with its refinement check)
and ``cqa_ode`` (one ``simulate`` per row, with its conservation check).
scipy is imported only when the integrator first runs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundsMismatch, IntegratorFailure, NonpositiveTemperature, ToleranceNotMet,
)
from .polyfit import BasisSpec

PURITY_MIN = 0.80      # fraction
PROFIT_MIN = 128.0     # $/min

# response surface for the CQAs: quadratic in T, linear in t, TT interaction
CQA_BASIS = BasisSpec(vars=("T", "t"),
                      monomials=((0, 0), (1, 0), (2, 0), (0, 1), (1, 1)))

_CONSERVATION_TOL = 1e-6   # relative defect that fails integration
_NEGATIVE_SLACK = 1e-9     # relative; lower concentrations are an error


@dataclass(frozen=True)
class KineticParams:
    e1: float = 2500.2        # activation energy, J/mol
    e2: float = 5000.1        # activation energy, J/mol
    k1_0: float = 0.0666      # pre-exponential factor
    k2_0: float = 10333.5     # pre-exponential factor
    r_gas: float = 8.314      # gas constant, J/(mol K)
    c_a0: float = 2000.0      # initial concentration of A
    volume: float = 1.0       # vessel volume, m^3

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            # energies may be zero (temperature-independent rate); the rest
            # must be strictly positive
            floor_ok = v >= 0 if f.name in ("e1", "e2") else v > 0
            if not (math.isfinite(v) and floor_ok):
                raise ValueError(f"KineticParams.{f.name} out of range: {v!r}")


DEFAULT_PARAMS = KineticParams()


class OperatingPoint(NamedTuple):
    T: float  # temperature, K
    t: float  # processing time, min


@dataclass(frozen=True)
class Box:
    T: tuple[float, float] = (250.0, 300.0)
    t: tuple[float, float] = (250.0, 300.0)

    def __post_init__(self):
        for name, (lo, hi) in (("T", self.T), ("t", self.t)):
            if not lo < hi:
                raise BoundsMismatch(f"{name} bounds need lo < hi, got ({lo}, {hi})")
        if not self.T[0] > 0:
            raise NonpositiveTemperature(self.T[0])
        if not self.t[0] > 0:
            raise BoundsMismatch(f"processing time must be positive, got t_lo = {self.t[0]!r}")

    def contains(self, u: OperatingPoint) -> bool:
        return self.T[0] <= u.T <= self.T[1] and self.t[0] <= u.t <= self.t[1]


DEFAULT_BOX = Box()

# config file schema: KineticParams fields plus box bounds
_PARAM_KEYS = {f.name for f in dataclasses.fields(KineticParams)}
_BOX_KEYS = {"T_lo", "T_hi", "t_lo", "t_hi"}
CONFIG_KEYS = _PARAM_KEYS | _BOX_KEYS


def apply_config(overrides: dict, params: KineticParams = DEFAULT_PARAMS,
                 box: Box = DEFAULT_BOX) -> tuple[KineticParams, Box]:
    """Apply a key->float override mapping; returns (params, box)."""
    unknown = set(overrides) - CONFIG_KEYS
    if unknown:
        raise KeyError(f"unknown config keys: {sorted(unknown)}; known: {sorted(CONFIG_KEYS)}")
    pvals = {k: float(v) for k, v in overrides.items() if k in _PARAM_KEYS}
    if pvals:
        params = dataclasses.replace(params, **pvals)
    box = Box(
        T=(float(overrides.get("T_lo", box.T[0])), float(overrides.get("T_hi", box.T[1]))),
        t=(float(overrides.get("t_lo", box.t[0])), float(overrides.get("t_hi", box.t[1]))),
    )
    return params, box


def rate_constants(T: float, params: KineticParams = DEFAULT_PARAMS) -> tuple[float, float]:
    """Arrhenius rate constants (k1, k2) at temperature T."""
    if not T > 0:
        raise NonpositiveTemperature(T)
    k1 = params.k1_0 * np.exp(-params.e1 / (params.r_gas * T))
    k2 = params.k2_0 * np.exp(-params.e2 / (params.r_gas * T))
    return float(k1), float(k2)


@dataclass(frozen=True)
class Trajectory:
    tau: np.ndarray          # accepted steps
    states: np.ndarray       # (3, n) rows C_A, C_B, C_C
    steps: int
    nfev: int
    conservation_defect: float   # max relative defect over accepted steps
    interpolant: object = None   # scipy dense-output callable when requested


@dataclass(frozen=True)
class ReactorOutcome:
    c_a: float
    c_b: float
    c_c: float
    purity: float
    profit: float
    steps: int
    nfev: int
    error_estimate: float    # relative conservation defect of the run


_METHODS = {"lsoda": "LSODA", "radau": "Radau", "bdf": "BDF"}


def integrate(u: OperatingPoint, params: KineticParams = DEFAULT_PARAMS,
              rtol: float = 1e-8, atol: float = 1e-10, method: str = "lsoda",
              dense: bool = False) -> Trajectory:
    """Integrate the reactor ODEs over tau in [0, 1] with error control."""
    if method not in _METHODS:
        raise ValueError(f"method must be one of {sorted(_METHODS)}, got {method!r}")
    if not u.t > 0:
        raise ValueError(f"processing time must be positive, got {u.t!r}")
    from scipy.integrate import solve_ivp

    k1, k2 = rate_constants(u.T, params)
    t = float(u.t)

    def rhs(tau, y):
        a, b, _ = y
        r1 = k1 * a * a
        return (-2.0 * t * r1, t * (r1 - k2 * b), t * k2 * b)

    def jac(tau, y):
        a = y[0]
        return np.array([[-4.0 * t * k1 * a, 0.0, 0.0],
                         [2.0 * t * k1 * a, -t * k2, 0.0],
                         [0.0, t * k2, 0.0]])

    sol = solve_ivp(rhs, (0.0, 1.0), (params.c_a0, 0.0, 0.0),
                    method=_METHODS[method], jac=jac, rtol=rtol, atol=atol,
                    dense_output=dense)
    if not sol.success:
        raise IntegratorFailure(sol.message)
    defect = float(np.abs(sol.y[0] + 2.0 * (sol.y[1] + sol.y[2]) - params.c_a0).max()
                   / params.c_a0)
    if defect > _CONSERVATION_TOL:
        raise ToleranceNotMet(
            f"conservation defect {defect:.3e} exceeds {_CONSERVATION_TOL:.0e}")
    return Trajectory(tau=sol.t, states=sol.y, steps=sol.t.size - 1, nfev=sol.nfev,
                      conservation_defect=defect,
                      interpolant=sol.sol if dense else None)


def _outcome(c_a, c_b, c_c, t, params, steps, nfev, defect) -> ReactorOutcome:
    floor = -_NEGATIVE_SLACK * params.c_a0
    concs = []
    for name, v in (("C_A", c_a), ("C_B", c_b), ("C_C", c_c)):
        if v < floor:
            raise ToleranceNotMet(f"{name} = {v!r} is below the negativity slack")
        concs.append(max(v, 0.0))
    c_a, c_b, c_c = concs
    purity = c_b / (c_a + c_b + c_c)
    profit = (100.0 * c_b - 20.0 * c_a) * params.volume / (t + 30.0)
    return ReactorOutcome(c_a=c_a, c_b=c_b, c_c=c_c, purity=purity, profit=profit,
                          steps=steps, nfev=nfev, error_estimate=defect)


def simulate(u: OperatingPoint, params: KineticParams = DEFAULT_PARAMS,
             rtol: float = 1e-8, atol: float = 1e-10, method: str = "lsoda"
             ) -> ReactorOutcome:
    """Run one batch and report final concentrations plus Purity and Profit."""
    tr = integrate(u, params, rtol=rtol, atol=atol, method=method)
    c_a, c_b, c_c = tr.states[:, -1]
    return _outcome(float(c_a), float(c_b), float(c_c), float(u.t), params,
                    tr.steps, tr.nfev, tr.conservation_defect)


# ----------------------------------------------------------------------
# vectorized fast path

def _mu_weights(z: np.ndarray) -> tuple[np.ndarray, ...]:
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


def _batch_b_final(T, t, params: KineticParams, n_intervals: int) -> np.ndarray:
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
    mu0, mu1, mu2, mu3 = _mu_weights(z)
    piece = h * (c0 * mu0 + c1 * mu1 + c2 * mu2 + c3 * mu3)
    decay = np.exp(-lam[:, None] * (1.0 - b_node))
    return (piece * decay).sum(axis=1)


def batch_cqa(T, t, params: KineticParams = DEFAULT_PARAMS,
              n_intervals: int = 1024, check_tol: float = 1e-7,
              chunk: int = 256) -> tuple[np.ndarray, np.ndarray, float]:
    """Purity and profit for arrays of operating points, plus an error estimate.

    The estimate is the max relative change of C_B when halving the interval
    count; exceeding ``check_tol`` raises ToleranceNotMet.
    """
    T = np.asarray(T, dtype=float).ravel()
    t = np.asarray(t, dtype=float).ravel()
    if T.shape != t.shape:
        raise ValueError("T and t must have the same shape")
    if np.any(T <= 0):
        raise NonpositiveTemperature(float(T.min()))
    if np.any(t <= 0):
        raise ValueError("processing times must be positive")

    purity = np.empty_like(T)
    profit = np.empty_like(T)
    worst = 0.0
    for start in range(0, T.size, chunk):
        sl = slice(start, min(start + chunk, T.size))
        Tc, tc = T[sl], t[sl]
        b_full = _batch_b_final(Tc, tc, params, n_intervals)
        b_half = _batch_b_final(Tc, tc, params, n_intervals // 2)
        rel = np.abs(b_full - b_half) / np.maximum(np.abs(b_full), params.c_a0 * 1e-16)
        worst = max(worst, float(rel.max(initial=0.0)))

        k1 = params.k1_0 * np.exp(-params.e1 / (params.r_gas * Tc))
        a_final = params.c_a0 / (1.0 + 2.0 * tc * k1 * params.c_a0)
        c_final = (params.c_a0 - a_final) / 2.0 - b_full
        purity[sl] = b_full / (a_final + b_full + c_final)
        profit[sl] = (100.0 * b_full - 20.0 * a_final) * params.volume / (tc + 30.0)

    if worst > check_tol:
        raise ToleranceNotMet(
            f"fast-path refinement estimate {worst:.3e} exceeds {check_tol:.0e}")
    return purity, profit, worst


# ----------------------------------------------------------------------
# model backends: (n, 2) rows of (T, t) in, (n, 2) rows of (purity, profit) out

def cqa_ode(points, params: KineticParams = DEFAULT_PARAMS, rtol: float = 1e-8,
            atol: float = 1e-10) -> np.ndarray:
    """(purity, profit) rows for (T, t) rows, one LSODA ``simulate`` run per row.

    Rows run in order; each run's conservation check applies.
    """
    rows = [simulate(OperatingPoint(T, t), params, rtol=rtol, atol=atol)
            for T, t in np.asarray(points, dtype=float)]
    return np.array([(out.purity, out.profit) for out in rows], dtype=float).reshape(-1, 2)


def cqa_closed(points, params: KineticParams = DEFAULT_PARAMS) -> np.ndarray:
    """(purity, profit) rows for (T, t) rows from one ``batch_cqa`` call.

    Its refinement check raises ToleranceNotMet when the estimate exceeds
    the default ``check_tol``.
    """
    points = np.asarray(points, dtype=float)
    purity, profit, _ = batch_cqa(points[:, 0], points[:, 1], params)
    return np.column_stack((purity, profit))
