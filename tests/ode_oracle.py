"""The adaptive-ODE reactor model that the closed form is held to.

``integrate`` solves the reactor equations of ``rfuncds.reactor`` over
scaled time tau in [0, 1] with scipy's stiff solvers (LSODA by default,
Radau to cross-check it) and checks the exact conservation of
C_A + 2 (C_B + C_C) on every accepted step.  ``simulate`` reports one
batch, and ``cqa_ode`` runs one ``simulate`` per (T, t) row with the
identifier's model contract, so it can stand in for ``reactor.cqa_closed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from rfuncds.errors import NonpositiveTemperature, ToleranceNotMet
from rfuncds.reactor import DEFAULT_PARAMS, KineticParams

_CONSERVATION_TOL = 1e-6   # relative defect that fails integration
_NEGATIVE_SLACK = 1e-9     # relative; lower concentrations are an error

_METHODS = {"lsoda": "LSODA", "radau": "Radau"}


class IntegratorFailure(RuntimeError):
    """The ODE integrator gave up (e.g. minimum step underflow)."""


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


def integrate(T: float, t: float, params: KineticParams = DEFAULT_PARAMS,
              rtol: float = 1e-8, atol: float = 1e-10, method: str = "lsoda",
              dense: bool = False) -> Trajectory:
    """Integrate the reactor ODEs over tau in [0, 1] with error control,
    at temperature ``T`` (K) for a batch of ``t`` minutes."""
    if method not in _METHODS:
        raise ValueError(f"method must be one of {sorted(_METHODS)}, got {method!r}")
    if not t > 0:
        raise ValueError(f"processing time must be positive, got {t!r}")

    k1, k2 = rate_constants(T, params)
    t = float(t)

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


def simulate(T: float, t: float, params: KineticParams = DEFAULT_PARAMS,
             rtol: float = 1e-8, atol: float = 1e-10, method: str = "lsoda"
             ) -> ReactorOutcome:
    """Run one batch at temperature ``T`` (K) for ``t`` minutes and report
    final concentrations plus Purity and Profit."""
    tr = integrate(T, t, params, rtol=rtol, atol=atol, method=method)
    c_a, c_b, c_c = tr.states[:, -1]
    return _outcome(float(c_a), float(c_b), float(c_c), float(t), params,
                    tr.steps, tr.nfev, tr.conservation_defect)


def cqa_ode(points, params: KineticParams = DEFAULT_PARAMS, rtol: float = 1e-8,
            atol: float = 1e-10) -> np.ndarray:
    """(purity, profit) rows for (T, t) rows, one LSODA ``simulate`` run per row.

    Rows run in order; each run's conservation check applies.
    """
    rows = [simulate(T, t, params, rtol=rtol, atol=atol)
            for T, t in np.asarray(points, dtype=float)]
    return np.array([(out.purity, out.profit) for out in rows], dtype=float).reshape(-1, 2)
