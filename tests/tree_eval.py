"""The recursive tree walk that evaluated expressions before they were
compiled, kept as the oracle for the compiled programs.

Each node evaluates its operands through ``_EVAL`` on every path that
reaches it, so a DAG costs one walk per path, and a tree level costs one
Python frame.  Values are floats or numpy arrays; numpy functions cover both.
"""

import numpy as np

from rfuncds.errors import NegativeSqrtArgument, UnboundVariable
from rfuncds.expr import (
    SQRT_CLAMP_TOL, Abs, Add, Const, Mul, Neg, Pow, RAnd, ROr, Sqrt, Sub, Var,
)


def _eval(e, env):
    return _EVAL[type(e)](e, env)


def _eval_var(e, env):
    try:
        return env[e.name]
    except KeyError:
        raise UnboundVariable(e.name) from None


def _eval_pow(e, env):
    # square and multiply, lowest bit first: correctly rounded products
    base, n = _eval(e.base, env), e.exponent
    if n == 0:
        return np.ones_like(base) if isinstance(base, np.ndarray) else 1.0
    product = None
    while n:
        if n & 1:
            product = base if product is None else product * base
        n >>= 1
        if n:
            base = base * base
    return product


def _eval_sqrt(e, env):
    arg = _eval(e.a, env)
    low = np.min(arg)
    if low < -SQRT_CLAMP_TOL:
        raise NegativeSqrtArgument(float(low))
    if low < 0.0:
        arg = np.maximum(arg, 0.0)
    return np.sqrt(arg)


def _r_root(va, vb, alpha):
    rad = va * va + vb * vb - 2.0 * alpha * (va * vb)
    return np.sqrt(np.maximum(rad, 0.0))


def _eval_r_and(e, env):
    va, vb = _eval(e.a, env), _eval(e.b, env)
    if e.alpha == 1.0:
        return np.minimum(va, vb)
    return (va + vb - _r_root(va, vb, e.alpha)) / (1.0 + e.alpha)


def _eval_r_or(e, env):
    va, vb = _eval(e.a, env), _eval(e.b, env)
    if e.alpha == 1.0:
        return np.maximum(va, vb)
    return (va + vb + _r_root(va, vb, e.alpha)) / (1.0 + e.alpha)


_EVAL = {
    Const: lambda e, env: e.value,
    Var: _eval_var,
    Neg: lambda e, env: -_eval(e.a, env),
    Add: lambda e, env: _eval(e.a, env) + _eval(e.b, env),
    Sub: lambda e, env: _eval(e.a, env) - _eval(e.b, env),
    Mul: lambda e, env: _eval(e.a, env) * _eval(e.b, env),
    Pow: _eval_pow,
    Sqrt: _eval_sqrt,
    Abs: lambda e, env: np.abs(_eval(e.a, env)),
    RAnd: _eval_r_and,
    ROr: _eval_r_or,
}


def tree_eval(expr, point) -> float:
    """Value at one point given as a name -> value mapping."""
    return float(_eval(expr, point))


def tree_eval_arrays(expr, env) -> np.ndarray:
    return np.asarray(_eval(expr, env), dtype=float)
