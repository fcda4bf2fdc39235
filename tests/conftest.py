import numpy as np
import pytest

from rfuncds import reactor
from rfuncds.ds import BoxAxis, ConstraintReport, DSReport, SamplingMeta, ValidationStats
from rfuncds.expr import And, Const, Leaf, Not, Or, Region, Sub, compose, eval_arrays
from rfuncds.polyfit import BasisSpec, FitResult, to_expr


def boolean_oracle(tree, env):
    """Combine leaf-region signs with plain Boolean logic (inside iff >= 0)."""
    if isinstance(tree, Leaf):
        return eval_arrays(tree.region.expr, env) >= 0.0
    if isinstance(tree, And):
        out = boolean_oracle(tree.children[0], env)
        for child in tree.children[1:]:
            out = out & boolean_oracle(child, env)
        return out
    if isinstance(tree, Or):
        out = boolean_oracle(tree.children[0], env)
        for child in tree.children[1:]:
            out = out | boolean_oracle(child, env)
        return out
    if isinstance(tree, Not):
        return ~boolean_oracle(tree.child, env)
    raise TypeError(type(tree))


def fitted_report(box, constraints, alpha=1.0):
    """A report of ``constraints``, each a (name, threshold, {monomial:
    coefficient}) triple over the box axes, whose phi and joint are built
    from the fits as ``identify`` builds them, so it saves and loads back."""
    names = tuple(axis.name for axis in box)
    reports = []
    for name, threshold, terms in constraints:
        fit = FitResult(BasisSpec(names, tuple(terms)), tuple(terms.values()), 1.0,
                        len(terms), 0.0)
        phi = Region(Sub(to_expr(fit), Const(threshold)), names)
        reports.append(ConstraintReport(name, threshold, fit, phi, 1.0))
    joint = compose(And(*[Leaf(c.phi) for c in reports]), alpha)
    return DSReport(tuple(box), alpha, tuple(reports), joint, SamplingMeta(0, 1, 0, 1),
                    ValidationStats(1.0, 0, 0))


def chain_report(levels):
    """A report of one constraint, 1 + T + T^2 + ... - 0 over the unit box,
    whose phi and joint are ``levels`` deep: a sum of k >= 2 terms is
    k + 1 levels."""
    box = (BoxAxis("T", 0.0, 1.0), BoxAxis("t", 0.0, 1.0))
    return fitted_report(box, [("chain", 0.0, {(k, 0): 1.0 for k in range(levels - 2)})])


def grid_env(bounds, resolution):
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in
            zip(bounds, np.broadcast_to(resolution, (len(bounds),)))]
    mesh = np.meshgrid(*axes, indexing="ij")
    names = ("x", "y", "z")[: len(bounds)]
    return {name: g for name, g in zip(names, mesh)}


@pytest.fixture
def rng():
    # fresh per test so draws do not depend on execution order
    return np.random.default_rng(20240817)


@pytest.fixture
def failing_estimate(monkeypatch):
    """Make every closed-form C_B error estimate read 2.5e-6, above
    batch_cqa's ``_CHECK_TOL`` (1e-7).

    The check guards the closed form, but a scan of 1e-14 <= gamma <= 1e4,
    1e-8 <= beta <= 8e5 finds no estimate above about 6.4e-9, so tests of
    the check and of its exit path inject the estimate.
    """
    real = reactor._b_final
    monkeypatch.setattr(reactor, "_b_final",
                        lambda t, k1, k2, params: (real(t, k1, k2, params)[0],
                                                   np.full(t.shape, 2.5e-6)))
