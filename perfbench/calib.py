"""Machine-speed calibration for a shared host.

On a shared 2-core host the speed of pure-Python code drifts by up to 2x
over seconds to minutes as neighbours come and go, far more than the bounds
a benchmark gate can use.  While a sample is timed, a timer signal runs a
small calibration kernel on the same core every PERIOD_S; the sample is
reported as

    (sample_s - time spent in the kernel) * REFERENCE_S / median(kernel_s)

i.e. in seconds at the speed where the kernel takes REFERENCE_S.  The
median, not the mean, because a kernel run that the host preempts can take
100x longer than the rest.  The kernel uses no rfuncds code, so a change to
rfuncds shows in full while the host's drift cancels.  It walks a small
expression tree with isinstance dispatch, dict lookups and float
arithmetic, the same kind of interpreter work as the rfuncds hot paths.  Child processes run on the same core (the
benchmark pins itself to one CPU), so the kernel sees their core too.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

REFERENCE_S = 1e-4   # kernel time on an uncontended core of the reference host
PERIOD_S = 0.02


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a=None, b=None):
        self.op, self.a, self.b = op, a, b


class _Const(_Node):
    __slots__ = ()


class _Var(_Node):
    __slots__ = ()


def _eval(node, env):
    if isinstance(node, _Const):
        return node.a
    if isinstance(node, _Var):
        return env[node.a]
    op = node.op
    if op == "+":
        return _eval(node.a, env) + _eval(node.b, env)
    if op == "*":
        return _eval(node.a, env) * _eval(node.b, env)
    if op == "min":
        return min(_eval(node.a, env), _eval(node.b, env))
    return math.sqrt(abs(_eval(node.a, env)))


def _tree(depth):
    if depth <= 0:
        return _Var("v", "x") if depth == 0 else _Const("c", 0.5)
    if depth % 4 == 3:
        return _Node("sqrt", _tree(depth - 1))
    return _Node(("+", "*", "min")[depth % 4], _tree(depth - 1), _tree(depth - 2))


_TREE = _tree(9)


def kernel_s() -> float:
    """Seconds for one fixed run of the calibration kernel (after a warm-up)."""
    env = {"x": 0.0}
    _eval(_TREE, env)
    t0 = perf_counter()
    for i in range(4):
        env["x"] = i * 1e-3
        _eval(_TREE, env)
    return perf_counter() - t0


class SpeedProbe:
    """Times samples while sampling the core's speed, see the module docstring."""

    def __init__(self):
        self._kernels: list[float] = []
        self._busy = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._kernels.append(kernel_s())
        self._busy += perf_counter() - t0

    def time(self, fn, *args):
        """Run fn(*args); returns (scale, seconds, result).

        ``seconds`` excludes the kernel's own time; ``seconds * scale`` is
        the sample at reference speed, and the same scale applies to
        anything fn timed inside.
        """
        self._kernels = [kernel_s()]
        self._busy = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            t0 = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        elapsed -= self._busy
        self._kernels.append(kernel_s())
        return REFERENCE_S / statistics.median(self._kernels), elapsed, result
