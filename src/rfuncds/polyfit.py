"""Multivariate polynomial least squares over an explicit monomial basis.

numpy is imported by the functions that take or build arrays, so a fit
reloaded from a report (``ds.load_report``) needs none.

``FitResult.predict`` streams its points through the design matrix in
blocks of ``BLOCK_ROWS`` rows, so predicting n points takes O(n) memory
(the output) plus one block, whatever the size of the basis.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DimensionMismatch, InsufficientPoints, NonFiniteValue, RankDeficient
from .expr import Const, Expr, Mul, Pow, Var
from .record import Record

if TYPE_CHECKING:
    import numpy as np

# residuals below this count as an exact fit when SS_tot degenerates to 0
_EXACT_RESIDUAL = 1e-12
_RANK_RCOND = 1e-10
# rows of the design matrix FitResult.predict builds at a time: 320 KB for
# the 5-monomial reactor basis, 1.8 MB for the 28 monomials of degree 6
BLOCK_ROWS = 8192


class BasisSpec(Record):
    """Monomial basis: one exponent vector per monomial, e.g. (2, 1) = x^2*y."""

    __slots__ = ("vars", "monomials")

    def __init__(self, vars: tuple[str, ...], monomials: tuple[tuple[int, ...], ...]):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"variable names repeat in the basis {vars}")
        monomials = tuple(tuple(int(e) for e in m) for m in monomials)
        if not monomials:
            raise ValueError("basis needs at least one monomial")
        for m in monomials:
            if len(m) != len(vars):
                raise ValueError(f"monomial {m} arity != {len(vars)} variables")
            if any(e < 0 for e in m):
                raise ValueError(f"negative exponent in monomial {m}")
        if len(set(monomials)) != len(monomials):
            raise ValueError("duplicate monomials in basis")
        super().__init__(vars, monomials)

    def __len__(self) -> int:
        return len(self.monomials)


class FitResult(Record):
    """A fitted polynomial: one coefficient per monomial of ``basis``."""

    __slots__ = ("basis", "coefficients", "r_squared", "n_points", "residual_max_abs")

    def predict(self, points) -> np.ndarray:
        """The polynomial's value at each point (one per row of ``points``).

        The points stream through the design matrix in blocks of
        ``BLOCK_ROWS`` rows, each block's product written into one
        preallocated output, so memory is O(n) for n points: the output
        and one block, never the whole n x m matrix.  Each value is the
        one-shot ``design_matrix(points, basis) @ coefficients`` bit for
        bit.  A wrong point width raises DimensionMismatch before any
        block runs; NonFiniteValue names the first bad point in row
        order, as the one-shot product would."""
        import numpy as np
        pts = _point_rows(points, self.basis)
        coeffs = np.array(self.coefficients)
        n = len(pts)
        out = np.empty(n)
        # a last block of one row joins the block before it: numpy takes a
        # one-row product as a dot product, which rounds differently
        starts = range(0, max(n - 1, 1), BLOCK_ROWS)
        for start, stop in zip(starts, [*starts[1:], n]):
            out[start:stop] = design_matrix(pts[start:stop], self.basis) @ coeffs
        return out


def _point_rows(points, basis: BasisSpec) -> np.ndarray:
    """``points`` as a float array of one row per point, refused with
    DimensionMismatch unless each row has one value per basis variable."""
    import numpy as np
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != len(basis.vars):
        raise DimensionMismatch(
            f"points have {pts.shape[1]} coordinates, basis has {len(basis.vars)} variables")
    return pts


def design_matrix(points, basis: BasisSpec) -> np.ndarray:
    """Matrix with entry (i, j) = monomial_j evaluated at point_i, each
    column written into one preallocated array; an entry that is inf or
    nan raises NonFiniteValue."""
    import numpy as np
    pts = _point_rows(points, basis)
    matrix = np.empty((len(pts), len(basis.monomials)))
    with np.errstate(over="ignore", invalid="ignore"):   # refused below instead
        for j, m in enumerate(basis.monomials):
            np.prod(pts ** np.asarray(m, dtype=float), axis=1, out=matrix[:, j])
    if not np.isfinite(matrix).all():
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        raise NonFiniteValue(f"monomial {basis.monomials[j]} in {basis.vars} is not finite "
                             f"at point {pts[i].tolist()}")
    return matrix


def fit_least_squares(points, values, basis: BasisSpec) -> FitResult:
    """Ordinary least squares via SVD with internal column scaling.

    Columns are scaled to unit max-abs before the solve (the raw reactor
    columns span 1 to ~9e4) and coefficients are unscaled on output.  R^2 is
    reported on the training data; an all-constant target with a tiny
    residual counts as R^2 = 1.  A target or design matrix that holds inf
    or nan raises NonFiniteValue.
    """
    import numpy as np
    y = np.asarray(values, dtype=float)
    matrix = design_matrix(points, basis)
    n, m = matrix.shape
    if y.shape != (n,):
        raise DimensionMismatch(f"{n} points but {y.shape} values")
    if not np.isfinite(y).all():
        raise NonFiniteValue(f"fit target holds inf or nan at "
                             f"{int((~np.isfinite(y)).sum())} of {n} points")
    if n < m:
        raise InsufficientPoints(f"{n} points for {m} monomials")
    col_scale = np.abs(matrix).max(axis=0)
    col_scale[col_scale == 0.0] = 1.0
    scaled = matrix / col_scale
    coeffs, _, rank, sv = np.linalg.lstsq(scaled, y, rcond=_RANK_RCOND)
    if rank < m:
        raise RankDeficient(
            f"design matrix rank {rank} < {m} (singular values {sv.tolist()})")
    coeffs = coeffs / col_scale
    residuals = y - matrix @ coeffs
    return FitResult(
        basis=basis,
        coefficients=tuple(coeffs.tolist()),
        r_squared=_r_squared(y, residuals),
        n_points=n,
        residual_max_abs=float(np.abs(residuals).max(initial=0.0)),
    )


def r_squared(fit: FitResult, points, values) -> float:
    """R^2 of an existing fit on held-out data; ``values`` holds one value
    per point, or DimensionMismatch is raised."""
    import numpy as np
    y = np.asarray(values, dtype=float)
    pts = _point_rows(points, fit.basis)
    if y.shape != (len(pts),):
        raise DimensionMismatch(f"{len(pts)} points but {y.shape} values")
    return _r_squared(y, y - fit.predict(pts))


def _r_squared(y: np.ndarray, residuals: np.ndarray) -> float:
    """1 - SS_res/SS_tot; when SS_tot is 0, 1 for residuals within
    ``_EXACT_RESIDUAL`` of zero and 0 otherwise.

    Both sums are taken over values scaled by the power of two that brings
    the largest |y| into [0.5, 1), so a finite target near the float limit
    does not overflow them; the scaling is exact, so the ratio is the
    unscaled one bit for bit.  ``ldexp`` applies it, since for a subnormal
    target the power itself is beyond the float range."""
    import numpy as np
    shift = -math.frexp(float(np.abs(y).max(initial=0.0)))[1]
    scaled, scaled_residuals = np.ldexp(y, shift), np.ldexp(residuals, shift)
    ss_tot = float(((scaled - scaled.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if np.abs(residuals).max(initial=0.0) <= _EXACT_RESIDUAL else 0.0
    return 1.0 - float(scaled_residuals @ scaled_residuals) / ss_tot


def to_expr(fit: FitResult) -> Expr:
    """Expression form of the fitted polynomial (exact-zero terms dropped)."""
    terms: list[Expr] = []
    for coeff, mono in zip(fit.coefficients, fit.basis.monomials):
        if coeff == 0.0:
            continue
        term: Expr = Const(float(coeff))
        for name, e in zip(fit.basis.vars, mono):
            if e == 1:
                term = Mul(term, Var(name))
            elif e >= 2:
                term = Mul(term, Pow(Var(name), e))
        terms.append(term)
    if not terms:
        return Const(0.0)
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out
