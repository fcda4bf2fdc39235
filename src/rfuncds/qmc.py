"""Sobol low-discrepancy sampling for metamodel training points.

Base-2 Sobol sequence in Gray-code order with 32-bit direction integers;
dimension 1 reduces to the van der Corput sequence (up to the Gray-code
reordering within each power-of-two block).  Index 0 is the origin, so the
default ``skip=1`` starts at (0.5, ..., 0.5), the usual convention.

Direction numbers for dimensions 2..16 ship as a checksummed data file in
the documented ``d s a m_1..m_s`` row format (see docs/formats.md).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import BoundsMismatch, DimensionUnsupported, SampleCountTooLarge

if TYPE_CHECKING:
    import numpy as np

N_BITS = 32
MAX_DIMENSION = 16
_DATA_FILE = "sobol_directions_d16.txt"
_DATA_SHA256 = "e4d5fd6d239680ded367b1d0a176560b14718c2c2ba25e948df6a140cc1c4407"


@lru_cache(maxsize=1)
def _direction_rows() -> list[tuple[int, int, list[int]]]:
    import hashlib
    from importlib import resources
    raw = resources.files("rfuncds.data").joinpath(_DATA_FILE).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != _DATA_SHA256:
        raise RuntimeError(
            f"direction-number file checksum mismatch: expected {_DATA_SHA256}, got {digest}")
    rows = []
    for line in raw.decode("ascii").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [int(tok) for tok in line.split()]
        d, s, a, m = fields[0], fields[1], fields[2], fields[3:]
        if len(m) != s:
            raise RuntimeError(f"direction row for d={d} has {len(m)} m-values, expected {s}")
        rows.append((s, a, m))
    return rows


def _direction_integers(s: int, a: int, m: list[int]) -> list[int]:
    """Expand initial m-values into N_BITS left-justified direction integers."""
    v = [0] * (N_BITS + 1)
    for k in range(1, s + 1):
        v[k] = m[k - 1] << (N_BITS - k)
    for k in range(s + 1, N_BITS + 1):
        vk = v[k - s] ^ (v[k - s] >> s)
        for j in range(1, s):
            if (a >> (s - 1 - j)) & 1:
                vk ^= v[k - j]
        v[k] = vk
    return v[1:]


@lru_cache(maxsize=None)
def _directions(d: int) -> tuple[tuple[int, ...], ...]:
    columns = [tuple(1 << (N_BITS - k) for k in range(1, N_BITS + 1))]  # dimension 1
    rows = _direction_rows()
    for s, a, m in rows[: d - 1]:
        columns.append(tuple(_direction_integers(s, a, m)))
    return tuple(columns)


def sobol(d: int, n: int, skip: int = 1) -> np.ndarray:
    """First ``n`` points of the d-dimensional Sobol sequence after ``skip``,
    as an ``(n, d)`` array."""
    import numpy as np
    if not 1 <= d <= MAX_DIMENSION:
        raise DimensionUnsupported(d, MAX_DIMENSION)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if skip < 0:
        raise ValueError(f"skip must be >= 0, got {skip}")
    if skip + n > 2**N_BITS - 1:
        raise SampleCountTooLarge(f"skip + n = {skip + n} exceeds 2^{N_BITS} - 1")
    dirs = np.array(_directions(d), dtype=np.uint32)   # (d, N_BITS)
    # the point at index skip is the XOR of the directions of the bits set
    # in its Gray code; each later index i flips the direction of its
    # lowest set bit
    gray = skip ^ (skip >> 1)
    start = np.bitwise_xor.reduce(dirs[:, [c for c in range(N_BITS) if gray >> c & 1]], axis=1)
    flips = [(i & -i).bit_length() - 1 for i in range(skip + 1, skip + n)]
    points = np.bitwise_xor.accumulate(np.vstack([start, dirs[:, flips].T]), axis=0)
    return points * 0.5 ** N_BITS


def scale(points: np.ndarray, bounds) -> np.ndarray:
    """Map ``(n, d)`` unit-cube points into a box via x <- lo + x*(hi - lo)
    per axis."""
    import numpy as np
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if len(bounds) != points.shape[1]:
        raise BoundsMismatch(
            f"{len(bounds)} bound pairs for dimension {points.shape[1]}")
    for lo, hi in bounds:
        if not lo < hi:
            raise BoundsMismatch(f"need lo < hi, got ({lo}, {hi})")
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return lo + points * (hi - lo)
