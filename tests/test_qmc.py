import hashlib
from importlib import resources

import numpy as np
import pytest
from scipy.stats import qmc as scipy_qmc

from rfuncds.errors import BoundsMismatch, DimensionUnsupported, SampleCountTooLarge
from rfuncds.qmc import _DATA_FILE, _DATA_SHA256, MAX_DIMENSION, scale, sobol


def test_first_points_2d():
    pts = sobol(2, 3, skip=1)
    assert pts.tolist() == [[0.5, 0.5], [0.75, 0.25], [0.25, 0.75]]


def test_first_points_1d():
    pts = sobol(1, 4, skip=1).ravel()
    assert pts.tolist() == [0.5, 0.75, 0.25, 0.375]


def test_skip_zero_starts_at_origin():
    pts = sobol(3, 2, skip=0)
    assert pts[0].tolist() == [0.0, 0.0, 0.0]
    assert pts[1].tolist() == [0.5, 0.5, 0.5]


@pytest.mark.parametrize("d", list(range(1, MAX_DIMENSION + 1)))
def test_matches_scipy_reference(d):
    mine = sobol(d, 256, skip=0)
    ref = scipy_qmc.Sobol(d, scramble=False).random(256)
    assert np.array_equal(mine, ref)


def test_large_skip_matches_scipy_fast_forward():
    ref = scipy_qmc.Sobol(5, scramble=False, bits=32)
    ref.fast_forward(999_983)
    assert np.array_equal(sobol(5, 64, skip=999_983), ref.random(64))


def test_skip_near_the_limit_jumps_there():
    # 2^32 - 2 has Gray code 2^31 + 1, so the point is the XOR of the first
    # and last dimension-1 directions, 2^31 and 1, over 2^32
    assert sobol(1, 1, skip=2**32 - 2)[0, 0] == 0.5 + 2**-32
    assert sobol(2, 2, skip=2**32 - 3).shape == (2, 2)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_elementary_interval_property(k):
    # every dyadic sub-square at level k/2 per axis holds exactly one of 2^k points
    n = 2 ** k
    pts = sobol(2, n, skip=0)
    cells = np.floor(pts * 2 ** (k // 2)).astype(int)
    flat = cells[:, 0] * 2 ** (k // 2) + cells[:, 1]
    counts = np.bincount(flat, minlength=n)
    assert np.all(counts == 1)


def test_determinism():
    a = sobol(5, 100, skip=7)
    b = sobol(5, 100, skip=7)
    assert np.array_equal(a, b)


def test_unit_cube_range():
    pts = sobol(16, 512, skip=1)
    assert pts.min() >= 0.0 and pts.max() < 1.0


@pytest.mark.parametrize("d", [0, -1, 17])
def test_dimension_validation(d):
    with pytest.raises(DimensionUnsupported):
        sobol(d, 1)


def test_count_validation():
    with pytest.raises(ValueError):
        sobol(2, 0)
    with pytest.raises(ValueError):
        sobol(2, 1, skip=-1)
    with pytest.raises(SampleCountTooLarge):
        sobol(2, 2**32, skip=0)


def test_scale_and_round_trip():
    samples = sobol(2, 16, skip=1)
    scaled = scale(samples, [(250.0, 300.0), (250.0, 300.0)])
    assert scaled[0].tolist() == [275.0, 275.0]
    lo = np.array([250.0, 250.0])
    hi = np.array([300.0, 300.0])
    back = (scaled - lo) / (hi - lo)
    assert np.abs(back - samples).max() <= 1e-15


def test_scale_hits_lower_corner():
    samples = sobol(2, 1, skip=0)
    scaled = scale(samples, [(-3.0, 5.0), (2.0, 4.0)])
    assert scaled[0].tolist() == [-3.0, 2.0]


def test_scale_validation():
    samples = sobol(2, 4)
    with pytest.raises(BoundsMismatch):
        scale(samples, [(0.0, 1.0)])
    with pytest.raises(BoundsMismatch):
        scale(samples, [(0.0, 1.0), (2.0, 2.0)])


def test_direction_table_checksum():
    raw = resources.files("rfuncds.data").joinpath(_DATA_FILE).read_bytes()
    assert hashlib.sha256(raw).hexdigest() == _DATA_SHA256
