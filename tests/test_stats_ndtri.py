"""The pure-Python normal quantile is bitwise ``scipy.stats.norm.ppf``."""

import math

import numpy as np
from scipy import stats as sps

from repro.stats._ndtri import norm_ppf

TINY = np.finfo(float).tiny


def _points():
    rng = np.random.default_rng(2021)
    return np.concatenate(
        [
            rng.random(100_000),  # uniform draws: the central branch mostly
            np.logspace(-300, 0, 20_000),  # lower tail down to 1e-300
            1.0 - np.logspace(-16, -1, 20_000),  # upper tail, up to near 1
            rng.random(5_000) * 1e-14,  # beyond exp(-32): the far-tail branch
            [
                0.0,
                1.0,
                5e-324,  # smallest subnormal
                TINY / 2,  # subnormal
                TINY,
                1e-310,
                2.0**-53,
                1.0 - 2.0**-53,
                np.nextafter(1.0, 0.0),
                0.5,
                np.nextafter(0.5, 0.0),
                np.nextafter(0.5, 1.0),
                math.exp(-2.0),
                1.0 - math.exp(-2.0),
                math.exp(-32.0),
            ],
        ]
    )


def test_bitwise_equal_to_scipy():
    points = _points()
    assert points.size >= 100_000
    expected = sps.norm.ppf(points)
    got = np.array([norm_ppf(p) for p in points])
    mismatched = points[expected.view(np.int64) != got.view(np.int64)]
    assert mismatched.size == 0, mismatched[:5]


def test_edges_match_scipy():
    assert norm_ppf(0.0) == -math.inf == sps.norm.ppf(0.0)
    assert norm_ppf(-0.0) == -math.inf == sps.norm.ppf(-0.0)
    assert norm_ppf(1.0) == math.inf == sps.norm.ppf(1.0)
    for outside in (-5e-324, -0.5, 1.0 + 2.0**-52, 2.0, math.inf, -math.inf, math.nan):
        assert math.isnan(norm_ppf(outside))
        assert np.isnan(sps.norm.ppf(outside))
    # The centre is +0.0, not -0.0.
    assert math.copysign(1.0, norm_ppf(0.5)) == 1.0


def test_returns_python_floats():
    assert type(norm_ppf(0.975)) is float
    assert type(norm_ppf(np.float64(0.025))) is float
