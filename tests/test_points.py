"""The one rule for points, shared by every pointwise function.

A scalar gives a float.  A list, a tuple or an array of points gives an
array of that shape, each entry bit for bit the float of its own point.
"""

import math

import numpy as np
import pytest

from spiralbox.geometry import CurvatureLaw
from spiralbox.quantum import (
    geometry_induced_potential,
    hydrogen_radial_3d,
    hydrogen_wavefunction_1d,
    spiral_box_spectrum,
    spiral_box_wavefunction,
)
from spiralbox.specfun import bessel_j, laguerre

_SPEC = spiral_box_spectrum(math.sqrt(0.004), 2.0, 1.0, 3)
_LAW = CurvatureLaw(0.3, 0.5)

# name -> (function of the points, sampler of points from a generator)
FUNCTIONS = {
    "bessel_j": (lambda x: bessel_j(2.7, x), lambda rng, k: rng.uniform(0.0, 30.0, k)),
    "laguerre": (lambda x: laguerre(6, 1.5, x), lambda rng, k: rng.uniform(-5.0, 40.0, k)),
    "laguerre_scaled": (
        lambda x: laguerre(4, 0.5, x),
        lambda rng, k: rng.uniform(0.0, 40.0, k),
    ),
    "CurvatureLaw.k": (_LAW.k, lambda rng, k: rng.uniform(0.01, 9.0, k)),
    "CurvatureLaw.turning_angle": (_LAW.turning_angle, lambda rng, k: rng.uniform(0.01, 9.0, k)),
    "geometry_induced_potential": (
        lambda k: geometry_induced_potential(k, 0.7),
        lambda rng, k: rng.uniform(-50.0, 50.0, k),
    ),
    "hydrogen_wavefunction_1d": (
        lambda s: hydrogen_wavefunction_1d(3, s, 1.3),
        lambda rng, k: rng.uniform(0.01, 60.0, k),
    ),
    "hydrogen_radial_3d": (
        lambda r: hydrogen_radial_3d(4, 2, r, 0.8),
        lambda rng, k: rng.uniform(0.01, 60.0, k),
    ),
    "spiral_box_wavefunction": (
        lambda s: spiral_box_wavefunction(_SPEC, 2, s),
        lambda rng, k: rng.uniform(0.0, 2.0, k),
    ),
}


def _parts(value):
    # a pair of results (laguerre's mantissa and power of two) is checked part by part
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_points_give_an_array_of_their_shape_equal_to_their_floats(name, seed):
    fn, sample = FUNCTIONS[name]
    rng = np.random.default_rng(seed)
    flat = sample(rng, 6)
    singles = [_parts(fn(v)) for v in flat.tolist()]
    for part in singles[0]:
        assert type(part) in (float, int)
    grid = flat.reshape(2, 3)
    for points in (flat.tolist(), tuple(flat.tolist()), flat, grid, grid.tolist()):
        got = _parts(fn(points))
        assert len(got) == len(singles[0])
        for i, values in enumerate(got):
            assert isinstance(values, np.ndarray) and values.shape == np.shape(points)
            want = np.array([one[i] for one in singles], dtype=values.dtype)
            assert values.reshape(-1).tobytes() == want.tobytes()
    # a 0-d array and a numpy scalar are scalars too
    for point in (np.float64(flat[0]), np.array(flat[0])):
        assert _parts(fn(point)) == singles[0]
        assert all(type(part) in (float, int) for part in _parts(fn(point)))
