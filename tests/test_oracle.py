"""The vectorized union-of-images oracle against a scalar reference, bit for bit.

The reference keeps the snapped points as a set of Python-int key pairs,
rounds with round() and sorts the tuples.  The oracle must give the same
points in the same order with the same bits, signs of zero included,
for negative translations, keys far beyond the int64 range, maps that
collide on the snapping grid, and coordinates half-way between grid
points.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitchaos.ifs import SNAP, AffineContraction, PointSet, iterate_hutchinson
from splitchaos.numbers import E1, ONE, ZERO, Hyperbolic
from splitchaos.specfile import BUNDLED, bundled_spec


def _snap_key(x1, x2):
    return round(x1 * SNAP), round(x2 * SNAP)


def _step_keys(coeffs, keys):
    out = set()
    for k1, k2 in keys:
        x1 = k1 / SNAP
        x2 = k2 / SNAP
        for c1, c2, b1, b2 in coeffs:
            out.add(_snap_key(c1 * x1 + b1, c2 * x2 + b2))
    return out


def _keys_to_points(keys):
    return [Hyperbolic(k1 / SNAP, k2 / SNAP) for k1, k2 in sorted(keys)]


def reference_iterate(maps, points, depth):
    """The scalar union-of-images loop over a set of integer key pairs."""
    coeffs = [(f.kappa.e1, f.kappa.e2, f.beta.e1, f.beta.e2) for f in maps]
    keys = {_snap_key(p.e1, p.e2) for p in points}
    for _ in range(depth):
        keys = _step_keys(coeffs, keys)
    return _keys_to_points(keys)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


# Half-way between two 2^-40 grid points: x * SNAP ends in .5 exactly.
half_grid = st.integers(-(2**20), 2**20).map(lambda k: (k + 0.5) / SNAP)
coordinate = st.one_of(
    st.sampled_from([0.0, -0.0]),
    half_grid,
    st.floats(-4.0, 4.0),
    # Keys of magnitude 2^63 and beyond.
    st.floats(-(2.0**30), 2.0**30),
)
factor = st.one_of(
    # Zero and near-zero factors send different points to one image.
    st.sampled_from([0.0, 2.0**-50, 0.25, 0.5]),
    st.floats(0.0, 1.0, exclude_max=True),
)
contraction = st.builds(
    AffineContraction,
    st.builds(Hyperbolic, factor, factor),
    st.builds(Hyperbolic, coordinate, coordinate),
)
point = st.builds(Hyperbolic, coordinate, coordinate)

_BUNDLED_MAPS = [bundled_spec(name).maps for name in BUNDLED]
_COLLIDING = [
    AffineContraction(ZERO, Hyperbolic(0.25, -0.25)),
    AffineContraction(Hyperbolic(2.0**-50, 0.5), Hyperbolic(0.25, -0.25)),
]
_FAR = [
    AffineContraction(Hyperbolic(0.5, 0.3), Hyperbolic(-3e7, 2.5e9)),
    AffineContraction(Hyperbolic(0.0, 0.9), Hyperbolic(1e-13, -7.0)),
]


def _at_depth_10(test):
    for maps in _BUNDLED_MAPS:
        test = example(maps=maps, points=[ZERO], depth=10)(test)
    return test


@_at_depth_10
@example(maps=_COLLIDING, points=[ZERO, ONE, E1], depth=3)
@example(maps=_FAR, points=[ZERO, Hyperbolic(1e8, -1e9)], depth=5)
@example(
    maps=_COLLIDING,
    points=[
        Hyperbolic(-0.0, 1 / (2 * SNAP)),
        Hyperbolic(3 / (2 * SNAP), -5 / (2 * SNAP)),
        Hyperbolic(-1 / (4 * SNAP), -1e-20),
    ],
    depth=0,
)
@settings(max_examples=150, deadline=None)
@given(
    maps=st.lists(contraction, min_size=1, max_size=3),
    points=st.lists(point, min_size=1, max_size=4),
    depth=st.integers(0, 6),
)
def test_oracle_matches_scalar_reference(maps, points, depth):
    got = iterate_hutchinson(maps, points, depth)
    want = reference_iterate(maps, points, depth)
    assert list(got) == want
    assert got == want
    assert got.e1.tobytes() == _bits([p.e1 for p in want])
    assert got.e2.tobytes() == _bits([p.e2 for p in want])
    assert not np.signbit(got.e1[got.e1 == 0.0]).any()
    assert not np.signbit(got.e2[got.e2 == 0.0]).any()


def test_point_set_is_read_only():
    got = iterate_hutchinson(_COLLIDING, [ZERO, ONE], 1)
    assert isinstance(got, PointSet)
    assert got[0] == Hyperbolic(0.25, -0.25)
    with pytest.raises(ValueError):
        got.e1[0] = 1.0
    assert got != [Hyperbolic(0.25, -0.25)]
    assert (got == 3) is False


def test_oracle_rejects_keys_beyond_float_range():
    # x * 2^40 overflows for |x| > ~1.6e296, which a round() key cannot hold either.
    far = AffineContraction(Hyperbolic(0.5, 0.5), Hyperbolic(1e300, 0.0))
    with pytest.raises(ValueError):
        iterate_hutchinson([far], [ZERO], 1)
