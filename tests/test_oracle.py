"""The vectorized union-of-images oracle against a scalar reference, bit for bit.

The reference keeps the snapped points as a set of Python-int key pairs,
rounds with round() and sorts the tuples.  The oracle must give the same
points in the same order with the same bits, signs of zero included,
for negative translations, keys far beyond the int64 range, maps that
collide on the snapping grid, and coordinates half-way between grid
points.

The membership certificate is held to the same oracle:
attractor_membership must never report fewer outliers than the plain
query of every counted point against the whole depth-D oracle, must
report none for a correct game from 0, and must count a moved point.
"""

import dataclasses
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitchaos import checks
from splitchaos.chaos import RunConfig, Variant, run
from splitchaos.checks import (
    MEMBERSHIP_MAX_OUTLIERS,
    MEMBERSHIP_TOL,
    CheckResult,
    attractor_membership,
    certificate_depth,
    nearest_componentwise,
)
from splitchaos.ifs import SNAP, AffineContraction, HyperbolicIFS, PointSet, iterate_hutchinson
from splitchaos.numbers import E1, ONE, ZERO, Hyperbolic, embed
from splitchaos.probability import HyperbolicDistribution
from splitchaos.specfile import BUNDLED, bundled_spec
from conftest import reference_picks


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
    # A game's recorded orbit is the same container.
    cloud = run(_uniform(_COLLIDING), RunConfig(Variant.HYPERBOLIC, 1, 200))
    assert isinstance(cloud, PointSet)
    assert cloud[0] == Hyperbolic(float(cloud.e1[0]), float(cloud.e2[0]))
    for coords in (cloud.e1, cloud.e2):
        with pytest.raises(ValueError):
            coords[0] = 1.0


def test_oracle_rejects_keys_beyond_float_range():
    # x * 2^40 overflows for |x| > ~1.6e296, which a round() key cannot hold either.
    far = AffineContraction(Hyperbolic(0.5, 0.5), Hyperbolic(1e300, 0.0))
    with pytest.raises(ValueError):
        iterate_hutchinson([far], [ZERO], 1)


# -- membership certificate ---------------------------------------------------


def reference_membership(ifs, cloud):
    """attractor_membership as a plain query of every counted point against the depth-D oracle."""
    depth = certificate_depth(ifs.maps)
    first = max(depth - 1 - cloud.config.burn_in, 0)
    oracle = iterate_hutchinson(ifs.maps, [ZERO], depth)
    dist = nearest_componentwise(PointSet(cloud.e1[first:], cloud.e2[first:]), oracle)
    return _result(float(np.mean(dist > MEMBERSHIP_TOL)), depth)


def _result(fraction, depth):
    return CheckResult(
        "attractor-membership",
        fraction < MEMBERSHIP_MAX_OUTLIERS,
        f"{fraction:.2e} of points beyond 2^-10 of the depth-{depth} sample"
        f" (limit {MEMBERSHIP_MAX_OUTLIERS:.0e})",
    )


def _fraction(result):
    return float(result.detail.split()[0])


def reference_address(maps, window):
    """The maps of one window applied to 0 with round() keys, as the scalar oracle does."""
    k1 = k2 = 0
    for i in window:
        f = maps[i]
        k1, k2 = _snap_key(
            f.kappa.e1 * (k1 / SNAP) + f.beta.e1, f.kappa.e2 * (k2 / SNAP) + f.beta.e2
        )
    return k1 / SNAP, k2 / SNAP


def _uniform(maps):
    maps = tuple(maps)
    return HyperbolicIFS(maps, HyperbolicDistribution.validate([embed(1.0 / len(maps))] * len(maps)))


# A factor so close to 1 that D runs into the tens of millions.
NEAR_ONE = 1.0 - 2.0**-20
game_translation = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


SIERPINSKI = bundled_spec("sierpinski")
LOPSIDED = bundled_spec("sierpinski_hpd2")
POWERS_OF_TWO = _uniform([AffineContraction(embed(0.5), ZERO), AffineContraction(embed(0.25), ZERO)])
NEGATIVE = _uniform(
    [
        AffineContraction(Hyperbolic(0.5, 0.25), Hyperbolic(-0.75, -1.5)),
        AffineContraction(Hyperbolic(0.0, 0.5), Hyperbolic(-0.25, 0.5)),
    ]
)
SLOW = _uniform([AffineContraction(embed(NEAR_ONE), ZERO), AffineContraction(embed(NEAR_ONE), ONE)])
FAR_START = Hyperbolic(5.0, -5.0)


def _sound_examples(test):
    cases = [
        (SIERPINSKI, RunConfig(Variant.HYPERBOLIC, 1, 3000)),
        (LOPSIDED, RunConfig(Variant.HYPERBOLIC, 7, 400, burn_in=3)),
        # Early points still far from the attractor: more outliers than the exact query.
        (SIERPINSKI, RunConfig(Variant.HYPERBOLIC, 3, 400, burn_in=0, start=FAR_START)),
        (POWERS_OF_TWO, RunConfig(Variant.HYPERBOLIC, 5, 300, burn_in=0, start=ONE)),
        (NEGATIVE, RunConfig(Variant.HYPERBOLIC, 6, 300, burn_in=20)),
    ]
    for ifs, cfg in cases:
        test = example(game=(ifs, cfg))(test)
    return test


# Factors up to 0.5 and translations up to 2 keep D at 12 or 13, so the
# oracle of up to two maps holds at most 2^13 points.
small_factor = st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.5]), st.floats(0.0, 0.5))
small_map = st.builds(
    AffineContraction,
    st.builds(Hyperbolic, small_factor, small_factor),
    st.builds(Hyperbolic, game_translation, game_translation),
)


@st.composite
def small_games(draw):
    """Games of up to two small maps, from any start, burn-ins on either side of D."""
    ifs = _uniform(draw(st.lists(small_map, min_size=1, max_size=2)))
    depth = certificate_depth(ifs.maps)
    burn_in = draw(st.integers(0, depth + 3))
    iterations = draw(st.integers(max(depth, burn_in + 1), depth + 300))
    start = Hyperbolic(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    cfg = RunConfig(Variant.HYPERBOLIC, draw(st.integers(0, 2**64 - 1)), iterations, burn_in, start)
    return ifs, cfg


@_sound_examples
@settings(max_examples=100, deadline=None)
@given(game=small_games())
def test_membership_is_never_below_full_query(game):
    ifs, cfg = game
    cloud = run(ifs, cfg)
    got = attractor_membership(ifs, cloud)
    want = reference_membership(ifs, cloud)
    assert _fraction(got) >= _fraction(want)
    if _fraction(got) == 0.0:
        assert got == want


@st.composite
def games_from_zero(draw):
    """Games from 0 whose burn-in leaves D selections behind every recorded point."""
    factor = st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.95]), st.floats(0.0, 0.95))
    translation = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    part = st.builds(Hyperbolic, factor, factor), st.builds(Hyperbolic, translation, translation)
    ifs = _uniform(draw(st.lists(st.builds(AffineContraction, *part), min_size=1, max_size=4)))
    depth = certificate_depth(ifs.maps)
    burn_in = depth - 1 + draw(st.integers(0, 20))
    iterations = burn_in + draw(st.integers(1, 300))
    return ifs, RunConfig(Variant.HYPERBOLIC, draw(st.integers(0, 2**64 - 1)), iterations, burn_in)


STEEP = _uniform(
    [
        AffineContraction(embed(0.95), Hyperbolic(2.0, -2.0)),
        AffineContraction(Hyperbolic(0.5, 0.25), ZERO),
        AffineContraction(ZERO, Hyperbolic(-2.0, 0.0)),
    ]
)


@example(game=(POWERS_OF_TWO, RunConfig(Variant.HYPERBOLIC, 5, 300, burn_in=11)))
@example(game=(STEEP, RunConfig(Variant.HYPERBOLIC, 1, 3000, burn_in=certificate_depth(STEEP.maps) - 1)))
@settings(max_examples=100, deadline=None)
@given(game=games_from_zero())
def test_membership_certifies_every_game_from_zero(game):
    ifs, cfg = game
    cloud = run(ifs, cfg)
    assert attractor_membership(ifs, cloud) == _result(0.0, certificate_depth(ifs.maps))


def _refuse(*args):
    raise AssertionError("the sample was built or queried")


def _no_sample():
    return mock.patch.multiple(checks, iterate_hutchinson=_refuse, nearest_componentwise=_refuse)


def test_certified_cloud_builds_no_sample():
    cloud = run(SIERPINSKI, RunConfig(Variant.HYPERBOLIC, 1, 3000))
    with mock.patch.object(checks, "iterate_hutchinson", _refuse), mock.patch.object(
        checks, "nearest_componentwise", _refuse
    ):
        assert attractor_membership(SIERPINSKI, cloud).passed


def _address_outliers(cfg):
    """A Sierpinski game and its points beyond 2^-10 of their addresses, counted from D = 12 on."""
    cloud = run(SIERPINSKI, cfg)
    picks = reference_picks(SIERPINSKI, cfg)
    outliers = 0
    for n in range(max(11, cfg.burn_in), cfg.iterations):
        a1, a2 = reference_address(SIERPINSKI.maps, picks[n - 11 : n + 1])
        r = n - cfg.burn_in
        outliers += max(abs(cloud.e1[r] - a1), abs(cloud.e2[r] - a2)) > MEMBERSHIP_TOL
    return cloud, outliers


def test_far_start_counts_uncertified_points():
    # From iteration 11 on, 12 selections stand behind each point.
    cloud, outliers = _address_outliers(RunConfig(Variant.HYPERBOLIC, 3, 400, burn_in=0, start=FAR_START))
    assert outliers > 0
    with _no_sample():
        assert attractor_membership(SIERPINSKI, cloud) == _result(outliers / 389, 12)


def test_farther_start_counts_recorded_window_starts():
    # The windows of later points start from recorded points beyond |4|.
    start = Hyperbolic(40.0, -1e3)
    cloud, outliers = _address_outliers(RunConfig(Variant.HYPERBOLIC, 3, 400, burn_in=0, start=start))
    assert outliers > 1
    assert attractor_membership(SIERPINSKI, cloud) == _result(outliers / 389, 12)


def test_membership_refusals_build_nothing():
    short = run(SIERPINSKI, RunConfig(Variant.HYPERBOLIC, 1, 11, burn_in=0))
    # D is in the tens of millions for factors this close to 1.
    slow = run(SLOW, RunConfig(Variant.HYPERBOLIC, 1, 300, burn_in=0))
    assert certificate_depth(SLOW.maps) > 10**7
    with _no_sample():
        with pytest.raises(ValueError, match="the 12 selections"):
            attractor_membership(SIERPINSKI, short)
        began = time.perf_counter()
        with pytest.raises(ValueError, match="no recorded point"):
            attractor_membership(SLOW, slow)
        assert time.perf_counter() - began < 1.0


@pytest.mark.parametrize("moved", [0, 1500, -1])
def test_moved_point_is_counted(moved):
    cloud = run(SIERPINSKI, RunConfig(Variant.HYPERBOLIC, 1, 3000))
    e1 = cloud.e1.copy()
    e1[moved] += 2.0**-9
    tampered = dataclasses.replace(cloud, e1=e1)
    got = _fraction(attractor_membership(SIERPINSKI, tampered))
    assert got > 0.0
    assert got >= _fraction(reference_membership(SIERPINSKI, tampered))


def test_drift_decides_a_point_at_the_edge():
    # Halving from just below 8 is exact; points 11 to 39 are counted. Point
    # 12 starts its window from point 0, 4 - 2^-30, so K^12 * |y| = 2^-10 -
    # 2^-42: inside the tolerance, but not once the drift (2^-40 + 2^-46 at
    # M ~ 8) is added. Point 11, from the start itself, is out either way.
    halving = _uniform([AffineContraction(embed(0.5), ZERO)])
    cfg = RunConfig(Variant.HYPERBOLIC, 1, 40, burn_in=0, start=embed(8.0 - 2.0**-29))
    cloud = run(halving, cfg)
    assert attractor_membership(halving, cloud) == _result(2 / 29, 12)


def test_membership_cost_does_not_grow_with_depth():
    # Factors of 0.99 set D = 759: rebuilding every point from its last D maps took seconds.
    deep = _uniform(
        [AffineContraction(embed(0.99), b) for b in (ZERO, Hyperbolic(0.01, 0.0), Hyperbolic(0.0, 0.01))]
    )
    assert certificate_depth(deep.maps) == 759
    cloud = run(deep, RunConfig(Variant.HYPERBOLIC, 1, 200_000))
    began = time.perf_counter()
    got = attractor_membership(deep, cloud)
    assert time.perf_counter() - began < 1.0
    assert got == _result(0.0, 759)
