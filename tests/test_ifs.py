import math
import random

import numpy as np
import pytest

from splitchaos.ifs import (
    AffineContraction,
    EmptySet,
    HyperbolicIFS,
    InvalidContraction,
    hausdorff,
    iterate_hutchinson,
    splice,
)
from splitchaos.numbers import E1, ONE, ZERO, Hyperbolic, Order, embed
from conftest import TRIANGLE_MAPS

F1, F2, F3 = TRIANGLE_MAPS

# Slack added to the right side of floating-point inequality checks whose
# exact-arithmetic counterpart is an equality; measured round-off sits at
# the 1e-16 scale.
SLACK = embed(1e-12)


def test_apply_examples():
    assert F2(ZERO) == Hyperbolic(0.25, 0.5)
    assert F1(ONE) == embed(0.5)
    assert F3(ZERO) == Hyperbolic(0.5, 0.0)


def test_fixed_point_is_fixed():
    rnd = random.Random(31)
    for _ in range(200):
        f = AffineContraction(
            Hyperbolic(rnd.uniform(0, 0.95), rnd.uniform(0, 0.95)),
            Hyperbolic(rnd.uniform(-2, 2), rnd.uniform(-2, 2)),
        )
        fp = f.fixed_point()
        gap = f(fp).distance(fp)
        assert gap.e1 <= 1e-12 and gap.e2 <= 1e-12


def test_contraction_factor_bounds_are_enforced():
    with pytest.raises(InvalidContraction):
        AffineContraction(Hyperbolic(1.0, 0.5), ZERO)
    with pytest.raises(InvalidContraction):
        AffineContraction(Hyperbolic(0.5, -0.1), ZERO)
    AffineContraction(ZERO, ONE)  # kappa may be zero


def test_contraction_attractor_bound_is_enforced():
    # Each part is finite, but the e1 bound 1e308/(1-0.9) is not.
    with pytest.raises(InvalidContraction, match="attractor bound"):
        AffineContraction(Hyperbolic(0.9, 0.5), Hyperbolic(1e308, 0.0))
    with pytest.raises(InvalidContraction, match="attractor bound"):
        AffineContraction(Hyperbolic(0.5, 0.9), Hyperbolic(0.0, -1e308))
    AffineContraction(embed(0.5), embed(1e307))


def test_splice_examples():
    g = splice(F2, F3)
    assert g.kappa == embed(0.5)
    assert g.beta == Hyperbolic(0.25, 0.0)
    g = splice(F1, F2)
    assert g.kappa == embed(0.5)
    assert g.beta == Hyperbolic(0.0, 0.5)
    for f in TRIANGLE_MAPS:
        assert splice(f, f) == f


def test_splice_factor_is_bit_exact():
    rnd = random.Random(32)
    for _ in range(500):
        fs = AffineContraction(
            Hyperbolic(rnd.random() * 0.99, rnd.random() * 0.99),
            Hyperbolic(rnd.uniform(-1, 1), rnd.uniform(-1, 1)),
        )
        ft = AffineContraction(
            Hyperbolic(rnd.random() * 0.99, rnd.random() * 0.99),
            Hyperbolic(rnd.uniform(-1, 1), rnd.uniform(-1, 1)),
        )
        g = splice(fs, ft)
        assert g.kappa.e1 == fs.kappa.e1
        assert g.kappa.e2 == ft.kappa.e2
        assert g.beta.e1 == fs.beta.e1
        assert g.beta.e2 == ft.beta.e2


def test_contraction_inequality_empirically():
    rnd = random.Random(33)
    for _ in range(2000):
        f = AffineContraction(
            Hyperbolic(rnd.random() * 0.99, rnd.random() * 0.99),
            Hyperbolic(rnd.uniform(-1, 1), rnd.uniform(-1, 1)),
        )
        x = Hyperbolic(rnd.uniform(-2, 2), rnd.uniform(-2, 2))
        y = Hyperbolic(rnd.uniform(-2, 2), rnd.uniform(-2, 2))
        lhs = f(x).distance(f(y))
        rhs = f.kappa * x.distance(y) + SLACK
        assert lhs.compare(rhs) in (Order.LESS, Order.EQUAL)


def test_ifs_shape_validation(uniform_thirds):
    HyperbolicIFS(TRIANGLE_MAPS, uniform_thirds)
    with pytest.raises(ValueError):
        HyperbolicIFS(TRIANGLE_MAPS[:2], uniform_thirds)
    with pytest.raises(ValueError):
        HyperbolicIFS((), uniform_thirds)


def test_hutchinson_step_at_origin():
    got = iterate_hutchinson(TRIANGLE_MAPS, [ZERO], 1)
    assert got == [ZERO, Hyperbolic(0.25, 0.5), Hyperbolic(0.5, 0.0)]


def test_hutchinson_step_single_map_halves():
    pts = [Hyperbolic(1.0, 0.5), Hyperbolic(0.25, 0.875)]
    got = iterate_hutchinson([F1], pts, 1)
    assert got == sorted(
        (Hyperbolic(p.e1 / 2, p.e2 / 2) for p in pts), key=lambda p: (p.e1, p.e2)
    )


def test_hutchinson_step_deduplicates():
    # Two maps sending different points to the same image.
    f = AffineContraction(ZERO, Hyperbolic(0.25, 0.25))
    got = iterate_hutchinson([f], [ZERO, ONE, E1], 1)
    assert got == [Hyperbolic(0.25, 0.25)]


def test_hutchinson_rejects_empty():
    with pytest.raises(EmptySet):
        iterate_hutchinson(TRIANGLE_MAPS, [], 1)
    with pytest.raises(EmptySet):
        iterate_hutchinson(TRIANGLE_MAPS, [], 3)


def test_hutchinson_diameters_shrink_geometrically():
    pts = [ZERO, ONE]
    for depth in range(1, 8):
        pts = iterate_hutchinson(TRIANGLE_MAPS, pts, 1)
        # Per-map image diameter halves each step; the union stays in the box.
        assert pts.e1.max() - pts.e1.min() <= 1.0
        spread = hausdorff(pts, iterate_hutchinson(TRIANGLE_MAPS, pts, 1))
        assert spread.compare(embed(2.0**-depth) + SLACK) in (Order.LESS, Order.EQUAL)


def test_successive_iterates_settle_monotonically():
    prev = iterate_hutchinson(TRIANGLE_MAPS, [ZERO], 3)
    gaps = []
    for _ in range(6):
        nxt = iterate_hutchinson(TRIANGLE_MAPS, prev, 1)
        gaps.append(hausdorff(prev, nxt))
        prev = nxt
    for a, b in zip(gaps, gaps[1:]):
        assert b.compare(a + SLACK) in (Order.LESS, Order.EQUAL)


def test_deep_iterates_agree_across_starts():
    # Any start lands within max_kappa**depth of the attractor, so two
    # depth-12 samples sit within twice that of each other.
    a = iterate_hutchinson(TRIANGLE_MAPS, [ZERO], 12)
    b = iterate_hutchinson(TRIANGLE_MAPS, [ONE], 12)
    gap = hausdorff(a, b)
    assert gap.compare(embed(2.0**-11)) in (Order.LESS, Order.EQUAL)


def test_hausdorff_examples():
    pts = [ZERO, Hyperbolic(0.5, 0.25), ONE]
    assert hausdorff(pts, pts) == ZERO
    assert hausdorff([ZERO], [ONE]) == ONE
    assert hausdorff([ZERO, E1], [ZERO]) == Hyperbolic(1.0, 0.0)
    with pytest.raises(EmptySet):
        hausdorff([], [ZERO])
    with pytest.raises(EmptySet):
        hausdorff([ZERO], [])


def test_hausdorff_is_symmetric_and_componentwise():
    rnd = random.Random(34)
    for _ in range(50):
        a = [Hyperbolic(rnd.random(), rnd.random()) for _ in range(rnd.randint(1, 9))]
        b = [Hyperbolic(rnd.random(), rnd.random()) for _ in range(rnd.randint(1, 9))]
        d = hausdorff(a, b)
        assert d == hausdorff(b, a)
        assert d.compare(ZERO) in (Order.GREATER, Order.EQUAL)


# -- one-dimensional component oracle ----------------------------------------

E1_MAPS_1D = ((0.5, 0.0), (0.5, 0.25), (0.5, 0.5))
E2_MAPS_1D = ((0.5, 0.0), (0.5, 0.5), (0.5, 0.0))


def union_of_images(maps1d, intervals):
    """One union-of-images step on a list of closed 1D intervals, merged."""
    images = sorted((c * lo + b, c * hi + b) for lo, hi in intervals for c, b in maps1d)
    merged = [images[0]]
    for lo, hi in images[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def iterate_points_1d(maps1d, start, depth):
    pts = {start}
    for _ in range(depth):
        pts = {c * x + b for x in pts for c, b in maps1d}
    return sorted(pts)


@pytest.mark.parametrize("maps1d", [E1_MAPS_1D, E2_MAPS_1D])
def test_component_attractor_is_unit_interval(maps1d):
    # [0, 1] maps onto itself exactly, so it is the attractor.
    assert union_of_images(maps1d, [(0.0, 1.0)]) == [(0.0, 1.0)]


@pytest.mark.parametrize("maps1d", [E1_MAPS_1D, E2_MAPS_1D])
def test_component_iterates_cover_every_dyadic_bin(maps1d):
    pts = iterate_points_1d(maps1d, 0.0, 12)
    counts, _ = np.histogram(pts, bins=4096, range=(0.0, 1.0))
    assert counts.min() >= 1


def test_spliced_system_attractor_is_the_unit_box():
    # The 3x3 spliced family decouples into the two component systems, so
    # its attractor is the product of their unit intervals: deep iterates
    # of the spliced family must come close to every corner of the box.
    spliced = [splice(fs, ft) for fs in TRIANGLE_MAPS for ft in TRIANGLE_MAPS]
    pts = iterate_hutchinson(spliced, [ZERO], 6)
    e1s, e2s = pts.e1, pts.e2
    c1, _ = np.histogram(e1s, bins=64, range=(0.0, 1.0))
    c2, _ = np.histogram(e2s, bins=64, range=(0.0, 1.0))
    assert c1.min() >= 1 and c2.min() >= 1
    for corner1 in (0.0, 1.0):
        for corner2 in (0.0, 1.0):
            d = np.maximum(np.abs(e1s - corner1), np.abs(e2s - corner2))
            assert d.min() < 2.0**-5
