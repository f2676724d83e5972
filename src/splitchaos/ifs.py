"""Affine contractions on the hyperbolic plane and their iterated systems.

A map xi -> kappa*xi + beta contracts componentwise whenever both parts
of kappa sit in [0, 1).  Because the action is componentwise, the e1
action of one contraction can be spliced with the e2 action of another
and the result is again a contraction whose factor mixes the two.

PointSet is the package's one point container: two read-only float64
coordinate arrays that read as a sequence of Hyperbolic values.  A
union-of-images sample is one, and so is a game's chaos.PointCloud.

The set-valued machinery (union-of-images step, componentwise Hausdorff
distance) is used as a measuring stick for attractors, not for control
flow, and works on those arrays.  A union-of-images sample holds points
on the 2^-40 grid, and grid_step is the one rule that maps them.  Its
points and their order are bit for bit those of a scalar loop over a set
of round() key pairs; tests/test_oracle.py holds that loop as the reference.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .numbers import Hyperbolic
from .probability import HyperbolicDistribution

# De-duplication grid for union-of-images point sets; far below any
# tolerance used by consumers.
SNAP = float(2**40)


class InvalidContraction(ValueError):
    """Contraction factor outside [0, 1), or an unbounded attractor, in some component."""


class EmptySet(ValueError):
    """Set-valued operation received an empty point set."""


@dataclass(frozen=True)
class AffineContraction:
    """The affine map xi -> kappa*xi + beta with componentwise factor kappa."""

    kappa: Hyperbolic
    beta: Hyperbolic

    def __post_init__(self):
        k = self.kappa
        if not (0.0 <= k.e1 < 1.0 and 0.0 <= k.e2 < 1.0):
            raise InvalidContraction(
                f"contraction factor must lie in [0, 1) per component, got {k}"
            )
        bound = [abs(self.beta.e1) / (1.0 - k.e1), abs(self.beta.e2) / (1.0 - k.e2)]
        if not np.isfinite(bound).all():
            raise InvalidContraction("attractor bound |beta|/(1-kappa) is not finite")

    def __call__(self, x):
        return Hyperbolic(
            self.kappa.e1 * x.e1 + self.beta.e1,
            self.kappa.e2 * x.e2 + self.beta.e2,
        )

    def fixed_point(self):
        """The unique fixed point beta / (1 - kappa), componentwise."""
        return Hyperbolic(
            self.beta.e1 / (1.0 - self.kappa.e1),
            self.beta.e2 / (1.0 - self.kappa.e2),
        )


def splice(f_s, f_t):
    """Combine the e1 action of f_s with the e2 action of f_t.

    The result contracts with factor (f_s.kappa.e1, f_t.kappa.e2).
    """
    return AffineContraction(
        Hyperbolic(f_s.kappa.e1, f_t.kappa.e2),
        Hyperbolic(f_s.beta.e1, f_t.beta.e2),
    )


@dataclass(frozen=True)
class HyperbolicIFS:
    """A finite list of contractions paired with a weight per map."""

    maps: tuple
    dist: HyperbolicDistribution

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("an IFS needs at least one map")
        if len(maps) != len(self.dist):
            raise ValueError(
                f"{len(maps)} maps but {len(self.dist)} probabilities"
            )
        object.__setattr__(self, "maps", maps)

    def __len__(self):
        return len(self.maps)


@dataclass(frozen=True, eq=False)
class PointSet:
    """A finite point set as two read-only float64 coordinate arrays.

    len, indexing and iteration give Hyperbolic values; == compares with
    any sequence of points, point for point.
    """

    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        self.e1.setflags(write=False)
        self.e2.setflags(write=False)

    @staticmethod
    def of(points):
        """points itself if it is a PointSet, else its Hyperbolic values as one."""
        if isinstance(points, PointSet):
            return points
        return PointSet(*_parts(points))

    def __len__(self):
        return len(self.e1)

    def __getitem__(self, i):
        return Hyperbolic(float(self.e1[i]), float(self.e2[i]))

    def __iter__(self):
        return map(Hyperbolic, self.e1.tolist(), self.e2.tolist())

    def __eq__(self, other):
        if isinstance(other, PointSet):
            return np.array_equal(self.e1, other.e1) and np.array_equal(self.e2, other.e2)
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def _parts(values):
    # The e1 and e2 parts of Hyperbolic values as the two rows of a (2, n) array.
    return np.array([(v.e1, v.e2) for v in values], dtype=np.float64).reshape(-1, 2).T


def coefficients(maps):
    """kappa and beta of every map as two (2, n) float64 arrays, row 0 for e1."""
    return _parts(f.kappa for f in maps), _parts(f.beta for f in maps)


def grid_step(kappa, x, beta):
    """kappa * x + beta (multiply, then add, as the scalar c*x + b) snapped to the 2^-40 grid.

    The operands broadcast.  rint rounds ties to even like round(), scaling
    by the power of two SNAP is exact, and adding 0.0 turns -0.0 into 0.0.
    Raises ValueError when an image leaves the float range.
    """
    # An overflow surfaces as a non-finite coordinate, rejected below.
    with np.errstate(over="ignore"):
        x = (np.rint((kappa * x + beta) * SNAP) + 0.0) / SNAP
    if not np.isfinite(x).all():
        raise ValueError("point set leaves the float range of the snapping grid")
    return x


def _unique_sorted(x1, x2):
    order = np.lexsort((x2, x1))
    x1 = x1[order]
    x2 = x2[order]
    new = np.ones(len(x1), dtype=bool)
    new[1:] = (x1[1:] != x1[:-1]) | (x2[1:] != x2[:-1])
    return x1[new], x2[new]


def iterate_hutchinson(maps, points, depth):
    """Apply the union-of-images step `depth` times; return a PointSet.

    Each step maps every point by every map with grid_step and removes
    duplicates (a lexsort and an adjacent-difference mask), so the result
    is sorted by (e1, e2) and deterministic.  Starting from any point,
    depth iterations land within max_factor**depth * diameter of the
    attractor, so deep iterates serve as a reference sample of it.
    """
    points = PointSet.of(points)
    if not len(points):
        raise EmptySet("hutchinson iteration needs a nonempty point set")
    # The maps as a column: each step gives one row of images per map.
    kappa, beta = (a[:, :, None] for a in coefficients(maps))
    # The identity step puts the start points on the grid.
    x = _unique_sorted(grid_step(1.0, points.e1, 0.0), grid_step(1.0, points.e2, 0.0))
    for _ in range(depth):
        x = _unique_sorted(*(grid_step(kappa[c], x[c], beta[c]).ravel() for c in (0, 1)))
    return PointSet(*x)


def _directed_1d(u, v_sorted):
    idx = np.searchsorted(v_sorted, u)
    lo = np.abs(u - v_sorted[np.clip(idx - 1, 0, len(v_sorted) - 1)])
    hi = np.abs(u - v_sorted[np.clip(idx, 0, len(v_sorted) - 1)])
    return float(np.minimum(lo, hi).max())


def _hausdorff_1d(a, b):
    a, b = np.sort(a), np.sort(b)
    return max(_directed_1d(a, b), _directed_1d(b, a))


def hausdorff(a, b):
    """Componentwise Hausdorff distance between two finite point sets.

    The e1 part is the real Hausdorff distance of the e1 projections and
    likewise for e2; the hyperbolic-valued combination is not a metric,
    which is why it only serves as a yardstick.
    """
    a, b = PointSet.of(a), PointSet.of(b)
    if not len(a) or not len(b):
        raise EmptySet("hausdorff distance needs two nonempty sets")
    return Hyperbolic(_hausdorff_1d(a.e1, b.e1), _hausdorff_1d(a.e2, b.e2))
