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
flow, and works on those arrays.  The union-of-images step holds each
coordinate x as the integer-valued float64 key rint(x * 2^40), applies
every map to every key at once, and removes duplicates with a lexsort
and an adjacent-difference mask.  The points and their order are bit
for bit those of a scalar loop over a set of round() key pairs;
tests/test_oracle.py holds that loop as the reference.
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
    """Contraction factor outside [0, 1) in some component."""


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
        e1, e2 = np.array([(p.e1, p.e2) for p in points], dtype=np.float64).reshape(-1, 2).T
        return PointSet(e1, e2)

    def __len__(self):
        return len(self.e1)

    def __getitem__(self, i):
        return Hyperbolic(float(self.e1[i]), float(self.e2[i]))

    def __iter__(self):
        return map(Hyperbolic, self.e1.tolist(), self.e2.tolist())

    def __eq__(self, other):
        if not isinstance(other, (PointSet, Sequence)):
            return NotImplemented
        return list(self) == list(other)


def coefficients(maps):
    """kappa and beta of every map as two (2, n) float64 arrays, row 0 for e1."""
    kappa = np.array([(f.kappa.e1, f.kappa.e2) for f in maps], dtype=np.float64).reshape(-1, 2).T
    beta = np.array([(f.beta.e1, f.beta.e2) for f in maps], dtype=np.float64).reshape(-1, 2).T
    return kappa, beta


def _snap(x):
    # Integer-valued float64 keys: rint rounds half to even like round(),
    # and float64 holds every such integer exactly, where int64 would
    # overflow once |x| >= 2**23.  Adding 0.0 turns rint's -0.0 into 0.0.
    keys = np.rint(x * SNAP) + 0.0
    if not np.isfinite(keys).all():
        raise ValueError("point set leaves the float range of the snapping grid")
    return keys


def _unique_sorted(k1, k2):
    order = np.lexsort((k2, k1))
    k1 = k1[order]
    k2 = k2[order]
    new = np.ones(len(k1), dtype=bool)
    new[1:] = (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])
    return k1[new], k2[new]


def iterate_hutchinson(maps, points, depth):
    """Apply the union-of-images step `depth` times; return a PointSet.

    Each step maps every point by every map, snaps the images to the
    SNAP grid and de-duplicates them.  The result is sorted by (e1, e2),
    so the operation is deterministic.  Starting from any point, depth
    iterations land within max_factor**depth * diameter of the
    attractor, so deep iterates serve as a reference sample of it.
    """
    points = PointSet.of(points)
    if not len(points):
        raise EmptySet("hutchinson iteration needs a nonempty point set")
    kappa, beta = coefficients(maps)
    # An overflow surfaces as a non-finite key, which _snap rejects.
    with np.errstate(over="ignore"):
        keys = _unique_sorted(_snap(points.e1), _snap(points.e2))
        for _ in range(depth):
            # Every map at once, rounded as the scalar c*x + b: multiply, then add.
            e1, e2 = (np.multiply.outer(kappa[c], keys[c] / SNAP) + beta[c][:, None] for c in (0, 1))
            keys = _unique_sorted(_snap(e1.ravel()), _snap(e2.ravel()))
    return PointSet(keys[0] / SNAP, keys[1] / SNAP)


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
