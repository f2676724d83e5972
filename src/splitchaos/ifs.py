"""Affine contractions on the hyperbolic plane and their iterated systems.

A map xi -> kappa*xi + beta contracts componentwise whenever both parts
of kappa sit in [0, 1).  Because the action is componentwise, the e1
action of one contraction can be spliced with the e2 action of another
and the result is again a contraction whose factor mixes the two.

The set-valued machinery (union-of-images step, componentwise Hausdorff
distance) is used as a measuring stick for attractors, not for control
flow.
"""

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


def hutchinson_step(maps, points):
    """Union of the images of every point under every map.

    Points are snapped to the SNAP grid and de-duplicated; the result is
    sorted by (e1, e2) so the operation is deterministic.
    """
    return iterate_hutchinson(maps, points, 1)


def iterate_hutchinson(maps, points, depth):
    """Apply the union-of-images step `depth` times.

    Starting from any point, depth iterations land within
    max_factor**depth * diameter of the attractor, so deep iterates
    serve as a reference sample of it.
    """
    points = list(points)
    if not points:
        raise EmptySet("hutchinson iteration needs a nonempty point set")
    coeffs = [(f.kappa.e1, f.kappa.e2, f.beta.e1, f.beta.e2) for f in maps]
    keys = {_snap_key(p.e1, p.e2) for p in points}
    for _ in range(depth):
        keys = _step_keys(coeffs, keys)
    return _keys_to_points(keys)


def _directed_1d(u, v_sorted):
    idx = np.searchsorted(v_sorted, u)
    lo = np.abs(u - v_sorted[np.clip(idx - 1, 0, len(v_sorted) - 1)])
    hi = np.abs(u - v_sorted[np.clip(idx, 0, len(v_sorted) - 1)])
    return float(np.minimum(lo, hi).max())


def _hausdorff_1d(a, b):
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    return max(_directed_1d(a, b), _directed_1d(b, a))


def hausdorff(a, b):
    """Componentwise Hausdorff distance between two finite point sets.

    The e1 part is the real Hausdorff distance of the e1 projections and
    likewise for e2; the hyperbolic-valued combination is not a metric,
    which is why it only serves as a yardstick.
    """
    a = list(a)
    b = list(b)
    if not a or not b:
        raise EmptySet("hausdorff distance needs two nonempty sets")
    d1 = _hausdorff_1d([p.e1 for p in a], [p.e1 for p in b])
    d2 = _hausdorff_1d([p.e2 for p in a], [p.e2 for p in b])
    return Hyperbolic(d1, d2)
