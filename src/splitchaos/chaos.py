"""The three chaos-game variants over a hyperbolic IFS, played by one engine.

Each run is a deterministic function of (ifs, config): the seed drives a
splitmix64-seeded xoshiro256++ stream, map selection inverts the
cumulative probabilities with right-open bins (first index whose
cumulative sum strictly exceeds the draw, last index as a guard against
rounding), and the orbit is iterated componentwise.

The classical and hyperbolic variants select one whole map per step from
the real selection probabilities of the weight list.  The split variant
draws the e1-component map and the e2-component map independently, one
draw each in that order, from the two component marginals, so its e1
orbit is exactly the one-dimensional chaos game of the e1 components and
likewise for e2.

All three run through one engine that works in blocks of BLOCK steps: it
draws the block's floats in stream order, selects with select_indices,
min(searchsorted(cum, u, side="right"), n - 1), which is the right-open
rule of select_index with its last-bin clamp, tallies with bincount, and
advances each component as its own sequential recurrence in Python
floats, so every point rounds exactly as in a scalar loop.  The scalar
reference is checks.replay_component_game, built on select_index.

A run returns a PointCloud: the ifs.PointSet of its recorded points,
with its config and its selection tallies.  Tallies count from the first
iteration on, burn-in included, while recorded points start after it.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .ifs import PointSet, coefficients
from .numbers import ZERO, Hyperbolic
from .probability import accumulated_distribution, marginals
from .rng import Xoshiro256PP

# Steps per engine block: the draws, selections and orbit of one block
# are held in memory at once.
BLOCK = 1 << 16

# Most points a run may record: two float64 arrays of this length take
# 4 GiB, so larger requests fail fast instead of exhausting memory.
MAX_RECORDED = 1 << 28


class Variant(Enum):
    CLASSICAL = "classical"
    HYPERBOLIC = "hyperbolic"
    D_CHAOS = "d-chaos"


@dataclass(frozen=True)
class RunConfig:
    variant: Variant
    seed: int
    iterations: int
    burn_in: int = 100
    start: Hyperbolic = ZERO

    def __post_init__(self):
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.iterations <= self.burn_in:
            raise ValueError(
                f"iterations ({self.iterations}) must exceed burn_in ({self.burn_in})"
            )
        if self.iterations - self.burn_in > MAX_RECORDED:
            raise ValueError(
                f"iterations - burn_in ({self.iterations - self.burn_in}) exceeds"
                f" the {MAX_RECORDED} points a run may record"
            )


@dataclass(frozen=True, eq=False)
class PointCloud(PointSet):
    """Recorded orbit of one run: a PointSet plus the run that played it.

    e1/e2 hold the idempotent coordinates of the points recorded after
    burn-in, in order.  selection_counts has one tally per map, or one
    per (s, t) pair in row-major order for the split variant, summing to
    the total iteration count.  Which map made each step is not kept:
    the orbit itself shows that some map did.
    """

    config: RunConfig
    selection_counts: np.ndarray = field(repr=False)

    def __eq__(self, other):
        """Point for point as a PointSet; against another cloud, the run too."""
        same = super().__eq__(other)
        if isinstance(other, PointCloud):
            same = same and self.config == other.config
            same = same and np.array_equal(self.selection_counts, other.selection_counts)
        return same


def cumulative(probs):
    """Running left-to-right sums of a probability list."""
    cum = []
    total = 0.0
    for p in probs:
        total += p
        cum.append(total)
    return cum


def select_index(cum, u):
    """First index whose cumulative sum exceeds u; right-open bins.

    Zero-width bins are skipped and draws at or beyond the final sum
    (possible through rounding) fall into the last bin.
    """
    for i, c in enumerate(cum):
        if u < c:
            return i
    return len(cum) - 1


def select_indices(cum, u):
    """select_index over an array of draws, bin for bin.

    searchsorted(side="right") counts the sums at or below each draw,
    which is the first index whose sum exceeds it; the minimum is the
    last-bin clamp.
    """
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def _play(ifs, cfg, cums):
    """The one chaos-game engine: one draw and one selection per entry of cums.

    e1 follows the first selection and e2 the last, so one cumulative
    list plays a whole-map game and two play the split game.  Tallies
    count the selections read as base-n digits, first selection first.
    """
    n = len(ifs.maps)
    per_step = len(cums)
    kappa, beta = coefficients(ifs.maps)
    counts = np.zeros(n**per_step, dtype=np.int64)
    recorded = cfg.iterations - cfg.burn_in
    out = (np.empty(recorded), np.empty(recorded))
    x = [cfg.start.e1, cfg.start.e2]
    next_float = Xoshiro256PP(cfg.seed).next_float
    for lo in range(0, cfg.iterations, BLOCK):
        m = min(BLOCK, cfg.iterations - lo)
        u = np.array([next_float() for _ in range(per_step * m)])
        picks = [select_indices(cum, u[d::per_step]) for d, cum in enumerate(cums)]
        key = picks[0]
        for p in picks[1:]:
            key = key * n + p
        counts += np.bincount(key, minlength=counts.size)
        skip = max(cfg.burn_in - lo, 0)
        for c, pick in enumerate((picks[0], picks[-1])):
            # Python floats, one step after the other: the rounding of a scalar loop.
            ks = kappa[c][pick].tolist()
            bs = beta[c][pick].tolist()
            xc = x[c]
            orbit = [xc := k * xc + b for k, b in zip(ks, bs)]
            x[c] = xc
            if skip < m:
                out[c][lo + skip - cfg.burn_in : lo + m - cfg.burn_in] = orbit[skip:]
    return PointCloud(out[0], out[1], cfg, counts)


def run(ifs, cfg):
    """Play the chaos game named by cfg.variant; the split game needs FULL mode."""
    if cfg.variant is Variant.D_CHAOS:
        dists = marginals(ifs.dist)
    else:
        dists = [accumulated_distribution(ifs.dist)]
    return _play(ifs, cfg, [cumulative(d.probs) for d in dists])
