"""Self-checks for a system: attractor membership, tallies, decoupling.

These back the `verify` command.  Each check compares a seeded game
against an independent yardstick: the union-of-images sample named by
the game's own selections (see attractor_membership), binomial bounds on
the selection tallies (these two share one hyperbolic game), and a
replay of the split game's e1 coordinate as a plain one-dimensional
game.  No sample is built: nearest_componentwise, the cKDTree query the
tests hold the membership certificate to, alone loads scipy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chaos import (
    RunConfig,
    Variant,
    cumulative,
    run_d_chaos,
    run_hyperbolic,
    select_index,
)
# iterate_hutchinson is not called here; bench/traced.py wraps checks.iterate_hutchinson by name.
from .ifs import coefficients, grid_step, iterate_hutchinson
from .probability import Mode, accumulated_distribution, marginals
from .rng import Xoshiro256PP

ORACLE_DEPTH = 12
MEMBERSHIP_TOL = 2.0**-10
MEMBERSHIP_MAX_OUTLIERS = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def nearest_componentwise(cloud, reference):
    """Max-component distance from each cloud point to its nearest reference point.

    Both arguments are PointSets; a PointCloud is one.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(np.column_stack([reference.e1, reference.e2]))
    dist, _ = tree.query(np.column_stack([cloud.e1, cloud.e2]), p=np.inf, workers=-1)
    return dist


def certificate_depth(maps):
    """Smallest D >= ORACLE_DEPTH with K^D * R <= MEMBERSHIP_TOL / 2.

    K is the largest factor and R = max|beta| / (1 - K) bounds every orbit
    from 0, so a point of a game from 0 lies within K^D * R of the image of
    0 under its last D maps; the other half of the tolerance absorbs
    snapping and rounding.  Raises the grid's ValueError if R * 2^40 is not.
    """
    kappa, beta = coefficients(maps)
    k = float(kappa.max())
    radius = float(np.abs(beta).max()) / (1.0 - k)
    grid_step(1.0, radius, 0.0)  # R itself must fit the 2^-40 grid.
    if k == 0.0 or radius == 0.0:
        return ORACLE_DEPTH
    return max(ORACLE_DEPTH, math.ceil(math.log2(radius / (MEMBERSHIP_TOL / 2)) / -math.log2(k)))


def address_points(maps, cloud, depth):
    """The sample points named by the game's own selections, one per recorded point.

    Recorded point r comes from iteration n = burn_in + r, so it is the
    image of an earlier point under the maps picked at iterations
    n - depth + 1, ..., n.  Applying them in that order to 0 with
    ifs.grid_step, the step iterate_hutchinson takes, gives a member of
    iterate_hutchinson(maps, [ZERO], depth), bit for bit.
    Needs cloud.picks.  Returns the first recorded index with depth
    selections behind it (len(cloud) if none has) and the e1/e2 arrays
    of its point and every later one.
    """
    burn_in = cloud.config.burn_in
    first = min(max(depth - 1 - burn_in, 0), len(cloud))
    m = len(cloud) - first
    if not m:
        return first, np.zeros(0), np.zeros(0)
    lo = burn_in + first - depth + 1
    kappa, beta = coefficients(maps)
    x = (np.zeros(m), np.zeros(m))
    for j in range(lo, lo + depth):
        pick = cloud.picks[j : j + m]
        x = tuple(grid_step(kappa[c][pick], x[c], beta[c][pick]) for c in (0, 1))
    return first, x[0], x[1]


def attractor_membership(ifs, cloud):
    """Nearly all recorded points of a game must sit by the attractor.

    Of the points with D = certificate_depth selections behind them, one is
    inside when its address point, a member of the depth-D sample, lies
    within MEMBERSHIP_TOL.  So the fraction equals an exact query against
    the sample for a game from 0; from a far start, early points beyond the
    tolerance count as outliers, which makes it an upper bound.  Raises
    ValueError without picks or without a point with D selections behind it.
    """
    if cloud.picks is None:
        raise ValueError("attractor membership needs the map picked at every iteration")
    depth = certificate_depth(ifs.maps)
    first, a1, a2 = address_points(ifs.maps, cloud, depth)
    if first == len(cloud):
        raise ValueError(f"no recorded point has the {depth} selections its address needs")
    bound = np.maximum(np.abs(cloud.e1[first:] - a1), np.abs(cloud.e2[first:] - a2))
    fraction = np.count_nonzero(~(bound <= MEMBERSHIP_TOL)) / len(bound)
    passed = fraction < MEMBERSHIP_MAX_OUTLIERS
    return CheckResult(
        "attractor-membership",
        passed,
        f"{fraction:.2e} of points beyond 2^-10 of the depth-{depth} sample"
        f" (limit {MEMBERSHIP_MAX_OUTLIERS:.0e})",
    )


def tally_convergence(ifs, cloud):
    """Per-map selection tallies of a whole-map game must sit within 3 sigma of expectation."""
    iterations = cloud.config.iterations
    probs = accumulated_distribution(ifs.dist).probs
    worst = 0.0
    for count, p in zip(cloud.selection_counts, probs):
        sigma = math.sqrt(iterations * p * (1.0 - p))
        if sigma == 0.0:
            if count != iterations * p:
                worst = math.inf
            continue
        worst = max(worst, abs(count - iterations * p) / sigma)
    return CheckResult(
        "tally-convergence",
        worst <= 3.0,
        f"worst tally deviation {worst:.2f} sigma (limit 3)",
    )


def replay_component_game(ifs, cfg, component=0):
    """One-dimensional game on a single component, from the shared stream.

    Draws per step exactly as the split game does (e1 selection first,
    then e2) and advances only the requested component, yielding the
    coordinate sequence the split run must reproduce.  A plain scalar
    loop over select_index: the reference the block engine is held to.
    """
    m1, m2 = marginals(ifs.dist)
    cums = [cumulative(m1.probs), cumulative(m2.probs)]
    coeffs = [
        [(f.kappa.e1, f.beta.e1) for f in ifs.maps],
        [(f.kappa.e2, f.beta.e2) for f in ifs.maps],
    ]
    rng = Xoshiro256PP(cfg.seed)
    x = (cfg.start.e1, cfg.start.e2)[component]
    out = []
    for i in range(cfg.iterations):
        picks = [select_index(cums[0], rng.next_float()), select_index(cums[1], rng.next_float())]
        c, b = coeffs[component][picks[component]]
        x = c * x + b
        if i >= cfg.burn_in:
            out.append(x)
    return np.asarray(out, dtype=np.float64)


def decoupling(ifs, iterations, seed):
    """The split game's e1 orbit must equal the 1D replay bit for bit."""
    if ifs.dist.mode is not Mode.FULL:
        return CheckResult("decoupling", True, "skipped: distribution is not FULL mode")
    cfg = RunConfig(Variant.D_CHAOS, seed, iterations)
    cloud = run_d_chaos(ifs, cfg)
    replay = replay_component_game(ifs, cfg, component=0)
    passed = np.array_equal(cloud.e1, replay)
    return CheckResult(
        "decoupling",
        passed,
        "e1 orbit matches the one-dimensional replay exactly"
        if passed
        else "e1 orbit differs from the one-dimensional replay",
    )


def run_all(ifs, iterations, seed):
    """Every check; membership and tallies share one hyperbolic game."""
    cloud = run_hyperbolic(ifs, RunConfig(Variant.HYPERBOLIC, seed, iterations), keep_picks=True)
    return [
        attractor_membership(ifs, cloud),
        tally_convergence(ifs, cloud),
        decoupling(ifs, iterations, seed),
    ]
