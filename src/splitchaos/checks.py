"""Self-checks for a system: attractor membership, tallies, decoupling.

These back the `verify` command.  Each check compares a seeded game
against an independent yardstick: the union-of-images sample, which the
orbit's own steps show each point to be near (see attractor_membership),
binomial bounds on the selection tallies (these two share one hyperbolic
game), and a replay of the split game's e1 coordinate as a plain
one-dimensional game.  No sample is built.

bench/traced.py times names here by wrapping them: run_hyperbolic and
run_d_chaos, aliases of chaos.run for verify's two games, and
iterate_hutchinson and nearest_componentwise, which no command calls.
nearest_componentwise, the cKDTree query the tests hold the membership
certificate to, imports scipy: only the test extra installs it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chaos import RunConfig, Variant, cumulative, run, select_index
from .ifs import coefficients, grid_step, iterate_hutchinson  # iterate_hutchinson: for the bench
from .probability import Mode, accumulated_distribution, marginals
from .rng import Xoshiro256PP

run_hyperbolic = run_d_chaos = run  # two names, so the bench can time each game

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


def _reach(kappa, beta):
    """K, the largest factor, and R = max|beta| / (1 - K), which bounds every orbit from 0."""
    k = float(kappa.max())
    return k, float(np.abs(beta).max()) / (1.0 - k)


def certificate_depth(maps):
    """Smallest D >= ORACLE_DEPTH with K^D * R <= MEMBERSHIP_TOL / 2.

    A point of a game from 0 lies within K^D * R of the image of 0 under
    its last D maps; the other half of the tolerance absorbs snapping and
    rounding.  Raises the grid's ValueError if R * 2^40 is not finite.
    """
    k, radius = _reach(*coefficients(maps))
    grid_step(1.0, radius, 0.0)  # R itself must fit the 2^-40 grid.
    if k == 0.0 or radius == 0.0:
        return ORACLE_DEPTH
    return max(ORACLE_DEPTH, math.ceil(math.log2(radius / (MEMBERSHIP_TOL / 2)) / -math.log2(k)))


def attractor_membership(ifs, cloud):
    """Nearly all recorded points of a whole-map game must sit by the attractor.

    Of the points with D = certificate_depth selections behind them, one is
    inside when each of its last D steps applies some map, bit for bit, and
    K^D * |y| plus rounding drift is within MEMBERSHIP_TOL, y being the point
    those steps started from: the same maps take 0 to a point of the depth-D
    sample within that distance.  The burn-in and the step into the first
    recorded point are not recorded, so they are taken as played; a
    burn-in point j steps from the start lies within K^j * |start| + R.  So
    the fraction is never below an exact query against the sample, equals it
    for a correct game from 0, and is an upper bound from a far start.
    Raises ValueError when no point has D selections behind it.
    """
    depth = certificate_depth(ifs.maps)
    cfg = cloud.config
    n = len(cloud)
    first = max(depth - 1 - cfg.burn_in, 0)
    if first >= n:
        raise ValueError(f"no recorded point has the {depth} selections its certificate needs")
    kappa, beta = coefficients(ifs.maps)
    k, radius = _reach(kappa, beta)
    start = max(abs(cfg.start.e1), abs(cfg.start.e2))
    x1, x2 = cloud.e1, cloud.e2

    # Step r leads into point r; step 0 is taken as played.  numpy's separate
    # multiply and add round as the engine's scalar k*x + b does.
    holds = np.zeros(n, dtype=bool)
    holds[0] = True
    for i in range(len(ifs.maps)):
        step = x1[1:] == kappa[0, i] * x1[:-1] + beta[0, i]
        step &= x2[1:] == kappa[1, i] * x2[:-1] + beta[1, i]
        holds[1:] |= step
    # The broken steps in the window of point r, steps r - D + 1 .. r.
    window = np.cumsum(~holds)
    window[depth:] -= window[:-depth].copy()

    # y is point r - D; before point D it is the burn-in point
    # j = burn_in + r + 1 - D steps from the start.
    late = max(n - depth, 0)
    j = np.arange(first, n - late) + (cfg.burn_in + 1 - depth)
    y = np.concatenate((k**j * start + radius, np.maximum(np.abs(x1[:late]), np.abs(x2[:late]))))
    # Drift: per map, the game and the sample each round k*x + b twice, by
    # at most 2^-53 * M with M the largest |x|, and the sample snaps to the
    # 2^-40 grid, by at most 2^-41; the gap then contracts by K.  2^-50, not
    # 2^-51, leaves room for the rounding of the bounds themselves.
    largest = max(float(np.abs(x1).max()), float(np.abs(x2).max()), start + radius)
    drift = (2.0**-41 + 2.0**-50 * largest) / (1.0 - k)
    inside = k**depth * y + drift <= MEMBERSHIP_TOL
    inside &= window[first:] == 0
    fraction = np.count_nonzero(~inside) / len(inside)
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
    cloud = run_hyperbolic(ifs, RunConfig(Variant.HYPERBOLIC, seed, iterations))
    return [
        attractor_membership(ifs, cloud),
        tally_convergence(ifs, cloud),
        decoupling(ifs, iterations, seed),
    ]
