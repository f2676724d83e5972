"""Self-checks for a system: attractor membership, tallies, decoupling.

These back the `verify` command.  Each check compares a seeded game
against an independent yardstick: a deep union-of-images sample of the
attractor, binomial bounds on the selection tallies (these two share one
hyperbolic game), and a replay of the split game's e1 coordinate as a
plain one-dimensional game.

The membership check queries a cKDTree; scipy is imported inside
nearest_componentwise, so `generate` and `entropy` never load it.
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
from .ifs import iterate_hutchinson
from .numbers import ZERO
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

    Both arguments carry e1/e2 arrays (a PointCloud, a PointSet).
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(np.column_stack([reference.e1, reference.e2]))
    dist, _ = tree.query(np.column_stack([cloud.e1, cloud.e2]), p=np.inf, workers=-1)
    return dist


def attractor_membership(ifs, cloud):
    """Nearly all recorded points of a game must sit by the deep attractor sample."""
    oracle = iterate_hutchinson(ifs.maps, [ZERO], ORACLE_DEPTH)
    dist = nearest_componentwise(cloud, oracle)
    fraction = float(np.mean(dist > MEMBERSHIP_TOL))
    passed = fraction < MEMBERSHIP_MAX_OUTLIERS
    return CheckResult(
        "attractor-membership",
        passed,
        f"{fraction:.2e} of points beyond 2^-10 of the depth-{ORACLE_DEPTH} sample"
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
