"""The block engine against scalar reference loops, bit for bit.

Every variant must give the PointCloud (points and tallies) of a plain
one-step-at-a-time loop over the same xoshiro256++ stream.  Generated
cases shrink the engine's block size so that block edges, burn-in across
an edge and iteration counts next to a multiple of the block are cheap
to reach; the explicit examples run at the real BLOCK.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitchaos import chaos
from splitchaos.chaos import (
    PointCloud,
    RunConfig,
    Variant,
    cumulative,
    select_index,
    select_indices,
)
from splitchaos.checks import replay_component_game
from splitchaos.ifs import AffineContraction, HyperbolicIFS
from splitchaos.numbers import Hyperbolic
from splitchaos.probability import HyperbolicDistribution, accumulated_distribution, marginals
from splitchaos.rng import Xoshiro256PP
from conftest import TRIANGLE_MAPS


def reference_single_selection(ifs, cfg):
    """The scalar whole-map game: one draw, one selection, one step at a time."""
    probs = accumulated_distribution(ifs.dist).probs
    cum = cumulative(probs)
    coeffs = [(f.kappa.e1, f.kappa.e2, f.beta.e1, f.beta.e2) for f in ifs.maps]
    counts = [0] * len(coeffs)
    rng = Xoshiro256PP(cfg.seed)
    next_float = rng.next_float
    burn_in = cfg.burn_in
    x1 = cfg.start.e1
    x2 = cfg.start.e2
    out1 = []
    out2 = []
    for i in range(cfg.iterations):
        u = next_float()
        j = 0
        for c in cum:
            if u < c:
                break
            j += 1
        if j == len(cum):
            j -= 1
        counts[j] += 1
        c1, c2, b1, b2 = coeffs[j]
        x1 = c1 * x1 + b1
        x2 = c2 * x2 + b2
        if i >= burn_in:
            out1.append(x1)
            out2.append(x2)
    return PointCloud(
        np.asarray(out1, dtype=np.float64),
        np.asarray(out2, dtype=np.float64),
        cfg,
        np.asarray(counts, dtype=np.int64),
    )


def reference_d_chaos(ifs, cfg):
    """The split game from the two component replays plus a scalar pair tally."""
    cum1, cum2 = (cumulative(m.probs) for m in marginals(ifs.dist))
    n = len(ifs.maps)
    counts = np.zeros(n * n, dtype=np.int64)
    rng = Xoshiro256PP(cfg.seed)
    for _ in range(cfg.iterations):
        s = select_index(cum1, rng.next_float())
        t = select_index(cum2, rng.next_float())
        counts[s * n + t] += 1
    return PointCloud(
        replay_component_game(ifs, cfg, component=0),
        replay_component_game(ifs, cfg, component=1),
        cfg,
        counts,
    )


def _system(maps, w1, w2):
    s1 = sum(w1)
    s2 = sum(w2)
    probs = [
        Hyperbolic(a / s1 if s1 else 0.0, b / s2 if s2 else 0.0) for a, b in zip(w1, w2)
    ]
    return HyperbolicIFS(tuple(maps), HyperbolicDistribution.validate(probs))


# Ten equal weights: the cumulative sum rounds to 0.9999999999999999.
TENTHS = _system([TRIANGLE_MAPS[i % 3] for i in range(10)], [1] * 10, [1] * 10)
# Zero-width bins at both ends and in the middle, in both components.
GAPPED = _system(TRIANGLE_MAPS + TRIANGLE_MAPS[:2], [0, 2, 0, 3, 0], [1, 0, 0, 4, 0])
ONE_MAP = _system(TRIANGLE_MAPS[:1], [1], [1])
assert cumulative(accumulated_distribution(TENTHS.dist).probs)[-1] < 1.0

contraction = st.builds(
    AffineContraction,
    st.builds(Hyperbolic, st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True)),
    st.builds(Hyperbolic, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)


@st.composite
def systems(draw, full):
    """A random system; zero weights make zero-width bins, equal ones may sum below 1."""
    n = draw(st.integers(1, 10))
    maps = draw(st.lists(contraction, min_size=n, max_size=n))
    weights = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
    w1 = draw(weights)
    w2 = draw(weights)
    if not full:
        dead = draw(st.sampled_from([None, 1, 2]))
        if dead == 1:
            w1 = [0] * n
        elif dead == 2:
            w2 = [0] * n
    return _system(maps, w1, w2)


@st.composite
def games(draw, variant):
    """(ifs, cfg, block) with the run lengths around one or a few block edges."""
    ifs = draw(systems(full=variant is Variant.D_CHAOS))
    block = draw(st.sampled_from([1, 2, 3, 8]))
    near_edge = st.sampled_from([block - 1, block, block + 1, 2 * block + 1])
    iterations = draw(st.one_of(near_edge, st.integers(1, 5 * block + 2)).filter(lambda k: k > 0))
    late = st.integers(min(block, iterations - 1), iterations - 1)
    burn_in = draw(st.one_of(st.just(0), late, st.integers(0, iterations - 1)))
    seed = draw(st.integers(0, 2**64 - 1))
    start = Hyperbolic(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    return ifs, RunConfig(variant, seed, iterations, burn_in=burn_in, start=start), block


def at_real_block(variant, ifs):
    """Explicit cases at the engine's own BLOCK: BLOCK-1, BLOCK and BLOCK+1 steps."""

    def decorate(test):
        edges = [(chaos.BLOCK - 1, 0), (chaos.BLOCK, 100), (chaos.BLOCK + 1, chaos.BLOCK)]
        for seed, (k, b) in enumerate(edges):
            test = example(game=(ifs, RunConfig(variant, seed, k, burn_in=b), chaos.BLOCK))(test)
        return test

    return decorate


def _check(reference, game):
    ifs, cfg, block = game
    with mock.patch.object(chaos, "BLOCK", block):
        got = chaos.run(ifs, cfg)
    assert got == reference(ifs, cfg)


@at_real_block(Variant.CLASSICAL, TENTHS)
@example(game=(ONE_MAP, RunConfig(Variant.CLASSICAL, 5, 7, burn_in=0), 3))
@settings(max_examples=60, deadline=None)
@given(game=games(Variant.CLASSICAL))
def test_engine_matches_reference_classical(game):
    _check(reference_single_selection, game)


@at_real_block(Variant.HYPERBOLIC, GAPPED)
@example(game=(TENTHS, RunConfig(Variant.HYPERBOLIC, 6, 9, burn_in=4), 4))
@settings(max_examples=60, deadline=None)
@given(game=games(Variant.HYPERBOLIC))
def test_engine_matches_reference_hyperbolic(game):
    _check(reference_single_selection, game)


@at_real_block(Variant.D_CHAOS, GAPPED)
@example(game=(ONE_MAP, RunConfig(Variant.D_CHAOS, 7, 9, burn_in=0), 2))
@settings(max_examples=60, deadline=None)
@given(game=games(Variant.D_CHAOS))
def test_engine_matches_reference_d_chaos(game):
    _check(reference_d_chaos, game)


# The largest draw next_float can return.
LAST_DRAW = 1.0 - 2.0**-53


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.integers(0, 4), min_size=1, max_size=10).filter(any),
    others=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
)
def test_select_indices_matches_select_index(weights, others):
    total = sum(weights)
    cum = cumulative([w / total for w in weights])
    # Draws exactly on every bin edge, either side of it, and past the last sum.
    edges = [np.nextafter(c, d) for c in cum for d in (0.0, 2.0)]
    draws = [x for x in [0.0, LAST_DRAW, *cum, *edges, *others] if 0.0 <= x < 1.0]
    assert select_indices(cum, np.array(draws)).tolist() == [select_index(cum, x) for x in draws]


def test_select_indices_clamps_rounding_overrun():
    cum = [0.4, 0.9999999999999999]
    assert select_indices(cum, np.array([0.4, cum[-1], LAST_DRAW])).tolist() == [1, 1, 1]
