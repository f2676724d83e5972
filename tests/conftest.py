import random

import pytest

from splitchaos.chaos import cumulative, select_index
from splitchaos.ifs import AffineContraction, HyperbolicIFS
from splitchaos.numbers import Hyperbolic, embed
from splitchaos.probability import HyperbolicDistribution, accumulated_distribution
from splitchaos.rng import Xoshiro256PP

# Three-map system: half-scale contractions with translations
# (0,0), (1/4,1/2), (1/2,0) in (e1,e2) coordinates.
HALF = embed(0.5)
TRIANGLE_MAPS = (
    AffineContraction(HALF, Hyperbolic(0.0, 0.0)),
    AffineContraction(HALF, Hyperbolic(0.25, 0.5)),
    AffineContraction(HALF, Hyperbolic(0.5, 0.0)),
)

LOPSIDED_PROBS = (
    Hyperbolic(0.1, 0.25),
    Hyperbolic(0.3, 0.2),
    Hyperbolic(0.6, 0.55),
)


@pytest.fixture
def lopsided():
    """Three-outcome FULL distribution with different component weights."""
    return HyperbolicDistribution.validate(LOPSIDED_PROBS)


@pytest.fixture
def uniform_thirds():
    return HyperbolicDistribution.validate([embed(1.0 / 3.0)] * 3)


@pytest.fixture
def triangle_ifs(uniform_thirds):
    return HyperbolicIFS(TRIANGLE_MAPS, uniform_thirds)


@pytest.fixture
def triangle_ifs_lopsided(lopsided):
    return HyperbolicIFS(TRIANGLE_MAPS, lopsided)


def random_full(rnd: random.Random, n: int) -> HyperbolicDistribution:
    """Random FULL-mode distribution: two normalized positive weight lists."""
    raw1 = [rnd.random() + 1e-12 for _ in range(n)]
    raw2 = [rnd.random() + 1e-12 for _ in range(n)]
    s1 = sum(raw1)
    s2 = sum(raw2)
    probs = [Hyperbolic(a / s1, b / s2) for a, b in zip(raw1, raw2)]
    return HyperbolicDistribution.validate(probs)


def reference_picks(ifs, cfg):
    """The whole map the scalar game selects at every iteration, burn-in included."""
    cum = cumulative(accumulated_distribution(ifs.dist).probs)
    rng = Xoshiro256PP(cfg.seed)
    return [select_index(cum, rng.next_float()) for _ in range(cfg.iterations)]
