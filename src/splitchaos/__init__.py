"""splitchaos: split-complex arithmetic, hyperbolic probability and entropy,
and chaos-game fractal generation."""

from .chaos import PointCloud, RunConfig, Variant, run
from .entropy import EntropyReport, shannon, strong_entropy, verify_inequalities, weak_entropy
from .ifs import AffineContraction, HyperbolicIFS, PointSet, hausdorff, iterate_hutchinson, splice
from .numbers import E1, E2, ONE, ZERO, Hyperbolic, Order, embed
from .probability import (
    HyperbolicDistribution,
    Mode,
    RealDistribution,
    accumulated,
    accumulated_distribution,
    marginals,
    pair_distribution,
    pair_hyperbolic_distribution,
)
from .rng import Xoshiro256PP
from .specfile import bundled_spec, load_spec, parse_spec

__version__ = "0.1.0"

__all__ = [
    "AffineContraction",
    "E1",
    "E2",
    "EntropyReport",
    "Hyperbolic",
    "HyperbolicDistribution",
    "HyperbolicIFS",
    "Mode",
    "ONE",
    "Order",
    "PointCloud",
    "PointSet",
    "RealDistribution",
    "RunConfig",
    "Variant",
    "Xoshiro256PP",
    "ZERO",
    "accumulated",
    "accumulated_distribution",
    "bundled_spec",
    "embed",
    "hausdorff",
    "iterate_hutchinson",
    "load_spec",
    "marginals",
    "pair_distribution",
    "pair_hyperbolic_distribution",
    "parse_spec",
    "run",
    "shannon",
    "splice",
    "strong_entropy",
    "verify_inequalities",
    "weak_entropy",
]
