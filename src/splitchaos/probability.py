"""Finite probability distributions with hyperbolic-valued weights.

A hyperbolic distribution is a nonempty list of values in the unit box
[0, 1]x[0, 1] (idempotent parts) whose sum lands in exactly one of three
states: both parts sum to 1 (FULL), only the e1 parts do (E1_ONLY, all e2
parts zero), or only the e2 parts do (E2_ONLY).  The zero-divisor modes
arise because any weight set summing to 1*e1 must consist of pure-e1
weights, and symmetrically for e2.

Component sums are accepted within SUM_TOL of their target so that
distributions read from decimal files validate; the dead component of a
zero-divisor mode must be exactly zero.
"""

from dataclasses import dataclass
from enum import Enum

from .numbers import Hyperbolic

SUM_TOL = 1e-9


class Mode(Enum):
    FULL = "full"
    E1_ONLY = "e1-only"
    E2_ONLY = "e2-only"


class DistributionError(ValueError):
    """Base class for distribution validation failures."""


class OutOfRange(DistributionError):
    """Some probability lies outside [0, 1] (componentwise)."""


class BadSum(DistributionError):
    """The sum matches none of the three admissible states."""


class MixedMode(DistributionError):
    """Sum indicates a zero-divisor mode but some dead part is nonzero."""


class NotFullMode(DistributionError):
    """Operation requires a FULL-mode distribution."""


@dataclass(frozen=True)
class RealDistribution:
    """Ordinary finite probability distribution over [0, 1] reals."""

    probs: tuple

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        if not probs:
            raise BadSum("distribution must be nonempty")
        for i, p in enumerate(probs):
            if not 0.0 <= p <= 1.0:
                raise OutOfRange(f"probs[{i}] = {p!r} outside [0, 1]")
        total = 0.0
        for p in probs:
            total += p
        if abs(total - 1.0) > SUM_TOL:
            raise BadSum(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)


def _derived(probs):
    # Derived from a validated distribution, so not checked again: pair
    # weights sum to s1*s2, which may lie ~2*SUM_TOL from 1.
    d = object.__new__(RealDistribution)
    object.__setattr__(d, "probs", tuple(probs))
    return d


@dataclass(frozen=True)
class HyperbolicDistribution:
    """Validated hyperbolic probability distribution.

    Build instances through validate(), which classifies the sum state;
    the dataclass constructor trusts its arguments.
    """

    probs: tuple
    mode: Mode

    @classmethod
    def validate(cls, probs):
        """Classify a weight list into its mode or raise a DistributionError."""
        probs = tuple(probs)
        if not probs:
            raise BadSum("distribution must be nonempty")
        for i, rho in enumerate(probs):
            if not (0.0 <= rho.e1 <= 1.0 and 0.0 <= rho.e2 <= 1.0):
                raise OutOfRange(f"probs[{i}] = {rho} outside the unit box")
        sum1 = 0.0
        sum2 = 0.0
        for rho in probs:
            sum1 += rho.e1
            sum2 += rho.e2
        if abs(sum1 - 1.0) <= SUM_TOL and abs(sum2 - 1.0) <= SUM_TOL:
            return cls(probs, Mode.FULL)
        if abs(sum1 - 1.0) <= SUM_TOL and abs(sum2) <= SUM_TOL:
            if any(rho.e2 != 0.0 for rho in probs):
                raise MixedMode("sum is 1*e1 but some e2 part is nonzero")
            return cls(probs, Mode.E1_ONLY)
        if abs(sum2 - 1.0) <= SUM_TOL and abs(sum1) <= SUM_TOL:
            if any(rho.e1 != 0.0 for rho in probs):
                raise MixedMode("sum is 1*e2 but some e1 part is nonzero")
            return cls(probs, Mode.E2_ONLY)
        raise BadSum(
            f"component sums ({sum1!r}, {sum2!r}) match no admissible state"
        )

    def __len__(self):
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)


def accumulated(rho):
    """Real probability carried by a hyperbolic weight: mean of its parts."""
    if not (0.0 <= rho.e1 <= 1.0 and 0.0 <= rho.e2 <= 1.0):
        raise OutOfRange(f"{rho} outside the unit box")
    return (rho.e1 + rho.e2) / 2.0


def accumulated_distribution(d):
    """Real selection distribution of a hyperbolic one.

    FULL mode averages the parts; the zero-divisor modes identify each
    weight with its live component.
    """
    if d.mode is Mode.FULL:
        return _derived(accumulated(rho) for rho in d)
    if d.mode is Mode.E1_ONLY:
        return _derived(rho.e1 for rho in d)
    return _derived(rho.e2 for rho in d)


def marginals(d):
    """The two component distributions (e1 parts, e2 parts) of a FULL one."""
    if d.mode is not Mode.FULL:
        raise NotFullMode(f"marginals require FULL mode, got {d.mode.value}")
    return _derived(rho.e1 for rho in d), _derived(rho.e2 for rho in d)


def pair_distribution(d):
    """Real probabilities of the n^2 independent component pairs (s, t).

    Entry (s, t) is the product of s's e1 part with t's e2 part, flattened
    row-major in (s, t).
    """
    if d.mode is not Mode.FULL:
        raise NotFullMode(f"pair distribution requires FULL mode, got {d.mode.value}")
    return _derived(rs.e1 * rt.e2 for rs in d for rt in d)


def pair_hyperbolic_distribution(d):
    """Hyperbolic weights of the n^2 pairs: (e1 part of s, e2 part of t) / n.

    The result is FULL: each component column sums back to its input sum.
    """
    if d.mode is not Mode.FULL:
        raise NotFullMode(f"pair distribution requires FULL mode, got {d.mode.value}")
    n = len(d)
    probs = tuple(Hyperbolic(rs.e1 / n, rt.e2 / n) for rs in d for rt in d)
    return HyperbolicDistribution(probs, Mode.FULL)
