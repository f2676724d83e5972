"""Shannon entropy and its two hyperbolic-valued generalizations.

All three are one sum, -sum(w * log(q)) in nats with the 0*log(0) = 0
convention, taken per component for the hyperbolic forms.  The weak form
logs each weight's accumulated real probability; the strong form logs
the weight's own component, so each of its parts is Shannon's sum over
that component's weights: for FULL mode, a component marginal's entropy.
"""

import math
from dataclasses import dataclass

from .numbers import Hyperbolic, embed
from .probability import (
    Mode,
    NotFullMode,
    accumulated,
    pair_distribution,
    pair_hyperbolic_distribution,
)

# Added to the right-hand side of the inequality checks so equality cases
# computed in floating point are not reported as violations.
INEQ_SLACK = 1e-12


def _entropy_sum(weights, args):
    # -sum(w * log(q)) over paired weights and arguments; q == 0 adds 0 (0*log(0) = 0).
    total = 0.0
    for w, q in zip(weights, args):
        if q != 0.0:
            total -= w * math.log(q)
    return total


def shannon(d):
    """Shannon entropy (nats) of a RealDistribution."""
    return _entropy_sum(d.probs, d.probs)


def weak_entropy(d):
    """Sum of -rho * log~(accumulated(rho)) over the distribution.

    Terms whose accumulated probability is zero carry no mass and
    contribute nothing.
    """
    p = [accumulated(rho) for rho in d]
    return Hyperbolic(_entropy_sum((r.e1 for r in d), p), _entropy_sum((r.e2 for r in d), p))


def strong_entropy(d):
    """Sum of -rho * Log(rho) with the zero convention per component.

    Each part is Shannon's sum over that component's weights.  Works in
    any mode: a dead component contributes 0 through the convention.
    """
    e1, e2 = zip(*((rho.e1, rho.e2) for rho in d))
    return Hyperbolic(_entropy_sum(e1, e1), _entropy_sum(e2, e2))


@dataclass(frozen=True)
class EntropyReport:
    """Entropies of a FULL distribution and of its two pair distributions.

    h_q is the Shannon entropy of the real pair-product distribution;
    h_k the strong entropy of the hyperbolic pair distribution.  The
    flags record whether the strong entropy is componentwise bounded by
    each of them.
    """

    h_strong: Hyperbolic
    h_weak: Hyperbolic
    h_q: float
    h_k: Hyperbolic
    ineq_q: bool
    ineq_k: bool


def verify_inequalities(d):
    """Compute the entropy report for a FULL-mode distribution."""
    if d.mode is not Mode.FULL:
        raise NotFullMode(f"entropy report requires FULL mode, got {d.mode.value}")
    h_strong = strong_entropy(d)
    h_weak = weak_entropy(d)
    h_q = shannon(pair_distribution(d))
    h_k = strong_entropy(pair_hyperbolic_distribution(d))
    ineq_q = h_strong <= embed(h_q + INEQ_SLACK)
    ineq_k = h_strong <= h_k + embed(INEQ_SLACK)
    return EntropyReport(h_strong, h_weak, h_q, h_k, ineq_q, ineq_k)
