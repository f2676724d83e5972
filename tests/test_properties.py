"""Property tests: the ring laws that hold exactly in IEEE arithmetic, and
the tolerance edges of HyperbolicDistribution.validate and of the
distributions derived from a validated one."""

import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitchaos.entropy import verify_inequalities
from splitchaos.numbers import E1, E2, ONE, ZERO, Hyperbolic, embed
from splitchaos.probability import (
    SUM_TOL,
    BadSum,
    HyperbolicDistribution,
    MixedMode,
    Mode,
    accumulated_distribution,
    marginals,
    pair_distribution,
)

# Parts small enough that no product or sum of two overflows.
parts = st.floats(min_value=-1e150, max_value=1e150)
numbers = st.builds(Hyperbolic, parts, parts)


def _bits(x):
    return struct.pack("<dd", x.e1, x.e2)


@given(numbers, numbers)
def test_addition_and_multiplication_commute(x, y):
    assert _bits(x + y) == _bits(y + x)
    assert _bits(x * y) == _bits(y * x)


@given(numbers, numbers)
def test_subtraction_adds_the_negation(x, y):
    assert _bits(x - y) == _bits(x + (-y))
    assert _bits(y.e1 - x) == _bits(embed(y.e1) - x)


@given(numbers)
def test_identities(x):
    assert x + ZERO == x and ZERO + x == x
    assert _bits(x * ONE) == _bits(x) and _bits(ONE * x) == _bits(x)
    assert x - x == ZERO
    assert x * ZERO == ZERO


@given(numbers)
def test_idempotents_project(x):
    assert E1 * E1 == E1 and E2 * E2 == E2
    assert E1 * E2 == ZERO and E1 + E2 == ONE
    assert x * E1 == Hyperbolic(x.e1, 0.0) and x * E2 == Hyperbolic(0.0, x.e2)
    assert _bits(x * E1 * E1) == _bits(x * E1)
    assert _bits(x * E2 * E2) == _bits(x * E2)
    assert x * E1 + x * E2 == x


@given(parts, parts)
def test_embed_is_a_homomorphism(a, b):
    assert _bits(embed(a + b)) == _bits(embed(a) + embed(b))
    assert _bits(embed(a - b)) == _bits(embed(a) - embed(b))
    assert _bits(embed(a * b)) == _bits(embed(a) * embed(b))
    assert _bits(embed(-a)) == _bits(-embed(a))


def _last_accepted(direction):
    # The float sum furthest from 1 on this side that SUM_TOL still accepts.
    away = direction * math.inf
    s = 1.0 + direction * SUM_TOL
    while abs(s - 1.0) > SUM_TOL:
        s = math.nextafter(s, 1.0)
    while abs(math.nextafter(s, away) - 1.0) <= SUM_TOL:
        s = math.nextafter(s, away)
    return s


# The components a mode's weights live on.
LIVE = {Mode.FULL: (1.0, 1.0), Mode.E1_ONLY: (1.0, 0.0), Mode.E2_ONLY: (0.0, 1.0)}


def _summing_to(s, mode):
    # Two weights whose live parts sum to exactly s in float: s - 0.5 is exact near 1.
    a, b = LIVE[mode]
    return [Hyperbolic(w * a, w * b) for w in (0.5, s - 0.5)]


def _with_dead_part(mode, dead):
    weights = _summing_to(1.0, mode)
    weights[0] = Hyperbolic(0.5, dead) if mode is Mode.E1_ONLY else Hyperbolic(dead, 0.5)
    return weights


@pytest.mark.parametrize("direction", [-1.0, 1.0])
@pytest.mark.parametrize("mode", list(Mode))
def test_sum_tolerance_edges(direction, mode):
    edge = _last_accepted(direction)
    assert HyperbolicDistribution.validate(_summing_to(edge, mode)).mode is mode
    beyond = math.nextafter(edge, direction * math.inf)
    with pytest.raises(BadSum):
        HyperbolicDistribution.validate(_summing_to(beyond, mode))


@pytest.mark.parametrize("direction", [-1.0, 1.0])
@pytest.mark.parametrize("mode", list(Mode))
def test_derived_distributions_of_edge_sums_are_built(direction, mode):
    edge = _last_accepted(direction)
    d = HyperbolicDistribution.validate(_summing_to(edge, mode))
    assert len(accumulated_distribution(d)) == 2
    if mode is Mode.FULL:
        assert [sum(m.probs) for m in marginals(d)] == [edge, edge]
        # The pair weights sum to edge^2, about 2*SUM_TOL from 1.
        assert abs(sum(pair_distribution(d).probs) - 1.0) > SUM_TOL
        assert verify_inequalities(d).ineq_q


zero_divisor_modes = st.sampled_from([Mode.E1_ONLY, Mode.E2_ONLY])


@given(st.floats(min_value=5e-324, max_value=SUM_TOL), zero_divisor_modes)
def test_nonzero_dead_part_is_mixed_mode(dead, mode):
    with pytest.raises(MixedMode):
        HyperbolicDistribution.validate(_with_dead_part(mode, dead))


@given(st.floats(min_value=SUM_TOL, max_value=0.5, exclude_min=True), zero_divisor_modes)
def test_dead_part_beyond_tolerance_is_bad_sum(dead, mode):
    with pytest.raises(BadSum):
        HyperbolicDistribution.validate(_with_dead_part(mode, dead))
