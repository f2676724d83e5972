"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print.  Expected values come from exact rational oracles (dyadic-cell
measures, frozen high-precision constants) or analytic identities; the
statistical criteria use fixed seeds and their stated sigma bounds.
"""

import hashlib
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from splitchaos.chaos import RunConfig, Variant, run
from splitchaos.checks import nearest_componentwise
from splitchaos.cli import main
from splitchaos.entropy import shannon, strong_entropy, verify_inequalities
from splitchaos.ifs import iterate_hutchinson, splice
from splitchaos.numbers import E1, E2, ONE, ZERO, Hyperbolic, Order, embed
from splitchaos.probability import HyperbolicDistribution, marginals
from splitchaos.raster import rasterize
from splitchaos.specfile import bundled_spec
from conftest import random_full
from test_cli import SIERPINSKI_PATH

LN3 = 1.0986122886681098
MILLION = 1_000_000


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sierpinski():
    return bundled_spec("sierpinski")


@pytest.fixture(scope="module")
def lopsided_ifs():
    return bundled_spec("sierpinski_hpd2")


@pytest.fixture(scope="module")
def uniform_dchaos(sierpinski):
    cfg = RunConfig(Variant.D_CHAOS, 1001, MILLION)
    return run(sierpinski, cfg)


@pytest.fixture(scope="module")
def lopsided_dchaos(lopsided_ifs):
    cfg = RunConfig(Variant.D_CHAOS, 1002, MILLION)
    return run(lopsided_ifs, cfg)


def test_criterion_1_algebra_suite():
    rnd = random.Random(101)
    start = time.perf_counter()
    ok = E1 * E2 == ZERO and E1 + E2 == ONE
    for _ in range(10_000):
        x = Hyperbolic(rnd.uniform(-50, 50), rnd.uniform(-50, 50))
        y = Hyperbolic(rnd.uniform(-50, 50), rnd.uniform(-50, 50))
        prod = x * y
        ok = ok and prod.e1 == x.e1 * y.e1 and prod.e2 == x.e2 * y.e2
        ok = ok and (x.e1 * E1) * (y.e2 * E2) == ZERO
        a, b = rnd.uniform(-50, 50), rnd.uniform(-50, 50)
        ok = ok and embed(a) + embed(b) == embed(a + b)
        ok = ok and embed(a) * embed(b) == embed(a * b)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, f"idempotent algebra exact over 10^4 cases in {elapsed:.2f}s")


def test_criterion_2_uniform_entropy():
    d = HyperbolicDistribution.validate([embed(1.0 / 3.0)] * 3)
    h = strong_entropy(d)
    ok = abs(h.e1 - LN3) <= 1e-12 and abs(h.e2 - LN3) <= 1e-12
    for n in range(2, 9):
        dn = HyperbolicDistribution.validate([Hyperbolic(1.0 / n, 0.0)] * n)
        hn = strong_entropy(dn)
        ok = ok and abs(hn.e1 - math.log(n)) <= 1e-12 and hn.e2 == 0.0
        dn = HyperbolicDistribution.validate([Hyperbolic(0.0, 1.0 / n)] * n)
        hn = strong_entropy(dn)
        ok = ok and abs(hn.e2 - math.log(n)) <= 1e-12 and hn.e1 == 0.0
    _report(2, ok, "uniform strong entropies hit ln(n) per live component")


def _thousand_distributions():
    rnd = random.Random(777)
    return [random_full(rnd, rnd.randint(2, 8)) for _ in range(1000)]


def test_criterion_3_marginal_identity():
    worst = 0.0
    for d in _thousand_distributions():
        m1, m2 = marginals(d)
        h = strong_entropy(d)
        worst = max(worst, abs(h.e1 - shannon(m1)), abs(h.e2 - shannon(m2)))
    ok = worst <= 1e-12
    _report(3, ok, f"strong components equal marginal entropies (worst gap {worst:.2e})")


def test_criterion_4_pair_inequalities():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for d in _thousand_distributions():
        report = verify_inequalities(d)
        ok = ok and report.ineq_q and report.ineq_k
        n = len(d)
        m1, m2 = marginals(d)
        h1, h2 = shannon(m1), shannon(m2)
        worst = max(
            worst,
            abs(report.h_q - (h1 + h2)),
            abs(report.h_k.e1 - (h1 + math.log(n))),
            abs(report.h_k.e2 - (h2 + math.log(n))),
        )
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-9 and elapsed < 5.0
    _report(
        4,
        ok,
        f"both inequalities hold; additivity oracles match (worst {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_5_sierpinski_reproduction(sierpinski):
    start = time.perf_counter()
    cfg = RunConfig(Variant.HYPERBOLIC, 42, MILLION, burn_in=100)
    cloud = run(sierpinski, cfg)
    oracle = iterate_hutchinson(sierpinski.maps, [ZERO], 12)
    dist = nearest_componentwise(cloud, oracle)
    inside = float(np.mean(dist <= 2.0**-10))
    elapsed = time.perf_counter() - start
    ok = inside >= 0.999 and elapsed < 10.0
    _report(
        5,
        ok,
        f"{100*inside:.4f}% of 10^6 points within 2^-10 of depth-12 sample ({elapsed:.1f}s)",
    )


def test_criterion_6_decoupled_attractor_fills_box(uniform_dchaos):
    h1, _ = np.histogram(uniform_dchaos.e1, bins=64, range=(0.0, 1.0))
    h2, _ = np.histogram(uniform_dchaos.e2, bins=64, range=(0.0, 1.0))
    ok = int(h1.min()) >= 1 and int(h2.min()) >= 1
    _report(
        6,
        ok,
        f"64-bin coordinate histograms have no empty bins (min {h1.min()}, {h2.min()})",
    )


def test_criterion_7_pair_frequencies(lopsided_ifs, lopsided_dchaos):
    m1, m2 = marginals(lopsided_ifs.dist)
    worst = 0.0
    for idx, count in enumerate(lopsided_dchaos.selection_counts):
        p = m1.probs[idx // 3] * m2.probs[idx % 3]
        sigma = math.sqrt(MILLION * p * (1 - p))
        worst = max(worst, abs(count - MILLION * p) / sigma)
    ok = worst <= 3.0
    _report(7, ok, f"9 pair tallies within 3 sigma of products (worst {worst:.2f})")


# -- exact component-measure oracle for criterion 8 ---------------------------

F0 = Fraction(0)
F1 = Fraction(1)


def _dyadic_bin_masses(weights, translations, bins):
    """Exact masses of the `bins` equal cells of [0,1] under the measure
    invariant for maps x -> x/2 + b with the given selection weights.

    Dyadic cells pull back to coarser dyadic cells, except two
    half-interval cases that pull back to themselves; those give linear
    equations solved in place.  All arithmetic is rational.
    """
    total = sum(weights)
    maps = [(w / total, b) for w, b in zip(weights, translations)]
    memo = {}

    def measure(lo, hi):
        lo, hi = max(lo, F0), min(hi, F1)
        if lo >= hi:
            return F0
        if lo == F0 and hi == F1:
            return F1
        key = (lo, hi)
        if key in memo:
            return memo[key]
        self_weight = F0
        acc = F0
        for w, b in maps:
            jlo, jhi = 2 * (lo - b), 2 * (hi - b)
            jlo, jhi = max(jlo, F0), min(jhi, F1)
            if jlo >= jhi:
                continue
            if (jlo, jhi) == key:
                self_weight += w
            else:
                acc += w * measure(jlo, jhi)
        result = acc / (1 - self_weight)
        memo[key] = result
        return result

    masses = [measure(Fraction(m, bins), Fraction(m + 1, bins)) for m in range(bins)]
    assert sum(masses) == 1
    return masses


def _expected_grid(ifs, n_points, bins):
    m1, m2 = marginals(ifs.dist)
    t1 = [Fraction(f.beta.e1) for f in ifs.maps]
    t2 = [Fraction(f.beta.e2) for f in ifs.maps]
    mass1 = _dyadic_bin_masses([Fraction(p) for p in m1.probs], t1, bins)
    mass2 = _dyadic_bin_masses([Fraction(p) for p in m2.probs], t2, bins)
    col = np.array([float(m) for m in mass1])
    row = np.array([float(m) for m in mass2])
    # counts[iy, ix]: e1 is the horizontal axis
    return n_points * np.outer(row, col)


def test_criterion_8_same_support_different_accumulation(
    sierpinski, lopsided_ifs, uniform_dchaos, lopsided_dchaos
):
    extent = (ZERO, embed(1.0))
    grid_u = rasterize(uniform_dchaos, 64, extent).counts
    grid_h = rasterize(lopsided_dchaos, 64, extent).counts
    exp_u = _expected_grid(sierpinski, len(uniform_dchaos), 64)
    exp_h = _expected_grid(lopsided_ifs, len(lopsided_dchaos), 64)

    reliable = (exp_u >= 5.0) & (exp_h >= 5.0)
    mismatch = (grid_u > 0) != (grid_h > 0)
    bad_bins = int((mismatch & reliable).sum())

    shared = (grid_u > 0) & (grid_h > 0)
    a = grid_u[shared].astype(np.float64)
    b = grid_h[shared].astype(np.float64)
    stat = float((((a - b) ** 2) / (a + b)).sum())
    threshold = float(chi2.ppf(0.99, int(shared.sum()) - 1))

    ok = bad_bins == 0 and stat > threshold
    _report(
        8,
        ok,
        f"support identical on reliable bins ({bad_bins} mismatches); "
        f"chi-square {stat:.0f} > 99th pct {threshold:.0f} over {int(shared.sum())} bins",
    )


def test_criterion_9_splice_factor_and_contraction(sierpinski):
    maps = sierpinski.maps
    ok = True
    for fs in maps:
        for ft in maps:
            g = splice(fs, ft)
            ok = ok and g.kappa.e1 == fs.kappa.e1 and g.kappa.e2 == ft.kappa.e2
    rnd = random.Random(909)
    slack = embed(1e-12)
    worst_order = Order.EQUAL
    for fs in maps:
        for ft in maps:
            g = splice(fs, ft)
            for _ in range(10_000):
                x = Hyperbolic(rnd.random(), rnd.random())
                y = Hyperbolic(rnd.random(), rnd.random())
                lhs = g(x).distance(g(y))
                rhs = g.kappa * x.distance(y) + slack
                if lhs.compare(rhs) not in (Order.LESS, Order.EQUAL):
                    ok = False
                    worst_order = lhs.compare(rhs)
                    break
    _report(
        9,
        ok,
        "spliced factors bit-exact; contraction bound holds for 10^4 pairs "
        f"per spliced map{'' if ok else f' (saw {worst_order})'}",
    )


def test_criterion_10_generate_determinism(tmp_path):
    blobs = []
    for tag in ("first", "second"):
        csv_path = tmp_path / f"{tag}.csv"
        ppm_path = tmp_path / f"{tag}.ppm"
        code = main(
            [
                "generate",
                "--spec", SIERPINSKI_PATH,
                "--variant", "d-chaos",
                "--iterations", "50000",
                "--seed", "4242",
                "--csv", str(csv_path),
                "--image", str(ppm_path),
                "--resolution", "64",
            ]
        )
        assert code == 0
        blobs.append(
            (
                hashlib.sha256(csv_path.read_bytes()).hexdigest(),
                hashlib.sha256(ppm_path.read_bytes()).hexdigest(),
            )
        )
    ok = blobs[0] == blobs[1]
    _report(10, ok, f"repeated generate runs byte-identical (csv+ppm, {blobs[0][0][:12]}...)")
