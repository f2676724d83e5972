import math

import numpy as np
import pytest

from splitchaos.chaos import (
    PointCloud,
    RunConfig,
    Variant,
    cumulative,
    run,
    run_classical,
    run_d_chaos,
    run_hyperbolic,
    select_index,
)
from splitchaos.checks import nearest_componentwise, replay_component_game
from splitchaos.ifs import AffineContraction, HyperbolicIFS, iterate_hutchinson
from splitchaos.numbers import ZERO, Hyperbolic, embed
from splitchaos.probability import (
    HyperbolicDistribution,
    NotFullMode,
    accumulated_distribution,
    pair_distribution,
)
from conftest import TRIANGLE_MAPS


def test_select_index_right_open_bins():
    cum = cumulative((0.5, 0.5))
    assert cum == [0.5, 1.0]
    assert select_index(cum, 0.0) == 0
    assert select_index(cum, 0.4999) == 0
    assert select_index(cum, 0.5) == 1
    assert select_index(cum, 0.9999) == 1


def test_select_index_skips_zero_width_bins():
    cum = cumulative((0.0, 0.3, 0.0, 0.7))
    assert select_index(cum, 0.0) == 1
    assert select_index(cum, 0.3) == 3
    assert select_index(cum, 0.99) == 3


def test_select_index_clamps_rounding_overrun():
    # A cumulative sum that rounds below 1 must still select the last bin.
    cum = [0.4, 0.9999999999999999]
    assert select_index(cum, 0.99999999999999995) == 1


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(Variant.CLASSICAL, 1, 0)
    with pytest.raises(ValueError):
        RunConfig(Variant.CLASSICAL, 1, 100, burn_in=100)
    with pytest.raises(ValueError):
        RunConfig(Variant.CLASSICAL, 1, 100, burn_in=-1)


def test_variant_mismatch_is_rejected(triangle_ifs):
    cfg = RunConfig(Variant.CLASSICAL, 1, 1000)
    with pytest.raises(ValueError):
        run_hyperbolic(triangle_ifs, cfg)
    with pytest.raises(ValueError):
        run_d_chaos(triangle_ifs, cfg)


def test_point_and_tally_counts(triangle_ifs):
    cfg = RunConfig(Variant.HYPERBOLIC, 5, 2000, burn_in=137)
    cloud = run_hyperbolic(triangle_ifs, cfg)
    assert len(cloud) == 2000 - 137
    assert cloud.selection_counts.sum() == 2000
    assert len(cloud.selection_counts) == 3


def test_single_recorded_point(triangle_ifs):
    cfg = RunConfig(Variant.HYPERBOLIC, 5, 101, burn_in=100)
    cloud = run_hyperbolic(triangle_ifs, cfg)
    assert len(cloud) == 1


def test_burn_in_zero_records_everything(triangle_ifs):
    cfg = RunConfig(Variant.CLASSICAL, 5, 500, burn_in=0)
    cloud = run_classical(triangle_ifs, cfg)
    assert len(cloud) == 500


def test_same_seed_same_cloud(triangle_ifs):
    for variant, runner in (
        (Variant.CLASSICAL, run_classical),
        (Variant.HYPERBOLIC, run_hyperbolic),
        (Variant.D_CHAOS, run_d_chaos),
    ):
        cfg = RunConfig(variant, 99, 3000)
        assert runner(triangle_ifs, cfg) == runner(triangle_ifs, cfg)


def test_different_seeds_differ(triangle_ifs):
    a = run_hyperbolic(triangle_ifs, RunConfig(Variant.HYPERBOLIC, 1, 2000))
    b = run_hyperbolic(triangle_ifs, RunConfig(Variant.HYPERBOLIC, 2, 2000))
    assert a != b


def test_dispatch_matches_runners(triangle_ifs):
    cfg = RunConfig(Variant.D_CHAOS, 4, 1500)
    assert run(triangle_ifs, cfg) == run_d_chaos(triangle_ifs, cfg)


def test_cloud_point_accessors(triangle_ifs):
    cfg = RunConfig(Variant.HYPERBOLIC, 5, 150, burn_in=100)
    cloud = run_hyperbolic(triangle_ifs, cfg)
    pts = list(cloud)
    assert len(pts) == 50
    assert pts[0] == cloud[0]
    assert isinstance(pts[0], Hyperbolic)


def test_points_stay_in_unit_box(triangle_ifs):
    cloud = run_hyperbolic(triangle_ifs, RunConfig(Variant.HYPERBOLIC, 11, 20_000))
    assert float(cloud.e1.min()) >= 0.0 and float(cloud.e1.max()) <= 1.0
    assert float(cloud.e2.min()) >= 0.0 and float(cloud.e2.max()) <= 1.0


def test_classical_cloud_approaches_attractor(triangle_ifs):
    cloud = run_classical(triangle_ifs, RunConfig(Variant.CLASSICAL, 3, 20_000))
    oracle = iterate_hutchinson(TRIANGLE_MAPS, [ZERO], 10)
    assert nearest_componentwise(cloud, oracle).max() <= 2.0**-8


def test_hyperbolic_tallies_match_accumulated(triangle_ifs_lopsided):
    n = 100_000
    cloud = run_hyperbolic(
        triangle_ifs_lopsided, RunConfig(Variant.HYPERBOLIC, 17, n)
    )
    probs = accumulated_distribution(triangle_ifs_lopsided.dist).probs
    assert probs == (0.175, 0.25, 0.575)
    for count, p in zip(cloud.selection_counts, probs):
        assert abs(count - n * p) <= 3.0 * math.sqrt(n * p * (1 - p))


def test_zero_divisor_mode_tallies():
    dist = HyperbolicDistribution.validate(
        [Hyperbolic(0.5, 0.0), Hyperbolic(0.5, 0.0)]
    )
    ifs = HyperbolicIFS(TRIANGLE_MAPS[:2], dist)
    n = 50_000
    cloud = run_hyperbolic(ifs, RunConfig(Variant.HYPERBOLIC, 23, n))
    for count in cloud.selection_counts:
        assert abs(count - n / 2) <= 3.0 * math.sqrt(n * 0.25)


def test_d_chaos_requires_full_mode():
    dist = HyperbolicDistribution.validate(
        [Hyperbolic(0.5, 0.0), Hyperbolic(0.5, 0.0)]
    )
    ifs = HyperbolicIFS(TRIANGLE_MAPS[:2], dist)
    with pytest.raises(NotFullMode):
        run_d_chaos(ifs, RunConfig(Variant.D_CHAOS, 1, 1000))


def test_d_chaos_pair_tallies(triangle_ifs_lopsided):
    n = 100_000
    cloud = run_d_chaos(triangle_ifs_lopsided, RunConfig(Variant.D_CHAOS, 29, n))
    assert len(cloud.selection_counts) == 9
    assert cloud.selection_counts.sum() == n
    expected = pair_distribution(triangle_ifs_lopsided.dist).probs
    for count, p in zip(cloud.selection_counts, expected):
        assert abs(count - n * p) <= 3.0 * math.sqrt(n * p * (1 - p))


def test_d_chaos_e1_orbit_decouples(triangle_ifs_lopsided):
    cfg = RunConfig(Variant.D_CHAOS, 31, 20_000)
    cloud = run_d_chaos(triangle_ifs_lopsided, cfg)
    replay = replay_component_game(triangle_ifs_lopsided, cfg, component=0)
    assert np.array_equal(cloud.e1, replay)
    replay2 = replay_component_game(triangle_ifs_lopsided, cfg, component=1)
    assert np.array_equal(cloud.e2, replay2)


def test_single_map_system_converges_to_fixed_point():
    f = AffineContraction(embed(0.5), embed(0.25))
    dist = HyperbolicDistribution.validate([Hyperbolic(1.0, 1.0)])
    ifs = HyperbolicIFS((f,), dist)
    cfg = RunConfig(Variant.D_CHAOS, 7, 120, burn_in=100)
    cloud = run_d_chaos(ifs, cfg)
    fp = f.fixed_point()
    assert fp == embed(0.5)
    for p in cloud:
        assert p.distance(fp).e1 <= 1e-9
        assert p.distance(fp).e2 <= 1e-9
    assert cloud.selection_counts.tolist() == [120]


def test_custom_start_point(triangle_ifs):
    cfg = RunConfig(Variant.HYPERBOLIC, 13, 50, burn_in=0, start=embed(0.75))
    cloud = run_hyperbolic(triangle_ifs, cfg)
    first = cloud[0]
    # First recorded point is one map application away from the start.
    candidates = [f(embed(0.75)) for f in TRIANGLE_MAPS]
    assert first in candidates


def test_cloud_equality_distinguishes_config(triangle_ifs):
    a = run_hyperbolic(triangle_ifs, RunConfig(Variant.HYPERBOLIC, 1, 500))
    b = run_hyperbolic(triangle_ifs, RunConfig(Variant.HYPERBOLIC, 1, 501))
    assert a != b
    assert a != "not a cloud"


def test_point_cloud_is_plain_data(triangle_ifs):
    cloud = run_hyperbolic(triangle_ifs, RunConfig(Variant.HYPERBOLIC, 1, 200))
    assert isinstance(cloud, PointCloud)
    assert cloud.config.seed == 1
    assert cloud.e1.dtype == np.float64
    assert cloud.selection_counts.dtype == np.int64
