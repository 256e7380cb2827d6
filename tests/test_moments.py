import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rmt_locallaw.errors import ConfigError, MomentInfeasibleError
from rmt_locallaw.moments import (
    MomentTarget,
    gaussian_divisible_transform,
    m4_gap_slope,
    match_four_moments,
    three_point_construct,
)
from rmt_locallaw.runner import _resolve_distribution
from rmt_locallaw.seeding import generator


def atom_moment(dist, k):
    vals = np.array([v for v, _ in dist.atoms])
    probs = np.array([p for _, p in dist.atoms])
    return float(np.sum(probs * vals**k))


def test_three_point_bernoulli_limit():
    d = three_point_construct(MomentTarget(0.0, 1.0))
    atoms = sorted(d.atoms)
    assert atoms == [(-1.0, 0.5), (1.0, 0.5)]


def test_three_point_gaussian_moments():
    d = three_point_construct(MomentTarget(0.0, 3.0))
    got = {round(v, 12): round(p, 12) for v, p in d.atoms}
    s3 = math.sqrt(3.0)
    assert got[round(s3, 12)] == pytest.approx(1 / 6, abs=1e-12)
    assert got[round(-s3, 12)] == pytest.approx(1 / 6, abs=1e-12)
    assert got[0.0] == pytest.approx(2 / 3, abs=1e-12)
    assert atom_moment(d, 4) == pytest.approx(3.0, abs=1e-12)


def test_three_point_golden_ratio_case():
    d = three_point_construct(MomentTarget(1.0, 2.0))
    golden = (1 + math.sqrt(5)) / 2
    vals = sorted(v for v, _ in d.atoms)
    assert vals == pytest.approx([-1 / golden, golden], abs=1e-12)
    probs = {round(v, 9): p for v, p in d.atoms}
    assert probs[round(golden, 9)] == pytest.approx(1 / (1 + golden**2), abs=1e-12)
    assert golden - 1 / golden == pytest.approx(1.0, abs=1e-12)


def test_three_point_exact_on_random_targets():
    rng = np.random.default_rng(30)
    for _ in range(200):
        m3 = float(rng.uniform(-2, 2))
        m4 = float(rng.uniform(m3 * m3 + 1.0, 50.0))
        d = three_point_construct(MomentTarget(m3, m4, m4_cap=100.0))
        assert atom_moment(d, 1) == pytest.approx(0.0, abs=1e-12)
        assert atom_moment(d, 2) == pytest.approx(1.0, abs=1e-12)
        assert atom_moment(d, 3) == pytest.approx(m3, abs=1e-11 * max(1, abs(m3)))
        assert atom_moment(d, 4) == pytest.approx(m4, rel=1e-11)


def test_moment_target_feasibility():
    with pytest.raises(MomentInfeasibleError):
        MomentTarget(1.0, 1.5)  # m4 - m3^2 - 1 < 0
    with pytest.raises(MomentInfeasibleError):
        MomentTarget(0.0, 200.0)  # above the cap


def test_transform_identity_at_zero():
    assert gaussian_divisible_transform(0.7, 2.0, 0.0) == (0.7, 2.0)


def test_transform_known_values():
    m3, m4 = gaussian_divisible_transform(0.0, 1.0, 0.5)
    assert (m3, m4) == (0.0, 2.5)
    m3b, _ = gaussian_divisible_transform(1.0, 2.5, 0.19)
    assert m3b == pytest.approx(0.81**1.5, abs=1e-15)
    assert m3b == pytest.approx(0.729, abs=1e-12)


def test_transform_gaussian_fixed_point():
    for g in (0.01, 0.1, 0.5, 0.9):
        assert gaussian_divisible_transform(0.0, 3.0, g) == pytest.approx((0.0, 3.0), abs=1e-12)


def test_transform_rejects_bad_gamma():
    with pytest.raises(ConfigError):
        gaussian_divisible_transform(0.0, 3.0, 1.0)


def test_match_bernoulli_small_gamma():
    law = match_four_moments(MomentTarget(0.0, 1.0), 0.01)
    assert sorted(law.xi_gamma.atoms) == [(-1.0, 0.5), (1.0, 0.5)]
    assert law.achieved_m3 == 0.0
    assert law.achieved_m4 == pytest.approx(1.0398, abs=1e-12)
    assert law.m4_gap == pytest.approx(0.0398, abs=1e-12)
    assert law.m4_gap <= 4 * 0.01
    m3, m4, gamma = 0.0, 1.0, 0.01
    assert abs(m4_gap_slope(m3, m4, gamma)) <= 4.0


def test_match_gap_vanishes_with_gamma():
    gaps = [match_four_moments(MomentTarget(0.5, 2.0), g).m4_gap for g in (1e-2, 1e-4, 1e-6)]
    assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
    assert gaps[2] < 5e-6


def test_match_gaussian_target_exact():
    law = match_four_moments(MomentTarget(0.0, 3.0), 0.1)
    assert law.m4_gap < 1e-12


def test_match_third_moment_exact_on_grid():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m3 = float(rng.uniform(-1.0, 1.0))
        m4 = float(rng.uniform(m3 * m3 + 1.0, 6.0))
        for gamma in (0.001, 0.01, 0.1):
            law = match_four_moments(MomentTarget(m3, m4), gamma)
            assert abs(law.achieved_m3 - m3) <= 1e-12
            assert law.m4_gap == pytest.approx(abs(gamma * m4_gap_slope(m3, m4, gamma)), abs=1e-12)
            if abs(m4_gap_slope(m3, m4, gamma)) <= 4.0:
                assert law.m4_gap <= 4 * gamma + 1e-12
            else:
                assert law.m4_gap > 4 * gamma - 1e-12


def test_match_reports_outside_band():
    m3, m4, gamma = 0.0, 10.0, 0.1
    law = match_four_moments(MomentTarget(m3, m4), gamma)
    assert not abs(m4_gap_slope(m3, m4, gamma)) <= 4.0
    assert law.m4_gap > 4 * gamma  # the 4*gamma constant provably fails here


def test_match_rejects_bad_gamma():
    with pytest.raises(ConfigError):
        match_four_moments(MomentTarget(0.0, 2.0), 0.0)


def test_matched_law_distribution_roundtrip_and_sampling():
    law = match_four_moments(MomentTarget(0.3, 2.0), 0.05)
    d = law.to_distribution()
    # written as a config's inline law, it is the same law under the default id
    inline = {"atoms": [list(a) for a in d.atoms], "gamma": d.gamma}
    assert _resolve_distribution(json.loads(json.dumps(inline)), "law") == replace(d, dist_id="gaussian-divisible")
    x = d.sample(generator(32), 400_000)
    for k, want in ((1, 0.0), (2, 1.0), (3, law.achieved_m3), (4, law.achieved_m4)):
        mk = x**k
        se = mk.std(ddof=1) / math.sqrt(x.size)
        assert abs(mk.mean() - want) <= 5 * se
