import math

import numpy as np
import pytest
from scipy import integrate

from starnoma.geometry import (
    OrderSpec,
    sample_disk,
    ordered_pathloss_density,
    ordered_pathloss_mean,
    ordered_pathloss_rule,
    outside_point_distance_density,
    outside_point_pathloss_mean,
    pair_distance_density,
    pair_pathloss_mean,
)
from starnoma.specfun import hyp_pfq

# The oracle: adaptive quadrature of each exact density, tighter than the rules it checks.
_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-13, limit=500)


def ordered_pathloss_mean_quad(spec, m):
    value, _ = integrate.quad(
        lambda r: (1.0 + r) ** (-m) * ordered_pathloss_density(spec, r), 0.0, spec.radius, **_QUAD_OPTS
    )
    return value


def pair_pathloss_mean_quad(R, m):
    value, _ = integrate.quad(lambda d: (1.0 + d) ** (-m) * pair_distance_density(d, R), 0.0, 2.0 * R, **_QUAD_OPTS)
    return value


def outside_point_pathloss_mean_quad(R, r1, m):
    value, _ = integrate.quad(
        lambda r: (1.0 + r) ** (-m) * outside_point_distance_density(r, R, r1), r1, r1 + 2.0 * R, **_QUAD_OPTS
    )
    return value


# A second oracle: series forms of two expectations, built from the generalized
# hypergeometric function; they converge only for sub-unit disk radii.


def ordered_pathloss_mean_series(spec, m):
    """Series form of E[(1 + r_(k))^-m]; converges only for radius < 1.

    Derived by substituting t = (r/R)^2 and expanding (1 + R sqrt(t))^-m
    binomially, which turns the even/odd powers into two 3F2-type sums:

        F1 - m*R * [K! G(k+1/2) / ((k-1)! G(K+3/2))] * F2

    with F1 = H({k,(1+m)/2,m/2}, {1/2,1+K}, R^2) and
    F2 = H({k+1/2,(1+m)/2,(2+m)/2}, {3/2,3/2+K}, R^2).
    """
    k, K, R = spec.k, spec.K, spec.radius
    f1 = hyp_pfq((k, (1 + m) / 2, m / 2), (0.5, 1 + K), R * R)
    coeff = math.factorial(K) * math.gamma(k + 0.5) / (math.factorial(k - 1) * math.gamma(K + 1.5))
    f2 = hyp_pfq((k + 0.5, (1 + m) / 2, (2 + m) / 2), (1.5, 1.5 + K), R * R)
    return f1 - m * R * coeff * f2


def pair_pathloss_mean_series(R, m):
    """Hypergeometric form of the pair expectation; converges for 2R < 1.

    Singular at m = 1 and m = 2 through the (m-1)(m-2) prefactor; the
    rule has no such restriction.
    """
    x = 4.0 * R * R
    poly = (2.0 - 3.0 * m + m * m) * R * R
    t1 = 2.0 / poly
    t2 = 2.0 * hyp_pfq((0.5, m / 2 - 1.0, m / 2 - 0.5), (-0.5, 1.0), x) / poly
    t3 = hyp_pfq((1.5, 0.5 + m / 2, m / 2), (0.5, 3.0), x)
    t4 = 64.0 * m * R * hyp_pfq((2.0, 0.5 + m / 2, 1.0 + m / 2), (1.5, 3.5), x) / (15.0 * np.pi)
    t5 = 64.0 * m * R * hyp_pfq((2.0, 0.5 + m / 2, 1.0 + m / 2), (2.5, 2.5), x) / (9.0 * np.pi)
    return t1 - t2 - t3 + t4 - t5


class TestSampling:
    def test_counts_and_containment(self, cfg):
        rng = np.random.default_rng(0)
        center = sample_disk(rng, cfg.K_cd, cfg.R)
        edge = sample_disk(rng, cfg.K_ed, cfg.R_r, center=(cfg.d_br, 0.0))
        assert center.shape == (cfg.K_cd, 2) and edge.shape == (cfg.K_ed, 2)
        assert np.all(np.linalg.norm(center, axis=-1) <= cfg.R)
        assert np.all(np.linalg.norm(edge - [cfg.d_br, 0.0], axis=-1) <= cfg.R_r)

    def test_same_seed_same_layout(self, cfg):
        a = sample_disk(np.random.default_rng(7), cfg.K_eu, cfg.R_r, center=(cfg.d_br, 0.0))
        b = sample_disk(np.random.default_rng(7), cfg.K_eu, cfg.R_r, center=(cfg.d_br, 0.0))
        assert np.array_equal(a, b)

    def test_mean_radius(self, cfg):
        # E[r] = int r * 2r/R^2 dr = 2R/3, checked on 1e6 draws of the sampler
        rng = np.random.default_rng(3)
        r = np.linalg.norm(sample_disk(rng, 1_000_000, cfg.R), axis=-1)
        assert r.mean() == pytest.approx(2 * cfg.R / 3, rel=5e-3, abs=0)


class TestOrderedDensity:
    def test_reduces_to_radial_law(self):
        spec = OrderSpec(1, 1, 2.0)
        r = np.linspace(0.0, 2.0, 9)
        assert ordered_pathloss_density(spec, r) == pytest.approx(2 * r / 4.0)

    @pytest.mark.parametrize("K", range(1, 7))
    def test_normalization(self, K):
        for k in range(1, K + 1):
            spec = OrderSpec(k, K, 30.0)
            total, _ = integrate.quad(lambda r: ordered_pathloss_density(spec, r), 0, 30.0)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative(self):
        spec = OrderSpec(2, 5, 10.0)
        assert np.all(ordered_pathloss_density(spec, np.linspace(0, 10, 101)) >= 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ordered_pathloss_density(OrderSpec(1, 2, 5.0), 6.0)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            OrderSpec(3, 2, 5.0)


class TestOrderedMean:
    def test_zero_exponent(self):
        assert ordered_pathloss_mean(OrderSpec(2, 4, 17.0), 0.0) == 1.0

    def test_single_user_against_mc_oracle(self):
        # brute-force oracle: 1e7 radii draws in the unit disk
        value = ordered_pathloss_mean(OrderSpec(1, 1, 1.0), 2.7)
        rng = np.random.default_rng(12345)
        w = (1.0 + np.sqrt(rng.random(10_000_000))) ** (-2.7)
        se = w.std(ddof=1) / np.sqrt(w.size)
        assert abs(value - w.mean()) < 3 * se
        assert value == pytest.approx(0.2839958336, abs=1e-9)

    def test_ordered_against_mc_oracle(self):
        spec = OrderSpec(2, 6, 50.0)
        value = ordered_pathloss_mean(spec, 2.7)
        rng = np.random.default_rng(99)
        r = np.sort(50.0 * np.sqrt(rng.random((2_000_000, 6))), axis=1)[:, 1]
        w = (1.0 + r) ** (-2.7)
        se = w.std(ddof=1) / np.sqrt(w.size)
        assert abs(value - w.mean()) < 3 * se

    @pytest.mark.parametrize(
        "k,K,R", [(k, 6, 50.0) for k in range(1, 7)] + [(k, 3, 30.0) for k in range(1, 4)]
    )
    def test_every_baseline_order_against_mc(self, k, K, R):
        # the full set of order statistics the baseline deployment consumes
        value = ordered_pathloss_mean(OrderSpec(k, K, R), 2.7)
        rng = np.random.default_rng(1000 + 10 * K + k)
        r = np.sort(R * np.sqrt(rng.random((1_000_000, K))), axis=1)[:, k - 1]
        w = (1.0 + r) ** (-2.7)
        se = w.std(ddof=1) / np.sqrt(w.size)
        assert abs(value - w.mean()) < 3 * se

    def test_strictly_decreasing_in_order(self):
        K, R = 6, 50.0
        vals = [ordered_pathloss_mean(OrderSpec(k, K, R), 2.7) for k in range(1, K + 1)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("m", [2.0, 2.7, 3.5])
    @pytest.mark.parametrize("R", [30.0, 50.0])
    @pytest.mark.parametrize("K", [3, 6, 12])
    def test_rule_matches_adaptive_quadrature(self, K, R, m):
        for k in range(1, K + 1):
            spec = OrderSpec(k, K, R)
            assert ordered_pathloss_mean(spec, m) == pytest.approx(ordered_pathloss_mean_quad(spec, m), rel=1e-11, abs=0)

    @pytest.mark.parametrize("k,K,R,m", [(1, 1, 0.8, 2.7), (1, 3, 0.9, 2.7), (2, 3, 0.5, 3.5), (3, 6, 0.95, 2.0)])
    def test_series_matches_quadrature_where_convergent(self, k, K, R, m):
        spec = OrderSpec(k, K, R)
        assert ordered_pathloss_mean_series(spec, m) == pytest.approx(
            ordered_pathloss_mean(spec, m), rel=1e-10, abs=0
        )


class TestPairMean:
    def test_zero_exponent(self):
        assert pair_pathloss_mean(50.0, 0.0) == 1.0

    def test_density_normalizes(self):
        total, _ = integrate.quad(lambda d: pair_distance_density(d, 50.0), 0, 100.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_against_mc_oracle(self):
        value = pair_pathloss_mean(50.0, 2.7)
        rng = np.random.default_rng(21)
        n = 10_000_000
        r1 = 50.0 * np.sqrt(rng.random(n))
        r2 = 50.0 * np.sqrt(rng.random(n))
        th = rng.uniform(0, 2 * np.pi, n)
        d = np.sqrt(r1**2 + r2**2 - 2 * r1 * r2 * np.cos(th))
        w = (1.0 + d) ** (-2.7)
        se = w.std(ddof=1) / np.sqrt(n)
        assert abs(value - w.mean()) < 3 * se

    @pytest.mark.parametrize("m", [2.0, 2.7, 3.5])
    @pytest.mark.parametrize("R", [30.0, 50.0])
    def test_rule_matches_adaptive_quadrature(self, R, m):
        assert pair_pathloss_mean(R, m) == pytest.approx(pair_pathloss_mean_quad(R, m), rel=1e-11, abs=0)

    @pytest.mark.parametrize("R,m", [(0.4, 2.7), (0.25, 3.5), (0.45, 2.2)])
    def test_series_matches_quadrature_where_convergent(self, R, m):
        assert pair_pathloss_mean_series(R, m) == pytest.approx(pair_pathloss_mean(R, m), rel=1e-9, abs=0)


class TestOutsidePointMean:
    def test_zero_exponent(self):
        assert outside_point_pathloss_mean(50.0, 30.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_far_point_limit(self):
        # a remote disk looks like a point at the clearance distance
        r1 = 1e6
        value = outside_point_pathloss_mean(10.0, r1, 2.0)
        assert value == pytest.approx((1.0 + r1) ** (-2.0), rel=1e-2, abs=0)

    def test_density_normalizes(self):
        total, _ = integrate.quad(
            lambda r: outside_point_distance_density(r, 50.0, 30.0), 30.0, 130.0, limit=300
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_against_mc_oracle(self):
        value = outside_point_pathloss_mean(50.0, 30.0, 2.7, C=32)
        rng = np.random.default_rng(17)
        n = 10_000_000
        r = 50.0 * np.sqrt(rng.random(n))
        th = rng.uniform(0, 2 * np.pi, n)
        # external point at distance 80 from the disk center
        d = np.sqrt((80.0 - r * np.cos(th)) ** 2 + (r * np.sin(th)) ** 2)
        w = (1.0 + d) ** (-2.7)
        se = w.std(ddof=1) / np.sqrt(n)
        assert abs(value - w.mean()) < 3 * se

    def test_quadrature_matches_adaptive_and_converges(self):
        # the cosine map cancels the density's square-root edges, so the rule
        # converges spectrally (1e-5, 5e-11, 1e-15 at 8, 16, 32 nodes); past 32
        # nodes both sides sit at the oracle's own rounding
        truth = outside_point_pathloss_mean_quad(50.0, 30.0, 2.7)
        errs = [
            abs(outside_point_pathloss_mean(50.0, 30.0, 2.7, C=C) - truth) / truth
            for C in (8, 16, 32)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-11

    @pytest.mark.parametrize("m", [2.0, 2.7, 3.5])
    @pytest.mark.parametrize("R", [30.0, 50.0])
    def test_rule_matches_adaptive_quadrature(self, cfg, R, m):
        want = outside_point_pathloss_mean_quad(R, cfg.r1, m)
        assert outside_point_pathloss_mean(R, cfg.r1, m) == pytest.approx(want, rel=1e-11, abs=0)

    def test_invalid_clearance(self):
        with pytest.raises(ValueError):
            outside_point_pathloss_mean(50.0, 0.0, 2.7)


def test_order_sandwich_property():
    # nearest-user mean >= unordered pair-style mean >= farthest-user mean
    K, R, m = 4, 50.0, 2.7
    first = ordered_pathloss_mean(OrderSpec(1, K, R), m)
    last = ordered_pathloss_mean(OrderSpec(K, K, R), m)
    unordered = ordered_pathloss_mean(OrderSpec(1, 1, R), m)
    assert first >= unordered >= last


class TestMemo:
    def test_rule_arrays_are_read_only(self):
        gains, weights = ordered_pathloss_rule(OrderSpec(1, 6, 50.0), 2.7)
        for a in (gains, weights):
            with pytest.raises(ValueError):
                a[0] = 0.0
        again = ordered_pathloss_rule(OrderSpec(1, 6, 50.0), 2.7)
        assert again[0] is gains and again[1] is weights

    def test_bad_arguments_raise_after_a_cached_call(self):
        spec = OrderSpec(2, 6, 50.0)
        ordered_pathloss_mean(spec, 2.7)
        pair_pathloss_mean(50.0, 2.7)
        with pytest.raises(ValueError):
            ordered_pathloss_mean(spec, -1.0)
        with pytest.raises(ValueError):
            pair_pathloss_mean(50.0, -1.0)
        with pytest.raises(ValueError):
            pair_pathloss_mean(-50.0, 2.7)
        with pytest.raises(ValueError):
            ordered_pathloss_rule(OrderSpec(7, 6, 50.0), 2.7)
        with pytest.raises(ValueError):
            ordered_pathloss_mean(OrderSpec(1, 6, -50.0), 2.7)
        outside_point_pathloss_mean(50.0, 30.0, 2.7)
        with pytest.raises(ValueError):
            outside_point_pathloss_mean(50.0, 30.0, -1.0)

    @pytest.mark.parametrize("k,K,R", [(1, 6, 50.0), (3, 3, 30.0), (5, 6, 50.0)])
    def test_cached_value_equals_the_computation(self, k, K, R):
        spec = OrderSpec(k, K, R)
        ordered_pathloss_mean(spec, 2.7)
        assert ordered_pathloss_mean(spec, 2.7) == ordered_pathloss_mean.__wrapped__(spec, 2.7)
        pair_pathloss_mean(R, 2.7)
        assert pair_pathloss_mean(R, 2.7) == pair_pathloss_mean.__wrapped__(R, 2.7)
        outside_point_pathloss_mean(R, 30.0, 2.7)
        assert outside_point_pathloss_mean(R, 30.0, 2.7) == outside_point_pathloss_mean.__wrapped__(R, 30.0, 2.7)
        for got, want in zip(ordered_pathloss_rule(spec, 2.7), ordered_pathloss_rule.__wrapped__(spec, 2.7)):
            assert np.array_equal(got, want)
