import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from starnoma import simulator
from starnoma.channel import StarRisState, build_links
from starnoma.comparison import pair_power_policy, simulate_pair_sums
from starnoma.config import PowerAllocation
from starnoma.simulator import (
    EXPECTATION_KEYS,
    LOG_MEAN_KEYS,
    SimPlan,
    analytic_expectation,
    estimate_expectation,
    simulate,
    simulate_clusters,
)


def _plan(cfg, power, state, **kw):
    args = dict(cfg=cfg, power=power, state=state, trials=20_000, seed=5)
    args.update(kw)
    return SimPlan(**args)


class TestSimulate:
    def test_same_seed_bit_identical(self, cfg, power, state):
        a = simulate(_plan(cfg, power, state))
        b = simulate(_plan(cfg, power, state))
        assert a.rates == b.rates
        assert a.stderr == b.stderr

    def test_block_partition_invariance(self, cfg, power, state):
        # different block sizes rearrange the stream: means must stay within
        # joint Monte-Carlo error but need not be bitwise equal
        a = simulate(_plan(cfg, power, state, block_size=1 << 12))
        b = simulate(_plan(cfg, power, state, block_size=1 << 14))
        for role in a.rates:
            tol = 6 * max(a.stderr[role], b.stderr[role], 1e-12)
            assert abs(a.rates[role] - b.rates[role]) <= tol

    def test_stderr_scales_with_trials(self, cfg, power, state):
        small = simulate(_plan(cfg, power, state, trials=8_000, seed=2))
        large = simulate(_plan(cfg, power, state, trials=32_000, seed=2))
        for role in ("DL1", "UL1"):
            ratio = small.stderr[role] / large.stderr[role]
            assert ratio == pytest.approx(2.0, rel=0.2, abs=0)

    def test_vanishing_powers_give_vanishing_rates(self, cfg, state):
        pw = PowerAllocation((1e-30, 2e-30, 4e-30), (1e-30,) * 3)
        tiny = dataclasses.replace(cfg, P_b=1e-27, p_um=1e-28)
        rep = simulate(_plan(tiny, pw, state, trials=4_000))
        assert all(v == pytest.approx(0.0, abs=1e-20) for v in rep.rates.values())

    def test_monotone_in_snr_with_common_seed(self, cfg, power, state):
        prev = None
        for snr in (0.0, 15.0, 30.0, 45.0):
            point = cfg.with_snr(snr)
            pw = PowerAllocation(power.alpha, (point.p_um,) * 3)
            rep = simulate(_plan(point, pw, state, trials=12_000, seed=9))
            if prev is not None:
                for role in rep.rates:
                    assert rep.rates[role] >= prev.rates[role] - 2 * max(
                        rep.stderr[role], prev.stderr[role]
                    )
            prev = rep

    def test_all_clusters_share_realizations(self, cfg, power, state):
        reports, totals = simulate_clusters(cfg, power, state, trials=10_000, seed=4)
        assert set(reports) == {1, 2, 3}
        want_dl = sum(r.dl_sum for r in reports.values())
        assert totals["dl_sum"] == pytest.approx(want_dl, rel=1e-12, abs=0)
        want_ul = sum(r.ul_sum for r in reports.values())
        assert totals["ul_sum"] == pytest.approx(want_ul, rel=1e-12, abs=0)

    def test_state_size_checked_at_the_boundary(self, cfg, power):
        with pytest.raises(ValueError, match="N=11"):
            simulate_clusters(cfg, power, StarRisState.uniform(cfg.N + 1), 100, 0)

    def test_bad_trials_rejected(self, cfg, power, state):
        with pytest.raises(ValueError):
            SimPlan(cfg=cfg, power=power, state=state, trials=0)

    @pytest.mark.parametrize("name,trials,block_size", [("trials", 0, 16), ("trials", -5, 16), ("block_size", 10, 0)])
    def test_block_loop_rejects_nonpositive_counts(self, cfg, power, state, name, trials, block_size):
        # both simulators run the one block loop, which names the bad argument
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            simulate_clusters(cfg, power, state, trials, 0, block_size=block_size)
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            simulate_pair_sums(cfg, pair_power_policy(cfg, state), state, trials, 0, block_size=block_size)


def _grid(cfg):
    """Points that differ in every field a shared draw may vary."""
    return [
        cfg.with_snr(10.0),
        dataclasses.replace(cfg.with_snr(30.0), xi_sic=0.0),
        dataclasses.replace(cfg.with_snr(30.0), beta_si=1.0, lambda_si=0.4),
        dataclasses.replace(cfg.with_snr(50.0), xi_sic=0.3, sigma2=2.0),
    ]


def _grid_powers(points):
    splits = ((0.1, 0.3, 0.6), (0.05, 0.25, 0.7), (0.15, 0.3, 0.55), (0.1, 0.2, 0.7))
    return [
        PowerAllocation(alpha, tuple(f * p.p_um for f in (0.3, 0.6, 1.0)))
        for alpha, p in zip(splits, points)
    ]


class TestSharedDraw:
    # 20,000 trials end in a partial block at both sizes
    @pytest.mark.parametrize("block_size", [1 << 12, 1 << 14])
    def test_points_call_equals_per_point_calls(self, cfg, state, block_size):
        points = _grid(cfg)
        powers = _grid_powers(points)
        got = simulate_clusters(points, powers, state, 20_000, 3, block_size=block_size)
        assert len(got) == len(points)
        for point, power, (reports, sums) in zip(points, powers, got):
            want_reports, want_sums = simulate_clusters(point, power, state, 20_000, 3, block_size=block_size)
            assert sums == want_sums
            for j, report in reports.items():
                assert report.rates == want_reports[j].rates
                assert report.stderr == want_reports[j].stderr

    def test_cluster_power_maps_and_cluster_subset(self, cfg, state):
        points = _grid(cfg)[:2]
        powers = [dict(zip((1, 2, 3), _grid_powers(_grid(cfg))[:3])), _grid_powers(points)[1]]
        got = simulate_clusters(points, powers, state, 3_000, 8, clusters=[3, 1])
        for point, power, (reports, sums) in zip(points, powers, got):
            want = simulate_clusters(point, power, state, 3_000, 8, clusters=[3, 1])
            assert sums == want[1]
            assert {j: r.rates for j, r in reports.items()} == {j: r.rates for j, r in want[0].items()}

    @pytest.mark.parametrize("field", ["N", "R", "kappa_map"])
    def test_points_that_differ_in_the_draw_are_rejected(self, cfg, power, state, field):
        value = {"N": 16, "R": 40.0, "kappa_map": {**cfg.kappa_map, "b,r": 5.0}}[field]
        other = dataclasses.replace(cfg, **{field: value})
        with pytest.raises(ValueError, match=f"differ in {field} "):
            simulate_clusters([cfg, other], [power, power], state, 100, 0)

    def test_points_need_one_power_each(self, cfg, power, state):
        with pytest.raises(ValueError, match="one setting per config"):
            simulate_clusters([cfg, cfg], [power], state, 100, 0)


class BlockFailure(RuntimeError):
    pass


class TestBlockPool:
    # 20,000 trials in blocks of 4,096: five blocks, the last one partial
    TRIALS, BLOCK = 20_000, 1 << 12

    def _clusters(self, cfg, state):
        points = _grid(cfg)
        return simulate_clusters(points, _grid_powers(points), state, self.TRIALS, 3, block_size=self.BLOCK)

    def _pairs(self, cfg, state):
        points = _grid(cfg)
        allocations = [pair_power_policy(p, state) for p in points]
        return simulate_pair_sums(points, allocations, state, self.TRIALS, 6, block_size=self.BLOCK)

    def test_worker_count_changes_no_bit(self, cfg, state, monkeypatch):
        got = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)   # switch threads as often as possible
            for workers in (1, 2, 3):
                monkeypatch.setattr(simulator, "_cores", lambda: workers)
                got[workers] = self._clusters(cfg, state), self._pairs(cfg, state)
        finally:
            sys.setswitchinterval(interval)
        clusters, pairs = got[1]
        for workers in (2, 3):
            assert got[workers][1] == pairs
            for (reports, sums), (want_reports, want_sums) in zip(got[workers][0], clusters):
                assert sums == want_sums
                assert {j: (r.rates, r.stderr) for j, r in reports.items()} == {
                    j: (r.rates, r.stderr) for j, r in want_reports.items()
                }

    @pytest.mark.parametrize("failing", [TRIALS % BLOCK, BLOCK], ids=["last-block", "every-full-block"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_block_exception_reaches_the_caller(self, cfg, power, state, monkeypatch, failing, workers):
        sample_gains = simulator.sample_gains

        def fail(roles, members, geo, links, rng, block):
            if len(block.si) == failing:
                raise BlockFailure("block failed")
            return sample_gains(roles, members, geo, links, rng, block)

        monkeypatch.setattr(simulator, "_cores", lambda: workers)
        monkeypatch.setattr(simulator, "sample_gains", fail)
        before = threading.active_count()
        with pytest.raises(BlockFailure):
            simulate_clusters(cfg, power, state, self.TRIALS, 3, block_size=self.BLOCK)
        assert threading.active_count() == before

    def test_one_block_working_set(self, cfg, power, state, monkeypatch):
        # one default-size block of cluster 1 at N = 10: the layout's drops are
        # freed before the fading draws, and cascades are formed as their
        # vectors arrive (about 21.8e6 bytes; 37.4e6 with every array held)
        monkeypatch.setattr(simulator, "_cores", lambda: 1)
        simulate_clusters(cfg, power, state, 100, 0, clusters=[1])
        tracemalloc.start()
        try:
            simulate_clusters(cfg, power, state, 1 << 14, 0, clusters=[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24e6


class TestExpectationOracle:
    def test_keys_cover_all_terms(self):
        assert len(EXPECTATION_KEYS) == 19

    def test_unknown_key(self, cfg, state):
        with pytest.raises(KeyError):
            estimate_expectation("nope", cfg, state, trials=10)

    @pytest.mark.parametrize("key", ["x1_u1d", "y1", "q_center", "omega_br_u3u", "y3"])
    def test_spot_agreement(self, cfg, state, key):
        mean, se = estimate_expectation(key, cfg, state, trials=150_000, seed=3)
        want = analytic_expectation(key, cfg, state)
        assert abs(want - mean) < 3 * se

    def test_omega_zero_amplitudes(self, cfg):
        dark = StarRisState(
            rho_t=np.zeros(cfg.N), rho_r=np.ones(cfg.N),
            phi_t=np.zeros(cfg.N), phi_r=np.zeros(cfg.N),
        )
        mean, _ = estimate_expectation("omega_u1d_u3u", cfg, dark, trials=2_000, seed=0)
        assert mean == 0.0
        assert analytic_expectation("omega_u1d_u3u", cfg, dark) == 0.0

    def test_y3_large_kappa_limit(self, cfg, state):
        sharp = dataclasses.replace(cfg, kappa_map={k: 1e12 for k in cfg.kappa_map})
        links = build_links(sharp)
        c = state.coefficients("t")
        xi8 = np.abs(np.sum(np.conj(links["b,r"].los) * c * links["b,r"].los)) ** 2
        mean, se = estimate_expectation("y3", sharp, state, trials=50_000, seed=1)
        assert mean == pytest.approx(xi8, rel=1e-4, abs=0)
        assert analytic_expectation("y3", sharp, state) == pytest.approx(xi8, rel=1e-9, abs=0)

    @pytest.mark.parametrize("cluster", [1, 3])
    @pytest.mark.parametrize("key", LOG_MEAN_KEYS)
    def test_strong_user_log_means(self, cfg, state, key, cluster):
        # the exact-signal model's log-means, at the term oracle's 1e6 trials
        mean, se = estimate_expectation(key, cfg, state, trials=1_000_000, seed=101, cluster=cluster)
        want = analytic_expectation(key, cfg, state, cluster=cluster)
        assert abs(want - mean) < 3 * se

    def test_second_cluster_terms(self, cfg, state):
        mean, se = estimate_expectation("x1_u3d", cfg, state, trials=200_000, seed=8, cluster=2)
        want = analytic_expectation("x1_u3d", cfg, state, cluster=2)
        assert abs(want - mean) < 3 * se
