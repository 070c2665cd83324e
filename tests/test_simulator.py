import copy
import ctypes
import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from starnoma import simulator
from starnoma.channel import StarRisState, build_links, cascaded_power_mean, sample_rician
from starnoma.cli import DEFAULT_SNR_GRID, XIS
from starnoma.comparison import cluster_power_policy, pair_groups, pair_power_policy, pair_schedule, simulate_pair_sums
from starnoma.config import PowerAllocation
from starnoma.rates import BS, cluster_members, cluster_roles, noma_roles, table_keys
from starnoma.simulator import (
    SimPlan,
    cluster_schedule,
    simulate,
    simulate_clusters,
    simulate_groups,
)

import oracles
from oracles import EXPECTATION_KEYS, LOG_MEAN_KEYS, analytic_expectation, estimate_expectation


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
        # both simulators and the term oracle split their trials in one place, which names the bad argument
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            simulate_clusters(cfg, power, state, trials, 0, block_size=block_size)
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            simulate_pair_sums(cfg, pair_power_policy(cfg, state), state, trials, 0, block_size=block_size)
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            estimate_expectation("y1", cfg, state, trials, 0, block_size=block_size)

    @pytest.mark.parametrize("name,trials,block_size", [
        ("trials", 1000.0, 16), ("trials", True, 16), ("trials", "1000", 16),
        ("block_size", 1000, 512.0), ("block_size", 1000, True), ("block_size", 1000, np.float64(512)),
    ])
    def test_block_loop_rejects_non_integer_counts(self, cfg, power, state, name, trials, block_size):
        # a bool, a float or a string is no count, though it may compare or divide as one
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            simulate_clusters(cfg, power, state, trials, 0, block_size=block_size)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            simulate_pair_sums(cfg, pair_power_policy(cfg, state), state, trials, 0, block_size=block_size)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            estimate_expectation("y1", cfg, state, trials, 0, block_size=block_size)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimPlan(cfg=cfg, power=power, state=state, trials=trials, block_size=block_size)

    def test_numpy_integer_counts_are_counts(self, cfg, power, state):
        want = simulate(_plan(cfg, power, state, trials=3_000, block_size=1_024))
        got = simulate(_plan(cfg, power, state, trials=np.int64(3_000), block_size=np.int32(1_024)))
        assert (got.rates, got.stderr) == (want.rates, want.stderr)


def _grid(cfg):
    """Points that differ in every field a shared draw may vary."""
    return [
        cfg.with_snr(10.0),
        dataclasses.replace(cfg.with_snr(30.0), xi_sic=0.0),
        dataclasses.replace(cfg.with_snr(30.0), beta_si=1.0, lambda_si=0.4),
        dataclasses.replace(cfg.with_snr(50.0), xi_sic=0.3, sigma2=2.0),
    ]


def _cluster_grid(points, powers, state, trials, seed, clusters=None, block_size=1 << 14):
    """simulate_clusters' result at every point of a grid, off one shared draw."""
    return simulate_groups([cluster_schedule(points, powers, state, clusters)], trials, seed, block_size)[0]


def _pair_grid(points, allocations, state, trials, seed, block_size=1 << 14):
    """simulate_pair_sums' result at every point of a grid, off one shared draw."""
    return simulate_groups([pair_schedule(points, allocations, state)], trials, seed, block_size)[0]


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
        got = _cluster_grid(points, powers, state, 20_000, 3, block_size=block_size)
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
        got = _cluster_grid(points, powers, state, 3_000, 8, clusters=[3, 1])
        for point, power, (reports, sums) in zip(points, powers, got):
            want = simulate_clusters(point, power, state, 3_000, 8, clusters=[3, 1])
            assert sums == want[1]
            assert {j: r.rates for j, r in reports.items()} == {j: r.rates for j, r in want[0].items()}

    @pytest.mark.parametrize("field", ["N", "R", "kappa_map"])
    def test_points_that_differ_in_the_draw_are_rejected(self, cfg, power, state, field):
        value = {"N": 16, "R": 40.0, "kappa_map": {**cfg.kappa_map, "b,r": 5.0}}[field]
        other = dataclasses.replace(cfg, **{field: value})
        with pytest.raises(ValueError, match=f"differ in {field} "):
            _cluster_grid([cfg, other], [power, power], state, 100, 0)

    def test_points_need_one_power_each(self, cfg, power, state):
        with pytest.raises(ValueError, match="one setting per config"):
            _cluster_grid([cfg, cfg], [power], state, 100, 0)


def _block_faults_readable() -> bool:
    """Whether a thread's page faults can be read and the C library has mallopt."""
    try:
        import resource

        return hasattr(resource, "RUSAGE_THREAD") and hasattr(ctypes.CDLL(None), "mallopt")
    except (ImportError, OSError, TypeError):
        return False


class BlockFailure(RuntimeError):
    pass


class TestBlockPool:
    # 20,000 trials in blocks of 4,096: five blocks, the last one partial
    TRIALS, BLOCK = 20_000, 1 << 12

    def _clusters(self, cfg, state):
        points = _grid(cfg)
        return _cluster_grid(points, _grid_powers(points), state, self.TRIALS, 3, block_size=self.BLOCK)

    def _pairs(self, cfg, state):
        points = _grid(cfg)
        allocations = [pair_power_policy(p, state) for p in points]
        return _pair_grid(points, allocations, state, self.TRIALS, 6, block_size=self.BLOCK)

    def _schedules(self, cfg, state):
        """The clusters' and the pairing's schedules of _clusters and _pairs, at one seed."""
        points = _grid(cfg)
        allocations = [pair_power_policy(p, state) for p in points]
        return [cluster_schedule(points, _grid_powers(points), state), pair_schedule(points, allocations, state)]

    def _shared_queue(self, cfg, state):
        """Both schedules in one block queue, and each alone, at seed 6."""
        together = simulator.simulate_groups(self._schedules(cfg, state), self.TRIALS, 6, self.BLOCK)
        alone = [simulator.simulate_groups([s], self.TRIALS, 6, self.BLOCK)[0] for s in self._schedules(cfg, state)]
        return together, alone

    @staticmethod
    def _plain(clusters):
        """A cluster grid result with the reports as (rates, stderr), comparable by ==."""
        return [({j: (r.rates, r.stderr) for j, r in reports.items()}, sums) for reports, sums in clusters]

    def test_each_block_draws_from_its_own_sfc64_stream(self, cfg, power, state, monkeypatch):
        schedule_run, firsts = simulator._schedule_run, []

        def recorded(schedule):
            block_run, estimate = schedule_run(schedule)

            def block(B, rng):
                assert type(rng.bit_generator) is np.random.SFC64
                firsts.append(copy.deepcopy(rng).random())   # the block's first draw, its stream untouched
                return block_run(B, rng)

            return block, estimate

        monkeypatch.setattr(simulator, "_schedule_run", recorded)
        simulate_clusters(cfg, power, state, self.TRIALS, 3, block_size=self.BLOCK)
        assert len(firsts) == 5 and len(set(firsts)) == 5

    def test_a_schedule_alone_returns_what_it_returns_beside_another(self, cfg, power, state):
        # the other schedule comes first and, at N = 16, its blocks are served first
        big = dataclasses.replace(cfg, N=16)
        other = cluster_schedule([big], [power], StarRisState.random(16, np.random.default_rng(16)))
        mine = cluster_schedule([cfg], [power], state)
        alone = simulate_groups([mine], self.TRIALS, 5, self.BLOCK)[0]
        beside = simulate_groups([other, mine], self.TRIALS, 5, self.BLOCK)[1]
        assert self._plain(beside) == self._plain(alone)

    def test_worker_count_changes_no_bit(self, cfg, state, monkeypatch):
        got = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)   # switch threads as often as possible
            for workers in (1, 2, 3):
                monkeypatch.setattr(simulator, "_cores", lambda: workers)
                got[workers] = self._clusters(cfg, state), self._pairs(cfg, state), self._shared_queue(cfg, state)
        finally:
            sys.setswitchinterval(interval)
        clusters, pairs, _ = got[1]
        for workers in (1, 2, 3):
            assert got[workers][1] == pairs
            assert self._plain(got[workers][0]) == self._plain(clusters)
            # one queue holding both schedules returns what a call per schedule returns
            (shared_clusters, shared_pairs), (alone_clusters, alone_pairs) = got[workers][2]
            assert shared_pairs == alone_pairs
            assert self._plain(shared_clusters) == self._plain(alone_clusters)
            assert shared_pairs == got[1][2][0][1]
            assert self._plain(shared_clusters) == self._plain(got[1][2][0][0])

    @pytest.mark.parametrize("failing", [TRIALS % BLOCK, BLOCK], ids=["last-block", "every-full-block"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_block_exception_reaches_the_caller(self, cfg, power, state, monkeypatch, failing, workers):
        sample_gains = simulator.sample_gains

        def fail(plan, geo, links, rng, block):
            if len(block.si) == failing:
                raise BlockFailure("block failed")
            return sample_gains(plan, geo, links, rng, block)

        monkeypatch.setattr(simulator, "_cores", lambda: workers)
        monkeypatch.setattr(simulator, "sample_gains", fail)
        before = threading.active_count()
        with pytest.raises(BlockFailure):
            simulate_clusters(cfg, power, state, self.TRIALS, 3, block_size=self.BLOCK)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_schedules_exception_reaches_the_caller_once(self, cfg, state, monkeypatch, workers):
        # a pair has 4 members and a cluster 6: only the pairing's blocks fail
        sample_gains, calls = simulator.sample_gains, []

        def fail(plan, geo, links, rng, block):
            calls.append(len(plan.members))
            if len(plan.members) == 4:
                raise BlockFailure("pairing block failed")
            return sample_gains(plan, geo, links, rng, block)

        monkeypatch.setattr(simulator, "_cores", lambda: workers)
        monkeypatch.setattr(simulator, "sample_gains", fail)
        before = threading.active_count()
        with pytest.raises(BlockFailure) as exc:
            simulator.simulate_groups(self._schedules(cfg, state), self.TRIALS, 3, self.BLOCK)
        assert str(exc.value) == "pairing block failed"
        assert threading.active_count() == before
        assert calls.count(4) <= workers   # each thread stops at its next job after a failure

    @pytest.mark.parametrize("key", ["x1_u1d", "y1", "omega_u3d_u3u", "log_u1d"])
    def test_oracle_worker_count_changes_no_bit(self, cfg, state, monkeypatch, key):
        # the term oracle's blocks run on the same queue and merge in block order
        got = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for workers in (1, 3):
                monkeypatch.setattr(simulator, "_cores", lambda: workers)
                got[workers] = estimate_expectation(key, cfg, state, self.TRIALS, 2, block_size=self.BLOCK)
        finally:
            sys.setswitchinterval(interval)
        assert [v.hex() for v in got[3]] == [v.hex() for v in got[1]]

    @pytest.mark.parametrize("failing", [TRIALS % BLOCK, BLOCK], ids=["last-block", "every-full-block"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_oracle_block_exception_reaches_the_caller(self, cfg, state, monkeypatch, failing, workers):
        sample_rician = oracles.sample_rician

        def fail(link, rng, trials):
            if trials == failing:
                raise BlockFailure("block failed")
            return sample_rician(link, rng, trials)

        monkeypatch.setattr(simulator, "_cores", lambda: workers)
        monkeypatch.setattr(oracles, "sample_rician", fail)
        before = threading.active_count()
        with pytest.raises(BlockFailure):
            estimate_expectation("y3", cfg, state, self.TRIALS, 2, block_size=self.BLOCK)
        assert threading.active_count() == before

    def test_one_block_working_set(self, cfg, power, state, monkeypatch):
        # one default-size block of cluster 1 at N = 10: the layout draws only
        # the ranks it keeps, cascades are formed as their vectors arrive, and
        # a leaf's vector is never drawn (about 3.10e6 bytes at 4,096 trials)
        monkeypatch.setattr(simulator, "_cores", lambda: 1)
        simulate_clusters(cfg, power, state, 100, 0, clusters=[1])
        tracemalloc.start()
        try:
            simulate_clusters(cfg, power, state, simulator._DEFAULT_BLOCK, 0, clusters=[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.9e6

    @staticmethod
    def _cluster_vs_pair(cfg, state):
        """The 12 points of `sweep --experiment cluster-vs-pair` with both power policies' allocations."""
        points = [dataclasses.replace(cfg.with_snr(snr), xi_sic=xi) for xi in XIS for snr in DEFAULT_SNR_GRID]
        return points, [cluster_power_policy(p, state) for p in points], [pair_power_policy(p, state) for p in points]

    @pytest.mark.parametrize("scheme", ["clusters", "pairing"])
    def test_full_block_working_set_of_the_comparison(self, cfg, state, monkeypatch, scheme):
        # both schemes' blocks share one queue, so on 2 cores a full block of each is in
        # flight at once: one default block of 4,096 trials at the 12 points holds
        # about 4.34 MiB (clusters) and 4.37 MiB (pairing)
        points, cl, pr = self._cluster_vs_pair(cfg, state)
        run = {"clusters": lambda B: _cluster_grid(points, cl, state, B, 0, block_size=simulator._DEFAULT_BLOCK),
               "pairing": lambda B: _pair_grid(points, pr, state, B, 0, block_size=simulator._DEFAULT_BLOCK)}[scheme]
        monkeypatch.setattr(simulator, "_cores", lambda: 1)
        run(100)
        tracemalloc.start()
        try:
            run(simulator._DEFAULT_BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 2**20

    @pytest.mark.skipif(not _block_faults_readable(), reason="needs RUSAGE_THREAD and the C library's mallopt")
    @pytest.mark.parametrize("scheme", ["clusters", "pairing"])
    def test_later_blocks_run_in_the_first_blocks_memory(self, cfg, power, state, monkeypatch, scheme):
        # one worker, three full default blocks and a partial one: the first block pages
        # its working set in (about 660 minor faults), and the malloc thresholds the
        # simulator sets keep that memory for the later ones, which fault almost none
        import resource

        run = {"clusters": lambda trials: simulate_clusters(cfg, power, state, trials, 0),
               "pairing": lambda trials: simulate_pair_sums(cfg, pair_power_policy(cfg, state), state, trials, 0)}[scheme]
        schedule_run, faults = simulator._schedule_run, []

        def counted(schedule):
            block_run, estimate = schedule_run(schedule)

            def block(B, rng):
                before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
                moments = block_run(B, rng)
                faults.append(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)
                return moments

            return block, estimate

        monkeypatch.setattr(simulator, "_cores", lambda: 1)
        monkeypatch.setattr(simulator, "_schedule_run", counted)
        run(3 * simulator._DEFAULT_BLOCK + 1_000)
        _, *later = faults
        assert len(later) == 3
        assert max(later) < 200


class TestDraws:
    @pytest.mark.parametrize("rows", ["si", "rayleigh"], ids=["trials", "trials-by-keys"])
    def test_draw_power_is_unit_exponential(self, cfg, state, rows):
        # the |CN(0, 1)|^2 powers a block draws as unit exponentials: its unit SI,
        # and a group's Rayleigh rows (direct and cross keys) at unit path loss
        links, rng = build_links(cfg), np.random.default_rng(21)
        B = 131_072 if rows == "si" else 16_384   # cluster 1 has 8 Rayleigh rows
        block = simulator.BlockDraws.draw(simulator.Surface.of(cfg, state, links), links, rng, B)
        if rows == "si":
            x = block.si
        else:
            members = cluster_members(cfg, 1)
            plan = simulator.gain_plan(cluster_roles(cfg, 1), members)
            geo = dict.fromkeys(members, (np.zeros((B, 2)), np.zeros(B), np.zeros(B)))
            x = simulator.sample_gains(plan, geo, links, rng, block)[:plan.scalars].ravel()
        # |x + jy|^2 / 2 of two independent standard normals is Exp(1): mean 1, variance 1
        assert x.size >= 100_000 and np.all(x >= 0.0)
        assert stats.kstest(x, "expon").pvalue > 1e-3
        se = 1.0 / np.sqrt(x.size)   # the standard error of the mean at unit variance
        assert abs(np.mean(x) - 1.0) < 4 * se
        assert abs(np.var(x) - 1.0) < 4 * np.sqrt(8.0) * se   # Var of (x - 1)^2 is 9 - 1 = 8
        # and the modulus law it stands for: the squared modulus of a unit complex normal
        z = np.random.default_rng(22).standard_normal((x.size, 2)) / np.sqrt(2.0)
        assert stats.ks_2samp(x, np.sum(z * z, axis=1)).pvalue > 1e-3

    @pytest.mark.parametrize("B", [1, 4_097, 16_384])
    def test_chunked_cascade_keeps_the_whole_product_bits(self, cfg, state, B):
        links, rng = build_links(cfg), np.random.default_rng(5)
        g_out, g_in = (sample_rician(links[label], rng, trials=B) for label in ("r,u3d", "r,u3u"))
        c = state.coefficients("r")
        want = np.abs(np.sum(g_out * c * g_in, axis=-1)) ** 2
        # one einsum sums the products in another order than np.sum, so the match is to rounding
        np.testing.assert_allclose(simulator._cascade_power(g_out, c, g_in), want, rtol=1e-12, atol=0)


def _full_cascade(g_hub, c, leaf_link, rng):
    """The leaf cascade with the leaf's whole Rician vector drawn: the law to match."""
    return simulator._cascade_power(g_hub, c, sample_rician(leaf_link, rng, trials=len(g_hub)))


def _agree(a, b, z=5.0):
    """Two independent samples' means agree within z joint standard errors."""
    se = np.hypot(np.std(a) / np.sqrt(a.size), np.std(b) / np.sqrt(b.size))
    return abs(np.mean(a) - np.mean(b)) <= z * se


class TestLeafCascades:
    """A leaf vector is drawn only through its one cascade, conditioned on the other side."""

    def _cascade(self, cfg, state, n, hub, leaf, side):
        """The hub's and the leaf's links, the face's coefficients, and the leaf's
        cascade power given a hub vector, as the simulator draws it."""
        point = dataclasses.replace(cfg, N=n)
        links = build_links(point)
        st = state if n == cfg.N else StarRisState.random(n, np.random.default_rng(n))
        c = st.coefficients(side)
        face = simulator._face(c, links)
        return links[hub], links[leaf], c, lambda g_hub, rng: simulator._leaf_cascade_power(
            g_hub, face, leaf, rng, simulator._spread(g_hub, face))

    @pytest.mark.parametrize("n", [4, 10, 64])
    def test_single_leaf_cascade_matches_full_draw(self, cfg, state, n):
        hub, leaf, c, leaf_power = self._cascade(cfg, state, n, "r,u3d", "r,u1u", "r")
        rng = np.random.default_rng(2024 + n)
        B = 40_000
        cond = leaf_power(sample_rician(hub, rng, trials=B), rng)
        full = _full_cascade(sample_rician(hub, rng, trials=B), c, leaf, rng)
        assert _agree(cond, full)
        assert _agree(cond**2, full**2)
        assert stats.ks_2samp(cond, full).pvalue > 1e-3
        # and the mean is the closed-form omega
        want = cascaded_power_mean(c, hub, leaf)
        assert abs(np.mean(cond) - want) <= 5 * np.std(cond) / np.sqrt(B)

    @pytest.mark.parametrize("n", [4, 10])
    def test_leaf_on_the_bs_side(self, cfg, state, n):
        # a leaf whose cascade's other side is the BS-surface vector g_br
        hub, leaf, c, leaf_power = self._cascade(cfg, state, n, "b,r", "r,u3u", "t")
        rng = np.random.default_rng(7 + n)
        cond = leaf_power(sample_rician(hub, rng, trials=40_000), rng)
        full = _full_cascade(sample_rician(hub, rng, trials=40_000), c, leaf, rng)
        assert _agree(cond, full)
        assert stats.ks_2samp(cond, full).pvalue > 1e-3

    def test_cluster_leaves_come_from_the_table(self, cfg):
        members = cluster_members(cfg, 2)
        u1d, u2d, u3d, u1u, u2u, u3u = members
        cascades = [k for k in table_keys(cluster_roles(cfg, 2)) if k[0] == "cascade"]
        assert simulator._leaves(cascades) == {
            ("cascade", "t", u1d, u3u): u1d, ("cascade", "t", u2d, u3u): u2d,
            ("cascade", "r", u3d, u1u): u1u, ("cascade", "r", u3d, u2u): u2u,
        }

    def test_pairing_leaves_come_from_the_table(self, cfg):
        for dl, ul in pair_groups(cfg):
            cascades = [k for k in table_keys(noma_roles(cfg, dl, ul)) if k[0] == "cascade"]
            leaves = simulator._leaves(cascades)
            for key, leaf in leaves.items():
                assert leaf != BS and leaf in key[2:]
                assert sum(leaf in k[2:] for k in cascades) == 1
            # every member a single cascade reaches is a leaf of it
            reached = [u for u in dl + ul if sum(u in k[2:] for k in cascades) == 1]
            assert sorted(leaves.values()) == sorted(reached)

    def test_leaves_sharing_a_hub_keep_their_joint_law(self, cfg, state):
        # (r,u3d,u1u) and (r,u3d,u2u) correlate through u3d's vector; the
        # simulator's gains must keep that covariance, and the hub-hub keys theirs
        members = cluster_members(cfg, 1)
        u1d, u2d, u3d, u1u, u2u, u3u = members
        links = build_links(cfg)
        B = 60_000
        rng = np.random.default_rng(31)
        at_anchor = (np.zeros((B, 2)), np.zeros(B), np.zeros(B))   # unit path loss everywhere
        block = simulator.BlockDraws.draw(simulator.Surface.of(cfg, state, links), links, rng, B)
        block = dataclasses.replace(block, surface=block.surface._replace(l_br=1.0))
        geo = dict.fromkeys(members, at_anchor)
        plan = simulator.gain_plan(cluster_roles(cfg, 1), members)
        gains = dict(zip(plan.keys, simulator.sample_gains(plan, geo, links, rng, block)))
        pairs = [
            (("cascade", "r", u3d, u1u), ("cascade", "r", u3d, u2u)),
            (("cascade", "t", u1d, u3u), ("cascade", "t", u2d, u3u)),
            (("cascade", "r", u3d, BS), ("cascade", "r", u3d, u3u)),
            (("cascade", "t", BS, u3u), ("cascade", "r", u3d, u3u)),
        ]
        full_rng = np.random.default_rng(32)
        vec = {u: sample_rician(links[u.link], full_rng, trials=B) for u in (BS, *members)}
        c = {side: state.coefficients(side) for side in ("t", "r")}
        for a, b in pairs:
            full = [simulator._cascade_power(vec[k[2]], c[k[1]], vec[k[3]]) for k in (a, b)]
            drawn = [gains[a], gains[b]]
            prods = [(x - x.mean()) * (y - y.mean()) for x, y in (drawn, full)]
            assert _agree(*prods), (a, b)
            assert np.mean(prods[1]) > 5 * np.std(prods[1]) / np.sqrt(B)   # a real correlation
            for x, y in zip(drawn, full):
                assert _agree(x, y)


class TestRankedLayout:
    @pytest.mark.parametrize("k,K", [(1, 1), (1, 6), (4, 6), (6, 6), (3, 3)])
    def test_rank_matches_sorted_full_draw(self, k, K):
        rng = np.random.default_rng(100 * k + K)
        B, R = 40_000, 50.0
        direct = simulator._rank_draw([k], K, R)(rng, B)[0]
        sorted_full = np.sort(R * np.sqrt(rng.random((B, K))), axis=1)[:, k - 1]
        assert stats.ks_2samp(direct, sorted_full).pvalue > 1e-3
        assert np.all((0.0 <= direct) & (direct <= R))

    def test_ranks_drawn_together_keep_their_joint_law(self):
        rng = np.random.default_rng(12)
        B, R, ranks = 40_000, 30.0, [1, 4, 6]
        direct = np.column_stack(simulator._rank_draw(ranks, 6, R)(rng, B))
        full = np.sort(R * np.sqrt(rng.random((B, 6))), axis=1)[:, [k - 1 for k in ranks]]
        assert np.all(np.diff(direct, axis=1) >= 0)
        for i in range(len(ranks)):
            assert stats.ks_2samp(direct[:, i], full[:, i]).pvalue > 1e-3
        gap_direct, gap_full = direct[:, 2] - direct[:, 0], full[:, 2] - full[:, 0]
        assert stats.ks_2samp(gap_direct, gap_full).pvalue > 1e-3

    def test_layout_returns_exactly_the_users_asked_for(self, cfg):
        layout = simulator.sorted_layout(cfg)
        sc = np.array([cfg.d_br, 0.0])
        for users in (list(cluster_members(cfg, 1)), list(cluster_members(cfg, 3))[2:5],
                      [u for j in (1, 2, 3) for u in cluster_members(cfg, j)]):
            geo = layout(np.random.default_rng(0), 500, users)(users)
            assert set(geo) == set(users)
            for u, (pos, d_bs, d_s) in geo.items():
                assert d_s.shape == (500,)
                if u.kind == "center":
                    assert pos.shape == (500, 2)
                    np.testing.assert_allclose(d_bs, np.linalg.norm(pos, axis=-1), rtol=1e-12)
                    np.testing.assert_allclose(d_s, np.linalg.norm(pos - sc, axis=-1), rtol=1e-12)
                    assert np.all(d_bs <= cfg.R)
                else:   # no gain key reads an edge user's position or BS distance
                    assert pos is None and d_bs is None
                    assert np.all(d_s <= cfg.R_r)
            # a nearer rank of one class is never farther than a farther one
            for u in users:
                for v in users:
                    if (u.kind, u.direction) == (v.kind, v.direction) and u.order < v.order:
                        d = 1 if u.kind == "center" else 2
                        assert np.all(geo[u][d] <= geo[v][d])


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
