import dataclasses

import numpy as np
import pytest

from starnoma.comparison import (
    PairAllocation,
    _best_split,
    _pair_tables,
    cluster_power_policy,
    pair_power_policy,
    pair_rate_sums,
    pair_slots,
    pair_structure,
    pair_groups,
    reference_edge_targets,
    simulate_pair_sums,
)
from starnoma.config import PowerAllocation
from starnoma.rates import Role, Term, bind, build_rate_inputs, rate_report, role_log2_mean


def _best_split_by_binding(roles, means, x_at, lo=0.02, hi=0.48, points=47):
    """The oracle: bind both roles afresh at every grid point, as the policies once did."""
    def objective(f):
        return sum(role_log2_mean(bind(roles[name], x_at(f)), means, {}) for name in ("DL1", "DL2"))

    grid = np.linspace(lo, hi, points)
    i = int(np.argmax([objective(f) for f in grid]))
    fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, points - 1)], 41)
    return float(fine[int(np.argmax([objective(f) for f in fine]))])


class TestPairStructure:
    def test_baseline_nine_users(self):
        pairs = pair_structure(6, 3)
        assert len(pairs) == 4
        assert pairs[0] == (("center", 1), ("edge", 3))
        assert pairs[2] == (("center", 3), ("edge", 1))
        assert pairs[3] == (("center", 4), ("center", 6))

    def test_even_count(self):
        pairs = pair_structure(6, 4)
        assert len(pairs) == 5
        assert pairs[4] == (("center", 5), ("center", 6))

    def test_odd_count_leaves_median_slot(self):
        pairs, leftover = pair_slots(6, 3)
        assert len(pairs) == 4
        assert leftover == ("center", 5)

    def test_even_count_has_no_leftover(self):
        _, leftover = pair_slots(6, 4)
        assert leftover is None


class TestPolicies:
    def test_cluster_policy_feasible(self, cfg, state):
        for snr in (0, 20, 40):
            point = cfg.with_snr(snr)
            alloc = cluster_power_policy(point, state)
            assert set(alloc) == {1, 2, 3}
            for pw in alloc.values():
                assert pw.alpha[0] < pw.alpha[1] < pw.alpha[2]
                assert sum(pw.alpha) <= 1 + 1e-12
                assert all(0 < p <= point.p_um for p in pw.p_ul)

    def test_cluster_policy_reproduces_reference_edge_rates(self, cfg, state):
        point = cfg.with_snr(30)
        dl_t, ul_t = reference_edge_targets(point, state)
        alloc = cluster_power_policy(point, state)
        for j, pw in alloc.items():
            rates = rate_report(point, pw, state, cluster=j).rates
            assert rates["DL3"] == pytest.approx(dl_t[j], rel=1e-6, abs=0)
            assert rates["UL3"] == pytest.approx(ul_t[j], rel=1e-6, abs=0)

    def test_pair_policy_feasible(self, cfg, state):
        for snr in (0, 20, 40):
            point = cfg.with_snr(snr)
            allocs = pair_power_policy(point, state)
            assert len(allocs) == 4
            for pa in allocs:
                assert 0 < pa.alpha[0] < pa.alpha[1]
                assert sum(pa.alpha) <= 1 + 1e-12
                assert all(0 < p <= point.p_um for p in pa.p)

    def test_explicit_scalar_targets_accepted(self, cfg, state):
        point = cfg.with_snr(20)
        alloc = cluster_power_policy(point, state, 1e-6, 1e-6)
        assert set(alloc) == {1, 2, 3}

    @pytest.mark.parametrize("xi", [0.0, 0.1])
    @pytest.mark.parametrize("snr", [0, 20, 40])
    def test_interpolated_split_matches_binding_every_point(self, cfg, state, snr, xi):
        point = dataclasses.replace(cfg.with_snr(snr), xi_sic=xi)
        cases = []
        for j in (1, 2, 3):
            inputs = build_rate_inputs(point, PowerAllocation((0.1, 0.3, 0.6), (point.p_um,) * 3), state, cluster=j)
            roles = {r.name: r for r in inputs.table.roles}
            cases.append((roles, inputs.means(), lambda f: (0.4 * f, 0.4 - 0.4 * f, 0.6, 1.0, 1.0, 0.5, 1.0)))
        tables, _ = _pair_tables(point, pair_groups(point), state)
        for roles, means in tables[:4]:
            cases.append(({r.name: r for r in roles}, means, lambda f: (f, 1.0 - f, 1.0, 0.5, 1.0)))
        for roles, means, x_at in cases:
            assert _best_split(roles, means, x_at) == _best_split_by_binding(roles, means, x_at)

    def test_interpolated_split_finds_an_interior_optimum(self):
        # log2(1 + 2f) + log2(1 + (1 - f)) peaks where 2 / (1 + 2f) = 1 / (2 - f), at f = 3/4
        roles = {
            "DL1": Role("DL1", Term((1.0, 0.0, 0.0), ("a",)), (), 1.0),
            "DL2": Role("DL2", Term((0.0, 1.0, 0.0), ("b",)), (), 1.0),
        }
        means = {("a",): 2.0, ("b",): 1.0}
        x_at = lambda f: (f, 1.0 - f, 1.0)
        got = _best_split(roles, means, x_at, 0.02, 0.98)
        assert got == _best_split_by_binding(roles, means, x_at, 0.02, 0.98)
        assert got == pytest.approx(0.75, abs=1e-3)

    def test_pair_allocation_validation(self):
        with pytest.raises(ValueError):
            PairAllocation(alpha=(0.7, 0.3), p=(1.0, 1.0))
        with pytest.raises(ValueError):
            PairAllocation(alpha=(0.3, 0.7), p=(0.0, 1.0))


class TestPairRates:
    def test_analytic_sums_positive(self, cfg, state):
        point = cfg.with_snr(30)
        allocs = pair_power_policy(point, state)
        dl, ul = pair_rate_sums(point, allocs, state)
        assert dl > 0 and ul > 0

    def test_simulated_close_to_analytic_shape(self, cfg, state):
        # same order of magnitude; the ratio approximation is not exact
        point = cfg.with_snr(20)
        allocs = pair_power_policy(point, state)
        dl, ul = pair_rate_sums(point, allocs, state)
        sim = simulate_pair_sums(point, allocs, state, trials=20_000, seed=7)
        assert sim["dl_sum"] == pytest.approx(dl, rel=0.8, abs=0)
        assert sim["ul_sum"] == pytest.approx(ul, rel=0.8, abs=0)

    def test_strong_members_match_simulation(self, cfg, state):
        # the log of the ratio of means put the DL sum at 0.177 against 0.100 simulated
        point = dataclasses.replace(cfg.with_snr(30), xi_sic=0.0)
        allocs = pair_power_policy(point, state)
        dl, ul = pair_rate_sums(point, allocs, state)
        sim = simulate_pair_sums(point, allocs, state, trials=40_000, seed=107)
        assert dl == pytest.approx(sim["dl_sum"], rel=0.05, abs=0)
        assert ul == pytest.approx(sim["ul_sum"], rel=0.05, abs=0)

    def test_simulation_deterministic(self, cfg, state):
        point = cfg.with_snr(20)
        allocs = pair_power_policy(point, state)
        a = simulate_pair_sums(point, allocs, state, trials=8_000, seed=3)
        b = simulate_pair_sums(point, allocs, state, trials=8_000, seed=3)
        assert a == b

    # 20,000 trials end in a partial block at both sizes
    @pytest.mark.parametrize("block_size", [1 << 12, 1 << 14])
    def test_points_call_equals_per_point_calls(self, cfg, state, block_size):
        points = [
            cfg.with_snr(10.0),
            dataclasses.replace(cfg.with_snr(30.0), xi_sic=0.0),
            dataclasses.replace(cfg.with_snr(30.0), beta_si=1.0, lambda_si=0.4),
            dataclasses.replace(cfg.with_snr(50.0), xi_sic=0.3),
        ]
        allocations = [
            [PairAllocation((a, 1.0 - a), (f * p.p_um, p.p_um)) for a in (0.1, 0.2, 0.3, 0.4)]
            for p, f in zip(points, (1.0, 0.5, 0.25, 0.1))
        ]
        got = simulate_pair_sums(points, allocations, state, 20_000, 6, block_size=block_size)
        assert len(got) == len(points)
        for point, allocs, sums in zip(points, allocations, got):
            assert sums == simulate_pair_sums(point, allocs, state, 20_000, 6, block_size=block_size)

    @pytest.mark.parametrize("field", ["N", "R", "kappa_map"])
    def test_points_that_differ_in_the_draw_are_rejected(self, cfg, state, field):
        value = {"N": 16, "R": 40.0, "kappa_map": {**cfg.kappa_map, "r,u3u": 0.0}}[field]
        allocs = [PairAllocation((0.3, 0.7), (1.0, 1.0))] * 4
        with pytest.raises(ValueError, match=f"differ in {field} "):
            simulate_pair_sums([cfg, dataclasses.replace(cfg, **{field: value})], [allocs, allocs], state, 100, 0)

    def test_wrong_allocation_count(self, cfg, state):
        with pytest.raises(ValueError):
            pair_rate_sums(cfg, [PairAllocation((0.3, 0.7), (1.0, 1.0))], state)
