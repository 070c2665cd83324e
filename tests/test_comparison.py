import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from starnoma import comparison
from starnoma.comparison import (
    _center_split,
    cluster_power_policy,
    pair_power_policy,
    pair_rate_sums,
    pair_groups,
    pair_schedule,
    ranked_layout,
    reference_edge_targets,
    simulate_pair_sums,
)
from starnoma.channel import StarRisState
from starnoma.config import PowerAllocation, baseline_config
from starnoma.design import aligned_state
from starnoma.geometry import sample_disk
from starnoma.rates import (
    Role,
    Term,
    bind,
    cached_surface_terms,
    cluster_group,
    group_tables,
    rate_report,
    role_log2_mean,
)
from starnoma.simulator import simulate_groups

# the policies at the cluster-vs-pair points, pinned as float.hex; a change that moves them on purpose
# recaptures with
#     PYTHONPATH=src python tests/test_comparison.py > tests/policy_pins.json
# and the pair sums of analytic_pins.json through tests/test_rates.py
PINS = Path(__file__).with_name("policy_pins.json")
ANALYTIC_PINS = Path(__file__).with_name("analytic_pins.json")
SWEEP_POINTS = tuple((xi, snr) for xi in (0.0, 0.1) for snr in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0))
OVERLAP = r"d_br - R_r = 30 must be at least R = 50 \(d_br = 60, R_r = 30\)"


def _sweep_point(cfg, xi_sic, snr_db):
    return dataclasses.replace(cfg.with_snr(snr_db), xi_sic=xi_sic)


def _allocation_hex(allocation):
    return [[x.hex() for x in allocation.alpha], [x.hex() for x in allocation.p_ul]]


def policy_pin(cfg, state, xi_sic, snr_db) -> dict:
    """One policy_pins.json entry: both policies' allocations at one sweep point."""
    point = _sweep_point(cfg, xi_sic, snr_db)
    return {
        "xi_sic": xi_sic, "snr_db": snr_db,
        "cluster": [_allocation_hex(a) for _, a in sorted(cluster_power_policy(point, state).items())],
        "pair": [_allocation_hex(a) for a in pair_power_policy(point, state)],
    }


def pair_sums_pin(cfg, state, xi_sic, snr_db) -> dict:
    """One analytic_pins.json pair_rate_sums entry: the pair sums at the pair policy."""
    point = _sweep_point(cfg, xi_sic, snr_db)
    dl, ul = pair_rate_sums(point, pair_power_policy(point, state), state)
    return {"xi_sic": xi_sic, "snr_db": snr_db, "dl_sum": dl.hex(), "ul_sum": ul.hex()}


def _split_objective(roles, means, x_at, f):
    """The oracle: the two roles' ratio-of-means sum rate, bound afresh at x_at(f)."""
    return sum(role_log2_mean(bind(role, x_at(f)), means, {}) for role in roles)


def _assert_no_grid_point_beats(roles, means, x_at, lo, hi):
    got = _center_split(roles, means, x_at, lo, hi)
    assert lo <= got <= hi
    best = max(_split_objective(roles, means, x_at, f) for f in np.linspace(lo, hi, 10_001))
    assert _split_objective(roles, means, x_at, got) >= best - 1e-12 * abs(best)
    return got


def _baseline_split_cases(cfg, state):
    """(roles, means, x_at) of the policies' splits on the baseline cluster and center-only pair tables."""
    clusters = [cluster_group(cfg, j) for j in (1, 2, 3)]
    surface = cached_surface_terms(cfg, state)
    tables = [(t.roles, t.means(surface)) for t in group_tables(cfg, clusters + pair_groups(cfg)[:4])]
    cases = [(roles[:2], means, lambda f: (0.4 * f, 0.4 - 0.4 * f, 0.6, 1.0, 1.0, 0.5, 1.0))
             for roles, means in tables[:3]]
    return cases + [(roles[:2], means, lambda f: (f, 1.0 - f, 1.0, 0.5, 1.0)) for roles, means in tables[3:]]


def _ranks(users):
    """(kind, order) of each user of one direction of a group."""
    return tuple((u.kind, u.order) for u in users)


class TestPairStructure:
    def test_baseline_nine_users(self, cfg):
        groups = pair_groups(cfg)
        for d in (0, 1):   # both directions hold 6 center and 3 edge users
            pairs = [_ranks(group[d]) for group in groups[:4]]
            assert pairs[0] == (("center", 1), ("edge", 3))
            assert pairs[2] == (("center", 3), ("edge", 1))
            assert pairs[3] == (("center", 4), ("center", 6))

    def test_even_count(self):
        groups = pair_groups(baseline_config(K_ed=4, K_eu=4))
        assert len(groups) == 5
        assert _ranks(groups[4][0]) == _ranks(groups[4][1]) == (("center", 5), ("center", 6))

    def test_odd_count_leaves_median_slot(self, cfg):
        groups = pair_groups(cfg)
        assert len(groups) == 5 and all(len(dl) == len(ul) == 2 for dl, ul in groups[:4])
        assert _ranks(groups[4][0]) == _ranks(groups[4][1]) == (("center", 5),)

    def test_even_count_has_no_leftover(self):
        assert all(len(dl) == len(ul) == 2 for dl, ul in pair_groups(baseline_config(K_ed=4, K_eu=4)))

    # 8 DL and 9 UL users would leave the UL median user in no group, and
    # 9 DL and 8 UL users the lone DL slot without a UL partner
    @pytest.mark.parametrize("counts,totals", [
        (dict(K_ed=2), r"K_cd \+ K_ed = 6 \+ 2 = 8 but K_cu \+ K_eu = 6 \+ 3 = 9"),
        (dict(K_eu=2), r"K_cd \+ K_ed = 6 \+ 3 = 9 but K_cu \+ K_eu = 6 \+ 2 = 8"),
    ], ids=["dl-even", "ul-even"])
    def test_totals_of_different_parity_rejected_by_count(self, state, counts, totals):
        cfg = baseline_config(M_d=2, M_u=2, **counts)
        with pytest.raises(ValueError, match=totals):
            pair_groups(cfg)
        with pytest.raises(ValueError, match=totals):
            pair_rate_sums(cfg, [PowerAllocation((0.3, 0.7), (1.0, 1.0))] * 4, state)


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
                assert all(0 < p <= point.p_um for p in pa.p_ul)

    def test_explicit_scalar_targets_accepted(self, cfg, state):
        point = cfg.with_snr(20)
        alloc = cluster_power_policy(point, state, 1e-6, 1e-6)
        assert set(alloc) == {1, 2, 3}

    @pytest.mark.parametrize("xi", [0.0, 0.1])
    @pytest.mark.parametrize("snr", [0, 20, 40])
    def test_center_split_beats_a_fine_grid_on_baseline_tables(self, cfg, state, snr, xi):
        point = dataclasses.replace(cfg.with_snr(snr), xi_sic=xi)
        for roles, means, x_at in _baseline_split_cases(point, state):
            _assert_no_grid_point_beats(roles, means, x_at, 0.02, 0.48)   # the policies' range

    def test_center_split_beats_a_fine_grid_on_random_tables(self):
        # over x = (f, 1 - f, 1): each role's signal on its own share, interference on
        # any variable, signal means over six decades and interference three below
        rng = np.random.default_rng(13)

        def coef(*cols):
            c = np.zeros(3)
            c[list(cols)] = rng.uniform(0.0, 1.0, len(cols))
            return tuple(c)

        interior = 0
        for _ in range(40):
            roles = tuple(
                Role(name, Term(coef(i), (f"s{i}",)), (Term(coef(1 - i, 2), (f"i{i}",)), Term(coef(0, 1, 2), ("c",))),
                     float(rng.uniform(0.01, 1.0)))
                for i, name in enumerate(("DL1", "DL2"))
            )
            means = {(k,): float(10.0 ** rng.uniform(-3, 3)) for k in ("s0", "s1")}
            means.update({(k,): float(10.0 ** rng.uniform(-6, 0)) for k in ("i0", "i1", "c")})
            got = _assert_no_grid_point_beats(roles, means, lambda f: (f, 1.0 - f, 1.0), 0.02, 0.98)
            interior += 0.02 < got < 0.98
        assert interior >= 3   # the roots are exercised, not only the ends

    def test_quadratic_roots_match_the_companion_matrix(self):
        rng = np.random.default_rng(8)
        for c0, c1, c2 in rng.standard_normal((2_000, 3)) * 10.0 ** rng.integers(-6, 7, (2_000, 3)):
            want = sorted(r.real for r in np.roots([c2, c1, c0]) if r.imag == 0)
            got = sorted(comparison._quadratic_roots(c0, c1, c2))
            assert got == pytest.approx(want, rel=1e-12, abs=0), (c0, c1, c2)

    @pytest.mark.parametrize("coeffs, want", [
        ((3.0, -2.0, 0.0), [1.5]),                      # a = 0: the linear zero
        ((3.0, 0.0, 0.0), []),                          # constant: no zero
        ((1.0, -2.0, 1.0), [1.0, 1.0]),                 # (f - 1)^2: a double zero
        ((0.0, 0.0, 2.0), [0.0, 0.0]),                  # 2 f^2: a double zero at 0
        ((1.0, 1.0, 1.0), []),                          # negative discriminant
        ((1e-8, 1.0, -1e-8), [-1e-8, 1e8]),             # no cancellation in the small zero
    ])
    def test_quadratic_roots_edge_cases(self, coeffs, want):
        c0, c1, c2 = coeffs
        got = sorted(comparison._quadratic_roots(c0, c1, c2))
        assert got == pytest.approx(want, rel=1e-15, abs=0)
        # np.roots drops a zero leading coefficient too, but splits a double zero by about
        # sqrt(eps), maybe off the real axis
        real = sorted(r.real for r in np.roots(coeffs[::-1]) if abs(r.imag) <= 1e-7 * abs(r))
        assert got == pytest.approx(real, rel=1e-7, abs=0)

    def test_center_split_finds_an_interior_optimum(self):
        # log2(1 + 2f) + log2(1 + (1 - f)) peaks where 2 / (1 + 2f) = 1 / (2 - f), at f = 3/4
        roles = (
            Role("DL1", Term((1.0, 0.0, 0.0), ("a",)), (), 1.0),
            Role("DL2", Term((0.0, 1.0, 0.0), ("b",)), (), 1.0),
        )
        means = {("a",): 2.0, ("b",): 1.0}
        got = _center_split(roles, means, lambda f: (f, 1.0 - f, 1.0), 0.02, 0.98)
        assert got == pytest.approx(0.75, rel=0, abs=1e-12)

    def test_policies_pinned_at_the_sweep_points(self, cfg, state):
        # the cluster-vs-pair points on the seed-1 random state, as float.hex; the pair
        # allocations move, and are re-pinned, once the pair targets use the schedule's share
        for pin in json.loads(PINS.read_text()):
            assert policy_pin(cfg, state, pin["xi_sic"], pin["snr_db"]) == pin, (pin["xi_sic"], pin["snr_db"])

    @pytest.mark.parametrize("policy", [cluster_power_policy, pair_power_policy])
    @pytest.mark.parametrize("name", ["dl_edge_targets", "ul_edge_targets"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, {1: 1e-6, 2: math.nan, 3: 1e-6}, {1: -1.0}, {}, "0.1"])
    def test_bad_edge_targets_rejected_by_name(self, cfg, state, policy, name, bad):
        with pytest.raises(ValueError, match=name):
            policy(cfg.with_snr(20), state, **{name: bad})

    def test_pair_allocation_validation(self):
        with pytest.raises(ValueError):
            PowerAllocation(alpha=(0.7, 0.3), p_ul=(1.0, 1.0))
        with pytest.raises(ValueError):
            PowerAllocation(alpha=(0.3, 0.7), p_ul=(0.0, 1.0))


class TestOneFaceStates:
    """rho_t = 1 (or 0) on every element leaves one face dark, and its edge user with a zero signal mean."""

    @pytest.mark.parametrize("rho_t,dark", [(1.0, "DL"), (0.0, "UL")], ids=["reflection-dark", "transmission-dark"])
    @pytest.mark.parametrize("target", [None, 1e-3], ids=["reference", "scalar"])
    @pytest.mark.parametrize("scheme", ["cluster", "pair"])
    def test_dark_edge_user_takes_an_end_of_its_clamp(self, cfg, rho_t, dark, target, scheme):
        # a zero target (the reference rate on a dark face) takes the lower end, a positive one the
        # cap, and no policy divides 0 by 0 (a RuntimeWarning, an error under the test settings)
        point = cfg.with_snr(30)
        aligned = aligned_state(point)
        state = StarRisState(np.full(cfg.N, rho_t), np.full(cfg.N, 1.0 - rho_t), aligned.phi_t, aligned.phi_r)
        if scheme == "cluster":
            groups = [cluster_group(point, j) for j in (1, 2, 3)]
            allocs, dl_floor = list(cluster_power_policy(point, state, target, target).values()), 0.45
        else:
            groups = pair_groups(point)[:4]
            allocs, dl_floor = pair_power_policy(point, state, target, target), 0.55
        ends = {"DL": (dl_floor, 0.95), "UL": (1e-9 * point.p_um, point.p_um)}[dark]
        want = ends[0] if target is None else ends[1]
        edges = 0
        for (dl, ul), alloc in zip(groups, allocs):
            if (dl if dark == "DL" else ul)[-1].kind == "edge":
                edges += 1
                assert (alloc.alpha if dark == "DL" else alloc.p_ul)[-1] == want
        assert edges == 3


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
            [PowerAllocation((a, 1.0 - a), (f * p.p_um, p.p_um)) for a in (0.1, 0.2, 0.3, 0.4)]
            for p, f in zip(points, (1.0, 0.5, 0.25, 0.1))
        ]
        [got] = simulate_groups([pair_schedule(points, allocations, state)], 20_000, 6, block_size)
        assert len(got) == len(points)
        for point, allocs, sums in zip(points, allocations, got):
            assert sums == simulate_pair_sums(point, allocs, state, 20_000, 6, block_size=block_size)

    @pytest.mark.parametrize("field", ["N", "R", "kappa_map"])
    def test_points_that_differ_in_the_draw_are_rejected(self, cfg, state, field):
        value = {"N": 16, "R": 40.0, "kappa_map": {**cfg.kappa_map, "r,u3u": 0.0}}[field]
        allocs = [PowerAllocation((0.3, 0.7), (1.0, 1.0))] * 4
        with pytest.raises(ValueError, match=f"differ in {field} "):
            simulate_groups([pair_schedule([cfg, dataclasses.replace(cfg, **{field: value})], [allocs, allocs], state)],
                            100, 0)

    def test_sums_pinned_at_the_sweep_points(self, cfg, state):
        # the cluster-vs-pair points on the seed-1 random state at the pinned policy, as float.hex
        for pin in json.loads(ANALYTIC_PINS.read_text())["pair_rate_sums"]:
            assert pair_sums_pin(cfg, state, pin["xi_sic"], pin["snr_db"]) == pin, (pin["xi_sic"], pin["snr_db"])

    def test_wrong_allocation_count(self, cfg, state):
        with pytest.raises(ValueError):
            pair_rate_sums(cfg, [PowerAllocation((0.3, 0.7), (1.0, 1.0))], state)


class TestPairingGeometry:
    """The pairing ranks every center user before every edge user, so the disks must not overlap."""

    def test_overlapping_disks_rejected_by_name(self, cfg, state):
        # at d_br = 60 the DL rank-1 edge slot (overall rank 7 of 9) holds a center-disk point in 40 % of drops
        near = dataclasses.replace(cfg, d_br=60.0)
        allocs = [PowerAllocation((0.3, 0.7), (1.0, 1.0))] * 4
        with pytest.raises(ValueError, match=OVERLAP):
            pair_groups(near)
        with pytest.raises(ValueError, match=OVERLAP):
            pair_rate_sums(near, allocs, state)
        with pytest.raises(ValueError, match=OVERLAP):
            simulate_pair_sums(near, allocs, state, trials=100, seed=0)


def joint_sort_layout(cfg):
    """Oracle: the pairing layout drawn whole, each direction's center and edge users
    dropped in their disks and ranked jointly by BS distance, with the layout's
    resolve() result for a group."""
    sc = np.array([cfg.d_br, 0.0])
    counts = {"DL": (cfg.K_cd, cfg.K_ed), "UL": (cfg.K_cu, cfg.K_eu)}

    def layout(rng, B, users):
        rows, pos = np.arange(B), {}
        for d, (Kc, Ke) in counts.items():
            pts = np.concatenate([
                sample_disk(rng, B * Kc, cfg.R).reshape(B, Kc, 2),
                sample_disk(rng, B * Ke, cfg.R_r, center=sc).reshape(B, Ke, 2),
            ], axis=1)
            order = np.argsort(np.linalg.norm(pts, axis=-1), kind="stable", axis=-1)
            for u in users:
                if u.direction == d:
                    pos[u] = pts[rows, order[:, u.order - 1 + (0 if u.kind == "center" else Kc)]]

        def resolve(group):
            return {u: (pos[u] if u.kind == "center" else None, np.linalg.norm(pos[u], axis=-1),
                        np.linalg.norm(pos[u] - sc, axis=-1)) for u in group}

        return resolve

    return layout


class TestPairingLayout:
    """The pairing draws its center and edge users class by class; the joint sort of a whole drop is the law."""

    DROPS = 100_000

    @pytest.mark.parametrize("geometry", [{}, dict(R=40.0, R_r=25.0, d_br=65.0), dict(d_br=110.0)],
                             ids=["baseline-touching", "other-touching", "apart"])
    def test_every_rank_matches_the_joint_sort(self, geometry):
        # the baseline and "other" disks touch (d_br - R_r == R exactly), the last ones are 30 m apart
        cfg = baseline_config(**geometry)
        users = [u for dl, ul in pair_groups(cfg) for u in (*dl, *ul)]
        got = ranked_layout(cfg)(np.random.default_rng(41), self.DROPS, users)(users)
        want = joint_sort_layout(cfg)(np.random.default_rng(42), self.DROPS, users)(users)
        for u in users:
            (pos, d_bs, d_s), (want_pos, want_bs, want_s) = got[u], want[u]
            samples = [(d_bs, want_bs), (d_s, want_s)]
            if u.kind == "center":
                samples += [(pos[:, 0], want_pos[:, 0]), (pos[:, 1], want_pos[:, 1])]
                np.testing.assert_allclose(np.hypot(pos[:, 0], pos[:, 1]), d_bs, rtol=1e-12)
                np.testing.assert_allclose(np.hypot(pos[:, 0] - cfg.d_br, pos[:, 1]), d_s, rtol=1e-12)
            else:
                assert pos is None
            for a, b in samples:
                assert stats.ks_2samp(a, b).pvalue > 1e-3, u
        # in every drop each direction's BS-distance ranks ascend across the classes
        for d, K in (("DL", cfg.K_cd + cfg.K_ed), ("UL", cfg.K_cu + cfg.K_eu)):
            ranked = sorted((u for u in users if u.direction == d),
                            key=lambda u: u.order + (0 if u.kind == "center" else K))
            assert np.all(np.diff([got[u][1] for u in ranked], axis=0) >= 0)


class TestBearingRule:
    # K_cu = 8, K_eu = 1: the UL pairs are (c1, e1), (c2, c8), (c3, c7), (c4, c6), so the
    # weak UL members of pairs 2 and 3 are center users under a DL edge member
    ASYMMETRIC = dict(K_cu=8, K_eu=1, K_u1=4, K_u2=4, M_d=1, M_u=1)

    def test_weak_center_members_carry_the_mid_bearing(self):
        groups = pair_groups(baseline_config(**self.ASYMMETRIC))
        assert [(ul[1].kind, ul[1].order, ul[1].link) for _, ul in groups[1:3]] == [
            ("center", 8, "r,u2u"), ("center", 7, "r,u2u")]
        for dl, ul in groups:
            for users in (dl, ul):
                for i, u in enumerate(users):
                    index = 3 if u.kind == "edge" else 2 if i == 1 else 1
                    assert u.link == f"r,u{index}{u.direction[0].lower()}"

    def test_analytic_and_simulated_pairing_read_the_same_groups(self, state, monkeypatch):
        cfg = baseline_config(**self.ASYMMETRIC).with_snr(20.0)
        groups = pair_groups(cfg)
        tables = group_tables(cfg, groups)
        for (dl, ul), table in zip(groups[1:3], tables[1:3]):
            # the DL edge member hears the weak UL member through the mid users' surface term
            assert table.parts[("cascade", "r", dl[1], ul[1])][1] == "omega_u3d_u2u"
        allocs = pair_power_policy(cfg, state)
        seen = []
        real_tables, real_simulate = comparison.group_tables, comparison.simulate_groups
        monkeypatch.setattr(comparison, "group_tables", lambda c, g: seen.append(g) or real_tables(c, g))
        monkeypatch.setattr(
            comparison, "simulate_groups", lambda s, *a, **k: seen.append(s[0].groups) or real_simulate(s, *a, **k))
        pair_rate_sums(cfg, allocs, state)
        simulate_pair_sums(cfg, allocs, state, trials=200, seed=1)
        assert seen == [groups, groups]


if __name__ == "__main__":
    import sys

    cfg = baseline_config()
    state = StarRisState.random(cfg.N, np.random.default_rng(1))
    pins = [policy_pin(cfg, state, xi, snr) for xi, snr in SWEEP_POINTS]
    sys.stdout.write("[\n" + ",\n".join(" " + json.dumps(pin) for pin in pins) + "\n]\n")
