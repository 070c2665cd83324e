import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from starnoma.channel import StarRisState
from starnoma.config import ConfigError, PowerAllocation, default_power_allocation
from starnoma.comparison import pair_groups
from starnoma.geometry import (
    OrderSpec,
    ordered_pathloss_density,
    ordered_pathloss_mean,
    ordered_pathloss_rule,
)
from starnoma.rates import (
    RATE_MODELS,
    RateReport,
    Role,
    Term,
    Positions,
    build_rate_inputs,
    cluster_members,
    expectation_terms,
    fading_log2_mean,
    noma_roles,
    order_spec,
    pathloss,
    position_parts,
    positions,
    rate_report,
    role_log2_mean,
    role_rates,
    table_keys,
    unit_gain_scales,
    weighted_sum_rate,
)
from starnoma.simulator import sorted_layout
from starnoma.specfun import exp_e1
from starnoma.design import aligned_state

# the closed forms pinned as float.hex; a change that moves them on purpose recaptures with
#     PYTHONPATH=src python tests/test_rates.py > tests/analytic_pins.json
PINS = Path(__file__).with_name("analytic_pins.json")
PIN_SNRS_DB = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)


def rate_report_pin(cfg, state, model, snr_db, cluster) -> dict:
    """One analytic_pins.json rate_report entry: a cluster's rates at the default allocation."""
    point = cfg.with_snr(snr_db)
    report = rate_report(point, default_power_allocation(point), state, cluster=cluster, model=model)
    return {"model": model, "snr_db": snr_db, "cluster": cluster, "rates": {r: v.hex() for r, v in report.rates.items()}}


def _log2_1p(x):
    """log2(1 + x) without rounding 1 + x: the hand oracles' SINRs reach 1e-6."""
    return math.log1p(x) / math.log(2.0)


def _inputs(cfg, power, state, cluster=1):
    return build_rate_inputs(cfg, power, state, cluster)


def _paper(inputs, role):
    """The paper's closed form of one cluster role: its ratio-of-means rate."""
    return role_rates(inputs, "ratio-of-means")[role]


def conditional_terms(cfg, geo, cluster=1) -> Positions:
    """Oracle: the Positions of cluster j at one drop instead of their means.

    geo is the {user: (position, BS distance, surface distance)} of one trial
    that simulator.sorted_layout resolves at B = 1; averaging these over many
    drops must reproduce rates.positions.  Pair and outside-point factors are
    taken between the cluster's own members; the strong users' path-loss
    rules hold their one realized gain.
    """
    u1d, u2d, u3d, u1u, u2u, u3u = members = cluster_members(cfg, cluster)

    def loss(d):
        return float(pathloss(d, cfg.m))

    pos = {u: geo[u][0][0] for u in (u1d, u1u, u2u)}
    pair_d = 0.5 * (np.linalg.norm(pos[u1d] - pos[u1u]) + np.linalg.norm(pos[u1d] - pos[u2u]))
    return Positions(
        loss={u: loss(geo[u][1 if u.kind == "center" else 2][0]) for u in members},
        rules={("direct", u): (pathloss(geo[u][1], cfg.m), np.ones(1)) for u in (u1d, u1u)},
        y1=loss(pair_d),
        q_center=loss(geo[u1d][2][0]),
        l_br=loss(cfg.d_br),
    )


def _drop(cfg, rng, cluster=1):
    """One trial of the cluster layout, resolved for cluster j's members."""
    members = cluster_members(cfg, cluster)
    return sorted_layout(cfg)(rng, 1, members)(members)


def _orders(cfg, cluster):
    """The distance rank of each member of cluster j, DL strong, mid, edge, then UL."""
    return tuple(u.order for u in cluster_members(cfg, cluster))


class TestTermBookkeeping:
    def test_orders_for_first_cluster(self, cfg):
        assert _orders(cfg, 1) == (1, 4, 3, 1, 4, 1)
        assert [(u.kind, u.direction) for u in cluster_members(cfg, 1)] == [
            ("center", "DL"), ("center", "DL"), ("edge", "DL"), ("center", "UL"), ("center", "UL"), ("edge", "UL")]

    def test_orders_for_last_cluster(self, cfg):
        k = _orders(cfg, 3)
        assert k[1] == 6 and k[2] == 1 and k[5] == 3

    def test_bad_cluster_rejected(self, cfg):
        for cluster, counts, message in [
            (4, {}, "cluster index 4 outside 1..3"),
            (0, {}, "cluster index 0 outside 1..3"),
            (3, dict(K_d1=4, K_d2=2), "group-2 population"),
            (3, dict(K_u1=4, K_u2=2), "group-2 population"),
            (3, dict(K_ed=2), "edge population"),
            (3, dict(K_eu=2), "edge population"),
        ]:
            with pytest.raises(ValueError, match=message):
                cluster_members(dataclasses.replace(cfg, **counts), cluster)

    def test_positions_keyed_by_member(self, cfg):
        for cluster in (1, 3):
            k = _orders(cfg, cluster)
            u1d, u2d, u3d, u1u, u2u, u3u = cluster_members(cfg, cluster)
            pos = expectation_terms(cfg, cluster)
            hand = {
                u1d: (k[0], cfg.K_cd, cfg.R), u2d: (k[1], cfg.K_cd, cfg.R),
                u3d: (k[2], cfg.K_ed, cfg.R_r), u1u: (k[3], cfg.K_cu, cfg.R),
                u2u: (k[4], cfg.K_cu, cfg.R), u3u: (k[5], cfg.K_eu, cfg.R_r),
            }
            assert pos.loss == {u: ordered_pathloss_mean(OrderSpec(*spec), cfg.m) for u, spec in hand.items()}
            assert set(pos.rules) == {("direct", u1d), ("direct", u1u)}
            assert pos.rules[("direct", u1u)] is ordered_pathloss_rule(OrderSpec(*hand[u1u]), cfg.m)
            assert pos.l_br == pytest.approx((1.0 + cfg.d_br) ** (-cfg.m), rel=1e-15, abs=0)
            assert min(pos.loss.values()) > 0 and pos.y1 > 0 and pos.q_center > 0

    def test_pair_positions_rule_only_partnered_center_strong_members(self, cfg):
        groups = pair_groups(cfg)
        pos = positions(cfg, groups)
        assert set(pos.loss) == {u for dl, ul in groups for u in dl + ul}
        want = {("direct", users[0]) for group in groups for users in group
                if len(users) == 2 and users[0].kind == "center"}
        assert len(groups[-1][0]) == 1 and want and set(pos.rules) == want

    def test_conditional_terms_average_to_statistical(self, cfg):
        # each loss lies in (0, 1], so its drop average is normal to within a z-score of
        # 4.5 (6.8e-6 two-sided per member); the neighbouring rank's mean sits 8-150
        # standard errors away at seeds 0-7, so the bound rejects it
        rng = np.random.default_rng(0)
        members = cluster_members(cfg)
        drops = np.array([[conditional_terms(cfg, _drop(cfg, rng)).loss[u] for u in members] for _ in range(4000)])
        mean, stderr = drops.mean(axis=0), drops.std(axis=0, ddof=1) / math.sqrt(len(drops))
        t0 = expectation_terms(cfg)
        want = np.array([t0.loss[u] for u in members])
        assert np.all(np.abs(mean - want) < 4.5 * stderr)

        def neighbour(u):
            spec = order_spec(cfg, u)
            k = spec.k + 1 if spec.k < spec.K else spec.k - 1
            return ordered_pathloss_mean(OrderSpec(k, spec.K, spec.radius), cfg.m)

        wrong = np.array([neighbour(u) for u in members])
        assert np.all(np.abs(mean - wrong) > 4.5 * stderr)


class TestDownlinkRates:
    def test_zero_coefficient_zero_rate(self, cfg, state):
        # alpha ordering requires a1 > 0, so probe the limit with a tiny value
        pw = PowerAllocation((1e-15, 0.3, 0.6), (cfg.p_um,) * 3)
        inputs = _inputs(cfg, pw, state)
        assert _paper(inputs, "DL1") == pytest.approx(0.0, abs=1e-12)

    def test_strong_user_sic_ceiling(self, cfg, state, power):
        a = power.alpha
        ceiling = math.log2(1 + a[0] / (cfg.xi_sic * (a[1] + a[2]))) / cfg.M_d
        for snr in (10, 30, 50, 80):
            inputs = _inputs(cfg.with_snr(snr), power, state)
            assert _paper(inputs, "DL1") <= ceiling + 1e-12

    def test_mid_user_reduces_to_single_user_form(self, cfg, state):
        quiet = dataclasses.replace(cfg, xi_sic=0.0)
        pw = PowerAllocation((1e-12, 0.3, 0.6), (1e-12, 1e-12, 1e-12))
        inputs = _inputs(quiet, pw, state)
        x2 = ordered_pathloss_mean(OrderSpec(4, quiet.K_cd, quiet.R), quiet.m)   # first of the second group
        want = _log2_1p(0.3 * quiet.P_b * x2 / quiet.sigma2) / quiet.M_d
        assert _paper(inputs, "DL2") == pytest.approx(want, rel=1e-6, abs=0)

    def test_edge_user_interference_ceiling(self, cfg, state, power):
        a = power.alpha
        for snr in (20, 40, 60):
            inputs = _inputs(cfg.with_snr(snr), power, state)
            bound = math.log2(1 + a[2] / (a[0] + a[1])) / cfg.M_d
            assert _paper(inputs, "DL3") < bound

    def test_edge_rate_grows_with_elements_under_alignment(self, cfg, power):
        rates = []
        for n in (4, 16, 36, 64):
            c = dataclasses.replace(cfg, N=n)
            rates.append(_paper(_inputs(c, power, aligned_state(c)), "DL3"))
        assert all(b > a for a, b in zip(rates, rates[1:]))


class TestUplinkRates:
    def test_zero_power_zero_rate(self, cfg, state):
        pw = PowerAllocation((0.1, 0.3, 0.6), (1e-30, cfg.p_um, cfg.p_um))
        assert _paper(_inputs(cfg, pw, state), "UL1") == pytest.approx(0.0, abs=1e-9)

    def test_perfect_sic_edge_denominator(self, cfg, state, power):
        quiet = dataclasses.replace(cfg, xi_sic=0.0)
        inputs = _inputs(quiet, power, state)
        pos, s = expectation_terms(quiet), inputs.surface
        edge_gain = s.omega_br_u3u * pos.l_br * pos.loss[cluster_members(quiet)[5]]
        V = quiet.beta_si * quiet.P_b**quiet.lambda_si
        want = _log2_1p(
            power.p_ul[2] * edge_gain / (quiet.P_b * pos.l_br**2 * s.y3_raw + V + quiet.sigma2)
        ) / quiet.M_u
        assert _paper(inputs, "UL3") == pytest.approx(want, rel=1e-12, abs=0)

    def test_high_self_interference_hurts_all_ul(self, cfg, state):
        for snr in (0, 10, 20, 30, 40, 50):
            base_cfg = cfg.with_snr(snr)
            loud_cfg = dataclasses.replace(base_cfg, beta_si=1.0, lambda_si=0.4)
            pw = PowerAllocation((0.1, 0.3, 0.6), (base_cfg.p_um,) * 3)
            for role in ("UL1", "UL2", "UL3"):
                assert _paper(_inputs(loud_cfg, pw, state), role) < _paper(_inputs(base_cfg, pw, state), role)


class TestWiringOracles:
    """Rates reassembled from the primitive operations, bypassing the terms cache."""

    def test_dl_edge_assembly(self, cfg, state, power):
        from starnoma.channel import build_links, cascaded_power_mean
        from starnoma.geometry import (
            OrderSpec,
            ordered_pathloss_mean,
            outside_point_pathloss_mean,
        )

        links = build_links(cfg)
        x_e = ordered_pathloss_mean(OrderSpec(3, 3, cfg.R_r), cfg.m)   # farthest of 3
        x_eu = ordered_pathloss_mean(OrderSpec(1, 3, cfg.R_r), cfg.m)  # nearest of 3
        q = outside_point_pathloss_mean(cfg.R, cfg.r1, cfg.m)
        l_br = (1 + cfg.d_br) ** (-cfg.m)
        w_br = cascaded_power_mean(state.coefficients("r"), links["r,u3d"], links["b,r"])
        w1 = cascaded_power_mean(state.coefficients("r"), links["r,u3d"], links["r,u1u"])
        w2 = cascaded_power_mean(state.coefficients("r"), links["r,u3d"], links["r,u2u"])
        w3 = cascaded_power_mean(state.coefficients("r"), links["r,u3d"], links["r,u3u"])
        a, p = power.alpha, power.p_ul
        S = l_br * w_br * x_e
        b1 = p[0] * w1 + p[1] * w2
        num = a[2] * cfg.P_b * S
        den = (a[0] + a[1]) * cfg.P_b * S + b1 * x_e * q + p[2] * w3 * x_e * x_eu + cfg.sigma2
        hand = _log2_1p(num / den) / cfg.M_d
        assert _paper(_inputs(cfg, power, state), "DL3") == pytest.approx(hand, rel=1e-14, abs=0)

    def test_ul_strong_assembly(self, cfg, state, power):
        from starnoma.channel import (
            build_links,
            cascaded_power_mean,
            self_reflection_power_mean,
        )
        from starnoma.geometry import OrderSpec, ordered_pathloss_mean

        links = build_links(cfg)
        chi1 = ordered_pathloss_mean(OrderSpec(1, 6, cfg.R), cfg.m)
        chi2 = ordered_pathloss_mean(OrderSpec(4, 6, cfg.R), cfg.m)
        x_eu = ordered_pathloss_mean(OrderSpec(1, 3, cfg.R_r), cfg.m)
        l_br = (1 + cfg.d_br) ** (-cfg.m)
        w_e = cascaded_power_mean(state.coefficients("t"), links["b,r"], links["r,u3u"])
        bounce = self_reflection_power_mean(state.coefficients("t"), links["b,r"])
        p = power.p_ul
        V = cfg.beta_si * cfg.P_b**cfg.lambda_si
        num = p[0] * chi1
        den = p[1] * chi2 + p[2] * w_e * l_br * x_eu + cfg.P_b * l_br**2 * bounce + V + cfg.sigma2
        hand = _log2_1p(num / den) / cfg.M_u
        assert _paper(_inputs(cfg, power, state), "UL1") == pytest.approx(hand, rel=1e-14, abs=0)


    @staticmethod
    def _primitives(cfg, state):
        from starnoma.channel import build_links, cascaded_power_mean, self_reflection_power_mean
        from starnoma.geometry import (
            OrderSpec,
            ordered_pathloss_mean,
            outside_point_pathloss_mean,
            pair_pathloss_mean,
        )

        links = build_links(cfg)
        return dict(
            x1=ordered_pathloss_mean(OrderSpec(1, 6, cfg.R), cfg.m),    # nearest of 6 center users
            x2=ordered_pathloss_mean(OrderSpec(4, 6, cfg.R), cfg.m),    # first of the second group
            x_eu=ordered_pathloss_mean(OrderSpec(1, 3, cfg.R_r), cfg.m),
            y1=pair_pathloss_mean(cfg.R, cfg.m),
            q=outside_point_pathloss_mean(cfg.R, cfg.r1, cfg.m),
            l_br=(1 + cfg.d_br) ** (-cfg.m),
            w1=cascaded_power_mean(state.coefficients("t"), links["r,u1d"], links["r,u3u"]),
            w2=cascaded_power_mean(state.coefficients("t"), links["r,u2d"], links["r,u3u"]),
            w_e=cascaded_power_mean(state.coefficients("t"), links["b,r"], links["r,u3u"]),
            bounce=self_reflection_power_mean(state.coefficients("t"), links["b,r"]),
            V=cfg.beta_si * cfg.P_b**cfg.lambda_si,
        )

    @pytest.mark.parametrize("xi", [0.0, 0.1])
    def test_dl_strong_and_mid_assembly(self, cfg, state, power, xi):
        cfg = dataclasses.replace(cfg, xi_sic=xi)
        t = self._primitives(cfg, state)
        a, p, P = power.alpha, power.p_ul, cfg.P_b
        ul_center = (p[0] + p[1]) * t["y1"]
        den1 = xi * P * (a[1] + a[2]) * t["x1"] + ul_center + p[2] * t["w1"] * t["x_eu"] * t["q"] + cfg.sigma2
        den2 = P * t["x2"] * (xi * a[2] + a[0]) + ul_center + p[2] * t["w2"] * t["x_eu"] * t["q"] + cfg.sigma2
        inputs = _inputs(cfg, power, state)
        hand1 = _log2_1p(a[0] * P * t["x1"] / den1) / cfg.M_d
        hand2 = _log2_1p(a[1] * P * t["x2"] / den2) / cfg.M_d
        assert _paper(inputs, "DL1") == pytest.approx(hand1, rel=1e-14, abs=0)
        assert _paper(inputs, "DL2") == pytest.approx(hand2, rel=1e-14, abs=0)

    @pytest.mark.parametrize("xi", [0.0, 0.1])
    def test_ul_mid_and_edge_assembly(self, cfg, state, power, xi):
        cfg = dataclasses.replace(cfg, xi_sic=xi)
        t = self._primitives(cfg, state)
        p = power.p_ul
        floor = cfg.P_b * t["l_br"] ** 2 * t["bounce"] + t["V"] + cfg.sigma2
        edge = t["w_e"] * t["l_br"] * t["x_eu"]
        inputs = _inputs(cfg, power, state)
        hand2 = _log2_1p(p[1] * t["x2"] / (xi * p[0] * t["x1"] + p[2] * edge + floor)) / cfg.M_u
        hand3 = _log2_1p(p[2] * edge / (xi * (p[0] * t["x1"] + p[1] * t["x2"]) + floor)) / cfg.M_u
        assert _paper(inputs, "UL2") == pytest.approx(hand2, rel=1e-14, abs=0)
        assert _paper(inputs, "UL3") == pytest.approx(hand3, rel=1e-14, abs=0)


class TestRoleTable:
    def test_every_key_has_a_mean_and_a_sampler(self, cfg, state, monkeypatch):
        from starnoma.comparison import pair_groups
        from starnoma.rates import cached_surface_terms, group_tables

        from starnoma.simulator import NOISE, BlockDraws, Surface, gain_plan, sample_gains
        from starnoma.channel import build_links

        links = build_links(cfg)
        rng = np.random.default_rng(0)
        # every array np.empty makes starts as NaN, so a row that is never written shows
        full = np.full
        monkeypatch.setattr(np, "empty", lambda shape, dtype=float: full(shape, np.nan, dtype))
        block = BlockDraws.draw(Surface.of(cfg, state, links), links, rng, 4)
        fake = (np.zeros((4, 2)), np.ones(4), np.ones(4))   # position, BS and surface distance

        def sampled(roles, users):
            plan = gain_plan(roles, users)
            gains = sample_gains(plan, {u: fake for u in users}, links, rng, block)
            assert gains.shape == (len(plan.keys), 4) and np.isfinite(gains).all()
            assert np.all(gains[plan.keys.index(NOISE)] == 1.0)
            return set(plan.keys) - {NOISE}

        for j in (1, 2, 3):
            inputs = _inputs(cfg, default_power_allocation(cfg), state, cluster=j)
            keys = set(table_keys(inputs.table.roles))
            assert keys == set(inputs.means()) == sampled(inputs.table.roles, cluster_members(cfg, j))
        surface = cached_surface_terms(cfg, state)
        for table in group_tables(cfg, pair_groups(cfg)):
            assert set(table_keys(table.roles)) == set(table.means(surface))
        for dl, ul in pair_groups(cfg):
            roles = noma_roles(cfg, dl, ul)
            assert set(table_keys(roles)) == sampled(roles, dl + ul)

    def test_state_size_checked_at_the_boundary(self, cfg, power):
        with pytest.raises(ValueError, match="N=11"):
            rate_report(cfg, power, StarRisState.uniform(cfg.N + 1))


class TestAggregation:
    def test_zero_weights(self, cfg, state, power):
        zero = dataclasses.replace(cfg, weights_dl=(0.0,) * 3, weights_ul=(0.0,) * 3)
        assert weighted_sum_rate(_inputs(zero, power, state)) == 0.0

    def test_unit_weights_match_report_sums(self, cfg, state, power):
        inputs = _inputs(cfg, power, state)
        report = rate_report(cfg, power, state)
        assert weighted_sum_rate(inputs) == pytest.approx(report.dl_sum + report.ul_sum, rel=1e-12, abs=0)

    def test_random_weights_match_recomputation(self, cfg, state, power):
        rng = np.random.default_rng(2)
        report = rate_report(cfg, power, state)
        w = {r: float(rng.random()) for r in report.rates}
        dl, ul = (tuple(w[f"{d}{i}"] for i in (1, 2, 3)) for d in ("DL", "UL"))
        weighted = dataclasses.replace(cfg, weights_dl=dl, weights_ul=ul)
        want = sum(w[r] * report.rates[r] for r in report.rates)
        assert weighted_sum_rate(_inputs(weighted, power, state)) == pytest.approx(want, rel=1e-12, abs=0)

    def test_negative_weight_rejected(self, cfg):
        # the weights come from the config only, which rejects a negative one where it enters
        with pytest.raises(ConfigError, match="weights must be nonnegative"):
            dataclasses.replace(cfg, weights_dl=(-1.0, 1.0, 1.0))

    def test_rates_finite_and_nonnegative(self, cfg, state, power):
        for snr in (0, 20, 40):
            rep = rate_report(cfg.with_snr(snr), power, state)
            for v in rep.rates.values():
                assert np.isfinite(v) and v >= 0

    def test_report_requires_all_roles(self):
        with pytest.raises(ValueError):
            RateReport(rates={"DL1": 1.0}, method="analytic", cluster=1)

    @pytest.mark.parametrize("bad", [math.nan, -1e-3, math.inf])
    def test_report_rejects_a_bad_rate_by_role(self, bad):
        # NaN passes a `v < 0` check
        rates = {**dict.fromkeys(("DL1", "DL2", "DL3", "UL1", "UL2", "UL3"), 0.1), "UL2": bad}
        with pytest.raises(ValueError, match="rate of UL2"):
            RateReport(rates=rates, method="analytic", cluster=1)

    def test_rate_reports_pinned(self, cfg, state):
        # clusters 1-3, both models, the default SNRs, at the default allocation and the
        # seed-1 random state, as float.hex: a refactor that moves any digit fails here
        for pin in json.loads(PINS.read_text())["rate_report"]:
            point = pin["model"], pin["snr_db"], pin["cluster"]
            assert rate_report_pin(cfg, state, *point) == pin, point

    def test_sic_error_monotonicity(self, cfg, state, power):
        # DL1, UL2, UL3 never gain from a worse SIC residual
        snr_cfg = cfg.with_snr(40)
        rates = []
        for xi in (0.0, 0.05, 0.1, 0.3):
            rep = rate_report(dataclasses.replace(snr_cfg, xi_sic=xi), power, state)
            rates.append((rep.rates["DL1"], rep.rates["UL2"], rep.rates["UL3"]))
        for i in range(3):
            seq = [r[i] for r in rates]
            assert all(a >= b - 1e-15 for a, b in zip(seq, seq[1:]))


def _strong_orders(cfg):
    """Every (order, K) of a strong user that the clusters and the pairs rate exactly."""
    orders = set()
    for j in range(1, min(cfg.M_d, cfg.M_u) + 1):
        members = cluster_members(cfg, j)
        orders |= {(members[0].order, cfg.K_cd), (members[3].order, cfg.K_cu)}
    for dl, ul in pair_groups(cfg):
        for strong, K in ((dl[0], cfg.K_cd), (ul[0], cfg.K_cu)):
            if len(dl) == 2 and strong.kind == "center":
                orders.add((strong.order, K))
    return sorted(orders)


class TestExactSignal:
    def test_rule_matches_adaptive_quadrature(self, cfg, state):
        orders = _strong_orders(cfg)
        assert {k for k, _ in orders} == {1, 2, 3, 4}
        scales = []
        for snr in (10, 20, 30, 40):
            point = cfg.with_snr(snr)
            inputs = _inputs(point, default_power_allocation(point), state)
            dl1, ul1 = inputs.bound[0], inputs.bound[3]
            scales += [*unit_gain_scales(dl1, inputs.means()), unit_gain_scales(ul1, inputs.means())[0]]
        for k, K in orders:
            spec = OrderSpec(k, K, cfg.R)
            rule = ordered_pathloss_rule(spec, cfg.m)
            # the mean is the rule's weighted sum of gains
            assert float(np.dot(*rule)) == pytest.approx(ordered_pathloss_mean(spec, cfg.m), rel=1e-10, abs=0)
            for scale in scales:
                def integrand(r):
                    gain = (1.0 + r) ** (-cfg.m)
                    return exp_e1(1.0 / (scale * gain)) * ordered_pathloss_density(spec, r) / math.log(2)

                want, _ = integrate.quad(integrand, 0.0, cfg.R, epsabs=0.0, epsrel=1e-13, limit=500)
                assert fading_log2_mean(rule, scale) == pytest.approx(want, rel=1e-13, abs=0)

    def test_ratio_of_means_model_is_the_paper_formulas(self, cfg, state, power):
        inputs = _inputs(cfg, power, state)
        rep = rate_report(cfg, power, state, model="ratio-of-means")
        assert rep.rates == {role: _paper(inputs, role) for role in ("DL1", "DL2", "DL3", "UL1", "UL2", "UL3")}
        assert weighted_sum_rate(inputs, model="ratio-of-means") == pytest.approx(
            rep.dl_sum + rep.ul_sum, rel=1e-12, abs=0)

    def test_only_strong_roles_differ_and_jensen_orders_them(self, cfg, state, power):
        # both strong-user logs are concave in the direct-link gain, so the exact
        # average lies below the log of the ratio of means
        for snr in (0, 20, 40):
            point = cfg.with_snr(snr)
            exact = rate_report(point, power, state).rates
            paper = rate_report(point, power, state, model="ratio-of-means").rates
            for role in ("DL2", "DL3", "UL2", "UL3"):
                assert exact[role] == paper[role]
            for role in ("DL1", "UL1"):
                assert 0 < exact[role] < paper[role]

    def test_conditional_rule_is_the_realized_gain(self, cfg, state, power):
        # with a one-node rule the exact-signal rate is the fading average of one layout
        t = conditional_terms(cfg, _drop(cfg, np.random.default_rng(5)))
        inputs = _inputs(cfg, power, state)
        table = inputs.table._replace(parts=position_parts(table_keys(inputs.table.roles), t, cfg), rules=t.rules)
        inputs = dataclasses.replace(inputs, table=table)
        gain = t.loss[cluster_members(cfg)[0]]
        total, residual = unit_gain_scales(inputs.bound[0], inputs.means())
        want = (exp_e1(1.0 / (total * gain)) - exp_e1(1.0 / (residual * gain))) / math.log(2) / cfg.M_d
        assert role_rates(inputs)["DL1"] == pytest.approx(want, rel=1e-12, abs=0)

    def test_tiny_ratio_of_means_sinr_keeps_its_digits(self):
        # 1 + 1e-9 rounds away the low digits of the SINR; log1p keeps them
        role = Role("DL2", Term(1e-9, ("si",)), (), 1.0)
        got = role_log2_mean(role, {("si",): 1.0}, {})
        assert got == pytest.approx(math.log1p(1e-9) / math.log(2.0), rel=1e-15, abs=0)

    def test_unknown_model_rejected(self, cfg, state, power):
        assert RATE_MODELS == ("ratio-of-means", "exact-signal")
        with pytest.raises(ValueError, match="rate model"):
            rate_report(cfg, power, state, model="jensen")
        with pytest.raises(ValueError, match="rate model"):
            weighted_sum_rate(_inputs(cfg, power, state), model="jensen")


if __name__ == "__main__":
    import sys

    from starnoma import baseline_config
    from test_comparison import SWEEP_POINTS, pair_sums_pin

    cfg = baseline_config()
    state = StarRisState.random(cfg.N, np.random.default_rng(1))
    sections = {
        "rate_report": [rate_report_pin(cfg, state, model, snr, cluster)
                        for model in RATE_MODELS for snr in PIN_SNRS_DB for cluster in (1, 2, 3)],
        "pair_rate_sums": [pair_sums_pin(cfg, state, xi, snr) for xi, snr in SWEEP_POINTS],
    }
    sys.stdout.write("{\n" + ",\n".join(
        f" {json.dumps(name)}: [\n" + ",\n".join("  " + json.dumps(pin) for pin in pins) + "\n ]"
        for name, pins in sections.items()) + "\n}\n")
