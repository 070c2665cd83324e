import dataclasses
import math

import numpy as np
import pytest

from starnoma.channel import StarRisState, build_links
from starnoma.config import PowerAllocation, baseline_config, default_power_allocation
from starnoma.design import (
    InfeasibleTargetsError,
    _Objective,
    _find_root,
    _invert_fading_log2_mean,
    PgamSettings,
    aligned_state,
    min_power_allocation,
    pgam_optimize,
    project_amplitudes,
    project_phases,
    suboptimal_phases,
)
from starnoma.geometry import OrderSpec, ordered_pathloss_rule
from starnoma.rates import (
    SurfaceTerms,
    build_rate_inputs,
    cluster_members,
    expectation_terms,
    fading_log2_mean,
    rate_report,
    surface_gradients,
    surface_terms,
    weighted_sum_rate,
)


class TestProjections:
    def test_phase_examples(self):
        pt, pr = project_phases(np.array([3 + 4j]), np.array([0j]))
        assert pt[0] == pytest.approx(math.atan2(4, 3))
        assert pr[0] == 0.0  # zero maps to phase 0

    def test_phase_idempotent_and_feasible(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((10_000, 2)) @ np.array([1, 1j])
        pt, _ = project_phases(raw, raw)
        assert np.all((0 <= pt) & (pt < 2 * np.pi))
        again, _ = project_phases(np.exp(1j * pt), np.exp(1j * pt))
        assert again == pytest.approx(pt, abs=1e-12)

    def test_amplitude_examples(self):
        t, r = project_amplitudes(np.array([0.3, 2.0, 1.6]), np.array([0.7, 2.0, -0.2]))
        assert t == pytest.approx([0.3, 0.5, 1.0])
        assert r == pytest.approx([0.7, 0.5, 0.0])

    def test_amplitude_idempotent_and_feasible(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-3, 3, 10_000)
        b = rng.uniform(-3, 3, 10_000)
        t, r = project_amplitudes(a, b)
        assert np.allclose(t + r, 1.0)
        assert np.all((t >= 0) & (r >= 0))
        t2, r2 = project_amplitudes(t, r)
        assert np.allclose(t, t2) and np.allclose(r, r2)

    def test_amplitude_matches_grid_search_oracle(self):
        # dense search over the feasible segment minimizing Euclidean distance
        rng = np.random.default_rng(2)
        grid = np.linspace(0.0, 1.0, 20001)
        for _ in range(50):
            a, b = rng.uniform(-2, 2, 2)
            t, r = project_amplitudes(np.array([a]), np.array([b]))
            d2 = (grid - a) ** 2 + ((1 - grid) - b) ** 2
            best = grid[np.argmin(d2)]
            assert t[0] == pytest.approx(best, abs=1e-4)


class TestPgam:
    def test_trace_monotone_and_best_seen(self, cfg, power):
        start = StarRisState.random(cfg.N, np.random.default_rng(3))
        state, trace = pgam_optimize(cfg, power, PgamSettings(max_iters=25), initial=start)
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        inputs = build_rate_inputs(cfg, power, state)
        assert weighted_sum_rate(inputs) == pytest.approx(trace[-1], rel=1e-12, abs=0)

    def test_model_selects_the_objective(self, cfg, power):
        start = StarRisState.random(cfg.N, np.random.default_rng(3))
        traces = {}
        for model in ("ratio-of-means", "exact-signal"):
            state, trace = pgam_optimize(cfg, power, PgamSettings(max_iters=3), initial=start, model=model)
            inputs = build_rate_inputs(cfg, power, state)
            assert weighted_sum_rate(inputs, model=model) == pytest.approx(trace[-1], rel=1e-12, abs=0)
            traces[model] = trace
        assert traces["exact-signal"][0] < traces["ratio-of-means"][0]

    def test_single_iteration_never_loses(self, cfg, power):
        start = StarRisState.random(cfg.N, np.random.default_rng(8))
        f0 = weighted_sum_rate(build_rate_inputs(cfg, power, start))
        state, trace = pgam_optimize(cfg, power, PgamSettings(max_iters=1), initial=start)
        assert trace[-1] >= f0 - 1e-15

    def test_beats_random_search(self, cfg, power):
        rng = np.random.default_rng(10)
        best_random = max(
            weighted_sum_rate(build_rate_inputs(cfg, power, StarRisState.random(cfg.N, rng)))
            for _ in range(100)
        )
        _, trace = pgam_optimize(cfg, power, PgamSettings(max_iters=80), initial=StarRisState.random(cfg.N, np.random.default_rng(0)))
        assert trace[-1] >= best_random

    def test_default_start_is_aligned_and_not_worse_than_flat(self, cfg, power):
        # the baseline N = 10 is not square; the flat start is still climbing at the cap
        settings = PgamSettings(max_iters=60)
        _, default = pgam_optimize(cfg, power, settings, model="ratio-of-means")
        _, flat = pgam_optimize(cfg, power, settings, initial=StarRisState.uniform(cfg.N), model="ratio-of-means")
        aligned = weighted_sum_rate(build_rate_inputs(cfg, power, aligned_state(cfg)), model="ratio-of-means")
        assert default[0] == pytest.approx(aligned, rel=1e-12)
        assert default[-1] >= flat[-1]

    def test_initial_state_size_checked(self, cfg, power):
        with pytest.raises(ValueError, match="N=11"):
            pgam_optimize(cfg, power, PgamSettings(max_iters=1), initial=StarRisState.uniform(cfg.N + 1))

    def test_settings_validation(self):
        # a bool or a float is no iteration count, though range() or a comparison may take it as one
        for field, value in [
            ("max_iters", 0),
            ("max_iters", 2.5),
            ("max_iters", True),
        ]:
            with pytest.raises(ValueError, match=field):
                PgamSettings(**{field: value})

    @pytest.mark.parametrize("model", ["ratio-of-means", "exact-signal"])
    @pytest.mark.parametrize("start", ["aligned", "random"])
    def test_objective_is_taken_at_feasible_points_only(self, cfg, power, monkeypatch, model, start):
        # every trial step is projected before its value, and the gradient is taken at the projected iterate
        seen = []
        for name in ("value", "gradient"):
            def wrapped(obj, *point, _name=name, _original=getattr(_Objective, name)):
                seen.append((_name, point))
                return _original(obj, *point)

            monkeypatch.setattr(_Objective, name, wrapped)
        initial = None if start == "aligned" else StarRisState.random(cfg.N, np.random.default_rng(3))
        pgam_optimize(cfg, power, PgamSettings(max_iters=5), initial=initial, model=model)
        assert {name for name, _ in seen} == {"value", "gradient"}
        for _, (theta_t, theta_r, rho_t, rho_r) in seen:
            assert np.max(np.abs(np.abs(np.concatenate([theta_t, theta_r])) - 1.0)) <= 1e-12
            assert np.max(np.abs(rho_t + rho_r - 1.0)) <= 1e-12
            assert np.min(np.concatenate([rho_t, rho_r])) >= 0.0


def _central_differences(fun, x: np.ndarray, h: float, complex_vars: bool) -> np.ndarray:
    """Reference gradient: central differences, elementwise, over real or complex entries.

    A complex entry gets d/dRe + j d/dIm, as the ascent's gradient does.
    """
    g = np.zeros_like(x, dtype=complex if complex_vars else float)
    for direction in ([1.0, 1j] if complex_vars else [1.0]):
        for i in range(x.size):
            xp = x.copy(); xp[i] += h * direction
            xm = x.copy(); xm[i] -= h * direction
            g[i] += (fun(xp) - fun(xm)) / (2.0 * h) * direction
    return g


class TestGradient:
    @pytest.mark.parametrize("n", [10, 64])
    def test_surface_terms(self, n):
        # every term is quadratic in c, so central differences are exact up to rounding
        c = baseline_config(N=n)
        links = build_links(c)
        rng = np.random.default_rng(n)
        coeffs = tuple(rng.uniform(0, 1, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)) for _ in "tr")
        grads = surface_gradients(coeffs, links)
        assert set(grads) == set(SurfaceTerms.__dataclass_fields__)
        for name, (side, grad) in grads.items():
            k = "tr".index(side)

            def term(x):
                trial = list(coeffs)
                trial[k] = x
                return getattr(surface_terms(c, tuple(trial), links), name)

            # G = 2 d/d conj(c) is the d/dRe + j d/dIm the differences give
            want = _central_differences(term, coeffs[k], 1e-3, True)
            assert 2.0 * grad == pytest.approx(want, rel=1e-8, abs=0)

    @pytest.mark.parametrize("n", [10, 64])
    @pytest.mark.parametrize("model", ["ratio-of-means", "exact-signal"])
    @pytest.mark.parametrize("snr", [10.0, 40.0])
    @pytest.mark.parametrize("xi", [0.0, 0.1])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_objective(self, n, model, snr, xi, seed):
        point = dataclasses.replace(baseline_config(N=n).with_snr(snr), xi_sic=xi)
        obj = _Objective(point, default_power_allocation(point), model=model)
        s = StarRisState.random(n, np.random.default_rng(seed))
        x = [np.exp(1j * s.phi_t), np.exp(1j * s.phi_r), s.rho_t, s.rho_r]
        want = []
        for k in range(4):
            def f(v, k=k):
                trial = list(x)
                trial[k] = v
                return obj.value(*trial)

            want.append(_central_differences(f, x[k], 1e-2, k < 2))
        got, want = np.concatenate(obj.gradient(*x)), np.concatenate(want)
        # the objective is a sum of log2(1 + SINR) whose surface-dependent part
        # is tiny, so each value carries about 1e-16 of absolute rounding; at this
        # step the differences are off by up to 1.0e-6 of the gradient's norm
        # (smaller steps do worse), and elementwise by far more on small entries
        assert np.linalg.norm(got - want) <= 2e-6 * np.linalg.norm(want)


class TestSuboptimalPhases:
    def test_identical_bearings_give_zero_phases(self, cfg):
        c = baseline_config(N=16, angle_map={k: (0.7, 1.1) for k in cfg.angle_map})
        phi_t, phi_r = suboptimal_phases(c)
        assert np.allclose(phi_t, 0.0) and np.allclose(phi_r, 0.0)

    def test_wrapped(self):
        c = baseline_config(N=16)
        phi_t, phi_r = suboptimal_phases(c)
        for phi in (phi_t, phi_r):
            assert np.all((0 <= phi) & (phi < 2 * np.pi))

    @pytest.mark.parametrize("n", [4, 16, 36, 64])
    def test_coherent_gain_is_n_squared(self, n):
        c = baseline_config(N=n)
        links = build_links(c)
        full_t = aligned_state(c, rho_t=1.0)
        xi7 = abs(np.sum(links["b,r"].los * full_t.coefficients("t") * links["r,u3u"].los)) ** 2
        assert xi7 == pytest.approx(n * n, abs=1e-9)
        full_r = aligned_state(c, rho_t=0.0)
        xi3 = abs(np.sum(links["r,u3d"].los * full_r.coefficients("r") * links["b,r"].los)) ** 2
        assert xi3 == pytest.approx(n * n, abs=1e-9)

    def test_alignment_upper_bounds_random_phases(self):
        c = baseline_config(N=16)
        links = build_links(c)
        rng = np.random.default_rng(4)
        best = 0.0
        for _ in range(10_000):
            phases = rng.uniform(0, 2 * np.pi, c.N)
            xi = abs(np.sum(links["b,r"].los * np.exp(1j * phases) * links["r,u3u"].los)) ** 2
            best = max(best, xi)
        assert best <= c.N * c.N + 1e-9

    def test_any_n_aligns_targeted_cascades(self, cfg):
        # baseline N=10 fills no square grid (rows of 4, 4 and 2); the phases
        # still cancel each element's geometric phase, so the LoS terms add up
        assert cfg.N == 10
        links = build_links(cfg)
        for rho_t in (0.5, 0.3):
            st = aligned_state(cfg, rho_t=rho_t)
            for side, rho, target in (("t", rho_t, "r,u3u"), ("r", 1.0 - rho_t, "r,u3d")):
                los_sum = np.sum(links["b,r"].los * st.coefficients(side) * links[target].los)
                assert abs(los_sum) == pytest.approx(cfg.N * rho, rel=1e-12, abs=0)


class TestRootSolver:
    @pytest.mark.parametrize("level", np.logspace(-6, math.log10(5.0), 13))
    def test_fading_inversion_matches_brentq(self, cfg, level):
        optimize = pytest.importorskip("scipy.optimize")
        rule = ordered_pathloss_rule(OrderSpec(1, cfg.K_cu, cfg.R), cfg.m)
        got = _invert_fading_log2_mean(rule, level)
        hi = 1.0
        while fading_log2_mean(rule, hi) < level:
            hi *= 2.0
        want = optimize.brentq(lambda x: fading_log2_mean(rule, x) - level, 0.0, hi, xtol=1e-300)
        assert got == pytest.approx(want, rel=1e-14, abs=0)
        assert fading_log2_mean(rule, got) == pytest.approx(level, rel=1e-13, abs=0)

    @pytest.mark.parametrize("f,a,b,root", [
        (lambda x: x**3 - 2.0, 0.0, 3.0, 2.0 ** (1.0 / 3.0)),
        (math.cos, 0.0, 3.0, math.pi / 2.0),
        (lambda x: math.exp(x) - 1e5, -5.0, 20.0, math.log(1e5)),
        (lambda x: x - 1e-10, 0.0, 1.0, 1e-10),
        (lambda x: x, -1.0, 0.0, 0.0),
    ])
    def test_known_roots(self, f, a, b, root):
        assert _find_root(f, a, b) == pytest.approx(root, rel=4e-16, abs=0)

    def test_bracket_without_sign_change_rejected(self):
        with pytest.raises(ValueError, match="brackets no root"):
            _find_root(lambda x: x * x + 1.0, -1.0, 1.0)


class TestMinPower:
    def _roundtrip(self, cfg, state, seed):
        rng = np.random.default_rng(seed)
        a3 = rng.uniform(0.5, 0.8)
        a1 = rng.uniform(0.05, 0.3) * (1 - a3) / 2
        a2 = (1 - a3) - a1 - rng.uniform(0.0, 0.1) * (1 - a3)
        if not a1 < a2 < a3:
            a1, a2 = 0.3 * (1 - a3), 0.65 * (1 - a3)
        pw = PowerAllocation(
            alpha=(a1, a2, a3),
            p_ul=tuple(rng.uniform(0.2, 1.0, 3) * cfg.p_um),
        )
        targets = rate_report(cfg, pw, state).rates
        got = min_power_allocation(targets, cfg, state)
        back = rate_report(cfg, got, state).rates
        return pw, got, max(abs(back[r] - targets[r]) for r in targets)

    def test_twenty_random_feasible_targets(self, cfg, state):
        for seed in range(20):
            pw, got, residual = self._roundtrip(cfg, state, seed)
            assert residual <= 1e-6
            assert got.alpha == pytest.approx(pw.alpha, rel=1e-9, abs=0)
            assert got.p_ul == pytest.approx(pw.p_ul, rel=1e-9, abs=0)

    def test_single_target_inversion_oracle(self, cfg, state):
        # quiet system: only the DL edge user has a target; invert its rate 1-D
        quiet = dataclasses.replace(cfg, xi_sic=0.0)
        pw = PowerAllocation((0.05, 0.15, 0.8), (1e-12,) * 3)
        target = rate_report(quiet, pw, state).rates["DL3"]
        pos, s = expectation_terms(quiet), build_rate_inputs(quiet, pw, state).surface
        x3 = pos.l_br * s.omega_u3d_br * pos.loss[cluster_members(quiet)[2]]
        g = 2 ** (quiet.M_d * target) - 1
        a3 = g * (0.2 * quiet.P_b * x3 + quiet.sigma2) / (quiet.P_b * x3)
        assert a3 == pytest.approx(0.8, rel=1e-9, abs=0)

    def test_ceiling_violation_named(self, cfg, state, power):
        targets = rate_report(cfg, power, state).rates
        targets = dict(targets, DL1=2.0)  # beyond the SIC-limited ceiling
        with pytest.raises(InfeasibleTargetsError) as err:
            min_power_allocation(targets, cfg, state)
        assert err.value.binding == "dl1-sic-ceiling"

    def test_ul_budget_violation_named(self, cfg, state, power):
        targets = rate_report(cfg, power, state).rates
        targets = dict(targets, UL1=targets["UL1"] * 8)
        with pytest.raises(InfeasibleTargetsError) as err:
            min_power_allocation(targets, cfg, state)
        assert "budget" in err.value.binding or "positivity" in err.value.binding

    def test_all_zero_targets_degenerate(self, cfg, state):
        with pytest.raises(InfeasibleTargetsError) as err:
            min_power_allocation({r: 0.0 for r in ("DL1", "DL2", "DL3", "UL1", "UL2", "UL3")}, cfg, state)
        assert err.value.binding == "degenerate"

    @pytest.mark.parametrize("rho_t,role,face", [(1.0, "DL3", "reflection"), (0.0, "UL3", "transmission")],
                             ids=["reflection-dark", "transmission-dark"])
    def test_dark_face_named(self, cfg, rho_t, role, face):
        # one face dark on every element: its edge role's signal mean is 0, which made both
        # linear solves singular; it is now rejected first, by role and face
        point = cfg.with_snr(30)
        aligned = aligned_state(point)
        targets = rate_report(point, default_power_allocation(point), aligned).rates
        dark = StarRisState(np.full(cfg.N, rho_t), np.full(cfg.N, 1.0 - rho_t), aligned.phi_t, aligned.phi_r)
        with pytest.raises(InfeasibleTargetsError, match=f"{role}'s signal goes through the {face} face") as err:
            min_power_allocation(targets, point, dark)
        assert err.value.binding == f"dark-face:{role}"

    def test_state_size_checked(self, cfg, state, power):
        targets = rate_report(cfg, power, state).rates
        with pytest.raises(ValueError, match="N=11"):
            min_power_allocation(targets, cfg, StarRisState.uniform(cfg.N + 1))

    def test_missing_role_rejected(self, cfg, state):
        with pytest.raises(ValueError):
            min_power_allocation({"DL1": 0.1}, cfg, state)

    def test_repeat_call_redoes_no_quadrature(self, cfg, state, power):
        # the position terms depend on the geometry alone: a second call at the
        # same geometry reads every one of them from the memo
        from starnoma.geometry import (
            ordered_pathloss_mean,
            ordered_pathloss_rule,
            outside_point_pathloss_mean,
            pair_pathloss_mean,
        )

        targets = rate_report(cfg, power, state).rates
        min_power_allocation(targets, cfg, state)
        memos = (ordered_pathloss_mean, ordered_pathloss_rule, outside_point_pathloss_mean, pair_pathloss_mean)
        misses = [f.cache_info().misses for f in memos]
        min_power_allocation(targets, cfg, state)
        assert [f.cache_info().misses for f in memos] == misses
