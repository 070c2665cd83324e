import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from starnoma.channel import (
    RicianLink,
    StarRisState,
    array_response,
    build_links,
    cascaded_power_mean,
    element_grid,
    sample_rician,
    self_reflection_power_mean,
)


def steering_vector(N, azimuth, elevation, spacing, wavelength):
    """Oracle: the square planar-array steering vector as a Kronecker product.

    Rows f = 0..s-1 carry exp(j k f cos(el)) and columns c = 0..s-1 carry
    exp(j k c sin(az) sin(el)), with k = 2 pi spacing / wavelength; element
    n = f s + c.  N must be a perfect square s^2.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    s = math.isqrt(N)
    if s * s != N:
        raise ValueError(f"N={N} is not a perfect square")
    k = 2.0 * np.pi * spacing / wavelength
    idx = np.arange(s)
    return np.kron(np.exp(1j * k * idx * np.cos(elevation)), np.exp(1j * k * idx * np.sin(azimuth) * np.sin(elevation)))


def cascade(g_out, state, side, g_in):
    """Oracle: the cascaded scalar channel sum_n g_out[n] * rho_n e^{j phi_n} * g_in[n]."""
    g_out, g_in = np.asarray(g_out), np.asarray(g_in)
    if g_out.shape[-1] != state.N or g_in.shape[-1] != state.N:
        raise ValueError("vector length mismatch against state N")
    out = np.sum(g_out * state.coefficients(side) * g_in, axis=-1)
    return complex(out) if out.ndim == 0 else out


STATE_FIELDS = ("rho_t", "rho_r", "phi_t", "phi_r")


class TestState:
    def test_energy_split_enforced(self):
        with pytest.raises(ValueError, match="split"):
            StarRisState(rho_t=[0.6, 0.6], rho_r=[0.6, 0.3], phi_t=[0, 0], phi_r=[0, 0])

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            StarRisState(rho_t=[-0.1], rho_r=[1.1], phi_t=[0], phi_r=[0])

    def test_phases_wrapped(self):
        s = StarRisState(rho_t=[0.5], rho_r=[0.5], phi_t=[7.0], phi_r=[-1.0])
        assert 0 <= s.phi_t[0] < 2 * np.pi
        assert 0 <= s.phi_r[0] < 2 * np.pi
        assert s.phi_t[0] == pytest.approx(7.0 - 2 * np.pi)

    @pytest.mark.parametrize("field", ["rho_t", "rho_r", "phi_t", "phi_r"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected_by_name(self, field, bad):
        # NaN passes every range check, and a non-finite state turns the rates NaN
        arrays = {"rho_t": [0.5, 0.5], "rho_r": [0.5, 0.5], "phi_t": [0.0, 1.0], "phi_r": [0.0, 1.0]}
        arrays[field][0] = bad
        with pytest.raises(ValueError, match=f"{field} must hold finite numbers"):
            StarRisState(**arrays)

    @pytest.mark.parametrize("columns", [("rho_t",), ("rho_r",), ("phi_t",), ("phi_r",), STATE_FIELDS],
                             ids=[*STATE_FIELDS, "all"])
    def test_field_that_is_not_1d_rejected_by_name(self, columns):
        # a (10, 1) column passes every range check, then broadcasts against the length-10
        # vectors it meets: a state of columns gave omega_u3d_br 2.81 instead of 5.46
        arrays = dataclasses.asdict(StarRisState.random(10, np.random.default_rng(3)))
        for name in columns:
            arrays[name] = arrays[name].reshape(10, 1)
        with pytest.raises(ValueError, match=rf"^{columns[0]} must be a 1-D array of N values, got shape \(10, 1\)"):
            StarRisState(**arrays)

    def test_random_state_feasible(self):
        s = StarRisState.random(64, np.random.default_rng(0))
        assert np.allclose(s.rho_t + s.rho_r, 1.0)
        assert s.N == 64


class TestSteering:
    def test_unit_modulus(self):
        v = steering_vector(16, 0.3, 1.2, 0.05, 0.1)
        assert np.allclose(np.abs(v), 1.0)

    def test_single_element(self):
        assert steering_vector(1, 0.7, 0.2, 0.05, 0.1) == pytest.approx(1.0)

    def test_hand_evaluated_case(self):
        # half-wavelength spacing, both angles pi/2: entries exp(j*pi*c_n)
        v = steering_vector(4, np.pi / 2, np.pi / 2, 0.05, 0.1)
        assert v == pytest.approx(np.array([1, -1, 1, -1], dtype=complex), abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            steering_vector(10, 0.0, 0.0, 0.05, 0.1)

    def test_general_response_covers_any_size(self):
        v = array_response(10, 0.4, 1.0, 0.05, 0.1)
        assert v.shape == (10,)
        assert np.allclose(np.abs(v), 1.0)

    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_square_response_is_the_steering_vector(self, n):
        got = array_response(n, 0.3, 1.2, 0.05, 0.1)
        assert got == pytest.approx(steering_vector(n, 0.3, 1.2, 0.05, 0.1), rel=0, abs=1e-12)

    def test_element_grid_fills_rows_of_ceil_sqrt_columns(self):
        cols, rows = element_grid(10)   # 4 columns: rows of 4, 4 and 2
        assert cols.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
        assert rows.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
        with pytest.raises(ValueError, match="positive"):
            element_grid(0)


class TestRician:
    def test_los_must_be_unit_modulus(self):
        with pytest.raises(ValueError):
            RicianLink(kappa=3.0, los=np.array([2.0 + 0j]))

    def test_link_constants_are_its_own_and_read_only(self):
        # sample_rician's shift is made from los once, so los must not change under it
        los = array_response(4, 0.5, 1.1, 0.05, 0.1)
        link = RicianLink(kappa=3.0, los=los)
        los *= -1.0
        assert np.array_equal(link.los, -los)
        assert np.array_equal(link.los_shift, np.sqrt(link.los_weight) * link.los)
        assert link.scatter_scale == np.sqrt(link.scatter_weight) / np.sqrt(2.0)
        for a in (link.los, link.los_shift):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_infinite_kappa_limit(self):
        los = array_response(9, 0.2, 0.9, 0.05, 0.1)
        link = RicianLink(kappa=1e12, los=los)
        draw = sample_rician(link, np.random.default_rng(0), trials=1)[0]
        assert draw == pytest.approx(los, abs=1e-5)

    def test_rayleigh_variance(self):
        link = RicianLink(kappa=0.0, los=np.ones(4, dtype=complex))
        draws = sample_rician(link, np.random.default_rng(2), trials=1_000_000)
        var = np.mean(np.abs(draws) ** 2, axis=0)
        assert var == pytest.approx(np.ones(4), rel=1e-2, abs=0)

    def test_mean_is_los_component(self):
        los = array_response(4, 0.5, 1.1, 0.05, 0.1)
        link = RicianLink(kappa=3.0, los=los)
        draws = sample_rician(link, np.random.default_rng(3), trials=400_000)
        want = np.sqrt(3.0 / 4.0) * los
        assert np.max(np.abs(draws.mean(axis=0) - want)) < 5e-3


def _complex_formula(link, rng, trials):
    """The sampler as the complex expression it computes, kept as the oracle:
    each value's real and imaginary parts are two consecutive normals of rng."""
    z = rng.standard_normal((trials, link.los.size, 2))
    w = z[..., 0] + 1j * z[..., 1]
    return np.sqrt(link.los_weight) * link.los + np.sqrt(link.scatter_weight) / np.sqrt(2.0) * w


class TestSamplerOracle:
    @pytest.mark.parametrize("kappa", [None, 0.0, 1e6])
    @pytest.mark.parametrize("trials", [1, 1_000])
    def test_bit_identical_to_complex_formula(self, cfg, kappa, trials):
        if kappa is not None:
            cfg = dataclasses.replace(cfg, kappa_map=dict.fromkeys(cfg.kappa_map, kappa))
        for label, link in build_links(cfg).items():
            got = sample_rician(link, np.random.default_rng(11), trials=trials)
            want = _complex_formula(link, np.random.default_rng(11), trials=trials)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), label

    @pytest.mark.parametrize("trials", [1, 4_095, 4_097, 16_384])
    def test_bit_identical_at_block_sizes(self, cfg, trials):
        # the simulator's block sizes and surface sizes, on the SFC64 stream its blocks draw from
        for n in (cfg.N, 64):
            link = build_links(dataclasses.replace(cfg, N=n))["r,u3d"]
            a, b = (np.random.Generator(np.random.SFC64(9)) for _ in range(2))
            assert sample_rician(link, a, trials=trials).tobytes() == _complex_formula(link, b, trials).tobytes()
            assert a.random() == b.random()

    def test_stream_position_matches(self, cfg):
        # the sampler consumes exactly the normals of the formula, two per value
        link = build_links(cfg)["r,u3d"]
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        sample_rician(link, a, trials=7)
        _complex_formula(link, b, trials=7)
        assert a.random() == b.random()


class TestComplexNormal:
    """The complex Gaussian scatter part of sample_rician, standardized by its link's constants."""

    LINK = RicianLink(kappa=2.5, los=np.exp(1j * np.array([0.0, 0.5, 1.3, 2.9])))

    def _standardized(self, n):
        """n // 4 trials of a 4-entry link from an SFC64 stream, LoS removed and scaled to unit parts."""
        z = sample_rician(self.LINK, np.random.Generator(np.random.SFC64(17)), n // 4)
        return ((z - self.LINK.los_shift) / self.LINK.scatter_scale).ravel()

    def test_parts_are_normal_about_the_shift(self):
        # each part of sqrt(1/(k+1)) * CN(0, 1) + sqrt(k/(k+1)) * los is N(LoS part, 1 / (2(k+1)))
        w = self._standardized(100_000)
        for part in (w.real, w.imag):
            assert stats.kstest(part, "norm").pvalue > 1e-3

    def test_parts_and_neighbours_are_uncorrelated(self):
        # the parts are consecutive normals of one stream, and so are neighbouring values
        w = self._standardized(100_000)
        n = w.size - 1
        for x, y in ((w.real, w.imag), (w.real[:-1], w.real[1:]), (w.imag[:-1], w.imag[1:]), (w.imag[:-1], w.real[1:])):
            assert abs(np.corrcoef(x[:n], y[:n])[0, 1]) < 4.0 / np.sqrt(n)


class TestCascade:
    def test_zero_amplitudes(self):
        s = StarRisState(rho_t=[0, 0], rho_r=[1, 1], phi_t=[0, 0], phi_r=[0, 0])
        assert cascade(np.ones(2), s, "t", np.ones(2)) == 0.0

    def test_identity_element(self):
        s = StarRisState(rho_t=[1.0], rho_r=[0.0], phi_t=[0.0], phi_r=[0.0])
        assert cascade(np.ones(1), s, "t", np.ones(1)) == pytest.approx(1.0)

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(5)
        n = 8
        s = StarRisState.random(n, rng)
        go = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        gi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        naive = sum(go[i] * s.rho_t[i] * np.exp(1j * s.phi_t[i]) * gi[i] for i in range(n))
        assert cascade(go, s, "t", gi) == pytest.approx(naive, abs=1e-12)

    def test_length_mismatch(self):
        s = StarRisState.uniform(4)
        with pytest.raises(ValueError):
            cascade(np.ones(3), s, "t", np.ones(4))


class TestCascadedPowerMean:
    def test_pure_scatter_is_amplitude_power(self):
        n = 6
        rng = np.random.default_rng(0)
        s = StarRisState.random(n, rng)
        a = RicianLink(kappa=0.0, los=array_response(n, 0.1, 1.0, 0.05, 0.1))
        b = RicianLink(kappa=0.0, los=array_response(n, -0.4, 0.8, 0.05, 0.1))
        assert cascaded_power_mean(s.coefficients("t"), a, b) == pytest.approx(np.sum(s.rho_t**2), rel=1e-12, abs=0)

    def test_zero_amplitudes(self):
        s = StarRisState(rho_t=np.zeros(4), rho_r=np.ones(4), phi_t=np.zeros(4), phi_r=np.zeros(4))
        a = RicianLink(kappa=2.0, los=array_response(4, 0.1, 1.0, 0.05, 0.1))
        assert cascaded_power_mean(s.coefficients("t"), a, a) == 0.0

    def test_scatter_invariant_under_common_phase_shift(self):
        n = 5
        rng = np.random.default_rng(8)
        s = StarRisState.random(n, rng)
        shifted = StarRisState(rho_t=s.rho_t, rho_r=s.rho_r, phi_t=s.phi_t + 1.3, phi_r=s.phi_r)
        a = RicianLink(kappa=0.0, los=array_response(n, 0.1, 1.0, 0.05, 0.1))
        b = RicianLink(kappa=0.0, los=array_response(n, 0.9, 1.4, 0.05, 0.1))
        assert cascaded_power_mean(s.coefficients("t"), a, b) == pytest.approx(
            cascaded_power_mean(shifted.coefficients("t"), a, b), rel=1e-12, abs=0
        )

    def test_against_mc(self, cfg, state):
        links = build_links(cfg)
        out, inp = links["r,u1d"], links["r,u3u"]
        want = cascaded_power_mean(state.coefficients("t"), out, inp)
        rng = np.random.default_rng(11)
        go = sample_rician(out, rng, trials=1_000_000)
        gi = sample_rician(inp, rng, trials=1_000_000)
        q = np.abs(cascade(go, state, "t", gi)) ** 2
        se = q.std(ddof=1) / np.sqrt(q.size)
        assert abs(want - q.mean()) < 3 * se


class TestSelfReflection:
    def test_zero_amplitudes(self):
        s = StarRisState(rho_t=np.zeros(4), rho_r=np.ones(4), phi_t=np.zeros(4), phi_r=np.zeros(4))
        link = RicianLink(kappa=3.0, los=array_response(4, 0.1, 1.0, 0.05, 0.1))
        assert self_reflection_power_mean(s.coefficients("t"), link) == 0.0

    def test_infinite_kappa_is_los_gain(self):
        n = 9
        s = StarRisState.random(n, np.random.default_rng(3))
        link = RicianLink(kappa=1e14, los=array_response(n, 0.3, 1.1, 0.05, 0.1))
        c = s.coefficients("t")
        xi8 = np.abs(np.sum(np.conj(link.los) * c * link.los)) ** 2
        assert self_reflection_power_mean(s.coefficients("t"), link) == pytest.approx(xi8, rel=1e-9, abs=0)

    def test_rayleigh_closed_form(self):
        n = 7
        s = StarRisState.random(n, np.random.default_rng(4))
        link = RicianLink(kappa=0.0, los=array_response(n, 0.3, 1.1, 0.05, 0.1))
        c = s.coefficients("t")
        want = 2 * np.sum(s.rho_t**2) + np.abs(np.sum(c)) ** 2 - np.sum(s.rho_t**2)
        assert self_reflection_power_mean(s.coefficients("t"), link) == pytest.approx(want, rel=1e-12, abs=0)

    def test_against_mc(self, cfg, state):
        # adjudicates the real-part convention of the LoS/scatter cross term
        links = build_links(cfg)
        link = links["b,r"]
        want = self_reflection_power_mean(state.coefficients("t"), link)
        rng = np.random.default_rng(13)
        g = sample_rician(link, rng, trials=1_000_000)
        q = np.abs(np.sum(np.abs(g) ** 2 * state.coefficients("t"), axis=1)) ** 2
        se = q.std(ddof=1) / np.sqrt(q.size)
        assert abs(want - q.mean()) < 3 * se


def test_build_links_covers_all_labels(cfg):
    links = build_links(cfg)
    assert set(links) == set(cfg.angle_map)
    for link in links.values():
        assert link.los.shape == (cfg.N,)
        assert link.kappa == 3.0
