import math

import numpy as np
import pytest

from starnoma.specfun import SeriesConvergenceError, exp_e1, gauss_legendre, hyp_pfq

# arbitrary-precision term-by-term oracle value, frozen before the build
HYP_ORACLE = 2.9169395823506307691  # H({1.5, 1.85, 1.35}, {0.5, 7}, 0.8)


class TestHyp:
    def test_exponential_identity(self):
        assert hyp_pfq((1.0,), (1.0,), 0.7) == pytest.approx(math.e**0.7, rel=1e-12, abs=0)

    def test_zero_argument(self):
        assert hyp_pfq((2.3, 4.5), (1.1,), 0.0) == 1.0

    def test_frozen_oracle_value(self):
        # geometric tail of the stop rule bounds the truncation near 5e-12;
        # the contract tolerance against the oracle is 1e-9 relative
        assert hyp_pfq((1.5, 1.85, 1.35), (0.5, 7.0), 0.8) == pytest.approx(HYP_ORACLE, rel=1e-9, abs=0)

    def test_oracle_grid(self):
        # independent high-precision series oracle over the convergent grid
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        grid = [
            ((0.5,), (1.5,), 0.9),
            ((1.0, 2.0), (3.5,), -0.8),
            ((1.5, 1.85, 1.35), (0.5, 7.0), 0.8),
            ((2.0, 0.3, 1.1), (0.9, 4.0), -0.95),
            ((3.0, 1.0), (2.0, 2.0), 0.99),
        ]
        for upper, lower, x in grid:
            want = float(mp.hyper(list(upper), list(lower), x))
            assert hyp_pfq(upper, lower, x) == pytest.approx(want, rel=1e-9, abs=0)

    def test_upper_permutation_symmetry(self):
        a = hyp_pfq((1.5, 1.85, 1.35), (0.5, 7.0), 0.8)
        b = hyp_pfq((1.35, 1.5, 1.85), (7.0, 0.5), 0.8)
        assert a == pytest.approx(b, rel=1e-13, abs=0)

    def test_terminating_series(self):
        # upper parameter -2 cuts the series into a polynomial: 1F1(-2;1;x)
        x = 3.0
        want = 1.0 - 2.0 * x + 0.5 * x * x
        assert hyp_pfq((-2.0,), (1.0,), x) == pytest.approx(want, rel=1e-12, abs=0)

    def test_divergent_argument_raises(self):
        with pytest.raises(SeriesConvergenceError):
            hyp_pfq((1.5, 1.85, 1.35), (0.5, 7.0), 4.0)

    def test_lower_pole_rejected(self):
        for pole in (0.0, -3.0):
            with pytest.raises(ValueError, match="pole"):
                hyp_pfq((1.0,), (pole,), 0.5)


class TestGaussLegendre:
    def test_midpoint_rule(self):
        nodes, weights = gauss_legendre(1)
        assert nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert weights[0] == pytest.approx(2.0, abs=1e-15)

    def test_two_point_rule(self):
        nodes, weights = gauss_legendre(2)
        assert sorted(nodes) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-14)
        assert list(weights) == pytest.approx([1.0, 1.0], abs=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 8, 16, 32, 64, 128])
    def test_weights_sum_to_two(self, order):
        _, weights = gauss_legendre(order)
        assert weights.sum() == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("order", [4, 16, 32])
    def test_polynomial_exactness(self, order):
        nodes, weights = gauss_legendre(order)
        for degree in range(2 * order):
            # exact monomial integral over [-1, 1]
            want = 0.0 if degree % 2 else 2.0 / (degree + 1)
            got = float(np.sum(weights * nodes**degree))
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("order", [0, 129, 2.5])
    def test_order_out_of_range(self, order):
        with pytest.raises(ValueError):
            gauss_legendre(order)

    def test_every_order_matches_the_eigenvalue_rule(self):
        # numpy's leggauss takes the nodes from companion-matrix eigenvalues; it is the oracle only
        from numpy.polynomial.legendre import leggauss

        for order in range(1, 129):
            nodes, weights = gauss_legendre(order)
            want_nodes, want_weights = leggauss(order)
            assert np.max(np.abs(nodes - want_nodes)) <= 4.5e-16, order
            assert np.max(np.abs(weights / want_weights - 1.0)) <= 1e-10, order

    def test_every_order_integrates_its_top_even_monomial(self):
        # x^(2n - 2), the highest even degree the n-node rule is exact for, leans on the end
        # weights; leggauss(128) leaves 1.7e-12 here, its weights taken at unpolished nodes
        for order in range(1, 129):
            nodes, weights = gauss_legendre(order)
            want = 2.0 / (2 * order - 1)
            assert abs(float(weights @ nodes ** (2 * order - 2)) / want - 1.0) <= 1e-13, order

    @pytest.mark.parametrize("order", [1, 2, 5, 64, 127])
    def test_rule_is_symmetric_and_ascending(self, order):
        nodes, weights = gauss_legendre(order)
        assert np.all(np.diff(nodes) > 0)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        if order % 2:
            assert nodes[order // 2] == 0.0

    def test_rule_is_the_cached_read_only_copy(self):
        nodes, weights = gauss_legendre(32)
        assert gauss_legendre(32.0)[0] is nodes
        for a in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


class TestExpE1:
    def test_accuracy_against_mpmath(self):
        # spans both branches and the range where the plain product overflows
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        x = np.concatenate([
            np.logspace(-3, 6, 400), [599.999, 600.0, 705.0, 709.0, 710.0],
            np.logspace(-6, -3, 100), [1.05e-4, 0.999999, 1.0, 1.000001],
        ])
        got = exp_e1(x)
        for xi, g in zip(x, got):
            want = float(mp.exp(mp.mpf(xi)) * mp.e1(mp.mpf(xi)))
            assert g == pytest.approx(want, rel=2e-15, abs=0)

    def test_scalar_and_limit(self):
        assert isinstance(exp_e1(2.0), float)
        assert exp_e1(np.inf) == 0.0
        assert exp_e1(1e12) == pytest.approx(1e-12, rel=1e-11, abs=0)
