"""Numerical primitives of the closed forms: Gauss-Legendre rules and the
scaled exponential integral.

Everything here is plain Python and numpy: the package's runtime path needs
no scipy, and no eigen-solver either.  A Gauss-Legendre rule is built by
Newton's method on the Legendre three-term recurrence (gauss_legendre), not
by numpy.polynomial's companion-matrix eigenvalues, which load LAPACK: the
128-node rule takes about 2.5 ms, the 32-node rule under 1 ms.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "gauss_legendre",
    "exp_e1",
]


def gauss_legendre(order: int):
    """Nodes (ascending) and weights of the Gauss-Legendre rule on [-1, 1].

    A rule of this order integrates polynomials of degree <= 2*order - 1
    exactly; the weights sum to 2.  Each order is built once, by
    _legendre_rule, and both arrays are read-only: they are the cached copy.
    """
    if not 1 <= int(order) <= 128 or int(order) != order:
        raise ValueError(f"quadrature order must be an integer in [1, 128], got {order}")
    return _legendre_rule(int(order))


# Newton steps of _legendre_rule: from Tricomi's start the third step still
# moves a node by up to 1.4e4 ulps, the fourth by at most 2.4 (rounding) at
# every order 1-128; the quadratic convergence is done by then.
_NEWTON_STEPS = 4


def _legendre_value_and_slope(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) for |x| < 1, by the recurrence
    (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1} and
    P_n' = n (P_{n-1} - x P_n) / (1 - x^2)."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, n):
        p0, p1 = p1, (2 * j + 1) / (j + 1) * x * p1 - j / (j + 1) * p0
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


@functools.cache
def _legendre_rule(n: int):
    """The n-node Gauss-Legendre rule, by Newton's method on P_n.

    All roots in [0, 1) are polished at once, from Tricomi's estimates
    x_k = (1 - (n - 1) / (8 n^3)) cos(pi (4k - 1) / (4n + 2)), through a
    fixed _NEWTON_STEPS steps; an odd order's middle root is 0 exactly.  The
    weights 2 / ((1 - x^2) P_n'(x)^2) are taken at the polished nodes, and
    both are mirrored about 0.  The nodes agree with numpy's
    eigenvalue-based leggauss to 1.1e-16 and the weights to 2e-11 relative,
    but these weights are the more accurate, taken at nodes polished to
    rounding: the rule integrates x^(2n - 2) to 5e-14 relative at every
    n <= 128, where leggauss(128) leaves 1.7e-12.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0
    for _ in range(_NEWTON_STEPS):
        p, slope = _legendre_value_and_slope(n, x)
        x = x - p / slope
    _, slope = _legendre_value_and_slope(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    half = n // 2   # the nodes below 0; x holds the others, largest first
    rule = np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])
    for a in rule:
        a.flags.writeable = False
    return rule


# exp_e1 below x = 1: e^x (-gamma - ln x - sum_k (-x)^k / (k k!)), the series
# of Abramowitz & Stegun 5.1.11, whose 25 terms reach 3e-27 at x = 1.
_EULER_GAMMA = 0.57721566490153286061
_E1_POWERS = np.arange(1.0, 26.0)
_E1_SERIES = np.array([-(-1.0) ** k / (k * math.factorial(k)) for k in range(1, 26)])


def _e1_integral_rule():
    """Nodes t and weights w with e^x E1(x) = sum(w / (x + t)) for x >= 1.

    The integral e^x E1(x) = int_0^inf e^{-t} / (x + t) dt (A&S 5.1.22) is
    split at t = 6 and cut at t = 42, and the 32-node Gauss-Legendre rule
    takes each piece: [0, 6], where the pole at t = -x stays at least 1
    away, and [6, 42], at least 7 away from it.  The part cut off is below
    e^{-42} / (x + 42), under 6e-19 of e^x E1(x) > 1 / (x + 1) (A&S 5.1.19).
    Every term is positive and at most w / x, so no argument overflows, and
    x = inf gives 0.
    """
    nodes, weights = gauss_legendre(32)
    t = np.concatenate([3.0 * (nodes + 1.0), 6.0 + 18.0 * (nodes + 1.0)])
    return t, np.concatenate([3.0 * weights, 18.0 * weights]) * np.exp(-t)


_E1_NODES, _E1_WEIGHTS = _e1_integral_rule()


def exp_e1(x):
    """Scaled exponential integral e^x * E1(x) for x > 0, elementwise.

    Below x = 1 it sums the power series, from 1 up a fixed 64-node rule on
    the integral form (see _e1_integral_rule); both agree with a 40-digit
    reference to 8e-16 relative on 1e-6..1e6.  x = inf gives 0, x = 0 inf
    and a negative x nan.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 1.0
    xs = x[small]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_x = np.log(xs)
    out[small] = np.exp(xs) * ((xs[:, None] ** _E1_POWERS) @ _E1_SERIES - _EULER_GAMMA - log_x)
    out[~small] = (1.0 / (x[~small][:, None] + _E1_NODES)) @ _E1_WEIGHTS
    return out if out.ndim else float(out)
