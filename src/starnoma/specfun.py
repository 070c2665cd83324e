"""Numerical primitives: Gauss-Legendre rules and the scaled exponential
integral, which the closed forms use, and the generalized hypergeometric
series, which the package never calls: the tests check the disk path-loss
rules against series forms built from it, where those converge.

Everything here is plain Python and numpy: the package's runtime path needs
no scipy.

The hypergeometric series here is the plain term-wise sum

    H({a}, {b}, x) = sum_{n>=0} [prod_i (a_i)_n / prod_j (b_j)_n] * x^n / n!

with Pochhammer symbols (a)_n.  No analytic continuation is attempted: if the
terms do not settle below the tolerance within the term cap, evaluation fails
loudly instead of returning a misleading partial sum.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import numpy.polynomial.laguerre
import numpy.polynomial.legendre

__all__ = [
    "SeriesConvergenceError",
    "hyp_pfq",
    "gauss_legendre",
    "exp_e1",
]

# Series controls: cap and tolerance for term-wise summation.
MAX_TERMS = 10_000
SERIES_RTOL = 1e-12


class SeriesConvergenceError(ArithmeticError):
    """Raised when term-wise summation fails to settle within the term cap."""


def hyp_pfq(upper: Sequence[float], lower: Sequence[float], x: float, rtol: float = SERIES_RTOL) -> float:
    """Term-wise sum of the generalized hypergeometric series H(upper, lower, x).

    Lower parameters must avoid non-positive integers, where every term past
    some index divides by zero.  The sum stops once the running term stays
    below rtol * |partial sum| for three consecutive terms; a terminating
    series (non-positive integer upper parameter) returns its finite sum
    exactly.
    """
    upper, lower, x = tuple(float(a) for a in upper), tuple(float(b) for b in lower), float(x)
    for b in lower:
        if b <= 0 and b.is_integer():
            raise ValueError(f"lower parameter {b} is a pole of the series")

    total = 0.0
    term = 1.0
    quiet = 0
    for n in range(MAX_TERMS):
        total += term
        ratio = 1.0
        for a in upper:
            ratio *= a + n
        if ratio == 0.0:  # terminating series: next and all later terms vanish
            return total
        for b in lower:
            ratio /= b + n
        term = term * ratio * x / (n + 1)
        if not math.isfinite(term):
            raise SeriesConvergenceError(
                f"series terms overflowed at n={n} "
                f"(upper={upper}, lower={lower}, x={x}); "
                "the argument is outside the term-wise convergence region"
            )
        if abs(term) <= rtol * abs(total):
            quiet += 1
            if quiet >= 3:
                return total + term
        else:
            quiet = 0
    raise SeriesConvergenceError(
        f"series did not settle within {MAX_TERMS} terms "
        f"(upper={upper}, lower={lower}, x={x}); "
        "the argument is likely outside the term-wise convergence region"
    )


def gauss_legendre(order: int):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1].

    A rule of this order integrates polynomials of degree <= 2*order - 1
    exactly; the weights sum to 2.
    """
    if not 1 <= int(order) <= 128 or int(order) != order:
        raise ValueError(f"quadrature order must be an integer in [1, 128], got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(int(order))
    return nodes, weights


# exp_e1 below x = 1: e^x (-gamma - ln x - sum_k (-x)^k / (k k!)), the series
# of Abramowitz & Stegun 5.1.11, whose 25 terms reach 3e-27 at x = 1.
_EULER_GAMMA = 0.57721566490153286061
_E1_POWERS = np.arange(1.0, 26.0)
_E1_SERIES = np.array([-(-1.0) ** k / (k * math.factorial(k)) for k in range(1, 26)])


def _e1_integral_rule():
    """Nodes t and weights w with e^x E1(x) = sum(w / (x + t)) for x >= 1.

    The integral e^x E1(x) = int_0^inf e^{-t} / (x + t) dt (A&S 5.1.22) is
    split at t = 6: a 32-node Gauss-Legendre rule takes [0, 6], where the
    pole at t = -x stays at least 1 away, and a 32-node Gauss-Laguerre rule
    the tail e^{-6} int_0^inf e^{-s} / (x + 6 + s) ds.  Every term is
    positive and at most w / x, so no argument overflows, and x = inf
    gives 0.
    """
    nodes, weights = np.polynomial.legendre.leggauss(32)
    head = 3.0 * (nodes + 1.0)
    tail_nodes, tail_weights = np.polynomial.laguerre.laggauss(32)
    return (
        np.concatenate([head, 6.0 + tail_nodes]),
        np.concatenate([3.0 * weights * np.exp(-head), math.exp(-6.0) * tail_weights]),
    )


_E1_NODES, _E1_WEIGHTS = _e1_integral_rule()


def exp_e1(x):
    """Scaled exponential integral e^x * E1(x) for x > 0, elementwise.

    Below x = 1 it sums the power series, from 1 up a fixed 64-node rule on
    the integral form (see _e1_integral_rule); both agree with a 40-digit
    reference to 4e-15 relative on 1e-6..1e6.  x = inf gives 0, x = 0 inf
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
