"""Expected path loss over disk geometries, and uniform points in a disk.

sample_disk drops uniform points in a disk; no CLI path calls it, but the
tests' term oracle (tests/oracles.py) draws its disk laws with it, and
perfbench/tracer.py counts its calls.  Both simulators draw their users
class by class at their distance ranks instead (simulator.class_layout), and
their layouts are what `starnoma cluster` resolves its groups on.

Three distance laws drive every closed-form rate term:

* the k-th nearest of K users dropped uniformly in a disk (order statistic of
  the radial law 2r/R^2),
* the distance between two independent uniform points in one disk,
* the distance from a fixed point outside a disk to a uniform point inside it.

Each expectation E[(1+d)^-m] is the sum weights @ gains of a fixed rule over
its law: a 64-node Gauss-Legendre rule on the order-statistic density
(ordered_pathloss_rule), which also averages other functions of an ordered
user's path loss; a 128-node rule on the pair density, whose
(2R - d)^(3/2) edge needs the extra nodes; and a C-node rule on the
outside-point density, mapped by r = r1 + R(1 - cos t) so that its
square-root edges do not slow it down.  The tests compare each rule with adaptive
quadrature of the exact density, and the order-statistic and pair rules also
with hypergeometric series forms where those converge (sub-unit disk radii).
The (1+d) offset keeps the path loss finite at zero distance and is applied
uniformly across analysis and simulation.

The position terms depend on the geometry alone, so ordered_pathloss_mean,
pair_pathloss_mean, outside_point_pathloss_mean and ordered_pathloss_rule
are memoized on their (hashable) arguments: a sweep or a power policy that
asks again for a term gets the first answer back.  The rule's arrays are
read-only, so that no caller can change the cached copy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import gauss_legendre

__all__ = [
    "OrderSpec",
    "sample_disk",
    "ordered_pathloss_density",
    "ordered_pathloss_mean",
    "ordered_pathloss_rule",
    "pair_pathloss_mean",
    "pair_distance_density",
    "outside_point_pathloss_mean",
    "outside_point_distance_density",
]

# The Gauss-Legendre rules on [-1, 1] that the position rules map onto their
# laws.  specfun builds each by Newton's method on the Legendre recurrence,
# about 1.3 ms for 64 nodes and 2.5 ms for 128, far longer than mapping it,
# and caches it; both are made here, at import, so that no call pays for them.
# ordered_pathloss_rule: on the 50 m baseline disk 64 nodes match adaptive
# quadrature of the strong users' rate integrands to 3e-15 relative at
# 0-50 dB; the integrands are analytic on [0, R], their nearest singularity
# about 1 m off the inner end.
_ORDER_NODES = gauss_legendre(64)
# pair_pathloss_mean: the pair density vanishes like (2R - d)^(3/2) at its
# outer end, which slows the rule down: 64 nodes leave 3e-9 relative, 128
# leave 1.3e-12 on 30-50 m disks.
_PAIR_NODES = gauss_legendre(128)


@dataclass(frozen=True)
class OrderSpec:
    """Order statistic selector: k-th nearest (k=1) out of K points, disk radius."""

    k: int
    K: int
    radius: float

    def __post_init__(self):
        if not 1 <= self.k <= self.K:
            raise ValueError(f"order index k={self.k} outside 1..K={self.K}")
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")


def sample_disk(rng: np.random.Generator, n: int, radius: float, center=(0.0, 0.0)) -> np.ndarray:
    """n points uniform over a disk, via inverse-CDF radius r = R*sqrt(u)."""
    r = radius * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return pts + np.asarray(center, dtype=float)


# -- order statistics on a disk -------------------------------------------


def ordered_pathloss_density(spec: OrderSpec, r) -> np.ndarray | float:
    """Density of the k-th smallest of K i.i.d. radii with law 2r/R^2.

    f(r) = K!/((k-1)!(K-k)!) * (2r/R^2) * (r^2/R^2)^(k-1) * (1 - r^2/R^2)^(K-k)
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r > spec.radius):
        raise ValueError("r outside [0, radius]")
    k, K, R = spec.k, spec.K, spec.radius
    coeff = math.factorial(K) / (math.factorial(k - 1) * math.factorial(K - k))
    u = (r / R) ** 2
    out = coeff * (2 * r / R**2) * u ** (k - 1) * (1 - u) ** (K - k)
    return out if out.ndim else float(out)


@functools.cache
def ordered_pathloss_mean(spec: OrderSpec, m: float) -> float:
    """E[(1 + r_(k))^-m], the sum of ordered_pathloss_rule's weighted gains."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m == 0:
        return 1.0
    gains, weights = ordered_pathloss_rule(spec, m)
    return float(weights @ gains)


@functools.cache
def ordered_pathloss_rule(spec: OrderSpec, m: float):
    """Fixed quadrature rule over the path loss (1 + r_(k))^-m of the k-th nearest user.

    Returns (gains, weights) with E[h((1 + r_(k))^-m)] ~= sum(weights * h(gains))
    for smooth h.  The Gauss-Legendre nodes map onto [0, radius], and the
    weights carry the order-statistic density and the Jacobian radius / 2.
    Both arrays are read-only: they are the cached copy.
    """
    nodes, weights = _ORDER_NODES
    r = 0.5 * spec.radius * (nodes + 1.0)
    rule = (1.0 + r) ** (-m), 0.5 * spec.radius * weights * ordered_pathloss_density(spec, r)
    for a in rule:
        a.flags.writeable = False
    return rule


# -- two uniform points in one disk ----------------------------------------


def pair_distance_density(d, R: float) -> np.ndarray | float:
    """Density of the distance between two independent uniform points in a disk."""
    d = np.asarray(d, dtype=float)
    x = np.clip(d / (2.0 * R), 0.0, 1.0)
    out = (4.0 * d / (np.pi * R**2)) * (np.arccos(x) - x * np.sqrt(1.0 - x**2))
    return out if out.ndim else float(out)


@functools.cache
def pair_pathloss_mean(R: float, m: float) -> float:
    """E[(1+d)^-m] for the distance d between two uniform points in a disk.

    A Gauss-Legendre rule mapped onto [0, 2R], its weights carrying the pair
    density and the Jacobian R.
    """
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m == 0:
        return 1.0
    nodes, weights = _PAIR_NODES
    d = R * (nodes + 1.0)
    return float((R * weights * pair_distance_density(d, R)) @ (1.0 + d) ** (-m))


# -- fixed point outside the disk -------------------------------------------


def outside_point_distance_density(r, R: float, r1: float) -> np.ndarray | float:
    """Density of the distance from an external point (clearance r1) to a uniform disk point.

    The external point sits at distance d = r1 + R from the disk center; the
    support is [r1, r1 + 2R].
    """
    r = np.asarray(r, dtype=float)
    d = r1 + R
    arg = (d * d + r * r - R * R) / (2.0 * d * r)
    out = (2.0 * r / (np.pi * R**2)) * np.arccos(np.clip(arg, -1.0, 1.0))
    return out if out.ndim else float(out)


@functools.cache
def outside_point_pathloss_mean(R: float, r1: float, m: float, C: int = 32) -> float:
    """E[(1+d)^-m] to a uniform disk point from an external point, C-node quadrature.

    The density has square-root edges at both ends of [r1, r1 + 2R], where a
    rule on r itself converges only like C^-3 (4e-5 relative at C = 32 on
    the baseline).  So the Gauss-Legendre rule is applied in t on [0, pi]
    under r = r1 + R*(1 - cos t), whose Jacobian R*sin(t) cancels both
    edges: the integrand is smooth in t, and 32 nodes agree with adaptive
    quadrature to about 1e-15 on 30-50 m disks.
    """
    if r1 <= 0:
        raise ValueError(f"clearance r1 must be positive, got {r1}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m == 0:
        return 1.0
    nodes, weights = gauss_legendre(C)
    t = 0.5 * np.pi * (nodes + 1.0)
    r = r1 + R * (1.0 - np.cos(t))
    vals = (1.0 + r) ** (-m) * outside_point_distance_density(r, R, r1) * np.sin(t)
    return float(np.sum(weights * vals) * (0.5 * np.pi * R))
