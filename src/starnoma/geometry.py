"""User placement and expected path loss over disk geometries.

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
quadrature of the exact density.  Series forms built from the generalized
hypergeometric function are provided as cross-checks; they only converge
for sub-unit disk radii.
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

from .specfun import gauss_legendre, gamma, hyp_pfq

__all__ = [
    "OrderSpec",
    "UserLayout",
    "sample_layout",
    "sample_disk",
    "ordered_pathloss_density",
    "ordered_pathloss_mean",
    "ordered_pathloss_mean_series",
    "ordered_pathloss_rule",
    "pair_pathloss_mean",
    "pair_pathloss_mean_series",
    "pair_distance_density",
    "outside_point_pathloss_mean",
    "outside_point_distance_density",
]

# The Gauss-Legendre rules on [-1, 1] that the position rules map onto their
# laws.  Computing one takes milliseconds, far longer than mapping it, so
# both are made once, at import.
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


@dataclass(frozen=True)
class UserLayout:
    """One drop of user positions, stored as 2-D points.

    Center users live in the disk of radius R around the BS (origin); edge
    users live in the disk of radius R_r around the surface center.  Distances
    to both anchor nodes are precomputed.
    """

    dl_center: np.ndarray   # (K_cd, 2)
    ul_center: np.ndarray   # (K_cu, 2)
    dl_edge: np.ndarray     # (K_ed, 2)
    ul_edge: np.ndarray     # (K_eu, 2)
    surface_center: np.ndarray  # (2,)

    def bs_distances(self, group: str) -> np.ndarray:
        return np.linalg.norm(getattr(self, group), axis=-1)

    def surface_distances(self, group: str) -> np.ndarray:
        return np.linalg.norm(getattr(self, group) - self.surface_center, axis=-1)


def sample_disk(rng: np.random.Generator, n: int, radius: float, center=(0.0, 0.0)) -> np.ndarray:
    """n points uniform over a disk, via inverse-CDF radius r = R*sqrt(u)."""
    r = radius * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return pts + np.asarray(center, dtype=float)


def sample_layout(cfg, rng: np.random.Generator) -> UserLayout:
    """Draw one uniform placement of all users described by the config."""
    sc = np.array([cfg.d_br, 0.0])
    return UserLayout(
        dl_center=sample_disk(rng, cfg.K_cd, cfg.R),
        ul_center=sample_disk(rng, cfg.K_cu, cfg.R),
        dl_edge=sample_disk(rng, cfg.K_ed, cfg.R_r, center=sc),
        ul_edge=sample_disk(rng, cfg.K_eu, cfg.R_r, center=sc),
        surface_center=sc,
    )


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


def ordered_pathloss_mean_series(spec: OrderSpec, m: float) -> float:
    """Series form of the same expectation; converges only for radius < 1.

    Derived by substituting t = (r/R)^2 and expanding (1 + R sqrt(t))^-m
    binomially, which turns the even/odd powers into two 3F2-type sums:

        F1 - m*R * [K! G(k+1/2) / ((k-1)! G(K+3/2))] * F2

    with F1 = H({k,(1+m)/2,m/2}, {1/2,1+K}, R^2) and
    F2 = H({k+1/2,(1+m)/2,(2+m)/2}, {3/2,3/2+K}, R^2).
    """
    k, K, R = spec.k, spec.K, spec.radius
    f1 = hyp_pfq((k, (1 + m) / 2, m / 2), (0.5, 1 + K), R * R)
    coeff = math.factorial(K) * gamma(k + 0.5) / (math.factorial(k - 1) * gamma(K + 1.5))
    f2 = hyp_pfq((k + 0.5, (1 + m) / 2, (2 + m) / 2), (1.5, 1.5 + K), R * R)
    return f1 - m * R * coeff * f2


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


def pair_pathloss_mean_series(R: float, m: float) -> float:
    """Hypergeometric form of the pair expectation; converges for 2R < 1.

    Singular at m = 1 and m = 2 through the (m-1)(m-2) prefactor; the
    rule has no such restriction.
    """
    x = 4.0 * R * R
    poly = (2.0 - 3.0 * m + m * m) * R * R
    t1 = 2.0 / poly
    t2 = 2.0 * hyp_pfq((0.5, m / 2 - 1.0, m / 2 - 0.5), (-0.5, 1.0), x) / poly
    t3 = hyp_pfq((1.5, 0.5 + m / 2, m / 2), (0.5, 3.0), x)
    t4 = 64.0 * m * R * hyp_pfq((2.0, 0.5 + m / 2, 1.0 + m / 2), (1.5, 3.5), x) / (15.0 * np.pi)
    t5 = 64.0 * m * R * hyp_pfq((2.0, 0.5 + m / 2, 1.0 + m / 2), (2.5, 2.5), x) / (9.0 * np.pi)
    return t1 - t2 - t3 + t4 - t5


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
