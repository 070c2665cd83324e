"""Channels through the energy-splitting surface.

Each surface element n splits the incident energy between a transmission and
a reflection coefficient, rho_t[n] + rho_r[n] = 1, and applies independent
phase shifts phi_t[n], phi_r[n].  Surface-side channels are Rician: a
deterministic line-of-sight vector built from the planar-array response plus
an i.i.d. complex-Gaussian scatter part.  Direct BS-user and user-user
channels are plain Rayleigh scalars and live in the simulator.  This module
builds and samples the links; the mean powers of the paths through the
surface are quadratic forms in the element coefficients, which the rates
module stacks per face from the cached links (rates.surface_forms).

Line-of-sight convention: the BS-surface link carries the raw array response
and every surface-user link carries its conjugate (the two surface faces see
opposite phase progressions).  Under this convention the closed-form phase
alignment in the design module cancels the BS-surface-edge-user geometry
exactly on both faces.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

__all__ = [
    "StarRisState",
    "RicianLink",
    "element_grid",
    "array_response",
    "build_links",
    "link_key",
    "cached_links",
    "sample_rician",
    "ARRIVAL_LINKS",
]

# Links carrying the raw (unconjugated) array response; user links flip sign.
ARRIVAL_LINKS = frozenset({"b,r"})


@dataclass(frozen=True)
class StarRisState:
    """Per-element amplitudes and phases of both surface faces.

    Amplitudes are energy-splitting coefficients with rho_t + rho_r = 1 per
    element; phases are stored wrapped to [0, 2*pi).
    """

    rho_t: np.ndarray
    rho_r: np.ndarray
    phi_t: np.ndarray
    phi_r: np.ndarray

    def __post_init__(self):
        for name in ("rho_t", "rho_r", "phi_t", "phi_r"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            # a column or a matrix would broadcast against the length-N vectors it meets
            if getattr(self, name).ndim != 1:
                raise ValueError(f"{name} must be a 1-D array of N values, got shape {getattr(self, name).shape}")
            # every comparison with NaN is false, so the range checks below would pass it
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must hold finite numbers only")
        n = self.rho_t.shape
        if not (self.rho_r.shape == self.phi_t.shape == self.phi_r.shape == n):
            raise ValueError("state arrays must share one length N")
        if n == (0,):
            raise ValueError("a surface state needs at least 1 element, got 0")
        if np.any(self.rho_t < -1e-12) or np.any(self.rho_r < -1e-12):
            raise ValueError("amplitudes must be nonnegative")
        if np.max(np.abs(self.rho_t + self.rho_r - 1.0)) > 1e-12:
            raise ValueError("energy split violated: rho_t + rho_r must equal 1 per element")
        object.__setattr__(self, "rho_t", np.clip(self.rho_t, 0.0, 1.0))
        object.__setattr__(self, "rho_r", np.clip(self.rho_r, 0.0, 1.0))
        object.__setattr__(self, "phi_t", np.mod(self.phi_t, 2.0 * np.pi))
        object.__setattr__(self, "phi_r", np.mod(self.phi_r, 2.0 * np.pi))

    @property
    def N(self) -> int:
        return self.rho_t.size

    def coefficients(self, side: str) -> np.ndarray:
        """Complex element responses rho * exp(j*phi) of one face."""
        if side not in ("t", "r"):
            raise ValueError(f"side must be 't' or 'r', got {side!r}")
        if side == "t":
            return self.rho_t * np.exp(1j * self.phi_t)
        return self.rho_r * np.exp(1j * self.phi_r)

    @classmethod
    def uniform(cls, N: int) -> "StarRisState":
        return cls(
            rho_t=np.full(N, 0.5),
            rho_r=np.full(N, 0.5),
            phi_t=np.zeros(N),
            phi_r=np.zeros(N),
        )

    @classmethod
    def random(cls, N: int, rng: np.random.Generator) -> "StarRisState":
        t = rng.random(N)
        return cls(
            rho_t=t,
            rho_r=1.0 - t,
            phi_t=rng.uniform(0.0, 2.0 * np.pi, N),
            phi_r=rng.uniform(0.0, 2.0 * np.pi, N),
        )


def element_grid(N: int) -> tuple:
    """(column, row) of each of N surface elements on a grid of s = ceil(sqrt(N)) columns.

    Element n sits at column n mod s and row floor(n/s): a perfect square N
    fills the usual s x s grid, and any other N leaves the last row short.
    """
    if N < 1:
        raise ValueError("N must be positive")
    s = math.isqrt(N)
    if s * s != N:
        s = s + 1
    n = np.arange(N)
    return n % s, n // s


def array_response(N: int, azimuth: float, elevation: float, spacing: float, wavelength: float) -> np.ndarray:
    """Planar-array response of an N-element surface laid out on element_grid(N).

    Entry n is exp(j*2*pi*(spacing/wavelength)*(c_n*sin(az)*sin(el) + f_n*cos(el)))
    for element n at column c_n and row f_n.
    """
    cols, rows = element_grid(N)
    phase = (
        2.0 * np.pi * (spacing / wavelength)
        * (cols * np.sin(azimuth) * np.sin(elevation) + rows * np.cos(elevation))
    )
    return np.exp(1j * phase)


@dataclass(frozen=True)
class RicianLink:
    """One surface-side fading link: Rician factor plus its deterministic LoS vector.

    The link keeps its own read-only copy of los, and with it sample_rician's
    two constants, made once: scatter_scale, the factor sqrt(1/(k+1)) / sqrt(2)
    on each unit normal, and los_shift, the LoS part sqrt(k/(k+1)) * los.
    """

    kappa: float
    los: np.ndarray
    scatter_scale: float = field(init=False, repr=False, compare=False)
    los_shift: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "los", np.array(self.los, dtype=complex))
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if np.max(np.abs(np.abs(self.los) - 1.0)) > 1e-9:
            raise ValueError("LoS entries must have unit modulus")
        object.__setattr__(self, "scatter_scale", float(np.sqrt(self.scatter_weight) / np.sqrt(2.0)))
        object.__setattr__(self, "los_shift", np.sqrt(self.los_weight) * self.los)
        for a in (self.los, self.los_shift):
            a.flags.writeable = False

    @property
    def los_weight(self) -> float:
        return self.kappa / (self.kappa + 1.0)

    @property
    def scatter_weight(self) -> float:
        return 1.0 / (self.kappa + 1.0)


def build_links(cfg) -> dict[str, RicianLink]:
    """Deterministic LoS vectors for every surface-side link of the config."""
    links = {}
    for label, (az, el) in cfg.angle_map.items():
        resp = array_response(cfg.N, az, el, cfg.element_spacing, cfg.carrier_wavelength)
        if label not in ARRIVAL_LINKS:
            resp = np.conj(resp)
        links[label] = RicianLink(kappa=cfg.kappa_map[label], los=resp)
    return links


def link_key(cfg) -> tuple:
    """Every config field build_links reads, hashable: configs with equal keys have equal links."""
    return (
        cfg.N, cfg.element_spacing, cfg.carrier_wavelength,
        tuple(sorted(cfg.angle_map.items())), tuple(sorted(cfg.kappa_map.items())),
    )


# entries held by cached_links, rates.surface_forms and rates.cached_surface_terms: a
# sweep reads one per geometry (and surface state), so the oldest, another sweep's, go first
_MEMO_SIZE = 32
_LINKS: dict = {}


def _memo(memo: dict, key, make):
    """memo[key], made by make() if missing; the oldest entry goes once _MEMO_SIZE are held."""
    value = memo.get(key)
    if value is None:
        if len(memo) >= _MEMO_SIZE:
            del memo[next(iter(memo))]
        value = memo[key] = make()
    return value


def cached_links(cfg) -> Mapping[str, RicianLink]:
    """build_links(cfg), built once per link_key: every point of a sweep over SNR,
    powers or impairments reads the same links.  The map is read-only, as are
    the links' arrays, so that no caller can change the cached copy."""
    return _memo(_LINKS, link_key(cfg), lambda: MappingProxyType(build_links(cfg)))


def sample_rician(link: RicianLink, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Draw trials link vectors sqrt(k/(k+1))*los + sqrt(1/(k+1))*CN(0, I), as a
    (trials, N) batch sharing the same LoS.

    The standard normals are drawn straight into the output's float view, so
    an entry's real and imaginary parts are two consecutive normals of rng,
    the entries in C order; the link's premade scatter_scale and los_shift
    are then applied in place, and no array besides the output is made.  The
    values are those of the complex formula written with
    z = rng.standard_normal((trials, N, 2)), to the bit.
    """
    out = np.empty((trials, link.los.size), dtype=complex)
    rng.standard_normal(out=out.view(float))
    out *= link.scatter_scale
    out += link.los_shift
    return out
