"""System configuration: every deployment parameter plus validation.

Geometry convention: the base station sits at the origin of the cell-center
disk (radius R); the surface sits on the x-axis at distance d_br, at the
center of the cell-edge disk (radius R_r).  d_br > R keeps the surface
strictly outside the cell-center disk, which the outside-point distance law
requires.  All lengths are meters, powers watts, angles radians.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from dataclasses import dataclass, field, fields, replace
from typing import IO

import yaml

__all__ = [
    "ConfigError",
    "SystemConfig",
    "PowerAllocation",
    "LINK_LABELS",
    "COUNT_FIELDS",
    "load_config",
    "dump_config",
    "baseline_config",
    "default_power_allocation",
]

# Channel labels: base station <-> surface, then surface <-> each cluster role.
LINK_LABELS = ("b,r", "r,u1d", "r,u2d", "r,u3d", "r,u1u", "r,u2u", "r,u3u")

# The integer fields: element, user and cluster counts.
COUNT_FIELDS = ("N", "K_cd", "K_cu", "K_ed", "K_eu", "K_d1", "K_d2", "K_u1", "K_u2", "M_d", "M_u")

# Default line-of-sight bearings (azimuth, elevation) seen from the surface.
# The BS lies in the -x direction (azimuth pi); center users scatter around
# that bearing, edge users sit on either face of the surface.  The model only
# needs these to be fixed and distinct per link; they are not fitted.
_DEFAULT_ANGLES = {
    "b,r": (math.pi, math.pi / 2),
    "r,u1d": (math.pi - 0.25, math.pi / 2 - 0.15),
    "r,u2d": (math.pi + 0.30, math.pi / 2 + 0.10),
    "r,u3d": (0.65, math.pi / 2 - 0.30),
    "r,u1u": (math.pi - 0.10, math.pi / 2 + 0.20),
    "r,u2u": (math.pi + 0.15, math.pi / 2 - 0.25),
    "r,u3u": (-0.85, math.pi / 2 + 0.25),
}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class PowerAllocation:
    """Downlink power split and uplink transmit powers of one NOMA group.

    alpha holds the DL coefficients, strong user first; NOMA requires them
    positive, strictly increasing and summing to at most 1.  p_ul holds one
    finite positive UL power in watts per UL member.  A config's allocation
    is a cluster's, with 3 entries each.
    """

    alpha: tuple
    p_ul: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "p_ul", tuple(float(p) for p in self.p_ul))
        if not self.alpha or not self.p_ul:
            raise ConfigError("allocation: alpha and p_ul must each have at least 1 entry")
        if not all(a < b for a, b in zip(self.alpha, self.alpha[1:])):
            raise ConfigError(f"allocation.alpha: ordering alpha1 < alpha2 < ... violated: {self.alpha}")
        if sum(self.alpha) > 1.0 + 1e-9:
            raise ConfigError(f"allocation.alpha: sum {sum(self.alpha):.6f} exceeds 1")
        if not self.alpha[0] > 0:
            raise ConfigError("allocation.alpha: coefficients must be positive")
        # every comparison with NaN is false, so a NaN power fails this test
        if not all(0 < p < math.inf for p in self.p_ul):
            raise ConfigError(f"allocation.p_ul: powers must be finite and positive, got {self.p_ul}")

    def validate_budget(self, p_um: float) -> None:
        for i, p in enumerate(self.p_ul):
            if not (0 < p <= p_um * (1 + 1e-12)):
                raise ConfigError(f"allocation.p_ul[{i}]={p} outside (0, p_um={p_um}]")


@dataclass(frozen=True)
class SystemConfig:
    """All scalar parameters of the deployment.  Immutable; safe to share."""

    # geometry
    R: float = 50.0          # cell-center radius (m)
    R_r: float = 30.0        # cell-edge radius (m)
    d_br: float = 80.0       # BS-to-surface distance (m)
    m: float = 2.7           # path-loss exponent

    # surface
    N: int = 10              # number of surface elements
    carrier_wavelength: float = 0.1   # m
    element_spacing: float = 0.05     # m (half wavelength)

    # user counts
    K_cd: int = 6            # DL cell-center users
    K_cu: int = 6            # UL cell-center users
    K_ed: int = 3            # DL cell-edge users
    K_eu: int = 3            # UL cell-edge users
    K_d1: int = 3            # DL group-1 size (nearest half)
    K_d2: int = 3            # DL group-2 size
    K_u1: int = 3            # UL group-1 size
    K_u2: int = 3            # UL group-2 size
    M_d: int = 3             # DL clusters
    M_u: int = 3             # UL clusters

    # impairments
    xi_sic: float = 0.1      # SIC error factor, fraction of power left undecoded
    beta_si: float = 0.001   # residual self-interference scale
    lambda_si: float = 0.1   # residual self-interference power exponent

    # powers and noise
    sigma2: float = 1.0      # noise variance (W)
    P_b: float = 1000.0      # BS transmit power (W)
    p_um: float = 100.0      # max user power (W)

    # fading and priorities
    kappa_map: dict = field(default_factory=lambda: {lbl: 3.0 for lbl in LINK_LABELS})
    weights_dl: tuple = (1.0, 1.0, 1.0)
    weights_ul: tuple = (1.0, 1.0, 1.0)

    # line-of-sight bearings per link, (azimuth, elevation) radians
    angle_map: dict = field(default_factory=lambda: dict(_DEFAULT_ANGLES))

    # optional per-cluster power policy carried by the config file
    allocation: PowerAllocation | None = None

    def __post_init__(self):
        for name in COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not float(value).is_integer():
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "weights_dl", tuple(float(w) for w in self.weights_dl))
        object.__setattr__(self, "weights_ul", tuple(float(w) for w in self.weights_ul))
        object.__setattr__(self, "kappa_map", dict(self.kappa_map))
        object.__setattr__(
            self, "angle_map", {k: tuple(map(float, v)) for k, v in self.angle_map.items()}
        )
        self._validate()

    def _validate(self) -> None:
        # every comparison with NaN is false, so the range checks below would pass it
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "allocation" and not _all_finite(value):
                raise ConfigError(f"{f.name} must hold finite numbers only, got {value}")
        if self.R <= 0:
            raise ConfigError(f"R must be positive, got {self.R}")
        if self.R_r <= 0:
            raise ConfigError(f"R_r must be positive, got {self.R_r}")
        if self.d_br <= self.R:
            raise ConfigError(
                f"d_br={self.d_br} must exceed R={self.R}: the surface must sit outside the cell-center disk"
            )
        if self.m < 0:
            raise ConfigError(f"m must be nonnegative, got {self.m}")
        if self.N < 1:
            raise ConfigError(f"N must be at least 1, got {self.N}")
        if self.carrier_wavelength <= 0 or self.element_spacing <= 0:
            raise ConfigError("carrier_wavelength and element_spacing must be positive")
        for name in COUNT_FIELDS[1:]:   # the user and cluster counts; N is checked above
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.K_d1 + self.K_d2 != self.K_cd:
            raise ConfigError(f"K_d1 + K_d2 = {self.K_d1 + self.K_d2} must equal K_cd = {self.K_cd}")
        if self.K_u1 + self.K_u2 != self.K_cu:
            raise ConfigError(f"K_u1 + K_u2 = {self.K_u1 + self.K_u2} must equal K_cu = {self.K_cu}")
        if not 0 <= self.xi_sic <= 1:
            raise ConfigError(f"xi_sic must lie in [0, 1], got {self.xi_sic}")
        if not 0 <= self.lambda_si <= 1:
            raise ConfigError(f"lambda_si must lie in [0, 1], got {self.lambda_si}")
        if self.beta_si < 0:
            raise ConfigError(f"beta_si must be nonnegative, got {self.beta_si}")
        if self.sigma2 <= 0:
            raise ConfigError(f"sigma2 must be positive, got {self.sigma2}")
        if self.P_b <= 0:
            raise ConfigError(f"P_b must be positive, got {self.P_b}")
        if not 0 < self.p_um <= self.P_b:
            raise ConfigError(f"p_um={self.p_um} must lie in (0, P_b={self.P_b}]")
        for lbl in LINK_LABELS:
            if lbl not in self.kappa_map:
                raise ConfigError(f"kappa_map missing link '{lbl}'")
            if self.kappa_map[lbl] < 0:
                raise ConfigError(f"kappa_map['{lbl}'] must be nonnegative")
            if lbl not in self.angle_map:
                raise ConfigError(f"angle_map missing link '{lbl}'")
        for name in ("weights_dl", "weights_ul"):
            n = len(getattr(self, name))
            if n != 3:
                raise ConfigError(f"{name} must have exactly 3 entries, one per role, got {n}")
        if any(w < 0 for w in self.weights_dl + self.weights_ul):
            raise ConfigError("weights must be nonnegative")
        if self.allocation is not None:
            if len(self.allocation.alpha) != 3 or len(self.allocation.p_ul) != 3:
                raise ConfigError("allocation: alpha and p_ul must each have 3 entries")
            self.allocation.validate_budget(self.p_um)

    # -- convenience -----------------------------------------------------

    @property
    def r1(self) -> float:
        """Clearance from the surface to the cell-center disk boundary."""
        return self.d_br - self.R

    @property
    def snr_db(self) -> float:
        return 10.0 * math.log10(self.P_b / self.sigma2)

    def with_snr(self, snr_db: float) -> "SystemConfig":
        """Copy with P_b set from a transmit SNR (dB) and p_um = 0.1 * P_b."""
        if not math.isfinite(snr_db):
            raise ConfigError(f"snr_db must be a finite number, got {snr_db}")
        P_b = self.sigma2 * 10.0 ** (snr_db / 10.0)
        return replace(self, P_b=P_b, p_um=0.1 * P_b, allocation=self.allocation)

    def uniform_clusters(self) -> bool:
        """True when the counts form uniform 3-member DL and UL clusters."""
        return (
            self.K_d1 == self.K_d2 == self.K_ed == self.M_d
            and self.K_u1 == self.K_u2 == self.K_eu == self.M_u
        )


def _all_finite(value) -> bool:
    """True when a scalar, a tuple, or a map of either holds finite numbers only."""
    items = value.values() if isinstance(value, dict) else (value,)
    entries = [x for v in items for x in (v if isinstance(v, tuple) else (v,))]
    return all(isinstance(x, numbers.Real) and math.isfinite(x) for x in entries)


def _integer(name: str, value) -> int:
    """value as an int, else a ValueError naming it: a bool, a float or any
    other non-integer is rejected."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _count(name: str, value) -> int:
    """_integer(name, value), which must also be at least 1."""
    value = _integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return value


def default_power_allocation(cfg: SystemConfig) -> PowerAllocation:
    """Default policy: fixed NOMA split, every UL user at the power cap."""
    if cfg.allocation is not None:
        return cfg.allocation
    return PowerAllocation(alpha=(0.1, 0.3, 0.6), p_ul=(cfg.p_um, cfg.p_um, cfg.p_um))


def baseline_config(**overrides) -> SystemConfig:
    """The reference deployment used throughout the tests and experiments."""
    return replace(SystemConfig(), **overrides) if overrides else SystemConfig()


# -- file round-trip -----------------------------------------------------

_SCHEMA = {
    "geometry": ("R", "R_r", "d_br", "m"),
    "surface": ("N", "carrier_wavelength", "element_spacing"),
    "users": ("K_cd", "K_cu", "K_ed", "K_eu", "K_d1", "K_d2", "K_u1", "K_u2"),
    "clusters": ("M_d", "M_u"),
    "impairments": ("xi_sic", "beta_si", "lambda_si"),
    "power": ("sigma2", "P_b", "p_um"),
}


def _section(doc: dict, section: str, keys) -> dict:
    """Pop one section of the document: a mapping of known keys ({} when absent)."""
    block = doc.pop(section, None) or {}
    if not isinstance(block, dict):
        raise ConfigError(f"section '{section}' must be a mapping")
    for key in block:
        if key not in keys:
            raise ConfigError(f"unknown field '{section}.{key}'")
    return block


def _number(name: str, value, integer: bool = False) -> float:
    """A YAML number as a float, or an integral one where integer is set.

    A boolean or a string is rejected by name: YAML reads true as a
    boolean, and float() would take it as 1.0.
    """
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        hint = ""
        if isinstance(value, str) and "e" in value.lower():
            try:
                float(value)
                hint = " (YAML reads an exponent as a number only after a dot and with a sign, as in 1.0e-3)"
            except ValueError:
                pass
        raise ConfigError(f"{name} must be {kind}, got {value!r}{hint}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be a finite number, got an integer too large for a float") from None
    if integer and not number.is_integer():
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return number


def _numbers(name: str, value, count: int | None = None) -> tuple:
    """A list of numbers, of exactly count entries when count is given."""
    if not isinstance(value, (list, tuple)) or count not in (None, len(value)):
        raise ConfigError(f"{name} must be a list of numbers{f' ({count} entries)' if count else ''}, got {value!r}")
    return tuple(_number(name, v) for v in value)


def load_config(source: str | os.PathLike | IO[str]) -> SystemConfig:
    """Parse a YAML config document, from a file path or a stream, into a SystemConfig.

    A path that cannot be read is rejected by name.  Unknown sections or
    fields are rejected so typos cannot silently fall back to defaults.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {os.fspath(source)!r}: {exc.strerror}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping of sections")

    kwargs = {}
    for section, keys in _SCHEMA.items():
        for key, value in _section(doc, section, keys).items():
            kwargs[key] = _number(f"{section}.{key}", value, key in COUNT_FIELDS)

    rician = _section(doc, "rician", ("default", *LINK_LABELS))
    default = _number("rician.default", rician.get("default", 3.0))
    kwargs["kappa_map"] = {lbl: _number(f"rician.{lbl}", rician.get(lbl, default)) for lbl in LINK_LABELS}

    weights = _section(doc, "weights", ("dl", "ul"))
    for key, value in weights.items():
        kwargs[f"weights_{key}"] = _numbers(f"weights.{key}", value)

    angles = _section(doc, "angles", LINK_LABELS)
    kwargs["angle_map"] = {**_DEFAULT_ANGLES, **{k: _numbers(f"angles.{k}", v, 2) for k, v in angles.items()}}

    alloc = _section(doc, "allocation", ("alpha", "p_ul"))
    if alloc:
        alpha, p_ul = (_numbers(f"allocation.{k}", alloc.get(k)) for k in ("alpha", "p_ul"))
        kwargs["allocation"] = PowerAllocation(alpha, p_ul)

    if doc:
        raise ConfigError(f"unknown section(s): {sorted(doc)}")
    return SystemConfig(**kwargs)


def dump_config(cfg: SystemConfig, path: str | None = None) -> str:
    """Serialize a SystemConfig to YAML text (and optionally to a file)."""
    doc: dict = {}
    for section, keys in _SCHEMA.items():
        doc[section] = {k: getattr(cfg, k) for k in keys}
    doc["rician"] = {lbl: cfg.kappa_map[lbl] for lbl in LINK_LABELS}
    doc["weights"] = {"dl": list(cfg.weights_dl), "ul": list(cfg.weights_ul)}
    doc["angles"] = {lbl: list(cfg.angle_map[lbl]) for lbl in LINK_LABELS}
    if cfg.allocation is not None:
        doc["allocation"] = {
            "alpha": list(cfg.allocation.alpha),
            "p_ul": list(cfg.allocation.p_ul),
        }
    text = yaml.safe_dump(doc, sort_keys=False)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
