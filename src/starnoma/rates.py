"""The role table: every user role's SINR, written once as data, and its rates.

A NOMA group (a 3-user cluster, or a 2-user pair of the pairing baseline)
gives each user one role, DL1..DLn and UL1..ULn from strong (decoded first)
to weak.  noma_roles() writes each role's SINR as signal / (sum of
interference terms).  A term is a coefficient times a gain key: the
coefficient weighs the group's variables x = (alpha_1..alpha_n, p_1..p_n, 1)
linearly, with P_b, xi_sic, the SI variance and the noise inside it, and the
key names one random gain: ("direct", u) a center user's BS link, ("cross",
rx, tx) a DL-center/UL-center link, ("cascade", side, out, in) a path through
one surface face, ("bounce",) the BS's own signal off the surface, ("si",) the
unit residual self-interference |CN(0, 1)|^2, and NOISE, a unit gain.  The
residual SI is the last term but one of every UL role, and the noise the
last term of every role, so no reader handles either by name: only
noma_roles() knows how SNR, the impairments and the noise enter a SINR.
Three readers use the table: GroupTable.means() and role_log2_mean() here
(the closed forms), simulator.sample_gains() (per-trial draws), and
sinr_row() (the linear rows of min-power allocation and the power policies).

Two models evaluate a rate (1/M) E log2(1 + SINR), selected by name:

* "ratio-of-means", the paper's closed forms: log2(1 + E S / E D) for every
  role, i.e. the expectation is pushed through the log.
* "exact-signal", the default: a role whose signal key carries an
  order-statistic rule (the strong users DL1 and UL1, and a pair's center
  strong member) keeps its other terms at their means but averages the log
  exactly over its signal gain: over the Rayleigh fading via
  E ln(1 + aX) = e^{1/a} E1(1/a), then over the order-statistic density of
  its distance with a fixed quadrature rule; terms on the signal's own key
  (a SIC residual) scale with the same gain.  The direct-link signal of
  these users is dominated by the heavy tail of the nearest user's path
  loss, so the log of the ratio of means overestimates it by up to 2.5x at
  30-40 dB.

A key's mean is a position factor times, for the keys through the surface,
a surface term (the unit SI and NOISE have mean 1):

* position terms depend only on the config and on which users a group
  holds: positions() gives each user's ordered path-loss mean to its anchor
  (BS or surface), the path-loss rule of each group's center strong member,
  and the shared pair and outside-point laws;
* surface terms (omega / y3 families) depend on the surface state through the
  element coefficients rho * exp(j*phi), as forms stacked per face (surface_forms).

group_tables() builds the GroupTable of every NOMA group from one
positions() call: its roles, each key's position factor and the signal rules
of the exact-signal model.  Only the surface terms are left to settle, since
the optimizer re-evaluates the rates many times while only they move; for a
fixed surface state, cached_surface_terms() settles them once per (links,
state), however many points and readers of a sweep ask.

Role indices inside cluster j: the DL cluster pairs the j-th nearest users of
both center groups with the (K_ed+1-j)-th nearest (i.e. j-th farthest) edge
user; the UL cluster takes the j-th nearest user of every group.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .channel import StarRisState, _memo, cached_links, link_key
from .config import PowerAllocation, SystemConfig, _integer
from .geometry import (
    OrderSpec,
    ordered_pathloss_mean,
    ordered_pathloss_rule,
    outside_point_pathloss_mean,
    pair_pathloss_mean,
)
from .specfun import exp_e1

__all__ = [
    "Positions",
    "SurfaceTerms",
    "RateInputs",
    "RateReport",
    "Member",
    "Term",
    "Role",
    "cluster_group",
    "noma_roles",
    "order_spec",
    "positions",
    "expectation_terms",
    "GroupTable",
    "group_tables",
    "FaceForms",
    "surface_forms",
    "surface_terms",
    "cached_surface_terms",
    "surface_gradient",
    "build_rate_inputs",
    "bind_power",
    "mean_signal_and_denominator",
    "role_log2_mean",
    "role_log2_mean_grad",
    "read_rates",
    "role_rates",
    "sinr_row",
    "solve_sinr",
    "fading_log2_mean",
    "fading_log2_mean_dlog",
    "sic_log2_mean",
    "unit_gain_scales",
    "RATE_MODELS",
    "DEFAULT_MODEL",
    "model_rules",
    "role_weights",
    "weighted_sum_rate",
    "rate_report",
    "si_variance",
]

ROLES = ("DL1", "DL2", "DL3", "UL1", "UL2", "UL3")

# surface faces of each cascaded path (out-link, in-link)
_OMEGA_PATHS = {
    "omega_u1d_u3u": ("r,u1d", "t", "r,u3u"),
    "omega_u2d_u3u": ("r,u2d", "t", "r,u3u"),
    "omega_u3d_br": ("r,u3d", "r", "b,r"),
    "omega_u3d_u1u": ("r,u3d", "r", "r,u1u"),
    "omega_u3d_u2u": ("r,u3d", "r", "r,u2u"),
    "omega_u3d_u3u": ("r,u3d", "r", "r,u3u"),
    "omega_br_u3u": ("b,r", "t", "r,u3u"),
}
_OMEGA_NAME = {path: name for name, path in _OMEGA_PATHS.items()}


def pathloss(d, m: float):
    """Distance-to-gain map (1+d)^-m shared by analysis and simulation."""
    return (1.0 + np.asarray(d, dtype=float)) ** (-m)


def si_variance(cfg: SystemConfig) -> float:
    """Residual self-interference variance beta * P_b^lambda."""
    return cfg.beta_si * cfg.P_b**cfg.lambda_si


# the gain key of the noise: a unit gain, whose coefficient in a role is the noise variance
NOISE = ("noise",)


# -- the role table -----------------------------------------------------------


class Member(NamedTuple):
    """One user a role table refers to (or the BS, as the end of a cascade).

    A plain tuple, so that gain keys hash fast: every rate evaluation looks
    them up many times.
    """

    kind: str        # "center", "edge", or "bs"
    direction: str   # "DL" or "UL"
    order: int       # distance rank inside its group, 1 = nearest
    link: str        # surface link label whose bearing its fading vector has


BS = Member("bs", "", 0, "b,r")


class Term(NamedTuple):
    """A coefficient over the group's variables (alpha..., p..., 1) times a gain key."""

    coef: tuple
    key: tuple


class Role(NamedTuple):
    """One role's SINR: signal / (sum of interference terms), the residual SI and
    the noise among them."""

    name: str
    signal: Term
    interference: tuple


def signal_key(m: Member) -> tuple:
    """Gain of a user's own link to the BS: direct for center users, via the surface for edge users."""
    if m.kind == "center":
        return ("direct", m)
    return ("cascade", "r", m, BS) if m.direction == "DL" else ("cascade", "t", BS, m)


def _heard_at(rx: Member, tx: Member) -> tuple:
    """Gain of UL sender tx at DL receiver rx: direct between center users,
    otherwise through the transmission face to a center receiver and the
    reflection face to an edge receiver."""
    if rx.kind == tx.kind == "center":
        return ("cross", rx, tx)
    return ("cascade", "t" if rx.kind == "center" else "r", rx, tx)


def noma_roles(cfg: SystemConfig, dl, ul) -> tuple:
    """Role table of one NOMA group; dl and ul list its users strong to weak.

    A DL user cancels its weaker partners' signals by SIC up to a residual
    xi of their power and hears its stronger partners in full.  The BS
    decodes the UL users strong-first, so a UL user hears its weaker
    partners in full and the residual of the stronger ones.  Every DL user
    also hears every UL sender, and every UL user the BS's own signal off
    the surface and the residual self-interference, of variance
    si_variance(cfg) on the unit SI gain.  Every role's last term is the
    noise, of variance sigma2 on the unit NOISE gain.
    """
    nd, nu = len(dl), len(ul)
    P, xi = cfg.P_b, cfg.xi_sic

    def coef(*weights):   # (variable index, weight) pairs -> coefficient vector
        c = [0.0] * (nd + nu + 1)
        for i, w in weights:
            c[i] += w
        return tuple(c)

    noise = (Term(coef((nd + nu, cfg.sigma2)), NOISE),)
    roles = []
    for i, m in enumerate(dl):
        partners = [(j, P if j < i else xi * P) for j in range(nd) if j != i]
        own = (Term(coef(*partners), signal_key(m)),) if partners else ()
        heard = tuple(Term(coef((nd + k, 1.0)), _heard_at(m, u)) for k, u in enumerate(ul))
        roles.append(Role(f"DL{i + 1}", Term(coef((i, P)), signal_key(m)), own + heard + noise))
    floor = (Term(coef((nd + nu, P)), ("bounce",)), Term(coef((nd + nu, si_variance(cfg))), ("si",)), *noise)
    for i, u in enumerate(ul):
        others = tuple(
            Term(coef((nd + j, 1.0 if j > i else xi)), signal_key(v)) for j, v in enumerate(ul) if j != i
        )
        roles.append(Role(f"UL{i + 1}", Term(coef((nd + i, 1.0)), signal_key(u)), others + floor))
    return tuple(roles)


def cluster_members(cfg: SystemConfig, cluster: int = 1) -> tuple:
    """The users of cluster j (1-based): DL strong, mid, edge, then UL strong, mid, edge."""
    j = _integer("cluster", cluster)
    if not 1 <= j <= min(cfg.M_d, cfg.M_u):
        raise ValueError(f"cluster index {j} outside 1..{min(cfg.M_d, cfg.M_u)}")
    if cfg.K_d1 + j > cfg.K_cd or cfg.K_u1 + j > cfg.K_cu:
        raise ValueError("cluster index exceeds the group-2 population")
    if cfg.K_ed + 1 - j < 1 or j > cfg.K_eu:
        raise ValueError("cluster index exceeds the edge population")
    return (
        Member("center", "DL", j, "r,u1d"),
        Member("center", "DL", cfg.K_d1 + j, "r,u2d"),
        Member("edge", "DL", cfg.K_ed + 1 - j, "r,u3d"),
        Member("center", "UL", j, "r,u1u"),
        Member("center", "UL", cfg.K_u1 + j, "r,u2u"),
        Member("edge", "UL", j, "r,u3u"),
    )


def cluster_group(cfg: SystemConfig, cluster: int = 1) -> tuple:
    """Cluster j as a NOMA group (dl users, ul users), strong first."""
    members = cluster_members(cfg, cluster)
    return members[:3], members[3:]


def table_keys(roles) -> tuple:
    """Every gain key of a role table, in order of first appearance."""
    return tuple(dict.fromkeys(t.key for role in roles for t in (role.signal, *role.interference)))


def _dot(coef, x) -> float:
    return sum(map(operator.mul, coef, x))


def bind(role: Role, x) -> Role:
    """The role with every coefficient evaluated at variables x, as the readers take it."""
    return Role(
        role.name, Term(_dot(role.signal.coef, x), role.signal.key),
        tuple(Term(_dot(t.coef, x), t.key) for t in role.interference),
    )


def bind_power(roles, power: PowerAllocation) -> tuple:
    """A group's roles bound to its allocation's variables x = (alpha..., p..., 1), which
    must hold one alpha per DL role and one p per UL role: x pairs with the coefficients."""
    for name, given, direction in (("alpha", power.alpha, "DL"), ("p_ul", power.p_ul, "UL")):
        size = sum(role.name.startswith(direction) for role in roles)
        if len(given) != size:
            raise ValueError(f"allocation.{name} has {len(given)} entries but the group has {size} {direction} users")
    x = (*power.alpha, *power.p_ul, 1.0)
    return tuple(bind(r, x) for r in roles)


# -- analytic reader ------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceTerms:
    """State-dependent mean cascaded powers (omega family) and the self bounce."""

    omega_u1d_u3u: float
    omega_u2d_u3u: float
    omega_u3d_br: float
    omega_u3d_u1u: float
    omega_u3d_u2u: float
    omega_u3d_u3u: float
    omega_br_u3u: float
    y3_raw: float    # E|g^H diag(c_t) g|^2 of the BS-surface link, before path loss

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) < -1e-12:
                raise ValueError(f"surface term {name} must be nonnegative")


class Positions(NamedTuple):
    """Mean path losses of a role table's users: the position half of each key's mean."""

    loss: dict        # user -> mean path loss to its anchor: the BS (center) or the surface (edge)
    rules: dict       # signal key averaged exactly (exact-signal) -> its path-loss rule
    y1: float         # center-user pair distance law
    q_center: float   # surface-to-center-user outside-point law
    l_br: float       # BS-to-surface path loss

    def at_surface(self, m: Member) -> float:
        if m.kind == "bs":
            return self.l_br
        return self.q_center if m.kind == "center" else self.loss[m]


# the config field counting each user class: (kind, direction) -> population
_POPULATION = {("center", "DL"): "K_cd", ("center", "UL"): "K_cu", ("edge", "DL"): "K_ed", ("edge", "UL"): "K_eu"}


def order_spec(cfg: SystemConfig, u: Member) -> OrderSpec:
    """The order statistic of a user's distance to its anchor: the BS for a
    center user, in the disk of radius R; the surface for an edge user, in R_r."""
    return OrderSpec(u.order, getattr(cfg, _POPULATION[u.kind, u.direction]), cfg.R if u.kind == "center" else cfg.R_r)


def positions(cfg: SystemConfig, groups) -> Positions:
    """The Positions of the users of NOMA groups (dl users, ul users), listed strong first.

    Every user gets the mean of its ordered path loss.  The center strong
    member of a group with a partner (a cluster's DL1 and UL1, a pair's
    strong member, not the lone median slot) also gets its path-loss rule:
    its signal is the one the exact-signal model averages exactly.
    """
    loss, rules = {}, {}
    for users in (users for group in groups for users in group):
        for i, u in enumerate(users):
            spec = order_spec(cfg, u)
            loss[u] = ordered_pathloss_mean(spec, cfg.m)
            if u.kind == "center" and i == 0 and len(users) > 1:
                rules[("direct", u)] = ordered_pathloss_rule(spec, cfg.m)
    return Positions(
        loss, rules,
        y1=pair_pathloss_mean(cfg.R, cfg.m),
        q_center=outside_point_pathloss_mean(cfg.R, cfg.r1, cfg.m),
        l_br=float(pathloss(cfg.d_br, cfg.m)),
    )


def position_parts(keys, pos: Positions) -> dict:
    """Each gain key's mean as (position factor, name of its SurfaceTerms factor or None);
    the unit SI and NOISE have mean 1."""
    parts = {}
    for key in keys:
        if key[0] == "direct":
            parts[key] = (pos.loss[key[1]], None)
        elif key[0] == "cross":
            parts[key] = (pos.y1, None)
        elif key[0] == "cascade":
            _, side, out, inp = key
            parts[key] = (pos.at_surface(out) * pos.at_surface(inp), _OMEGA_NAME[(out.link, side, inp.link)])
        elif key[0] == "bounce":
            parts[key] = (pos.l_br**2, "y3_raw")
        else:
            parts[key] = (1.0, None)
    return parts


class GroupTable(NamedTuple):
    """A NOMA group's role table with everything but the surface state settled."""

    roles: tuple    # its roles, coefficients over the group's variables
    parts: dict     # key -> position_parts entry, which depends on the draw's config fields alone
    rules: dict     # signal key -> path-loss rule, for the exact-signal model

    def means(self, surface: SurfaceTerms) -> dict:
        """Expectation of every gain key: its position factor times its surface term."""
        return {key: f if name is None else getattr(surface, name) * f for key, (f, name) in self.parts.items()}


def expectation_terms(cfg: SystemConfig, cluster: int = 1) -> Positions:
    """The position terms of cluster j: the Positions of its users."""
    return positions(cfg, [cluster_group(cfg, cluster)])


def group_tables(cfg: SystemConfig, groups) -> list:
    """The GroupTable of every NOMA group (dl users, ul users), from one positions() call."""
    pos = positions(cfg, groups)
    tables = []
    for dl, ul in groups:
        roles = noma_roles(cfg, dl, ul)
        tables.append(GroupTable(roles, position_parts(table_keys(roles), pos), pos.rules))
    return tables


def _is_rate(value) -> bool:
    """True for a finite nonnegative real number: NaN, inf, bools and strings are not rates."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 <= value < math.inf


def check_state_size(cfg: SystemConfig, n: int) -> None:
    """Reject a surface state whose element count is not the config's N."""
    if n != cfg.N:
        raise ValueError(f"surface state has N={n} elements but the config has N={cfg.N}")


# the two surface faces, by cascade side
_FACES = {"t": "transmission", "r": "reflection"}


class FaceForms(NamedTuple):
    """The paths through one surface face, one row each, whose mean powers are
    los_weight * |sum_n los_out[n] c[n] los_in[n]|^2 + scatter_weight * sum_n |c[n]|^2:
    a path's LoS term and three scatter terms, once the zero-mean cross terms drop.
    The transmission face's last row is the self bounce y3_raw, the BS-surface
    vector on both sides of diag(c): its LoS row is conj(los) * los, and the one
    vector adds coherence terms, weighted by bounce.
    """

    names: tuple                 # each path's SurfaceTerms field
    los_out: np.ndarray          # (paths, N): LoS of each path's out-link
    los_in: np.ndarray           # (paths, N): LoS of each path's in-link
    paths: np.ndarray            # (paths, N): los_out * los_in, the rows of the gradient
    los_weight: np.ndarray       # (paths,): wo*wi, with w = k/(k+1) a link's LoS weight
    scatter_weight: np.ndarray   # (paths,): wo*si + wi*so + so*si, with s = 1/(k+1)
    bounce: tuple | None         # (u, v) = (w, s) of the BS-surface link if the last row is the bounce


_FORMS: dict = {}


def surface_forms(cfg: SystemConfig) -> Mapping:
    """side -> FaceForms of the config, stacked on first use from cached_links(cfg)
    and kept once per channel.link_key; the arrays are read-only."""
    return _memo(_FORMS, link_key(cfg), lambda: _stack_forms(cached_links(cfg)))


def _stack_forms(links) -> Mapping:
    rows = {side: [] for side in _FACES}
    for name, (out, side, inp) in _OMEGA_PATHS.items():
        o, i = links[out], links[inp]
        wo, wi, so, si = o.los_weight, i.los_weight, o.scatter_weight, i.scatter_weight
        rows[side].append((name, o.los, i.los, wo * wi, wo * si + wi * so + so * si))
    br = links["b,r"]
    u, v = br.los_weight, br.scatter_weight
    rows["t"].append(("y3_raw", np.conj(br.los), br.los, u * u, 2.0 * u * v))
    forms = {}
    for side, face in rows.items():
        names, *columns = zip(*face)
        los_out, los_in, w, k = (np.array(column) for column in columns)
        arrays = (los_out, los_in, los_out * los_in, w, k)
        for a in arrays:
            a.flags.writeable = False
        forms[side] = FaceForms(names, *arrays, bounce=(u, v) if side == "t" else None)
    return MappingProxyType(forms)


def _faces(cfg: SystemConfig, coeffs) -> dict:
    """side -> c of the pair (c_t, c_r), each checked to be 1-D: a column broadcasts into wrong terms."""
    faces = dict(zip(_FACES, coeffs, strict=True))
    for side, c in faces.items():
        if np.ndim(c) != 1 or len(c) != cfg.N:
            raise ValueError(f"c_{side}, the {_FACES[side]} face's coefficients, must be 1-D with the config's "
                             f"N={cfg.N} elements, got N={np.size(c)} in shape {np.shape(c)}")
    return faces


def surface_terms(cfg: SystemConfig, coeffs) -> SurfaceTerms:
    """Evaluate the omega family and the self-bounce power for one state.

    coeffs is the pair (c_t, c_r) of the state's element coefficients
    rho * exp(j*phi), each a 1-D array of cfg.N values, which is how the
    optimizer passes its projected iterates.  Each face's paths take one
    pass over its stacked forms (surface_forms).  A StarRisState's terms
    come from cached_surface_terms.
    """
    forms, values = surface_forms(cfg), {}
    for side, c in _faces(cfg, coeffs).items():
        face = forms[side]
        sums = np.sum(face.los_out * c * face.los_in, axis=1)
        p = float(np.sum(np.abs(c) ** 2))
        terms = face.los_weight * np.abs(sums) ** 2 + face.scatter_weight * p
        if face.bounce is not None:
            # |w|^4 has mean 2, so the bounce's pure-scatter term carries 2p plus the off-diagonal
            # double sum |sum c|^2 - p; its LoS / scatter cross term is real by construction
            (u, v), sum_c = face.bounce, np.sum(c)
            cross = float(np.real(sums[-1] * np.conj(sum_c)))
            terms[-1] = terms[-1] + v * v * (2.0 * p + (np.abs(sum_c) ** 2 - p)) + 2.0 * u * v * cross
        values.update(zip(face.names, terms))
    return SurfaceTerms(**values)


_SURFACE: dict = {}


def cached_surface_terms(cfg: SystemConfig, state: StarRisState) -> SurfaceTerms:
    """surface_terms of a surface state, evaluated once per (links, state).

    The key holds every input the terms read: the config's link fields
    (channel.link_key) and both faces' element coefficients, by value.  Every
    point of a sweep over SNR, powers or impairments, and every reader of one
    point (the power policies, the rate reports, the pairing sums), shares
    the one evaluation.  The optimizer's iterates go to surface_terms
    directly.
    """
    check_state_size(cfg, state.N)
    coeffs = (state.coefficients("t"), state.coefficients("r"))
    key = (link_key(cfg), coeffs[0].tobytes(), coeffs[1].tobytes())
    return _memo(_SURFACE, key, lambda: surface_terms(cfg, coeffs))


def surface_gradient(cfg: SystemConfig, coeffs, weights) -> tuple:
    """(g_t, g_r): each face's gradient d/d conj(c) of sum_name weights[name] * term over
    the SurfaceTerms fields.  With a face's path rows A, weights d, LoS weights w and
    scatter weights k, the terms sum to sum_i d_i (w_i |A_i c|^2 + k_i |c|^2), whose
    gradient is A^H (d * w * (A c)) + (d . k) c; the bounce adds its coherence terms'.
    """
    forms, grads = surface_forms(cfg), []
    for side, c in _faces(cfg, coeffs).items():
        face = forms[side]
        d = np.array([weights[name] for name in face.names])
        sums = face.paths @ c
        g = np.conj(face.paths).T @ (d * face.los_weight * sums) + (d @ face.scatter_weight) * c
        if face.bounce is not None:
            (u, v), sum_c = face.bounce, np.sum(c)
            g = g + d[-1] * (v * v * (c + sum_c) + u * v * (sums[-1] + sum_c * np.conj(face.paths[-1])))
        grads.append(g)
    return tuple(grads)


@dataclass(frozen=True)
class RateInputs:
    """Everything the analytic reader needs for one cluster: its table, the table's roles
    bound to the allocation, and its surface terms."""

    cfg: SystemConfig
    table: GroupTable
    bound: tuple      # the table's roles at the allocation's variables
    surface: SurfaceTerms

    def means(self) -> dict:
        return self.table.means(self.surface)


def build_rate_inputs(cfg: SystemConfig, power: PowerAllocation, state: StarRisState, cluster: int = 1) -> RateInputs:
    table = group_tables(cfg, [cluster_group(cfg, cluster)])[0]
    return RateInputs(cfg, table, bind_power(table.roles, power), cached_surface_terms(cfg, state))


def fading_log2_mean(rule, scale):
    """E log2(1 + scale * g * X) over a path-loss rule g and Rayleigh power X.

    X is unit-mean exponential, so E ln(1 + aX) = e^{1/a} E1(1/a) exactly at
    each node a = scale * g of the rule; a zero scale gives zero.  An array
    of scales gives an array of means.
    """
    gains, weights = rule
    with np.errstate(divide="ignore"):
        vals = exp_e1(1.0 / np.multiply.outer(scale, gains))
    return (vals @ weights) / math.log(2.0)


def fading_log2_mean_dlog(rule, scale: float) -> float:
    """Derivative of fading_log2_mean with respect to ln(scale), i.e. scale times its slope.

    At each node x = 1/(scale * g), and d/dscale e^x E1(x) = g (x - x^2 e^x E1(x)),
    so scale times it is 1 - x e^x E1(x).  A zero scale gives zero: the mean
    is flat in ln(scale) there.
    """
    if scale == 0.0:
        return 0.0
    gains, weights = rule
    x = 1.0 / (scale * gains)
    return float((1.0 - x * exp_e1(x)) @ weights) / math.log(2.0)


def sic_log2_mean(rule, total: float, residual: float) -> float:
    """fading_log2_mean at scale total minus the same at scale residual.

    This is E log2(1 + SINR) of a strong user whose SIC residual of its
    partners' power scales with the same gain as its own signal, the scales
    taken per unit gain; the two means are rounded apart, so the difference
    is kept from going below 0.
    """
    both = fading_log2_mean(rule, np.array([total, residual]))
    return max(float(both[0] - both[1]), 0.0)


def unit_gain_scales(role: Role, means: dict) -> tuple:
    """(total, residual): a bound role's SINR per unit signal gain, other keys at their means.

    log2(1 + SINR) is log2(1 + total * gain) - log2(1 + residual * gain),
    residual being the terms on the signal's own key, as in sic_log2_mean.
    """
    same = sum(t.coef for t in role.interference if t.key == role.signal.key)
    rest = _off_signal_denominator(role, means)
    residual = same / rest
    return residual + role.signal.coef / rest, residual


def _off_signal_denominator(role: Role, means: dict) -> float:
    """The interference on keys other than the signal's, the noise included, at their means."""
    return sum(t.coef * means[t.key] for t in role.interference if t.key != role.signal.key)


def mean_signal_and_denominator(role: Role, means: dict) -> tuple:
    """(S, D): a bound role's mean signal and its mean interference, the noise included."""
    den = sum(t.coef * means[t.key] for t in role.interference)
    return role.signal.coef * means[role.signal.key], den


def role_log2_mean(role: Role, means: dict, rules: dict) -> float:
    """E log2(1 + SINR) of one bound role.

    A signal key found in rules is averaged exactly (exact-signal model);
    any other role takes the log of the ratio of means, as log1p so that an
    SINR far below 1 keeps its digits.
    """
    rule = rules.get(role.signal.key)
    if rule is not None:
        return sic_log2_mean(rule, *unit_gain_scales(role, means))
    signal, den = mean_signal_and_denominator(role, means)
    return math.log1p(signal / den) / math.log(2.0)


def role_log2_mean_grad(role: Role, means: dict, rules: dict) -> dict:
    """Derivative of role_log2_mean with respect to each key mean the role reads.

    Ratio of means: the rate is log2(D + S) - log2(D), with the signal S and
    the denominator D linear in the means.  Exact signal: both unit-gain
    scales are proportional to 1/rest, rest being linear in the means of the
    keys off the signal's; the signal's own key is averaged by its rule and
    reads no mean.
    """
    key = role.signal.key
    grad = dict.fromkeys((key, *(t.key for t in role.interference)), 0.0)
    rule = rules.get(key)
    if rule is not None:
        rest = _off_signal_denominator(role, means)
        total, residual = unit_gain_scales(role, means)
        d_rest = -(fading_log2_mean_dlog(rule, total) - fading_log2_mean_dlog(rule, residual)) / rest
        for t in role.interference:
            if t.key != key:
                grad[t.key] += t.coef * d_rest
        return grad
    signal, den = mean_signal_and_denominator(role, means)
    both = den + signal
    ln2 = math.log(2.0)
    grad[key] += role.signal.coef / (both * ln2)
    for t in role.interference:
        grad[t.key] += t.coef * (1.0 / both - 1.0 / den) / ln2
    return grad


def sinr_row(role: Role, means: dict, g: float) -> tuple:
    """(row, rhs) over the group's powers v = (alpha..., p...): the role's
    ratio-of-means SINR equals g exactly where row . v = rhs.  The last
    variable is the constant 1, so the terms' constant parts, the SI and the
    noise among them, move to the right-hand side."""
    r = means[role.signal.key] * np.asarray(role.signal.coef)
    for t in role.interference:
        r = r - g * means[t.key] * np.asarray(t.coef)
    return r[:-1], -r[-1]


def solve_sinr(role: Role, means: dict, g: float, v0, dv) -> float:
    """The step s at which the role's ratio-of-means SINR at powers v0 + s * dv equals g."""
    row, rhs = sinr_row(role, means, g)
    return float((rhs - row @ np.asarray(v0)) / (row @ np.asarray(dv)))


RATE_MODELS = ("ratio-of-means", "exact-signal")
DEFAULT_MODEL = "exact-signal"


def model_rules(table: GroupTable, model: str) -> dict:
    """The path-loss rules the named model averages the signal over: the table's, or none."""
    if model not in RATE_MODELS:
        raise ValueError(f"unknown rate model {model!r}; choose one of {RATE_MODELS}")
    return table.rules if model == "exact-signal" else {}


def read_rates(bound, means: dict, rules: dict, shares: dict) -> dict:
    """Each bound role's rate: its E log2(1 + SINR) over its direction's time-share divisor."""
    return {role.name: role_log2_mean(role, means, rules) / shares[role.name[:2]] for role in bound}


def role_rates(inputs: RateInputs, model: str = DEFAULT_MODEL) -> dict:
    """Per-role rates (1/M) E log2(1 + SINR) of one cluster under the named model."""
    cfg = inputs.cfg
    return read_rates(inputs.bound, inputs.means(), model_rules(inputs.table, model), {"DL": cfg.M_d, "UL": cfg.M_u})


def role_weights(cfg: SystemConfig) -> dict:
    """Each role's priority weight, from the config's weights_dl and weights_ul."""
    return dict(zip(ROLES, cfg.weights_dl + cfg.weights_ul))


def weighted_sum_rate(inputs: RateInputs, model: str = DEFAULT_MODEL) -> float:
    """Priority-weighted sum of the six role rates of one cluster under the named model."""
    weights = role_weights(inputs.cfg)
    return sum(weights[role] * rate for role, rate in role_rates(inputs, model).items())


@dataclass(frozen=True)
class RateReport:
    """Per-role ergodic rates of one cluster plus their aggregates."""

    rates: dict                  # role -> bits/s/Hz
    stderr: dict | None = None   # role -> standard error, for a simulated report

    def __post_init__(self):
        missing = set(ROLES) - set(self.rates)
        if missing:
            raise ValueError(f"report missing roles: {sorted(missing)}")
        for role, v in self.rates.items():
            if not _is_rate(v):
                raise ValueError(f"rate of {role} must be finite and nonnegative, got {v}")

    @property
    def dl_sum(self) -> float:
        return self.rates["DL1"] + self.rates["DL2"] + self.rates["DL3"]

    @property
    def ul_sum(self) -> float:
        return self.rates["UL1"] + self.rates["UL2"] + self.rates["UL3"]


def rate_report(
    cfg: SystemConfig,
    power: PowerAllocation,
    state: StarRisState,
    cluster: int = 1,
    model: str = DEFAULT_MODEL,
) -> RateReport:
    """Analytic per-role rates of one cluster under the named model (see module docstring)."""
    inputs = build_rate_inputs(cfg, power, state, cluster)
    return RateReport(role_rates(inputs, model))
