"""Surface design: projected gradient ascent, closed-form phase alignment,
and minimum-power allocation.

The ascent treats the two phase vectors as unconstrained complex variables
and the two amplitude vectors as real variables, steps along the exact
gradient of the weighted sum rate, and projects back onto the feasible sets
after every step: entrywise unit modulus for phases, the per-element segment
rho_t + rho_r = 1, rho >= 0 for amplitudes.  A halving line search keeps the
best-seen objective monotone, which the convergence test relies on.

The ascent evaluates the objective at feasible points only: every trial step
is projected before its value is taken, and the gradient is taken at the
projected iterate.  The objective reads the surface through the combined
element coefficients c = rho * theta (so the scatter power is sum |c|^2).
Every surface term is a real quadratic form in c, and every role rate a
smooth function of the key means, so the gradient follows by the chain rule:
role rates to key means (rates.role_log2_mean_grad), key means to surface
terms (the role table's position factors), surface terms to c
(rates.surface_gradients), and c to (theta, rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import StarRisState, build_links, element_grid
from .config import PowerAllocation, SystemConfig, _count
from .rates import (
    DEFAULT_MODEL,
    ROLES,
    RateInputs,
    SurfaceTerms,
    bind,
    bind_power,
    cached_surface_terms,
    cluster_group,
    fading_log2_mean,
    group_tables,
    model_rules,
    role_log2_mean,
    role_log2_mean_grad,
    role_weights,
    sinr_row,
    surface_gradients,
    surface_terms,
    weighted_sum_rate,
)

__all__ = [
    "PgamSettings",
    "InfeasibleTargetsError",
    "project_phases",
    "project_amplitudes",
    "pgam_optimize",
    "suboptimal_phases",
    "aligned_state",
    "min_power_allocation",
]


# Ascent controls.  Each step moves along the exact gradient, normalized to
# unit norm separately for the phases and the amplitudes, so _PHASE_STEP is
# roughly the complex-plane distance moved per iteration and _AMPLITUDE_STEP
# the corresponding amplitude movement.  The raw gradient scale of this
# objective is set by the tiny through-surface terms and varies by orders of
# magnitude across configs; normalizing keeps one set of values usable
# everywhere.  A step that does not raise the objective is shrunk by
# _STEP_DECAY up to _MAX_BACKTRACKS times; the ascent stops when that fails
# or a step gains less than _TOLERANCE.
_TOLERANCE = 1e-10
_PHASE_STEP = 0.5
_AMPLITUDE_STEP = 0.2
_STEP_DECAY = 0.5
_MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class PgamSettings:
    """Ascent controls a run may set: the iteration cap."""

    max_iters: int = 80

    def __post_init__(self):
        _count("max_iters", self.max_iters)


def project_phases(raw_t: np.ndarray, raw_r: np.ndarray):
    """Entrywise projection onto unit modulus, returned as phase angles.

    Zero entries have no nearest unit-modulus point; they map to phase 0.
    """
    out = []
    for raw in (raw_t, raw_r):
        raw = np.asarray(raw, dtype=complex)
        phases = np.where(raw == 0, 0.0, np.angle(raw))
        out.append(np.mod(phases, 2.0 * np.pi))
    return tuple(out)


def project_amplitudes(raw_t: np.ndarray, raw_r: np.ndarray):
    """Per-element Euclidean projection of (rho_t, rho_r) onto the energy split.

    The feasible set per element is the segment {t + r = 1, t >= 0, r >= 0};
    projecting onto its supporting line gives t = (a - b + 1)/2, then clamping
    to [0, 1] lands on the segment ends when needed.
    """
    a = np.asarray(raw_t, dtype=float)
    b = np.asarray(raw_r, dtype=float)
    t = np.clip((a - b + 1.0) / 2.0, 0.0, 1.0)
    return t, 1.0 - t


class _Objective:
    """Weighted sum rate as a smooth function of (theta_t, theta_r, rho_t, rho_r)."""

    def __init__(self, cfg, power, cluster=1, model=DEFAULT_MODEL):
        self.cfg = cfg
        self.links = build_links(cfg)
        self.table = group_tables(cfg, [cluster_group(cfg, cluster)])[0]
        self.bound = bind_power(self.table.roles, power)
        self.model = model
        # d(objective)/d(role log2-mean): the role's weight over its rate's prelog M
        self.role_scale = {
            role: w / (cfg.M_d if role.startswith("DL") else cfg.M_u)
            for role, w in role_weights(cfg).items()
        }
        self.rules = model_rules(self.table, model)

    def value(self, theta_t, theta_r, rho_t, rho_r) -> float:
        surface = surface_terms(self.cfg, (rho_t * theta_t, rho_r * theta_r), self.links)
        return weighted_sum_rate(RateInputs(self.cfg, self.table, self.bound, surface), self.model)

    def gradient(self, theta_t, theta_r, rho_t, rho_r):
        """(g_theta_t, g_theta_r, g_rho_t, g_rho_r) of value at the same point.

        A complex entry is d/dRe + j d/dIm, a real one the plain derivative.
        With G = 2 df/d conj(c) on a face whose coefficients are c = rho * theta,
        g_theta = rho * G and g_rho = Re(G * conj(theta)).
        """
        coeffs = (rho_t * theta_t, rho_r * theta_r)
        means = self.table.means(surface_terms(self.cfg, coeffs, self.links))
        d_surface = dict.fromkeys(SurfaceTerms.__dataclass_fields__, 0.0)
        for role in self.bound:
            scale = self.role_scale[role.name]
            for key, d in role_log2_mean_grad(role, means, self.rules).items():
                factor, name = self.table.parts[key]
                if name is not None:
                    d_surface[name] += scale * d * factor
        G = {"t": np.zeros(len(theta_t), dtype=complex), "r": np.zeros(len(theta_r), dtype=complex)}
        for name, (side, grad) in surface_gradients(coeffs, self.links).items():
            G[side] += 2.0 * d_surface[name] * grad
        return (
            rho_t * G["t"], rho_r * G["r"],
            np.real(G["t"] * np.conj(theta_t)), np.real(G["r"] * np.conj(theta_r)),
        )


def pgam_optimize(
    cfg: SystemConfig,
    power: PowerAllocation,
    settings: PgamSettings | None = None,
    initial: StarRisState | None = None,
    cluster: int = 1,
    model: str = DEFAULT_MODEL,
):
    """Maximize the weighted sum rate over surface phases and amplitudes, each
    role weighted by the config's weights_dl and weights_ul.

    Returns (best_state, trace): the best feasible iterate seen and the
    non-decreasing per-iteration objective sequence.  initial=None starts
    from aligned_state(cfg), the aligned phases at an even split, for any N.

    model names the rate model of the objective (rates.RATE_MODELS).  The
    default matches rate_report; "ratio-of-means" poses the paper's surface
    design on its closed-form sum rate, which `starnoma optimize` reproduces.
    """
    settings = settings or PgamSettings()
    obj = _Objective(cfg, power, cluster, model)
    return _ascend(obj, aligned_state(cfg) if initial is None else initial, settings.max_iters)


def _ascend(obj: _Objective, start: StarRisState, max_iters: int):
    theta_t = np.exp(1j * start.phi_t)
    theta_r = np.exp(1j * start.phi_r)
    rho_t, rho_r = start.rho_t.copy(), start.rho_r.copy()

    def feasible_value(tt, tr, at, ar):
        pt, pr = project_phases(tt, tr)
        qt, qr = project_amplitudes(at, ar)
        return obj.value(np.exp(1j * pt), np.exp(1j * pr), qt, qr), (pt, pr, qt, qr)

    f_cur, (pt, pr, qt, qr) = feasible_value(theta_t, theta_r, rho_t, rho_r)
    theta_t, theta_r = np.exp(1j * pt), np.exp(1j * pr)
    rho_t, rho_r = qt, qr
    trace = [f_cur]
    nu, vartheta = _PHASE_STEP, _AMPLITUDE_STEP

    for _ in range(max_iters):
        g_tt, g_tr, g_at, g_ar = obj.gradient(theta_t, theta_r, rho_t, rho_r)

        g_phase = math.sqrt(np.sum(np.abs(g_tt) ** 2) + np.sum(np.abs(g_tr) ** 2))
        g_amp = math.sqrt(np.sum(g_at**2) + np.sum(g_ar**2))
        if g_phase == 0.0 and g_amp == 0.0:
            trace.append(f_cur)
            break
        d_tt = g_tt / g_phase if g_phase > 0 else g_tt
        d_tr = g_tr / g_phase if g_phase > 0 else g_tr
        d_at = g_at / g_amp if g_amp > 0 else g_at
        d_ar = g_ar / g_amp if g_amp > 0 else g_ar

        improved = False
        step_p, step_a = nu, vartheta
        for _ in range(_MAX_BACKTRACKS):
            f_new, proj = feasible_value(
                theta_t + step_p * d_tt,
                theta_r + step_p * d_tr,
                rho_t + step_a * d_at,
                rho_r + step_a * d_ar,
            )
            if f_new > f_cur:
                improved = True
                break
            step_p *= _STEP_DECAY
            step_a *= _STEP_DECAY
        if not improved:
            trace.append(f_cur)
            break
        pt, pr, qt, qr = proj
        theta_t, theta_r = np.exp(1j * pt), np.exp(1j * pr)
        rho_t, rho_r = qt, qr
        gain, f_cur = f_new - f_cur, f_new
        trace.append(f_cur)
        if gain < _TOLERANCE:
            break

    state = StarRisState(rho_t=qt, rho_r=qr, phi_t=pt, phi_r=pr)
    return state, trace


# -- closed-form phase alignment --------------------------------------------


def suboptimal_phases(cfg: SystemConfig):
    """Phases that cohere the BS-surface-edge-user paths, per surface face.

    For element n at column c_n and row f_n of the surface grid
    (channel.element_grid, any N), the phase -2*pi*(spacing/wavelength) *
    (c_n*nu + f_n*ell) cancels the geometric phase of the cascade toward the
    targeted edge user: the transmission face targets the UL edge user, the
    reflection face the DL edge user.  nu and ell are the azimuth/elevation
    direction differences between the BS-surface link and the surface-user
    link.
    """
    cols, rows = element_grid(cfg.N)
    ratio = cfg.element_spacing / cfg.carrier_wavelength
    az_b, el_b = cfg.angle_map["b,r"]
    out = {}
    for side, target in (("t", "r,u3u"), ("r", "r,u3d")):
        az_u, el_u = cfg.angle_map[target]
        nu = math.sin(az_b) * math.sin(el_b) - math.sin(az_u) * math.sin(el_u)
        ell = math.cos(el_b) - math.cos(el_u)
        out[side] = np.mod(-2.0 * np.pi * ratio * (cols * nu + rows * ell), 2.0 * np.pi)
    return out["t"], out["r"]


def aligned_state(cfg: SystemConfig, rho_t: float = 0.5) -> StarRisState:
    phi_t, phi_r = suboptimal_phases(cfg)
    return StarRisState(
        rho_t=np.full(cfg.N, rho_t),
        rho_r=np.full(cfg.N, 1.0 - rho_t),
        phi_t=phi_t,
        phi_r=phi_r,
    )


# -- minimum power allocation ------------------------------------------------


class InfeasibleTargetsError(RuntimeError):
    """Raised when no power vector meets the targets; names the binding constraint."""

    def __init__(self, binding: str, detail: str = ""):
        self.binding = binding
        super().__init__(f"targets infeasible, binding constraint: {binding}" + (f" ({detail})" if detail else ""))


# the root solver stops at a relative tolerance of 4 ulp; the absolute one
# only keeps the stop test meaningful at x = 0
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_ROOT_XTOL = 1e-300
_ROOT_MAX_ITERS = 100


def _find_root(f, a: float, b: float) -> float:
    """A root of f inside the bracket [a, b] by Brent's method.

    Each step tries inverse quadratic (or secant) interpolation through the
    last three points and falls back to bisection whenever the trial step is
    not short enough; the bracket [x, blk] always holds a sign change.  The
    solver stops once half the bracket is within 2 ulp of the estimate x.
    """
    x_pre, x = a, b
    f_pre, fx = f(x_pre), f(x)
    if f_pre == 0.0:
        return x_pre
    if fx == 0.0:
        return x
    if math.copysign(1.0, f_pre) == math.copysign(1.0, fx):
        raise ValueError(f"f({a!r}) and f({b!r}) have the same sign; [a, b] brackets no root")
    blk = f_blk = step_pre = step = 0.0
    for _ in range(_ROOT_MAX_ITERS):
        if f_pre != 0.0 and fx != 0.0 and math.copysign(1.0, f_pre) != math.copysign(1.0, fx):
            blk, f_blk = x_pre, f_pre
            step_pre = step = x - x_pre
        if abs(f_blk) < abs(fx):   # keep the best estimate in x
            x_pre, x, blk = x, blk, x
            f_pre, fx, f_blk = fx, f_blk, fx
        tol = 0.5 * (_ROOT_XTOL + _ROOT_RTOL * abs(x))
        half = 0.5 * (blk - x)
        if fx == 0.0 or abs(half) < tol:
            return x
        bisect = True
        if abs(step_pre) > tol and abs(fx) < abs(f_pre):
            if x_pre == blk:   # secant
                trial = -fx * (x - x_pre) / (fx - f_pre)
            else:              # inverse quadratic interpolation
                d_pre = (f_pre - fx) / (x_pre - x)
                d_blk = (f_blk - fx) / (blk - x)
                trial = -fx * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(trial) < min(abs(step_pre), 3.0 * abs(half) - tol):
                step_pre, step = step, trial
                bisect = False
        if bisect:
            step_pre = step = half
        x_pre, f_pre = x, fx
        x += step if abs(step) > tol else math.copysign(tol, half)
        fx = f(x)
    raise RuntimeError(f"no root within {_ROOT_MAX_ITERS} steps in [{a!r}, {b!r}]")


def _invert_fading_log2_mean(rule, level: float) -> float:
    """The scale s >= 0 at which fading_log2_mean(rule, s) equals level (bits)."""
    gains, weights = rule
    # by Jensen the mean stays below log2(1 + s * E g), so search upward from
    # the scale at which that bound reaches the level
    hi = (2.0**level - 1.0) / float(np.dot(weights, gains))
    while fading_log2_mean(rule, hi) < level:
        hi *= 2.0
    return _find_root(lambda x: fading_log2_mean(rule, x) - level, 0.0, hi)


# the surface face of each cascade side, by name
_FACES = {"t": "transmission", "r": "reflection"}


def min_power_allocation(
    targets: dict,
    cfg: SystemConfig,
    state: StarRisState,
    cluster: int = 1,
) -> PowerAllocation:
    """Powers meeting six per-role rate targets (bits/s/Hz) with equality.

    The targets are read as the rates rate_report gives under its default
    (exact-signal) model.  Every row is read off the cluster's role table
    (rates.sinr_row), whose coefficients are linear in the powers.  The UL
    rows involve only the UL powers: UL2 and UL3 are linear in them, and
    inverting the monotone UL1 log-mean for the ratio of p1 to its mean
    interference makes the UL1 row linear too, so one 3x3 solve gives p.
    With p known, the DL2 and DL3 rows give alpha2 and alpha3 as affine
    functions of alpha1, and the DL1 rate, increasing in alpha1, leaves a
    1-D root inside the DL budget sum(alpha) <= 1.  The solution is checked
    against positivity, the NOMA ordering, and the per-user cap p_um.  A
    role whose signal crosses a dark face (all amplitudes 0 on it, so its
    signal mean is 0: DL3 at rho_t = 1, UL3 at rho_t = 0) is rejected
    before either solve, by role and face.  Targets beyond the imperfect-SIC
    ceiling of the DL strong user are rejected up front: in every fading
    state its SINR is below alpha1/(xi*(alpha2+alpha3)) < 1/(2*xi) for any
    ordered split.
    """
    missing = set(ROLES) - set(targets)
    if missing:
        raise ValueError(f"targets missing roles: {sorted(missing)}")
    if any(targets[r] < 0 for r in ROLES):
        raise ValueError("targets must be nonnegative")
    if all(targets[r] == 0 for r in ROLES):
        raise InfeasibleTargetsError("degenerate", "all-zero targets have no positive minimal powers")

    g = {r: 2.0 ** (targets[r] * (cfg.M_d if r.startswith("DL") else cfg.M_u)) - 1.0 for r in ROLES}
    if cfg.xi_sic > 0 and g["DL1"] >= 1.0 / (2.0 * cfg.xi_sic):
        raise InfeasibleTargetsError(
            "dl1-sic-ceiling",
            f"required SINR {g['DL1']:.4g} >= 1/(2*xi) = {1.0 / (2.0 * cfg.xi_sic):.4g}",
        )

    [table] = group_tables(cfg, [cluster_group(cfg, cluster)])
    means, rules = table.means(cached_surface_terms(cfg, state)), table.rules
    roles = {r.name: r for r in table.roles}
    names = ("alpha1", "alpha2", "alpha3", "p_u1u", "p_u2u", "p_u3u")
    # a role whose signal crosses a dark face (every element's amplitude 0 there) has a zero
    # signal mean, so no power meets its target and its row leaves the linear system singular
    for role in table.roles:
        kind, side, *_ = role.signal.key
        if kind == "cascade" and means[role.signal.key] == 0.0:
            raise InfeasibleTargetsError(
                f"dark-face:{role.name}",
                f"{role.name}'s signal goes through the {_FACES[side]} face, whose amplitudes are all 0",
            )

    def solve(A, b):
        try:
            return np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise InfeasibleTargetsError("singular-system", str(exc)) from exc

    def check_positive(values, labels):
        for name, v in zip(labels, values):
            if v <= 0:
                raise InfeasibleTargetsError(f"positivity:{name}", f"{name} = {v:.4g}")

    # UL rows (they carry no alpha): UL2 and UL3 at their SINR targets, and UL1
    # per unit signal gain at the ratio whose exact log-mean meets its target
    ul1 = roles["UL1"]
    ratio = _invert_fading_log2_mean(rules[ul1.signal.key], cfg.M_u * targets["UL1"])
    rows, rhs = map(np.array, zip(
        sinr_row(ul1, {**means, ul1.signal.key: 1.0}, ratio),
        sinr_row(roles["UL2"], means, g["UL2"]),
        sinr_row(roles["UL3"], means, g["UL3"]),
    ))
    p = solve(rows[:, 3:], rhs)
    p1, p2, p3 = (float(v) for v in p)
    check_positive((p1, p2, p3), names[3:])

    # with p known, the DL2 and DL3 rows give alpha2 and alpha3 as affine
    # functions of alpha1; columns: coefficient of alpha1, constant
    rows, rhs = map(np.array, zip(*(sinr_row(roles[r], means, g[r]) for r in ("DL2", "DL3"))))
    (u2, v2), (u3, v3) = solve(rows[:, 1:3], np.column_stack([-rows[:, 0], rhs - rows[:, 3:] @ p]))
    # when the two rows admit positive powers at all (xi * g2 * g3 < 1), alpha2
    # and alpha3 are positive and grow with alpha1; otherwise v2, v3 <= 0
    check_positive((v2, v3), names[1:3])

    def dl1_excess(a1):
        x = (a1, u2 * a1 + v2, u3 * a1 + v3, p1, p2, p3, 1.0)
        return role_log2_mean(bind(roles["DL1"], x), means, rules) - cfg.M_d * targets["DL1"]

    a1_max = (1.0 - v2 - v3) / (1.0 + u2 + u3)
    if a1_max <= 0 or dl1_excess(a1_max) < 0:
        raise InfeasibleTargetsError("dl-power-budget", "the DL1 target needs sum(alpha) > 1")
    a1 = _find_root(dl1_excess, 0.0, a1_max)
    a2, a3 = u2 * a1 + v2, u3 * a1 + v3
    check_positive((a1,), names[:1])
    if not (a1 < a2 < a3):
        raise InfeasibleTargetsError("noma-ordering", f"alpha = ({a1:.4g}, {a2:.4g}, {a3:.4g})")
    for name, v in zip(names[3:], (p1, p2, p3)):
        if v > cfg.p_um * (1 + 1e-9):
            raise InfeasibleTargetsError(f"ul-power-budget:{name}", f"{name} = {v:.4g} > p_um = {cfg.p_um:.4g}")
    return PowerAllocation(alpha=(a1, a2, a3), p_ul=(min(p1, cfg.p_um), min(p2, cfg.p_um), min(p3, cfg.p_um)))
