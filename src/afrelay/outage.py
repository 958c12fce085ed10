"""Outage probabilities for both forwarding protocols.

Both protocols have exact closed forms built on K1. Conditioned on the
first-hop gain, second-hop outage is an exponential CDF; for fixed gain the
integral over the first-hop gain is int_0^inf e^{-au-b/u} du =
2 sqrt(b/a) K1(2 sqrt(ab)) (Gradshteyn & Ryzhik 3.471.9). The same route for
variable gain, integrated by adaptive quadrature, is an independent oracle.

Source distortion enters through an effective threshold map: a network whose
source also clips behaves like a relay-distortion-only network at
gamma * p_s / (sigma_S^2 zeta_S^2 - gamma eta_S), and once that denominator
is exhausted outage is sure at any power.

Every function here takes a finite linear threshold gamma_th >= 0 and source
powers 0 < p_s < inf; anything else, inf and NaN included, raises DomainError
from link_budget.check_threshold or NetworkConfig, which the command line
turns into exit code 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, RegimeError
from .link_budget import (LinkBudget, NetworkConfig, asymptotic_sndr, build_budget,
                          check_threshold, normalize_protocol)
from .special_math import integrate_semi_infinite, one_minus_x_k1


@dataclass(frozen=True)
class OutagePoint:
    gamma_th: float
    p_outage: float


@dataclass(frozen=True)
class DiversityFit:
    """Fitted high-power slope of log outage versus log source power."""

    slope: float
    r_squared: float


def gamma_map_source_distortion(gamma_th: float, budget: LinkBudget):
    """Effective threshold seen by a relay-distortion-only analysis.

    Returns inf when gamma_th >= sigma_S^2 zeta_S^2 / eta_S, the point past
    which no second hop can help: an infinite threshold means certain outage.
    A finite map that overflows the float range raises DomainError instead.
    """
    check_threshold(gamma_th)
    s = budget.sel_s
    den = s.sigma_sq * s.zeta**2 - gamma_th * s.eta
    if den <= 0.0:
        return math.inf
    g = gamma_th * budget.p_s / den
    if g == math.inf:
        raise DomainError(f"effective threshold overflows at gamma_th={gamma_th!r}")
    return g


def threshold(protocol: str, budget: LinkBudget) -> float:
    """Critical threshold; +inf when the protocol has no phase transition."""
    protocol = normalize_protocol(protocol)
    b = budget
    if protocol == "fg":
        return b.tilde_signal_s / b.tilde_eta_s if b.tilde_eta_s > 0.0 else math.inf
    den = b.tilde_eta_r + b.tilde_signal_r * b.tilde_eta_s
    return b.tilde_signal_s * b.tilde_signal_r / den if den > 0.0 else math.inf


def _clamp01(p: float) -> float:
    return min(1.0, max(0.0, p))


def outage_vg(gamma_th: float, budget: LinkBudget) -> OutagePoint:
    """Exact variable-gain outage probability."""
    return OutagePoint(gamma_th, exact_outage("vg", gamma_th, budget))


def _outage_vg_value(gamma_th: float, budget: LinkBudget) -> float:
    g = gamma_map_source_distortion(gamma_th, budget)
    if g == math.inf:
        return 1.0
    if g == 0.0:
        return 0.0
    r = budget.sel_r
    if r.sigma_sq * r.zeta**2 <= g * r.eta:
        return 1.0
    if budget.n0 == 0.0:
        # noiseless network: the SNDR equals its distortion limit exactly
        return outage_floor("vg", gamma_th, budget)
    s_r = budget.sigma_r_bar(g)
    if s_r <= 0.0:
        return 1.0
    s1, s2 = budget.sigma1_bar, budget.sigma2_bar
    big_r = g / (s1 * s_r) * (1.0 + s2 * g / s_r)
    big_q = g / s_r * (1.0 + s2 / s1)
    return _clamp01(_k1_tail(big_q, 2.0 * math.sqrt(big_r)))


def _k1_tail(q: float, z: float) -> float:
    """1 - e^{-q} z K1(z) as two positive pieces: tiny outages keep full precision."""
    return -math.expm1(-q) + math.exp(-q) * one_minus_x_k1(z)


def _fg_constants(gamma_th: float, budget: LinkBudget):
    """Coefficients A, B, C with conditional second-hop threshold
    y*(x) = gamma N0 / (A x - gamma (B + C x))."""
    s, r = budget.sel_s, budget.sel_r
    cfg = budget.config
    g2 = r.sigma_sq / (cfg.p_s * cfg.mu1 + cfg.n0)
    g2zr2 = g2 * r.zeta**2
    a = g2zr2 * s.sigma_sq * s.zeta**2
    b = g2zr2 * cfg.n0 + r.eta
    c = g2zr2 * s.eta
    return a, b, c


def outage_fg(gamma_th: float, budget: LinkBudget) -> OutagePoint:
    """Exact fixed-gain outage probability.

    P = 1 - e^{-x0/mu1} z K1(z) with z = 2 sqrt(kappa/mu1): x0 is the
    first-hop gain at or below which outage is sure, and kappa/u is the
    second-hop outage threshold over mu2 at first-hop excess gain u. gamma
    values at or past the source sure-outage point return exactly 1.
    """
    return OutagePoint(gamma_th, exact_outage("fg", gamma_th, budget))


def _outage_fg_value(gamma_th: float, budget: LinkBudget) -> float:
    if gamma_th == 0.0:
        return 0.0
    if budget.n0 == 0.0:
        return outage_floor("fg", gamma_th, budget)
    a, b, c = _fg_constants(gamma_th, budget)
    slope = a - gamma_th * c
    if slope <= 0.0:
        return 1.0
    mu1, mu2 = budget.config.mu1, budget.config.mu2
    x0 = gamma_th * b / slope
    kappa = gamma_th * budget.n0 / (slope * mu2)
    return _clamp01(_k1_tail(x0 / mu1, 2.0 * math.sqrt(kappa / mu1)))


def outage_vg_quadrature(gamma_th: float, budget: LinkBudget, tol: float = 1e-10) -> OutagePoint:
    """Variable-gain outage by conditional-CDF quadrature.

    Independent of the closed form (no Bessel evaluation); used to cross
    check it. Raises ConvergenceError if the quadrature budget runs out.
    """
    check_threshold(gamma_th)
    if gamma_th == 0.0:
        return OutagePoint(0.0, 0.0)
    if budget.n0 == 0.0:
        return OutagePoint(gamma_th, outage_floor("vg", gamma_th, budget))
    s, r = budget.sel_s, budget.sel_r
    cfg = budget.config
    srz = r.sigma_sq * r.zeta**2
    s_slope = s.sigma_sq * s.zeta**2 - gamma_th * s.eta
    # conditional coefficient of |h2|^2: W(x) = srz (x s_slope - g N0)/(P_S x + N0) - g eta_R
    d_inf = srz * s_slope - gamma_th * r.eta * cfg.p_s
    if d_inf <= 0.0:
        return OutagePoint(gamma_th, 1.0)
    x0 = gamma_th * cfg.n0 * (srz + r.eta) / d_inf
    mu1, mu2 = cfg.mu1, cfg.mu2
    g_n0 = gamma_th * cfg.n0

    def knee(u):
        x = x0 + np.maximum(u, 0.0)
        w = srz * (x * s_slope - g_n0) / (cfg.p_s * x + cfg.n0) - gamma_th * r.eta
        w = np.maximum(w, 1e-320)
        return np.exp(-x / mu1) / mu1 * -np.expm1(-g_n0 / (mu2 * w))

    res = integrate_semi_infinite(knee, tol=tol, max_evals=400_000)
    p = -math.expm1(-x0 / mu1) + res.value
    return OutagePoint(gamma_th, _clamp01(p))


def outage_fg_floor(gamma_th: float, budget: LinkBudget) -> float:
    """High-power floor of the fixed-gain outage (CDF of its SNDR limit)."""
    check_threshold(gamma_th)
    b = budget
    s_slope = b.tilde_signal_s - gamma_th * b.tilde_eta_s
    if s_slope <= 0.0:
        return 1.0
    if b.tilde_eta_r == 0.0:
        return 0.0
    return -math.expm1(-b.tilde_eta_r * gamma_th / (s_slope * b.tilde_signal_r))


def outage_floor(protocol: str, gamma_th: float, budget: LinkBudget) -> float:
    """Distortion-limited outage floor for either protocol.

    Fixed gain keeps a fading-dependent limit, hence a smooth floor; variable
    gain's limit is deterministic, so the floor is a step at the critical
    threshold.
    """
    protocol = normalize_protocol(protocol)
    if protocol == "fg":
        return outage_fg_floor(gamma_th, budget)
    check_threshold(gamma_th)
    if max(budget.tilde_eta_s, budget.tilde_eta_r) == 0.0:
        return 0.0
    return 0.0 if gamma_th < asymptotic_sndr("vg", 1.0, budget) else 1.0


def _expansion_terms(protocol: str, gamma_th: float, p_s: float, budget: LinkBudget):
    """Floor and first-order term of the high-power expansion at source power p_s.

    Fixed gain: outage_fg_floor plus log(p)/(g_fg p), with exp(-expo) kept as
    a factor so the term decays to 0, not overflows, when relay distortion
    dominates. Variable gain: 1/(g_vg p), or (1, 0) past its threshold. Both
    terms are proportional to n0 * gamma_th, so they are 0 when it is. Only
    the tilde fields and mu1, mu2, n0 and p_ratio are read, so any budget of
    the configuration will do.
    """
    b = budget
    s_slope = b.tilde_signal_s - gamma_th * b.tilde_eta_s
    if s_slope <= 0.0:
        raise DomainError("gamma_th is at or past the source sure-outage point")
    mu1, mu2 = b.config.mu1, b.config.mu2
    if protocol == "fg":
        expo = b.tilde_eta_r * gamma_th / (b.tilde_signal_r * s_slope)
        c = b.n0 * gamma_th / (b.tilde_signal_r * mu2 * s_slope) * math.exp(-expo)
        return outage_fg_floor(gamma_th, b), c * math.log(p_s) / p_s
    g_eff = gamma_th / s_slope
    margin = b.tilde_signal_r - g_eff * b.tilde_eta_r
    if margin <= 0.0:
        return 1.0, 0.0
    if b.n0 * g_eff == 0.0:
        return 0.0, 0.0
    g_vg = margin * mu1 * mu2 / (b.n0 * g_eff * (mu1 + b.config.p_ratio * mu2))
    return 0.0, 1.0 / (g_vg * p_s)


def outage_asymptotic(protocol: str, gamma_th: float, p_s_grid, cfg: NetworkConfig):
    """First-order high-power outage expansion on a grid of source powers.

    Fixed gain tends to its floor plus a log(p)/p correction; variable gain
    decays like 1/p. Values are clamped to [0, 1].
    """
    protocol = normalize_protocol(protocol)
    check_threshold(gamma_th)
    ref = build_budget(replace(cfg, p_s=1.0))
    out = []
    for p_s in map(float, p_s_grid):
        replace(cfg, p_s=p_s)  # holds p_s to NetworkConfig's rule
        floor, term = _expansion_terms(protocol, gamma_th, p_s, ref)
        out.append(OutagePoint(gamma_th, _clamp01(floor + term)))
    return out


def exact_outage(protocol: str, gamma_th: float, budget: LinkBudget) -> float:
    """Exact outage probability of either protocol."""
    protocol = normalize_protocol(protocol)
    check_threshold(gamma_th)
    value = _outage_vg_value if protocol == "vg" else _outage_fg_value
    return value(gamma_th, budget)


def diversity_fit(protocol: str, gamma_th: float, cfg: NetworkConfig, p_s_grid) -> DiversityFit:
    """Least-squares slope of -log outage vs log source power.

    The grid is >= 3 powers spanning 30 dB, less the few ulps that rounding
    dB values to powers can cost. The fit uses its top decade, where the
    expansion regime is cleanest; an outage of exactly 0 there raises DomainError.
    """
    protocol = normalize_protocol(protocol)
    grid = sorted(replace(cfg, p_s=float(p)).p_s for p in p_s_grid)  # NetworkConfig's rule
    if len(grid) < 3 or grid[-1] / grid[0] < 1e3 * (1.0 - 1e-9):
        raise DomainError("power grid must span at least three decades (30 dB)")
    top = [p_s for p_s in grid if p_s >= grid[-1] / 10.0]
    if len(top) < 3:
        top = grid[-3:]
    ps, vals = [], []
    for p_s in top:
        p = exact_outage(protocol, gamma_th, build_budget(replace(cfg, p_s=p_s)))
        if p == 0.0:
            raise DomainError(f"outage is exactly 0 at p_s={p_s!r}: no slope to fit")
        ps.append(math.log(p_s))
        vals.append(math.log(p))
    ps = np.asarray(ps)
    vals = np.asarray(vals)
    slope_b, intercept = np.polyfit(ps, vals, 1)
    pred = slope_b * ps + intercept
    ss_res = float(np.sum((vals - pred) ** 2))
    ss_tot = float(np.sum((vals - np.mean(vals)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    # 0.0 - b rather than -b: a flat fit reads 0.0, not -0.0
    return DiversityFit(slope=0.0 - float(slope_b), r_squared=r2)


def small_gamma_expansion(protocol: str, gamma_th: float, budget: LinkBudget) -> float:
    """First-order outage expansion about gamma_th = 0.

    Valid while 0 < Z*gamma (times 1 + sigma1_bar for fixed gain) stays well
    below one and gamma_th is below the protocol's critical threshold.
    Outside that region, past the term's turning point (beyond which it
    would fall as gamma grows), or where the first-order value leaves
    [0, 1), a RegimeError is raised; the value is never clamped.
    """
    protocol = normalize_protocol(protocol)
    if check_threshold(gamma_th) == 0.0:
        raise DomainError("gamma_th must be positive")
    b = budget
    if b.n0 == 0.0:
        raise DomainError("small-gamma expansion requires positive noise power")
    if not (gamma_th < threshold(protocol, b)):
        raise RegimeError("expansion region exceeded: gamma at or past the critical threshold")
    euler_c = float(np.euler_gamma)
    z_const = 1.0 / (
        (b.sel_s.sigma_sq * b.sel_s.zeta**2 * b.config.mu1 / b.n0)
        * (b.sel_r.sigma_sq * b.sel_r.zeta**2 * b.config.mu2 / b.n0)
    )
    zg = z_const * gamma_th
    s1, s2 = b.sigma1_bar, b.sigma2_bar
    # p = zg (lead - k ln arg), with (k, arg) = (1, zg) for vg, (1 + s1, zg (1 + s1)) for fg
    if protocol == "vg":
        k, arg = 1.0, zg
        lead = 1.0 - 2.0 * euler_c + s1 + s2
    else:
        k, arg = 1.0 + s1, zg * (1.0 + s1)
        mu2_over_eps_r = 0.0 if b.eps_r == math.inf else b.config.mu2 / b.eps_r
        lead = s2 + s1 * mu2_over_eps_r + (1.0 + s1) * (1.0 - 2.0 * euler_c)
    if not (0.0 < arg < 1.0):
        raise RegimeError("expansion region exceeded: Z*gamma (scaled for fg) outside (0, 1)")
    # p falls with gamma once k (ln arg + 1) >= lead
    if k * (math.log(arg) + 1.0) >= lead:
        raise RegimeError("expansion region exceeded: first-order term past its turning point")
    p = zg * (lead - k * math.log(arg))
    if not (0.0 <= p < 1.0):
        raise RegimeError(f"expansion region exceeded: first-order term {p!r} outside [0, 1)")
    return p
