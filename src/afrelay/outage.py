"""Outage probabilities for both forwarding protocols.

Fixed and variable gain differ only in how the relay sets its gain, and both
write its inverse squared gain as a line in the first-hop gain x:
1/g^2 = alpha x + beta, with alpha = 0 and beta = (p_s mu1 + n0)/sigma_R^2
for fixed gain, alpha = p_s/sigma_R^2 and beta = n0/sigma_R^2 for variable
gain. So SNDR <= gamma reads y (a x - b) <= gamma n0 (alpha x + beta) for
second-hop gain y, and one K1 closed form serves both: conditioned on x the
second hop is an exponential CDF, and the integral over x is
int_0^inf e^{-u/mu1-kappa/u} du = 2 sqrt(kappa mu1) K1(2 sqrt(kappa/mu1))
(Gradshteyn & Ryzhik 3.471.9; Hasna & Alouini, IEEE Trans. Wireless Commun.
3(6), 2004). The same route for variable gain, integrated by adaptive
quadrature, is an independent oracle.

a > 0 holds exactly when gamma is below the protocol's critical threshold,
so threshold() is the one sure-outage rule: exact_outage and the floors are
exactly 1 from it on.

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
from .link_budget import (LinkBudget, NetworkConfig, build_budget, check_threshold,
                          normalize_protocol)
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


def outage_fg(gamma_th: float, budget: LinkBudget) -> OutagePoint:
    """Exact fixed-gain outage probability."""
    return OutagePoint(gamma_th, exact_outage("fg", gamma_th, budget))


def _k1_tail(q: float, z: float) -> float:
    """1 - e^{-q} z K1(z) as two positive pieces: tiny outages keep full precision."""
    return -math.expm1(-q) + math.exp(-q) * one_minus_x_k1(z)


def _k1_outage(protocol: str, gamma_th: float, budget: LinkBudget) -> float:
    """Outage 1 - e^{-q} z K1(z) below the threshold, with noise, for either protocol.

    (alpha, beta) is the one place the protocols differ. Outage is sure for
    first-hop gains x <= x0 = b/a. Past it, at x = x0 + u, the second hop
    fails with probability 1 - e^{-c - kappa/u}, where c = gamma n0 alpha/(a mu2);
    so q = x0/mu1 + c and z = 2 sqrt(kappa/mu1).
    """
    s, r = budget.sel_s, budget.sel_r
    cfg = budget.config
    if protocol == "fg":
        alpha, beta = 0.0, (cfg.p_s * cfg.mu1 + cfg.n0) / r.sigma_sq
    else:
        alpha, beta = cfg.p_s / r.sigma_sq, cfg.n0 / r.sigma_sq
    zr2 = r.zeta**2
    a = zr2 * (s.sigma_sq * s.zeta**2 - gamma_th * s.eta) - gamma_th * (r.eta * alpha)
    if a <= 0.0:  # gamma_th is below threshold() by a rounding only
        return 1.0
    x0 = gamma_th * (zr2 * cfg.n0 + r.eta * beta) / a
    g_n0 = gamma_th * cfg.n0 / (a * cfg.mu2)
    if not (x0 < math.inf and g_n0 < math.inf):  # q or kappa past the float range: sure outage
        return 1.0
    q = x0 / cfg.mu1 + g_n0 * alpha
    kappa = g_n0 * (alpha * x0 + beta)
    return _clamp01(_k1_tail(q, 2.0 * math.sqrt(kappa / cfg.mu1)))


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
    """High-power floor of the fixed-gain outage (CDF of its SNDR limit).

    Exactly 1 from threshold("fg") on.
    """
    check_threshold(gamma_th)
    if gamma_th >= threshold("fg", budget):
        return 1.0
    b = budget
    s_slope = b.tilde_signal_s - gamma_th * b.tilde_eta_s
    if s_slope <= 0.0:  # gamma_th is below threshold() by a rounding only
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
    return 0.0 if gamma_th < threshold("vg", budget) else 1.0


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
    """Exact outage probability of either protocol; 1 from threshold(protocol) on."""
    protocol = normalize_protocol(protocol)
    check_threshold(gamma_th)
    if gamma_th >= threshold(protocol, budget):
        return 1.0
    if budget.n0 == 0.0 or gamma_th == 0.0:
        # a noiseless SNDR is its distortion limit, whose CDF is the floor; at 0 both are 0
        return outage_floor(protocol, gamma_th, budget)
    return _k1_outage(protocol, gamma_th, budget)


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
