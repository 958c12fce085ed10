"""Outage probabilities for both forwarding protocols.

Fixed and variable gain differ only in how the relay sets its gain: the line
sigma_R^2/g^2 = p_s (alpha x + beta) + n0 in the first-hop gain x, whose
(alpha, beta) link_budget._gain_line alone chooses, (0, mu1) for fixed gain
and (1, 0) for variable gain. Scaled to 1/g^2 = alpha x + beta, SNDR <= gamma
reads y (a x - b) <= gamma n0 (alpha x + beta) for second-hop gain y, and one
K1 closed form serves both: conditioned on x the second hop is an
exponential CDF, and the integral over x is
int_0^inf e^{-u/mu1-kappa/u} du = 2 sqrt(kappa mu1) K1(2 sqrt(kappa/mu1))
(Gradshteyn & Ryzhik 3.471.9; Hasna & Alouini, IEEE Trans. Wireless Commun.
3(6), 2004). The same route for variable gain, integrated by adaptive
quadrature, is an independent oracle.

One builder, _k1_form, gives that form's coefficients (q0, q1, k0, k1) at a
noise power passed to it, and every result here reads it: exact_outage
evaluates the form at the budget's own n0, the floor is the same form at
n0 = 0 (the CDF of the distortion-limited SNDR), and every expansion
(outage_asymptotic and epsilon_critical.ordinate in n0, or equally in
1/p_s; small_gamma_expansion in gamma) is its first order, _series.
a > 0 holds exactly when gamma is below the protocol's critical threshold,
so threshold() is the one sure-outage rule: exact_outage, the floors and
outage_asymptotic are exactly 1 from it on.

Every function here takes a finite linear threshold gamma_th >= 0, a noise
power 0 <= n0 < inf and source powers 0 < p_s < inf, zero threshold and zero
noise included; anything else, inf and NaN included, raises DomainError
from link_budget.check_threshold or NetworkConfig, which the command line
turns into exit code 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, RegimeError
from .link_budget import (LinkBudget, NetworkConfig, _gain_line, _scaled_powers, build_budget,
                          check_threshold, normalize_protocol, threshold)
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


def _clamp01(p: float) -> float:
    return min(1.0, max(0.0, p))


def outage_vg(gamma_th: float, budget: LinkBudget) -> OutagePoint:
    """Exact variable-gain outage probability."""
    return OutagePoint(gamma_th, exact_outage("vg", gamma_th, budget))


def outage_fg(gamma_th: float, budget: LinkBudget) -> OutagePoint:
    """Exact fixed-gain outage probability."""
    return OutagePoint(gamma_th, exact_outage("fg", gamma_th, budget))


_TINY = float(np.finfo(float).tiny)  # the smallest normal float


def _k1_form(protocol: str, gamma_th: float, budget: LinkBudget, n0: float,
             small_gamma: bool = False) -> tuple[float, float, float, float]:
    """(q0, q1, k0, k1) of the outage 1 - e^{-q} z K1(z) at noise power n0, below the threshold.

    (alpha, beta) is link_budget._gain_line's pair, the one place the protocols
    differ, scaled to 1/g^2 = alpha x + beta + n0/sigma_R^2. With
    a = zeta_R^2 (sigma_S^2 zeta_S^2 - gamma eta_S) - gamma eta_R alpha, outage
    is sure for x <= x0 + x1: x0 = gamma eta_R beta/a is noise free and
    x1 = gamma n0 (zeta_R^2 + eta_R/sigma_R^2)/a. Past it, at x = x0 + x1 + u,
    the second hop fails with probability 1 - e^{-c - kappa/u},
    c = gamma n0 alpha/(a mu2); so q = (x0 + x1)/mu1 + c and z^2/4 = kappa/mu1.
    In n0, q = q0 + q1 is affine, with q0 noise free (the fg floor's exponent,
    0 for vg), and z^2/4 = k0 + k1 has a linear k0 and a quadratic k1 (alpha x0
    is 0, as alpha beta = 0). small_gamma orders both in gamma instead: a taken
    at gamma = 0 puts all of q in q1, and k1 keeps only the gamma^2 term alpha x1.
    Noise terms past the float range, a mu2 underflowing included, are the sure
    outage. At zero noise an underflowing a mu2 leaves the form without its
    scale: a DomainError names p_s * mu2 rather than a value being guessed.
    """
    s, r = budget.sel_s, budget.sel_r
    cfg = budget.config
    alpha, beta = _gain_line(protocol, budget)
    # a subnormal product keeps few bits, or none, and an overflowing one none: where
    # p_s mu1 or gamma eta_R beta is one, beta or x0 is formed in an order that keeps
    # it; elsewhere no bit moves
    alpha = cfg.p_s * alpha / r.sigma_sq
    beta = (beta * (cfg.p_s / r.sigma_sq) if 0.0 < beta and cfg.p_s * beta < _TINY
            else cfg.p_s * beta / r.sigma_sq)
    zr2 = r.zeta**2
    g_a = 0.0 if small_gamma else gamma_th
    a = zr2 * (s.sigma_sq * s.zeta**2 - g_a * s.eta) - g_a * (r.eta * alpha)
    if not a > 0.0:  # gamma_th is below threshold() by a rounding only
        if n0 == 0.0 and r.eta * beta == 0.0:
            return 0.0, 0.0, 0.0, 0.0  # q and kappa have a zero factor: no outage
        return math.inf, 0.0, 0.0, 0.0  # q is past the float range: sure outage
    x0 = gamma_th * r.eta * beta
    x0 = x0 / a if not 0.0 < beta or _TINY <= x0 < math.inf else gamma_th * (r.eta / a) * beta
    x1 = gamma_th * n0 * (zr2 + r.eta / r.sigma_sq) / a
    a_mu2 = a * cfg.mu2
    if a_mu2 > 0.0:
        g_n0 = gamma_th * n0 / a_mu2
    elif gamma_th == 0.0:
        g_n0 = 0.0
    elif n0 == 0.0:
        raise DomainError(f"the zero-noise outage (the floor) underflows at the scale "
                          f"p_s * mu2 = {cfg.p_s!r} * {cfg.mu2!r}")
    else:
        g_n0 = math.inf
    k = g_n0 / cfg.mu1
    if not (x1 < math.inf and k < math.inf):  # the noise terms are past the float range
        return x0 / cfg.mu1, math.inf, math.inf, 0.0  # sure outage, and no series
    q0, q1 = x0 / cfg.mu1, x1 / cfg.mu1 + g_n0 * alpha
    if small_gamma:
        return 0.0, q0 + q1, k * (beta + n0 / r.sigma_sq), k * (alpha * x1)
    return q0, q1, k * beta, k * (alpha * x1 + n0 / r.sigma_sq)


def _outage(protocol: str, gamma_th: float, budget: LinkBudget, n0: float) -> float:
    """The K1 form at noise power n0; exactly 1 from threshold(protocol) on.

    1 - e^{-q} z K1(z) as two positive pieces, so tiny outages keep full precision.
    """
    check_threshold(gamma_th)
    if gamma_th >= threshold(protocol, budget):
        return 1.0
    q0, q1, k0, k1 = _k1_form(protocol, gamma_th, budget, n0)
    q = q0 + q1
    return _clamp01(-math.expm1(-q) + math.exp(-q) * one_minus_x_k1(2.0 * math.sqrt(k0 + k1)))


def outage_vg_quadrature(gamma_th: float, budget: LinkBudget, tol: float = 1e-10) -> OutagePoint:
    """Variable-gain outage by conditional-CDF quadrature.

    Independent of the closed form (no Bessel evaluation); used to cross
    check it. Raises ConvergenceError if the quadrature budget runs out.
    At zero noise power it returns outage_floor: the quadrature is then
    empty and its own sure-outage test (d_inf <= 0, in powers over p_s) alone
    decides the step, which rounds differently from threshold() within a
    float of gamma_th = threshold("vg"), so the two would differ by 1 there.
    """
    check_threshold(gamma_th)
    if gamma_th == 0.0:
        return OutagePoint(0.0, 0.0)
    if budget.n0 == 0.0:
        return OutagePoint(gamma_th, outage_floor("vg", gamma_th, budget))
    mu1, mu2 = budget.config.mu1, budget.config.mu2
    nu = budget.n0 / budget.p_s
    t_s, t_r, e_s, e_r = _scaled_powers(budget)
    s_slope = t_s - gamma_th * e_s
    # conditional coefficient of |h2|^2 over p_s: W(x) = T_R (x s_slope - g nu)/(x + nu) - g E_R
    d_inf = t_r * s_slope - gamma_th * e_r
    if d_inf <= 0.0:
        return OutagePoint(gamma_th, 1.0)
    x0 = gamma_th * nu * (t_r + e_r) / d_inf
    g_nu = gamma_th * nu

    def knee(u):
        x = x0 + np.maximum(u, 0.0)
        w = t_r * (x * s_slope - g_nu) / (x + nu) - gamma_th * e_r
        w = np.maximum(w, 1e-320)
        with np.errstate(over="ignore"):  # g_nu / (mu2 w) = inf: the factor is 1
            return np.exp(-x / mu1) / mu1 * -np.expm1(-g_nu / (mu2 * w))

    res = integrate_semi_infinite(knee, tol=tol, max_evals=400_000)
    p = -math.expm1(-x0 / mu1) + res.value
    return OutagePoint(gamma_th, _clamp01(p))


def outage_fg_floor(gamma_th: float, budget: LinkBudget) -> float:
    """High-power floor of the fixed-gain outage (CDF of its SNDR limit)."""
    return outage_floor("fg", gamma_th, budget)


def outage_floor(protocol: str, gamma_th: float, budget: LinkBudget) -> float:
    """Distortion-limited outage floor (CDF of the SNDR limit) for either protocol.

    The exact outage's K1 form at zero noise power; exactly 1 from
    threshold(protocol) on. Fixed gain keeps a fading-dependent limit, hence
    a smooth floor 1 - e^{-q0}; variable gain's limit is deterministic, so
    q0 = 0 and the floor is a step at the critical threshold.
    """
    return _outage(protocol, gamma_th, budget, 0.0)


_EULER = float(np.euler_gamma)


def _series(protocol: str, gamma_th: float, budget: LinkBudget, n0: float,
            small_gamma: bool = False) -> float:
    """First order of the outage 1 - e^{-q} z K1(z) at noise power n0, from _k1_form.

    1 - z K1(z) = k (1 - 2 gamma_E - ln k) + O(z^4 ln z) (Abramowitz & Stegun
    9.6.11) with k = z^2/4; q = q0 + q1 is kept whole, k0 is kept and k1 dropped.
    The one validity guard: where the floor -expm1(-q0) rounds to 1 the value
    is 1; otherwise a RegimeError is raised for k0 outside [0, 1), past the
    turning point q1 <= k0 (2 gamma_E + ln k0) (q1 and k0 are linear in the
    expansion variable, and beyond it the value would fall as that grows), or
    for a value outside [0, 1]. Never a clamp.
    """
    q0, q1, k, _ = _k1_form(protocol, gamma_th, budget, n0, small_gamma)
    floor = -math.expm1(-q0)
    if floor == 1.0:
        return 1.0
    if not 0.0 <= k < 1.0:
        raise RegimeError(f"expansion region exceeded: kappa' = {k!r} outside [0, 1)")
    term = q1
    if k > 0.0:
        if q1 <= k * (2.0 * _EULER + math.log(k)):
            raise RegimeError("expansion region exceeded: first-order term past its turning point")
        term += k * (1.0 - 2.0 * _EULER - math.log(k))
    p = floor + math.exp(-q0) * term
    if not 0.0 <= p <= 1.0:
        raise RegimeError(f"expansion region exceeded: first-order value {p!r} outside [0, 1]")
    return p


def outage_asymptotic(protocol: str, gamma_th: float, p_s_grid, cfg: NetworkConfig):
    """First-order high-power outage expansion on a grid of source powers.

    The series of the exact outage in 1/p_s: the fixed-gain floor (0 for
    variable gain) plus its first-order term, so variable gain decays like
    1/p and source-limited fixed gain like log(p)/p. Exactly 1 from
    threshold(protocol) on; p_outage is None where a point lies outside the
    series' region of validity.
    """
    protocol = normalize_protocol(protocol)
    check_threshold(gamma_th)
    out = []
    for p_s in map(float, p_s_grid):
        b = build_budget(replace(cfg, p_s=p_s))  # holds p_s to NetworkConfig's rule
        p = 1.0
        if gamma_th < threshold(protocol, b):
            try:
                p = _series(protocol, gamma_th, b, cfg.n0)
            except RegimeError:
                p = None
        out.append(OutagePoint(gamma_th, p))
    return out


def exact_outage(protocol: str, gamma_th: float, budget: LinkBudget) -> float:
    """Exact outage probability of either protocol; 1 from threshold(protocol) on."""
    return _outage(protocol, gamma_th, budget, budget.n0)


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

    The series of the exact outage to first order in gamma_th: 0.0 at
    gamma_th = 0, and at zero noise power the floor's first order (fixed
    gain's q0, variable gain's 0). Below the protocol's critical threshold
    and inside the series' region it is a probability; at or past the
    threshold, or outside that region, a RegimeError is raised and the value
    is never clamped.
    """
    protocol = normalize_protocol(protocol)
    check_threshold(gamma_th)
    if not (gamma_th < threshold(protocol, budget)):
        raise RegimeError("expansion region exceeded: gamma at or past the critical threshold")
    return _series(protocol, gamma_th, budget, budget.n0, small_gamma=True)
