"""Outage analytics vs Monte Carlo and cross-route oracles."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from afrelay import cli
from afrelay.errors import ConvergenceError, DomainError, RegimeError
from afrelay.link_budget import NetworkConfig, build_budget, sndr
from afrelay.outage import (
    diversity_fit,
    exact_outage,
    outage_asymptotic,
    outage_fg,
    outage_fg_floor,
    outage_floor,
    outage_vg,
    outage_vg_quadrature,
    small_gamma_expansion,
    threshold,
)
from afrelay.simulator import Rng, mc_outage_sweep, waveform_outage
from afrelay.special_math import integrate_semi_infinite

FIG2_CFG = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0)
GOLDEN_CFG = NetworkConfig(p_s=10.0, p_ratio=1.0, clip_ratio_s=math.inf, clip_ratio_r=5.0)
# frozen from the closed form at 40 digits, confirmed by a 1e7-draw MC (1.6 sigma)
GOLDEN_VG = 0.243894824179


def mc_outage_channel(protocol, gamma_th, budget, n, key):
    """Independent channel-level MC: exponential fading draws through the SNDR."""
    rng = np.random.Generator(np.random.Philox(key=[key, 0]))
    x = rng.exponential(budget.config.mu1, n)
    y = rng.exponential(budget.config.mu2, n)
    lam = sndr(protocol, x, y, budget)
    return float(np.mean(lam <= gamma_th))


def fg_sndr_coefficients(gamma_th, budget):
    """A, B, C with fixed-gain outage iff y ((A - gamma C) x - gamma B) <= gamma n0.

    Read off the SNDR x y s zr / (y (n0 + eta_S x) zeta_R^2 + (y eta_R + n0) / G^2),
    s zr = sigma_S^2 zeta_S^2 zeta_R^2, times the fixed gain G^2 = sigma_R^2 / (p_s mu1 + n0)
    over and under: A = G^2 s zr, B = G^2 zeta_R^2 n0 + eta_R and C = G^2 zeta_R^2 eta_S.
    """
    s, r = budget.sel_s, budget.sel_r
    cfg = budget.config
    g2zr2 = r.sigma_sq / (cfg.p_s * cfg.mu1 + cfg.n0) * r.zeta**2
    return g2zr2 * s.sigma_sq * s.zeta**2, g2zr2 * cfg.n0 + r.eta, g2zr2 * s.eta


def fg_outage_quadrature(gamma_th, budget, tol=1e-18, rel=1e-11):
    """Fixed-gain outage by conditional-CDF quadrature, independent of K1.

    Conditioned on the first-hop gain x0 + u, the second hop is in outage with
    probability 1 - e^{-kappa/u}; the integral over u is done adaptively. The
    absolute tolerance tightens to `rel` times the value, so small
    probabilities converge as well as large ones.
    """
    if gamma_th == 0.0:
        return 0.0
    if budget.n0 == 0.0:
        return outage_floor("fg", gamma_th, budget)
    a, b, c = fg_sndr_coefficients(gamma_th, budget)
    slope = a - gamma_th * c
    if slope <= 0.0:
        return 1.0
    mu1, mu2 = budget.config.mu1, budget.config.mu2
    x0 = gamma_th * b / slope
    kappa = gamma_th * budget.n0 / (slope * mu2)

    def knee(u):
        u = np.maximum(u, 1e-320)
        return np.exp(-u / mu1) / mu1 * -np.expm1(-kappa / u)

    while True:
        res = integrate_semi_infinite(knee, tol=tol, max_evals=2_000_000)
        p = -math.expm1(-x0 / mu1) + math.exp(-x0 / mu1) * res.value
        if p == 0.0 or res.abs_error <= rel * p:
            return p
        tol = rel * p


def scaled_cfg(cfg, p_s):
    return NetworkConfig(
        mu1=cfg.mu1, mu2=cfg.mu2, n0=cfg.n0, p_s=p_s, p_ratio=cfg.p_ratio,
        clip_ratio_s=cfg.clip_ratio_s, clip_ratio_r=cfg.clip_ratio_r,
    )


class TestOutageVg:
    def test_zero_threshold(self):
        assert outage_vg(0.0, build_budget(GOLDEN_CFG)).p_outage == 0.0

    def test_second_branch(self):
        b = build_budget(GOLDEN_CFG)
        g_branch = b.sel_r.sigma_sq * b.sel_r.zeta**2 / b.sel_r.eta
        assert outage_vg(g_branch, b).p_outage == 1.0
        assert outage_vg(g_branch * 2.0, b).p_outage == 1.0

    def test_golden_value(self):
        assert outage_vg(1.0, build_budget(GOLDEN_CFG)).p_outage == pytest.approx(
            GOLDEN_VG, abs=1e-9
        )

    def test_against_channel_mc(self):
        n = 1_000_000
        for cfg, gamma, key in [
            (GOLDEN_CFG, 1.0, 101),
            (FIG2_CFG, 0.3, 102),
            (scaled_cfg(FIG2_CFG, 100.0), 5.0, 103),
        ]:
            b = build_budget(cfg)
            p_cf = outage_vg(gamma, b).p_outage
            p_mc = mc_outage_channel("vg", gamma, b, n, key)
            sigma = math.sqrt(max(p_cf * (1.0 - p_cf), 1e-12) / n)
            assert abs(p_mc - p_cf) <= 3.0 * sigma

    def test_monotone_and_bounded(self):
        b = build_budget(scaled_cfg(FIG2_CFG, 1000.0))
        gammas = np.logspace(-2, 4, 120)
        vals = [outage_vg(g, b).p_outage for g in gammas]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_branch_boundary_continuity(self):
        # approaching the branch point from below drives the first branch to 1
        b = build_budget(GOLDEN_CFG)
        g_branch = b.sel_r.sigma_sq * b.sel_r.zeta**2 / b.sel_r.eta
        p = outage_vg(g_branch * (1.0 - 1e-9), b).p_outage
        assert p > 1.0 - 1e-6

    def test_sure_outage_from_source(self):
        b = build_budget(FIG2_CFG)
        g_crit = b.sel_s.sigma_sq * b.sel_s.zeta**2 / b.sel_s.eta
        assert outage_vg(g_crit * 1.5, b).p_outage == 1.0

    def test_overflow_is_not_sure_outage(self):
        # gamma * p_s would overflow at this power, but the closed form never forms it:
        # a finite outage, equal to that of the same network with every power 1e300
        # times smaller, where the quadrature oracle stays in range
        b = build_budget(NetworkConfig(p_s=3e307, clip_ratio_s=5.0))
        p = exact_outage("vg", 10.0, b)
        assert 0.0 < p < 1.0
        small = build_budget(NetworkConfig(p_s=3e7, n0=1e-300, clip_ratio_s=5.0))
        assert p == pytest.approx(outage_vg_quadrature(10.0, small, tol=1e-318).p_outage, rel=1e-9,
                                  abs=0.0)


class TestScaleEdges:
    """Noise terms past the float range are the sure outage; a zero-noise K1 form whose
    scale p_s * mu2 underflows is refused by name rather than guessed."""

    TINY = NetworkConfig(n0=1.0, p_s=1e-300, mu2=1e-300, clip_ratio_s=5.0)
    TINY_NOISELESS = replace(TINY, n0=0.0, mu1=1e-300, clip_ratio_r=8.0)

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    def test_underflowing_scale_with_noise_is_sure_outage(self, protocol):
        # a mu2 ~ p_s mu2 = 1e-600 is 0: gamma n0 / (a mu2) raised ZeroDivisionError
        b = build_budget(self.TINY)
        assert [exact_outage(protocol, g, b) for g in (0.0, 1.0, 10.0)] == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    @pytest.mark.parametrize("cfg", [TINY, TINY_NOISELESS], ids=["noisy", "noiseless"])
    def test_underflowing_zero_noise_form_refused(self, protocol, cfg):
        b = build_budget(cfg)
        with pytest.raises(DomainError, match=r"p_s \* mu2 = 1e-300 \* 1e-300$"):
            outage_floor(protocol, 1.0, b)
        assert outage_floor(protocol, 0.0, b) == 0.0

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    def test_underflowing_scale_at_zero_noise_refused(self, protocol):
        b = build_budget(self.TINY_NOISELESS)
        with pytest.raises(DomainError, match=r"p_s \* mu2"):
            exact_outage(protocol, 10.0, b)
        assert exact_outage(protocol, 0.0, b) == 0.0

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    def test_overflowing_noise_term_is_sure_outage(self, protocol):
        # gamma n0 / (a mu2 mu1) overflows; for variable gain its product with beta = 0
        # was NaN, which one_minus_x_k1 refused
        b = build_budget(NetworkConfig(mu1=1e-200, mu2=1e-200))
        assert [exact_outage(protocol, g, b) for g in (0.0, 1.0, 10.0)] == [0.0, 1.0, 1.0]
        assert outage_asymptotic(protocol, 1.0, [1.0], b.config)[0].p_outage is None


class TestOutageVgQuadrature:
    def test_matches_closed_form(self):
        for cfg in [GOLDEN_CFG, FIG2_CFG, scaled_cfg(FIG2_CFG, 300.0)]:
            b = build_budget(cfg)
            for gamma in [0.05, 0.5, 1.0, 5.0, 50.0]:
                p_cf = outage_vg(gamma, b).p_outage
                p_q = outage_vg_quadrature(gamma, b, tol=1e-9).p_outage
                assert abs(p_q - p_cf) < 1e-6
        # just below the threshold w reaches its clamp and g_nu / (mu2 w) overflows to inf
        b = build_budget(FIG2_CFG)
        gamma = (1.0 - 1e-6) * threshold("vg", b)
        assert abs(outage_vg_quadrature(gamma, b, tol=1e-9).p_outage - outage_vg(gamma, b).p_outage) < 1e-6

    def test_sure_outage_branch(self):
        b = build_budget(GOLDEN_CFG)
        g_branch = b.sel_r.sigma_sq * b.sel_r.zeta**2 / b.sel_r.eta
        assert outage_vg_quadrature(g_branch * 1.01, b).p_outage == 1.0

    def test_top_of_float_range(self):
        # the coefficients come from the tilde fields and n0/p_s, so none overflows here
        b = build_budget(NetworkConfig(p_s=3e307, clip_ratio_s=5.0))
        p = outage_vg_quadrature(10.0, b, tol=1e-318).p_outage
        assert p == pytest.approx(exact_outage("vg", 10.0, b), rel=1e-9, abs=0.0)
        assert p == pytest.approx(6.7053e-307, rel=1e-4, abs=0.0)

    def test_quadrature_budget_exhaustion(self):
        b = build_budget(FIG2_CFG)
        with pytest.raises(ConvergenceError):
            outage_vg_quadrature(0.3, b, tol=1e-300)


class TestOutageFg:
    def test_zero_threshold(self):
        assert outage_fg(0.0, build_budget(FIG2_CFG)).p_outage == 0.0

    def test_source_sure_outage(self):
        b = build_budget(FIG2_CFG)
        g_crit = b.sel_s.sigma_sq * b.sel_s.zeta**2 / b.sel_s.eta
        a, _, c = fg_sndr_coefficients(g_crit, b)
        assert a - g_crit * c <= 0.0
        assert outage_fg(g_crit, b).p_outage == 1.0

    def test_against_channel_mc(self):
        n = 1_000_000
        for cfg, gamma, key in [
            (GOLDEN_CFG, 1.0, 201),
            (FIG2_CFG, 0.3, 202),
            (scaled_cfg(FIG2_CFG, 100.0), 5.0, 203),
        ]:
            b = build_budget(cfg)
            p_an = outage_fg(gamma, b).p_outage
            p_mc = mc_outage_channel("fg", gamma, b, n, key)
            sigma = math.sqrt(max(p_an * (1.0 - p_an), 1e-12) / n)
            assert abs(p_mc - p_an) <= 3.0 * sigma

    def test_monotone_bounded_and_floor(self):
        b = build_budget(scaled_cfg(FIG2_CFG, 1000.0))
        gammas = np.logspace(-2, math.log10(1800.0), 60)
        vals = [outage_fg(g, b).p_outage for g in gammas]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(y >= x - 1e-10 for x, y in zip(vals, vals[1:]))
        for g, v in zip(gammas, vals):
            assert v >= outage_fg_floor(g, b) - 1e-9


class TestOutageFgClosedForm:
    """The K1 closed form against the conditional-CDF quadrature oracle."""

    @pytest.mark.parametrize("clip_s,clip_r",
                             [(5.0, 8.0), (math.inf, 5.0), (5.0, math.inf), (8.0, 5.0)])
    def test_matches_quadrature(self, clip_s, clip_r):
        for snr_db in range(0, 151, 15):
            b = build_budget(NetworkConfig(p_s=10.0 ** (snr_db / 10.0),
                                           clip_ratio_s=clip_s, clip_ratio_r=clip_r))
            th = threshold("fg", b)
            top = 0.95 * (th if th < math.inf else threshold("vg", b))
            for gamma in np.geomspace(1e-3, top, 7):
                p = outage_fg(float(gamma), b).p_outage
                assert p == pytest.approx(fg_outage_quadrature(float(gamma), b), rel=1e-9, abs=0.0)

    def test_thresholds_json_at_high_power(self, tmp_path):
        # an absolute quadrature tolerance of 1e-10 gives 2.81e-10 here, a third of the value
        out = tmp_path / "th.json"
        assert cli.main(["thresholds", "--clip-s", "5", "--snr-db", "150", "--out", str(out)]) == 0
        fg = json.loads(out.read_text())["fg"]
        b = build_budget(NetworkConfig(p_s=1e15, clip_ratio_s=5.0))
        assert fg["gamma_crit"] == threshold("fg", b)
        expected = fg_outage_quadrature(0.95 * threshold("fg", b), b)
        assert fg["exact_outage_below"] == pytest.approx(expected, rel=1e-9, abs=0.0)
        assert expected == pytest.approx(9.0226e-10, rel=1e-4, abs=0.0)

    def test_noiseless_is_floor(self):
        b = build_budget(NetworkConfig(n0=0.0, clip_ratio_s=5.0, clip_ratio_r=8.0))
        for gamma in (0.1, 10.0, 100.0):
            assert outage_fg(gamma, b).p_outage == outage_fg_floor(gamma, b)

    def test_small_z(self):
        # kappa << mu1: z = 2 sqrt(kappa/mu1) ~ 2e-6, where z K1(z) -> 1 cancels;
        # a large mu1 also makes x0/mu1 small, so the z term dominates
        b = build_budget(NetworkConfig(p_s=1e3, mu1=1e12, mu2=1e9, clip_ratio_s=5.0))
        gamma = 1.0
        a, b_fg, c = fg_sndr_coefficients(gamma, b)
        slope = a - gamma * c
        q = gamma * b_fg / slope / b.config.mu1
        k = gamma * b.n0 / (slope * b.config.mu2) / b.config.mu1
        assert 1e-14 < k < 1e-10 and q < 1e-3 * k
        p = outage_fg(gamma, b).p_outage
        series = q + k * (1.0 - 2.0 * float(np.euler_gamma) - math.log(k))
        assert p == pytest.approx(fg_outage_quadrature(gamma, b), rel=1e-9, abs=0.0)
        assert p == pytest.approx(series, rel=1e-6, abs=0.0)

    def test_large_z(self):
        # kappa >> mu1: z K1(z) underflows and the outage is sure, with no NaN
        b = build_budget(NetworkConfig(p_s=1.0, mu1=1e-6, clip_ratio_s=5.0, clip_ratio_r=8.0))
        for gamma in (1.0, 10.0, 100.0):
            p = outage_fg(gamma, b).p_outage
            assert p == 1.0
            assert p == pytest.approx(fg_outage_quadrature(gamma, b), rel=1e-9, abs=0.0)
        # at -3000 dB SNR kappa overflows to inf; inf * K1(inf) is NaN, which
        # _clamp01 would publish as 0
        b = build_budget(NetworkConfig(n0=1e300, p_s=1.0, clip_ratio_s=5.0, clip_ratio_r=8.0))
        assert outage_fg(1.0, b).p_outage == 1.0


class TestExactOutage:
    @pytest.mark.parametrize("protocol", ["fg", "vg"])
    def test_negative_gamma_rejected(self, protocol):
        # one threshold rule at every public entry: NaN and inf are refused like -1
        b = build_budget(GOLDEN_CFG)
        entries = [
            lambda g: exact_outage(protocol, g, b),
            lambda g: outage_vg(g, b),
            lambda g: outage_fg(g, b),
            lambda g: outage_vg_quadrature(g, b),
            lambda g: outage_floor(protocol, g, b),
            lambda g: outage_fg_floor(g, b),
            lambda g: outage_asymptotic(protocol, g, [1e3, 1e6], GOLDEN_CFG),
            lambda g: mc_outage_sweep(protocol, [1.0, g], b, 1000, Rng(5)),
            lambda g: waveform_outage(protocol, [g, 1.0], b, 2, 4, Rng(5)),
            lambda g: small_gamma_expansion(protocol, g, b),
        ]
        for bad in (-1.0, math.nan, math.inf):
            for entry in entries:
                with pytest.raises(DomainError):
                    entry(bad)

    @pytest.mark.parametrize("protocol", ["fg", "vg"])
    @pytest.mark.parametrize("cfg", [
        NetworkConfig(p_s=10.0 ** 19.5, clip_ratio_s=5.0, clip_ratio_r=8.0),
        NetworkConfig(mu1=2.0, mu2=0.3, n0=1e-3, p_ratio=3.0, p_s=1e-3 * 10.0 ** 19.75,
                      clip_ratio_s=1.0, clip_ratio_r=3.0),
        NetworkConfig(p_s=10.0 ** 19.5, clip_ratio_s=5.0),
        NetworkConfig(p_s=10.0 ** 5.25, clip_ratio_s=0.55),
        NetworkConfig(clip_ratio_s=0.55),
        NetworkConfig(clip_ratio_s=1.0),
    ], ids=["fig2-195db", "clip-1-3-197.5db", "source-only-5-195db", "source-only-0.55-52.5db",
            "source-only-0.55-0db", "source-only-1-0db"])
    def test_sure_outage_from_threshold_on(self, protocol, cfg):
        # threshold() is the one sure-outage rule: exactly 1 at it and at the next floats,
        # however close to zero the rounded margin below it comes out
        b = build_budget(cfg)
        gamma = threshold(protocol, b)
        for _ in range(4):
            values = [exact_outage(protocol, gamma, b), outage_floor(protocol, gamma, b)]
            if protocol == "fg":
                values.append(outage_fg_floor(gamma, b))
            assert values == [1.0] * len(values)
            gamma = math.nextafter(gamma, math.inf)


class TestFgFloor:
    def test_no_relay_distortion(self):
        b = build_budget(NetworkConfig(clip_ratio_s=5.0))
        g_crit = b.sel_s.sigma_sq * b.sel_s.zeta**2 / b.sel_s.eta
        for g in np.linspace(0.1, 0.99 * g_crit, 7):
            assert outage_fg_floor(float(g), b) == 0.0

    def test_source_boundary(self):
        b = build_budget(FIG2_CFG)
        g_crit = b.sel_s.sigma_sq * b.sel_s.zeta**2 / b.sel_s.eta
        assert outage_fg_floor(g_crit * 0.999999, b) > 0.999
        assert outage_fg_floor(g_crit * 1.1, b) == 1.0

    def test_is_cdf_of_asymptotic_sndr(self):
        b = build_budget(FIG2_CFG)
        rng = np.random.Generator(np.random.Philox(key=[301, 0]))
        n = 1_000_000
        x = rng.exponential(b.config.mu1, n)
        lam = sndr("fg", x, 1.0, build_budget(replace(FIG2_CFG, n0=0.0)))
        for gamma in [500.0, 1000.0, 1500.0]:
            p_mc = float(np.mean(lam <= gamma))
            p_floor = outage_fg_floor(gamma, b)
            sigma = math.sqrt(p_floor * (1.0 - p_floor) / n)
            assert abs(p_mc - p_floor) <= 3.0 * sigma

    def test_vg_floor_is_step(self):
        b = build_budget(FIG2_CFG)
        th = sndr("vg", 1.0, 1.0, build_budget(replace(FIG2_CFG, n0=0.0)))
        assert outage_floor("vg", th * 0.999, b) == 0.0
        assert outage_floor("vg", th * 1.001, b) == 1.0

    @pytest.mark.parametrize("protocol", ["fg", "vg"])
    def test_linear_relay_floor_just_below_threshold(self, protocol):
        # with a linear relay the noiseless SNDR never falls below the threshold, so the
        # floor is 0 up to it, also where the series' a rounds to 0 one float below it
        b = build_budget(NetworkConfig(p_s=1e24, clip_ratio_s=0.442))
        gamma = math.nextafter(threshold(protocol, b), 0.0)
        assert outage_floor(protocol, gamma, b) == 0.0
        assert exact_outage(protocol, gamma, b) < 1e-6


class TestAsymptotic:
    def test_vg_first_order_constant(self):
        # P * g * p_s tends to 1, so exact/asymptotic tends to 1 as well
        gamma = 1.0
        for exp10 in (6, 7, 8):
            cfg = scaled_cfg(FIG2_CFG, 10.0**exp10)
            b = build_budget(cfg)
            p_exact = outage_vg(gamma, b).p_outage
            p_asym = outage_asymptotic("vg", gamma, [cfg.p_s], FIG2_CFG)[0].p_outage
            assert p_asym == pytest.approx(p_exact, rel=0.05, abs=0.0)

    def test_fg_tends_to_floor(self):
        gamma = 100.0
        b_ref = build_budget(FIG2_CFG)
        floor = outage_fg_floor(gamma, b_ref)
        assert floor > 0.0
        pts = outage_asymptotic("fg", gamma, [1e8, 1e10, 1e12], FIG2_CFG)
        assert pts[-1].p_outage == pytest.approx(floor, rel=1e-3, abs=0.0)

    def test_fg_source_only_log_decay(self):
        cfg = NetworkConfig(clip_ratio_s=5.0)
        pts = outage_asymptotic("fg", 1.0, [1e6, 1e8], cfg)
        ratio = pts[0].p_outage / pts[1].p_outage
        # log(p)/p scaling: ratio ~ 100 * log(1e6)/log(1e8)
        assert ratio == pytest.approx(100.0 * 6.0 / 8.0, rel=0.05, abs=0.0)

    def test_fg_relay_dominant_near_threshold_is_floor(self):
        # the log(p)/p coefficient carries exp(-eta_R gamma / (srz s_slope)),
        # which underflows here; the expansion must settle on the floor
        cfg = NetworkConfig(clip_ratio_s=8.0, clip_ratio_r=5.0)
        gamma = 10.0 ** (47.43 / 10.0)
        floor = outage_fg_floor(gamma, build_budget(cfg))
        pts = outage_asymptotic("fg", gamma, [1e4, 1e6, 1e8], cfg)
        assert [p.p_outage for p in pts] == [floor] * 3

    def test_vg_noiseless_is_a_step(self):
        # n0 = 0: no first-order term, so 0 below the vg threshold and 1 past it
        cfg = NetworkConfig(n0=0.0, clip_ratio_s=5.0, clip_ratio_r=8.0)
        th = threshold("vg", build_budget(cfg))
        assert th < threshold("fg", build_budget(cfg))  # past th is not yet sure outage at the source
        for gamma, expected in ((0.0, 0.0), (1.0, 0.0), (0.99 * th, 0.0), (1.01 * th, 1.0)):
            pts = outage_asymptotic("vg", gamma, [1e4, 1e8], cfg)
            assert [p.p_outage for p in pts] == [expected] * 2

    def test_zero_threshold_is_zero(self):
        for protocol in ("fg", "vg"):
            assert outage_asymptotic(protocol, 0.0, [1e4], FIG2_CFG)[0].p_outage == 0.0

    def test_precondition(self):
        # past the source's sure-outage point the expansion is 1, as the exact outage is
        b = build_budget(FIG2_CFG)
        g_crit = b.sel_s.sigma_sq * b.sel_s.zeta**2 / b.sel_s.eta
        assert outage_asymptotic("fg", g_crit * 1.01, [1e6], FIG2_CFG)[0].p_outage == 1.0

    @pytest.mark.parametrize("protocol,cfg", [
        ("vg", NetworkConfig(p_s=10.0 ** 19.5, clip_ratio_s=5.0, clip_ratio_r=8.0)),
        ("vg", NetworkConfig(p_s=10.0 ** 19.5, clip_ratio_s=1.0)),
        ("fg", NetworkConfig(p_s=10.0 ** 18.75, clip_ratio_s=0.55)),
    ], ids=["vg-fig2-195db", "vg-source-only-1-195db", "fg-source-only-0.55-187.5db"])
    def test_sure_outage_at_threshold(self, protocol, cfg):
        # threshold() is the one sure-outage rule, for the expansion as for exact_outage
        gamma = threshold(protocol, build_budget(cfg))
        assert outage_asymptotic(protocol, gamma, [cfg.p_s], cfg)[0].p_outage == 1.0

    def test_rounding_below_threshold(self):
        # one float below threshold("vg") the series' a rounds to 0 for clip pair 5/5;
        # q is past the float range there, and the outage is sure as exact_outage says
        cfg = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=5.0)
        b = build_budget(cfg)
        gamma = math.nextafter(threshold("vg", b), 0.0)
        assert exact_outage("vg", gamma, b) == 1.0
        assert outage_asymptotic("vg", gamma, [cfg.p_s], cfg)[0].p_outage == 1.0


class TestDiversityFit:
    GRID = np.logspace(4, 8, 17)

    def test_vg_slope_one_with_relay_clipping(self):
        fit = diversity_fit("vg", 1.0, FIG2_CFG, self.GRID)
        assert fit.slope == pytest.approx(1.0, abs=0.1)
        assert 0.0 <= fit.r_squared <= 1.0

    def test_vg_slope_one_without_clipping_at_source(self):
        fit = diversity_fit("vg", 1.0, NetworkConfig(clip_ratio_r=5.0), self.GRID)
        assert fit.slope == pytest.approx(1.0, abs=0.1)

    def test_fg_slope_zero_with_relay_clipping(self):
        fit = diversity_fit("fg", 1.0, NetworkConfig(clip_ratio_r=5.0), self.GRID)
        assert fit.slope == pytest.approx(0.0, abs=0.1)

    def test_fg_slope_one_source_only(self):
        fit = diversity_fit("fg", 1.0, NetworkConfig(clip_ratio_s=5.0), self.GRID)
        assert fit.slope == pytest.approx(1.0, abs=0.15)

    def test_narrow_grid_rejected(self):
        with pytest.raises(DomainError):
            diversity_fit("vg", 1.0, FIG2_CFG, [1.0, 2.0, 4.0])

    def test_tiny_outages_are_fitted(self):
        # source-only vg outage near 1e-300 and below is still a positive number with a log
        grid = 10.0 ** (np.arange(2700.0, 3051.0, 2.5) / 10.0)
        fit = diversity_fit("vg", 1.0, NetworkConfig(clip_ratio_s=5.0), grid)
        assert fit.slope == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("protocol", ["vg", "fg"])
def test_power_outside_network_rule_rejected(protocol, bad):
    # outage_asymptotic and diversity_fit hold every p_s to NetworkConfig's rule
    cfg = NetworkConfig(clip_ratio_r=5.0)
    grid = [1e4, 1e5, 1e6, 1e7, bad]
    for entry in (lambda: outage_asymptotic(protocol, 1.0, grid, cfg),
                  lambda: diversity_fit(protocol, 1.0, cfg, grid)):
        with pytest.raises(DomainError, match="p_s must be positive and finite"):
            entry()


class TestSmallGamma:
    def test_vg_ratio_to_one(self):
        # operating point chosen so Z*gamma = 1e-6 sits at gamma ~ 1
        cfg = scaled_cfg(FIG2_CFG, 1000.0)
        b = build_budget(cfg)
        z = 1.0 / (
            (b.sel_s.sigma_sq * b.sel_s.zeta**2 * cfg.mu1 / cfg.n0)
            * (b.sel_r.sigma_sq * b.sel_r.zeta**2 * cfg.mu2 / cfg.n0)
        )
        gamma = 1e-6 / z
        approx = small_gamma_expansion("vg", gamma, b)
        exact = outage_vg(gamma, b).p_outage
        assert approx / exact == pytest.approx(1.0, abs=0.02)

    def test_fg_ratio_to_one(self):
        cfg = scaled_cfg(FIG2_CFG, 1000.0)
        b = build_budget(cfg)
        z = 1.0 / (
            (b.sel_s.sigma_sq * b.sel_s.zeta**2 * cfg.mu1 / cfg.n0)
            * (b.sel_r.sigma_sq * b.sel_r.zeta**2 * cfg.mu2 / cfg.n0)
        )
        gamma = 1e-6 / z
        approx = small_gamma_expansion("fg", gamma, b)
        exact = outage_fg(gamma, b).p_outage
        assert approx / exact == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("cfg", [FIG2_CFG, NetworkConfig(n0=0.0, clip_ratio_s=5.0, clip_ratio_r=8.0),
                                     GOLDEN_CFG], ids=["fig2", "fig2-n0-0", "relay-only"])
    def test_zero_threshold_is_zero(self, cfg):
        for protocol in ("fg", "vg"):
            assert small_gamma_expansion(protocol, 0.0, build_budget(cfg)) == 0.0

    def test_zero_noise_is_the_floors_first_order(self):
        # at n0 = 0 the series is the floor's first order in gamma: fixed gain's
        # 1 - e^{-q0} ~ q0 with q0 taken at its gamma -> 0 slope, variable gain's 0
        b = build_budget(NetworkConfig(n0=0.0, clip_ratio_s=5.0, clip_ratio_r=8.0))
        gamma = 1e-3 * threshold("fg", b)
        assert small_gamma_expansion("fg", gamma, b) == pytest.approx(outage_fg_floor(gamma, b),
                                                                      rel=2e-3, abs=0.0)
        assert small_gamma_expansion("vg", 1e-3 * threshold("vg", b), b) == 0.0

    def test_monotone_in_gamma(self):
        b = build_budget(scaled_cfg(FIG2_CFG, 1000.0))
        gammas = np.logspace(-4, -1, 30)
        vals = [small_gamma_expansion("vg", float(g), b) for g in gammas]
        assert all(y > x for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gamma_db", [29.5, 29.75])
    def test_fg_past_turning_point_raises(self, gamma_db):
        # Fig-2 clip 5/8 at 30 dB: the first-order term peaks near 29.4 dB and
        # then falls (0.8712, 0.8684 here) while the exact outage is 0.97
        b = build_budget(scaled_cfg(FIG2_CFG, 1e3))
        with pytest.raises(RegimeError):
            small_gamma_expansion("fg", 10.0 ** (gamma_db / 10.0), b)

    def test_vg_past_turning_point_raises(self):
        # mu1 = mu2 = 0.3 at 0 dB: the first-order term peaks at 0.574 near
        # -13 dB and falls to 0.451 at -10.5 dB, where the exact outage is 0.855
        b = build_budget(NetworkConfig(mu1=0.3, mu2=0.3, p_s=1.0))
        peak = small_gamma_expansion("vg", 10.0 ** -1.3, b)
        assert peak == pytest.approx(0.574, abs=1e-3)
        assert exact_outage("vg", 10.0 ** -1.05, b) == pytest.approx(0.855, abs=1e-3)
        for gamma_db in (-12.5, -10.5):
            with pytest.raises(RegimeError):
                small_gamma_expansion("vg", 10.0 ** (gamma_db / 10.0), b)

    def test_regime_guard(self):
        b = build_budget(FIG2_CFG)
        with pytest.raises(RegimeError):
            small_gamma_expansion("fg", 1e6, b)

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    @pytest.mark.parametrize("factor", [1.0, 1.05, 10.0])
    def test_at_or_past_threshold_raises(self, protocol, factor):
        # at 200 dB Z*gamma is ~1e-17, so only the threshold guard can fire;
        # the first-order term there is tiny while the exact outage is 1
        b = build_budget(scaled_cfg(FIG2_CFG, 1e20))
        gamma = factor * threshold(protocol, b)
        assert exact_outage(protocol, gamma * 1.001, b) == 1.0
        with pytest.raises(RegimeError):
            small_gamma_expansion(protocol, gamma, b)
        assert 0.0 <= small_gamma_expansion(protocol, 0.9 * threshold(protocol, b), b) < 1.0

    @pytest.mark.parametrize("gamma_db", [28.0, 30.0, 32.0])
    def test_first_order_term_past_one_raises(self, gamma_db):
        # vg at 30 dB: Z*gamma < 1 but the first-order term exceeds 1
        b = build_budget(scaled_cfg(FIG2_CFG, 1e3))
        with pytest.raises(RegimeError):
            small_gamma_expansion("vg", 10.0 ** (gamma_db / 10.0), b)
