"""Link budget and SNDR tests.

Frozen numbers come from the pre-build oracle pass: limiter triples from the
2e8-sample Monte Carlo / closed form, budget-level values by composing them.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from afrelay.errors import DomainError
from afrelay.link_budget import (
    NetworkConfig,
    asymptotic_sndr,
    build_budget,
    gain_fg,
    gain_vg,
    normalized_sndr_coeffs,
    sndr,
)

# mu1 = mu2 = n0 = 1, P_S = P_R = 1, clip ratios 5 (source) and 8 (relay).
FIG2_CFG = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0)
# source linear, relay clip ratio 5
FIG3_CFG = NetworkConfig(clip_ratio_s=math.inf, clip_ratio_r=5.0)


def linear_budget(p_s=1.0, p_ratio=1.0, n0=1.0, mu1=1.0, mu2=1.0):
    return build_budget(
        NetworkConfig(mu1=mu1, mu2=mu2, n0=n0, p_s=p_s, p_ratio=p_ratio)
    )


class TestNetworkConfig:
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["mu1", "mu2", "n0", "p_s", "p_ratio"])
    def test_nonfinite_power_or_gain_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} must be"):
            NetworkConfig(**{field: value})

    @pytest.mark.parametrize("value", [0.0, 1e-13, -1.0, math.nan])
    @pytest.mark.parametrize("field", ["clip_ratio_s", "clip_ratio_r"])
    def test_clip_ratio_that_passes_nothing_rejected(self, field, value):
        # below 1e-12 the limiter model gives zeta = eta = 0: no signal at all
        with pytest.raises(DomainError, match=f"^{field} must be >= 1e-12 or inf"):
            NetworkConfig(**{field: value})

    def test_smallest_clip_ratio_accepted(self):
        b = build_budget(NetworkConfig(clip_ratio_s=1e-12, clip_ratio_r=1e-12))
        assert b.sel_s.zeta > 0.0 and b.sel_r.zeta > 0.0


class TestBuildBudget:
    def test_linear_network(self):
        b = linear_budget()
        assert b.eps_s == math.inf and b.eps_r == math.inf and b.eps_star == math.inf
        assert b.tilde_eta_s == 0.0 and b.tilde_eta_r == 0.0
        assert b.sel_s.zeta == 1.0 and b.sel_r.zeta == 1.0

    def test_overflowing_clip_power_rejected(self):
        # clip_ratio * sigma_sq = inf would make the clipping source linear
        with pytest.raises(DomainError, match="^source clip power overflows"):
            build_budget(NetworkConfig(p_s=7.9e307, clip_ratio_s=5.0, clip_ratio_r=8.0))
        b = build_budget(NetworkConfig(p_s=7.9e300, clip_ratio_s=5.0, clip_ratio_r=8.0))
        assert b.eps_star == pytest.approx(2.4e-298, rel=0.02, abs=0.0)

    def test_clipped_reference_values(self):
        b = build_budget(FIG2_CFG)
        assert b.sel_s.sigma_sq == pytest.approx(1.0067836549, rel=1e-9, abs=0.0)
        assert b.sel_r.sigma_sq == pytest.approx(1.0003355753, rel=1e-9, abs=0.0)
        assert b.sel_s.eta == pytest.approx(5.240571898e-4, rel=1e-8, abs=0.0)
        assert b.sel_r.eta == pytest.approx(1.788528852e-5, rel=1e-8, abs=0.0)
        assert b.eps_s == pytest.approx(1908.188685, rel=1e-8, abs=0.0)
        assert b.eps_r == pytest.approx(55911.874105, rel=1e-8, abs=0.0)
        assert b.eps_star == pytest.approx(1908.188685, rel=1e-8, abs=0.0)

    def test_budget_invariants(self):
        for cfg in [FIG2_CFG, FIG3_CFG, NetworkConfig(p_s=4.0, p_ratio=2.5, clip_ratio_s=3.0, clip_ratio_r=6.0, n0=0.3)]:
            b = build_budget(cfg)
            if b.sel_s.eta > 0:
                assert b.eps_s == pytest.approx(cfg.n0 / b.sel_s.eta, rel=1e-14, abs=0.0)
            assert b.eps_star == min(b.eps_s, b.eps_r)
            assert b.tilde_eta_s * cfg.p_s == pytest.approx(b.sel_s.eta, rel=1e-12, abs=0.0)
            assert b.tilde_eta_r * cfg.p_s == pytest.approx(b.sel_r.eta, rel=1e-12, abs=0.0)
            assert b.sel_s.p_avg == pytest.approx(cfg.p_s, rel=1e-12, abs=0.0)
            assert b.sel_r.p_avg == pytest.approx(cfg.p_ratio * cfg.p_s, rel=1e-12, abs=0.0)

    def test_doubling_power_halves_eps(self):
        b1 = build_budget(FIG2_CFG)
        b2 = build_budget(NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0, p_s=2.0))
        assert b2.eps_s == pytest.approx(b1.eps_s / 2.0, rel=1e-12, abs=0.0)
        assert b2.eps_r == pytest.approx(b1.eps_r / 2.0, rel=1e-12, abs=0.0)
        assert b2.eps_star == pytest.approx(b1.eps_star / 2.0, rel=1e-12, abs=0.0)


class TestGains:
    def test_fg_trivial_cases(self):
        # sigma_r^2 = p_r with a linear relay; first case makes P_S mu_1
        # negligible against N_0 while holding sigma_r^2 = 1.
        b = linear_budget(p_s=1e-12, p_ratio=1e12, n0=1.0)
        assert gain_fg(b) == pytest.approx(1.0, rel=1e-9, abs=0.0)
        b2 = linear_budget(p_s=1.0, p_ratio=2.0, n0=1.0)
        assert gain_fg(b2) == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_fg_reference_value(self):
        # sqrt(sigma_R^2 / (P_S mu_1 + N_0)) with sigma_R^2 = 1.0003355753
        assert gain_fg(build_budget(FIG2_CFG)) == pytest.approx(0.707225415, abs=1e-8)

    def test_vg_matches_fg_at_mean_gain(self):
        b = build_budget(FIG2_CFG)
        assert gain_vg(b, b.config.mu1) == pytest.approx(gain_fg(b), rel=1e-14, abs=0.0)

    def test_vg_limits(self):
        b = linear_budget()
        assert gain_vg(b, 0.0) == pytest.approx(1.0)
        assert gain_vg(b, 1e12) < 1e-5

    @pytest.mark.parametrize("h1", [0.0, np.array([1.0, 0.0])], ids=["scalar", "array"])
    def test_vg_zero_gain_at_zero_noise_is_inf(self, h1):
        # nothing to size the relay from: the gain is its limit, without a warning
        b = build_budget(replace(FIG2_CFG, n0=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = np.atleast_1d(gain_vg(b, h1))
        assert g[-1] == math.inf and np.isfinite(g[:-1]).all()

    def test_vg_rejects_negative(self):
        with pytest.raises(DomainError):
            gain_vg(linear_budget(), -1.0)

    @pytest.mark.parametrize("h1", [math.nan, np.array([1.0, math.nan, 2.0])], ids=["scalar", "array"])
    def test_vg_rejects_nan(self, h1):
        with pytest.raises(DomainError):
            gain_vg(build_budget(FIG2_CFG), h1)


class TestSndr:
    def test_zero_first_hop(self):
        b = build_budget(FIG2_CFG)
        assert sndr("vg", 0.0, 1.0, b) == 0.0
        assert sndr("fg", 0.0, 1.0, b) == 0.0

    def test_linear_vg_equals_harmonic_form(self):
        # With no clipping the end-to-end SNDR reduces to l1*l2/(l1+l2+1).
        rng = np.random.default_rng(42)
        b = linear_budget(p_s=3.0, p_ratio=0.7, n0=0.25)
        for _ in range(200):
            x, y = rng.exponential(1.0, 2)
            l1 = b.p_s * x / b.n0
            l2 = b.config.p_ratio * b.p_s * y / b.n0
            expected = l1 * l2 / (l1 + l2 + 1.0)
            assert sndr("vg", x, y, b) == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_vectorized_matches_scalar(self):
        b = build_budget(FIG2_CFG)
        rng = np.random.default_rng(5)
        x = rng.exponential(1.0, 50)
        y = rng.exponential(1.0, 50)
        for proto in ("fg", "vg"):
            vec = sndr(proto, x, y, b)
            for i in [0, 7, 49]:
                assert vec[i] == pytest.approx(sndr(proto, x[i], y[i], b), rel=1e-14, abs=0.0)

    def test_fg_monotone_in_h1(self):
        b = build_budget(FIG2_CFG)
        xs = np.linspace(0.0, 20.0, 400)
        vals = sndr("fg", xs, 0.8, b)
        assert np.all(np.diff(vals) > -1e-15)

    def test_noise_free_limit_matches_asymptotic(self):
        cfg = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0, n0=1e-12)
        b = build_budget(cfg)
        for proto in ("fg", "vg"):
            for x, y in [(0.5, 1.2), (2.0, 0.3), (1.0, 1.0)]:
                lam = sndr(proto, x, y, b)
                assert lam == pytest.approx(asymptotic_sndr(proto, x, b), rel=1e-6, abs=0.0)

    def test_vg_limit_uniform_over_random_draws(self):
        # keep draws away from the degenerate near-zero corner where the
        # residual noise floor is no longer negligible against 1e-10
        cfg = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0, n0=1e-10)
        b = build_budget(cfg)
        limit = asymptotic_sndr("vg", 1.0, b)
        rng = np.random.default_rng(77)
        draws = rng.exponential(1.0, (200, 2))
        draws = draws[np.all(draws > 1e-2, axis=1)]
        lam = sndr("vg", draws[:, 0], draws[:, 1], b)
        assert np.max(np.abs(lam / limit - 1.0)) < 1e-4

    @pytest.mark.parametrize("cfg", [
        FIG2_CFG,
        FIG3_CFG,
        NetworkConfig(p_s=1e4, p_ratio=0.7, mu1=1.3, mu2=2.5, clip_ratio_s=5.0, clip_ratio_r=8.0),
        NetworkConfig(n0=0.0, clip_ratio_s=5.0),
        NetworkConfig(n0=0.0, clip_ratio_r=3.0),
        NetworkConfig(n0=0.0),
    ], ids=["fig2", "fig3", "mixed", "noiseless-source-clip", "noiseless-relay-clip", "noiseless-linear"])
    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    def test_same_bits_as_one_expression(self, cfg, protocol):
        # sndr builds its denominator in place; the reference is the plain
        # expression, evaluated in the same order
        b = build_budget(cfg)
        s, r, n0 = b.sel_s, b.sel_r, b.config.n0
        corners = np.array([0.0, 1e-300, 0.5, 1.0, 7.0, 1e300])
        x, y = np.meshgrid(corners, corners)
        draws = np.random.default_rng(11).exponential(1.0, (2, 500))
        for h1, h2 in ((x, y), (draws[0], draws[1]), (corners, 0.8), (0.8, corners)):
            h1, h2 = np.asarray(h1, dtype=float), np.asarray(h2, dtype=float)
            if protocol == "fg":
                inv_g2 = (b.config.p_s * b.config.mu1 + n0) / r.sigma_sq
            else:
                inv_g2 = (b.config.p_s * h1 + n0) / r.sigma_sq
            zr2 = r.zeta**2
            with np.errstate(all="ignore"):
                num = s.sigma_sq * s.zeta**2 * zr2 * h1 * h2
                den = h2 * (n0 + s.eta * h1) * zr2 + (h2 * r.eta + n0) * inv_g2
                ref = np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, 0.0))
                got = sndr(protocol, h1, h2, b)
            np.testing.assert_array_equal(got, ref)
            for i in range(0, ref.size, 7):
                with np.errstate(all="ignore"):
                    one = sndr(protocol, np.broadcast_to(h1, ref.shape).flat[i],
                               np.broadcast_to(h2, ref.shape).flat[i], b)
                assert one == ref.flat[i] or (math.isnan(one) and math.isnan(ref.flat[i]))

    def test_degenerate_zero_case(self):
        b = linear_budget(n0=0.0)
        assert sndr("vg", 0.0, 0.0, b) == 0.0

    def test_bad_protocol(self):
        with pytest.raises(DomainError):
            sndr("xx", 1.0, 1.0, linear_budget())

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    @pytest.mark.parametrize("h1, h2", [
        (math.nan, 1.0),
        (1.0, math.nan),
        (np.array([0.5, math.nan]), np.array([1.0, 2.0])),
        (np.array([0.5, 1.0]), np.array([math.nan, 2.0])),
        # an infinite gain gave NaN, or 0 * inf, before it was refused
        (math.inf, 1.0),
        (math.inf, 0.0),
        (1.0, math.inf),
        (0.0, math.inf),
        (np.array([0.5, math.inf]), np.array([1.0, 2.0])),
        (np.array([0.5, 1.0]), np.array([-math.inf, 2.0])),
    ], ids=["scalar-h1", "scalar-h2", "array-h1", "array-h2", "inf-h1", "inf-h1-zero-h2",
            "inf-h2", "inf-h2-zero-h1", "inf-array-h1", "minus-inf-array-h2"])
    def test_nan_gain_rejected(self, protocol, h1, h2):
        with pytest.raises(DomainError, match="^channel gains must be finite and non-negative"):
            sndr(protocol, h1, h2, build_budget(FIG2_CFG))


@pytest.mark.parametrize("protocol", ["vg", "fg"])
@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0], ids=["inf", "nan", "negative"])
def test_one_gain_rule_at_every_entry(protocol, bad):
    # at each of these inf gave NaN or a RuntimeWarning, or NaN or -1 gave a number
    b = build_budget(FIG2_CFG)
    entries = [
        lambda: sndr(protocol, bad, 1.0, b),
        lambda: sndr(protocol, 1.0, bad, b),
        lambda: gain_vg(b, bad),
        lambda: gain_vg(b, np.array([1.0, bad])),
        lambda: asymptotic_sndr(protocol, bad, b),
        lambda: normalized_sndr_coeffs(protocol, bad, 1.0, b),
        lambda: normalized_sndr_coeffs(protocol, 1.0, bad, b),
    ]
    for entry in entries:
        with pytest.raises(DomainError, match="^channel gains must be"):
            entry()


class TestNormalizedSndr:
    def test_reconstruction_identity(self):
        rng = np.random.default_rng(17)
        b = build_budget(FIG2_CFG)
        worst = 0.0
        for _ in range(1000):
            x, y = rng.exponential(1.0, 2)
            proto = "fg" if rng.random() < 0.5 else "vg"
            a, lc, q, scale = normalized_sndr_coeffs(proto, x, y, b)
            recon = scale / (a + lc * b.eps_star + q * b.eps_star**2)
            direct = sndr(proto, x, y, b)
            worst = max(worst, abs(recon / direct - 1.0))
        assert worst < 1e-10

    def test_reconstruction_other_configs(self):
        rng = np.random.default_rng(18)
        for cfg in [
            FIG3_CFG,
            NetworkConfig(mu1=2.0, mu2=0.5, n0=0.1, p_s=5.0, p_ratio=0.8, clip_ratio_s=2.0, clip_ratio_r=4.0),
        ]:
            b = build_budget(cfg)
            for _ in range(200):
                x, y = rng.exponential(1.0, 2)
                for proto in ("fg", "vg"):
                    a, lc, q, scale = normalized_sndr_coeffs(proto, x, y, b)
                    recon = scale / (a + lc * b.eps_star + q * b.eps_star**2)
                    assert recon == pytest.approx(sndr(proto, x, y, b), rel=1e-10, abs=0.0)

    def test_eps_to_zero_limit(self):
        b = build_budget(FIG2_CFG)
        a, lc, q, scale = normalized_sndr_coeffs("vg", 1.3, 0.6, b)
        assert scale / a == pytest.approx(asymptotic_sndr("vg", 1.3, b), rel=1e-12, abs=0.0)

    def test_fg_lcoef_large_h2(self):
        b = build_budget(FIG2_CFG)
        _, lc, q, _ = normalized_sndr_coeffs("fg", 1.0, 1e12, b)
        assert lc == pytest.approx(b.config.p_ratio / b.config.mu1, rel=1e-9, abs=0.0)
        assert q < 1e-12

    def test_linear_network_rejected(self):
        with pytest.raises(DomainError):
            normalized_sndr_coeffs("vg", 1.0, 1.0, linear_budget())

    @pytest.mark.parametrize("protocol,h1,h2", [
        ("fg", 1.0, 0.0), ("vg", 0.0, 1.0), ("vg", 1.0, 0.0), ("fg", math.nan, 1.0),
        ("vg", 1.0, -1.0),
    ], ids=["fg-h2-zero", "vg-h1-zero", "vg-h2-zero", "fg-h1-nan", "vg-h2-negative"])
    def test_gain_it_divides_by_rejected(self, protocol, h1, h2):
        with pytest.raises(DomainError, match="^channel gains must be positive"):
            normalized_sndr_coeffs(protocol, h1, h2, build_budget(FIG2_CFG))

    def test_fg_zero_first_hop_gain_has_zero_scale(self):
        b = build_budget(FIG2_CFG)
        a, lc, q, scale = normalized_sndr_coeffs("fg", 0.0, 1.0, b)
        assert scale == 0.0 and a > 0.0
        assert sndr("fg", 0.0, 1.0, b) == 0.0


class TestAsymptoticSndr:
    def test_vg_deterministic(self):
        b = build_budget(FIG2_CFG)
        vals = {asymptotic_sndr("vg", h, b) for h in (0.1, 1.0, 10.0)}
        assert len(vals) == 1

    def test_vg_reference_value(self):
        # equals the variable-gain critical threshold by construction
        assert asymptotic_sndr("vg", 1.0, build_budget(FIG2_CFG)) == pytest.approx(
            1844.246194, rel=1e-8, abs=0.0
        )
        assert asymptotic_sndr("vg", 1.0, build_budget(FIG3_CFG)) == pytest.approx(
            1907.188685, rel=1e-8, abs=0.0
        )

    def test_fg_source_only_clipping_h1_independent(self):
        cfg = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=math.inf)
        b = build_budget(cfg)
        ref = b.tilde_signal_s / b.tilde_eta_s
        for h in (0.1, 1.0, 10.0):
            assert asymptotic_sndr("fg", h, b) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_linear_network_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_sndr("vg", 1.0, linear_budget())
