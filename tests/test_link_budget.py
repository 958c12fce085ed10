"""Link budget and SNDR tests.

Frozen numbers come from the pre-build oracle pass: limiter triples from the
2e8-sample Monte Carlo / closed form, budget-level values by composing them.
"""

import itertools
import math
from fractions import Fraction
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from afrelay.errors import DomainError
from afrelay.link_budget import (LinkBudget, NetworkConfig, _scaled_powers, build_budget, gain_fg,
                                  gain_vg, sndr, threshold, threshold_gap)
from afrelay.outage import exact_outage, outage_floor
from afrelay.simulator import Rng, mc_outage_sweep

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
        assert b.sel_s.eta == 0.0 and b.sel_r.eta == 0.0 and b.eps_star == math.inf
        assert _scaled_powers(b)[2:] == (0.0, 0.0)
        assert b.sel_s.zeta == 1.0 and b.sel_r.zeta == 1.0

    def test_budget_is_its_config_and_limiters(self):
        assert [f.name for f in fields(LinkBudget)] == ["config", "sel_s", "sel_r"]

    def test_overflowing_clip_power_rejected(self):
        # clip_ratio * sigma_sq = inf would make the clipping source linear
        with pytest.raises(DomainError, match="^source clip power overflows"):
            build_budget(NetworkConfig(p_s=7.9e307, clip_ratio_s=5.0, clip_ratio_r=8.0))
        b = build_budget(NetworkConfig(p_s=7.9e300, clip_ratio_s=5.0, clip_ratio_r=8.0))
        assert b.eps_star == pytest.approx(2.4e-298, rel=0.02, abs=0.0)

    @pytest.mark.parametrize("p_s,p_ratio", [(1e300, 1e10), (1e-300, 1e-100)],
                             ids=["overflow", "underflow"])
    def test_relay_power_outside_float_range_rejected(self, p_s, p_ratio):
        # it was refused as "input power must be positive and finite, got inf"
        with pytest.raises(DomainError, match=r"^the relay power p_ratio \* p_s must be"):
            build_budget(NetworkConfig(p_s=p_s, p_ratio=p_ratio))

    def test_clipped_reference_values(self):
        b = build_budget(FIG2_CFG)
        assert b.sel_s.sigma_sq == pytest.approx(1.0067836549, rel=1e-9, abs=0.0)
        assert b.sel_r.sigma_sq == pytest.approx(1.0003355753, rel=1e-9, abs=0.0)
        assert b.sel_s.eta == pytest.approx(5.240571898e-4, rel=1e-8, abs=0.0)
        assert b.sel_r.eta == pytest.approx(1.788528852e-5, rel=1e-8, abs=0.0)
        assert FIG2_CFG.n0 / b.sel_s.eta == pytest.approx(1908.188685, rel=1e-9, abs=0.0)
        assert FIG2_CFG.n0 / b.sel_r.eta == pytest.approx(55911.874105, rel=1e-9, abs=0.0)
        assert b.eps_star == FIG2_CFG.n0 / b.sel_s.eta

    def test_budget_invariants(self):
        for cfg in [FIG2_CFG, FIG3_CFG, NetworkConfig(p_s=4.0, p_ratio=2.5, clip_ratio_s=3.0, clip_ratio_r=6.0, n0=0.3)]:
            b = build_budget(cfg)
            eps = [cfg.n0 / sel.eta if sel.eta > 0 else math.inf for sel in (b.sel_s, b.sel_r)]
            assert b.eps_star == min(eps)
            t_s, t_r, e_s, e_r = _scaled_powers(b)
            assert e_s * cfg.p_s == pytest.approx(b.sel_s.eta, rel=1e-15, abs=0.0)
            assert e_r * cfg.p_s == pytest.approx(b.sel_r.eta, rel=1e-15, abs=0.0)
            assert t_s * cfg.p_s == pytest.approx(b.sel_s.sigma_sq * b.sel_s.zeta**2, rel=1e-15,
                                                  abs=0.0)
            assert t_r * cfg.p_s == pytest.approx(b.sel_r.sigma_sq * b.sel_r.zeta**2, rel=1e-15,
                                                  abs=0.0)
            assert b.sel_s.p_avg == pytest.approx(cfg.p_s, rel=1e-12, abs=0.0)
            assert b.sel_r.p_avg == pytest.approx(cfg.p_ratio * cfg.p_s, rel=1e-12, abs=0.0)

    def test_doubling_power_halves_eps(self):
        b1 = build_budget(FIG2_CFG)
        b2 = build_budget(NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0, p_s=2.0))
        for sel1, sel2 in ((b1.sel_s, b2.sel_s), (b1.sel_r, b2.sel_r)):
            assert b2.n0 / sel2.eta == pytest.approx(b1.n0 / sel1.eta / 2.0, rel=1e-12, abs=0.0)
        assert b2.eps_star == pytest.approx(b1.eps_star / 2.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("cfg", [FIG2_CFG, FIG3_CFG, NetworkConfig(
        p_s=0.3, p_ratio=2.5, clip_ratio_s=3.0, clip_ratio_r=6.0, n0=0.7)])
    def test_quadrupling_power_keeps_thresholds(self, cfg):
        # under fixed clip ratios every node power scales with p_s; by a power of two
        # that is exact, so the thresholds (powers over p_s) keep every bit
        b1, b4 = build_budget(cfg), build_budget(replace(cfg, p_s=4.0 * cfg.p_s))
        assert _scaled_powers(b4) == _scaled_powers(b1)
        for protocol in ("fg", "vg"):
            assert threshold(protocol, b4) == threshold(protocol, b1)
        if b1.sel_s.eta > 0.0:
            assert threshold_gap(b4) == threshold_gap(b1)
        assert b4.eps_star == b1.eps_star / 4.0


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
        # the SNDR at vanishing noise tends to the one at zero noise
        cfg = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0, n0=1e-12)
        b, b0 = build_budget(cfg), build_budget(replace(cfg, n0=0.0))
        for proto in ("fg", "vg"):
            for x, y in [(0.5, 1.2), (2.0, 0.3), (1.0, 1.0)]:
                lam = sndr(proto, x, y, b)
                assert lam == pytest.approx(sndr(proto, x, y, b0), rel=1e-6, abs=0.0)

    def test_vg_limit_uniform_over_random_draws(self):
        # keep draws away from the degenerate near-zero corner where the
        # residual noise floor is no longer negligible against 1e-10
        cfg = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0, n0=1e-10)
        b = build_budget(cfg)
        limit = threshold("vg", b)
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

        def plain(h1, h2, n0=n0, n0_hop2=n0):
            if protocol == "fg":
                inv_g2 = (b.config.p_s * b.config.mu1 + n0) / r.sigma_sq
            else:
                inv_g2 = (b.config.p_s * h1 + n0) / r.sigma_sq
            zr2 = r.zeta**2
            num = s.sigma_sq * s.zeta**2 * zr2 * h1 * h2
            return num, h2 * (n0 + s.eta * h1) * zr2 + (h2 * r.eta + n0_hop2) * inv_g2

        def big(h):  # gains below 1 times 2^1000, above 2^500 times 2^-1000: bits kept
            return h * np.where(h < 1.0, 2.0**1000, np.where(h > 2.0**500, 2.0**-1000, 1.0))

        def at_scale(h1, h2):
            """num and den moved by powers of two out of underflow's and overflow's reach.

            At n0 = 0 they are linear in h2, and in h1 unless a fixed-gain relay distorts.
            With noise only overflow is in reach, at h1 = h2 = 1e300: vg's are homogeneous
            of degree 2 in (h1, h2, n0), fg's linear in h2 and the second hop's n0.
            """
            if n0 == 0.0:
                return plain(big(h1) if protocol == "vg" or r.eta == 0.0 else h1, big(h2))
            k = 2.0**-1000
            if protocol == "vg":
                return plain(h1 * k, h2 * k, n0 * k, n0 * k)
            return plain(h1, h2 * k, n0, n0 * k)

        for h1, h2 in ((x, y), (draws[0], draws[1]), (corners, 0.8), (0.8, corners)):
            h1, h2 = np.asarray(h1, dtype=float), np.asarray(h2, dtype=float)
            with np.errstate(all="ignore"):
                num, den = plain(h1, h2)
                # where den = 0 (an underflow, or no noise and no distortion) or num or
                # den overflows, the value is the one at scale
                num_s, den_s = at_scale(h1, h2)
                ok = (den < math.inf) & (num / den < math.inf)
                ref = np.where(ok, num / den, np.where(num_s > 0.0, num_s / den_s, 0.0))
                got = sndr(protocol, h1, h2, b)
            np.testing.assert_array_equal(got, ref)
            for i in range(0, ref.size, 7):
                with np.errstate(all="ignore"):
                    one = sndr(protocol, np.broadcast_to(h1, ref.shape).flat[i],
                               np.broadcast_to(h2, ref.shape).flat[i], b)
                assert one == ref.flat[i] or (math.isnan(one) and math.isnan(ref.flat[i]))

    @pytest.mark.parametrize("cfg, value", [
        (NetworkConfig(n0=1e-170), 0.3333333333333333),
        (NetworkConfig(n0=1e-170, clip_ratio_s=5.0, clip_ratio_r=8.0), 0.33309251767735193),
    ], ids=["linear", "fig2-clip"])
    def test_vg_underflow_with_noise_is_redone_at_scale(self, cfg, value):
        # with noise den = 0 is an underflow; vg's num and den are homogeneous of degree 2
        # in (x, y, n0), so the value is the one at all three scaled by a power of two
        k = 2.0**560
        b, big = build_budget(cfg), build_budget(replace(cfg, n0=cfg.n0 * k))
        assert sndr("vg", 1e-170, 1e-170, b) == sndr("vg", 1e-170 * k, 1e-170 * k, big) == value
        lam = sndr("vg", np.array([0.0, 1e-170, 1e-170]), np.array([1e-170, 1e-170, 0.0]), b)
        np.testing.assert_array_equal(lam, [0.0, value, 0.0])
        # fixed gain's den >= n0 (p_s mu1 + n0) / sigma_R^2 does not underflow: its 0 is
        # num underflowing against it, a value near 1e-170
        assert sndr("fg", 1e-170, 1e-170, b) == 0.0
        assert 0.0 < sndr("fg", 1e-170 * k, 1e-170 * k, big) / k < 1e-160

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
    ]
    for entry in entries:
        with pytest.raises(DomainError, match="^channel gains must be"):
            entry()


class TestFixedGainOverflow:
    """p_s * mu1 = 1e310 leaves fixed gain no finite gain rule, so it is refused by name
    rather than giving a NaN SNDR, or an exact outage of 1.0 against a Monte Carlo 0.0176.
    p_s * mu2 is not refused (test_cli.py, test_huge_mean_gains_count_every_trial)."""

    BIG_MU1 = NetworkConfig(mu1=1e300, p_s=1e10, clip_ratio_r=8.0)

    def test_sndr_refused(self):
        budget = build_budget(self.BIG_MU1)
        with pytest.raises(DomainError, match=r"p_s \* mu1"):
            sndr("fg", 1e300, 1.0, budget)
        assert sndr("vg", 1e300, 1.0, budget) == 55910.56149819016

    def test_outage_refused_both_ways(self):
        budget = build_budget(replace(self.BIG_MU1, clip_ratio_s=5.0))
        with pytest.raises(DomainError, match=r"p_s \* mu1"):
            exact_outage("fg", 1.0, budget)
        with pytest.raises(DomainError, match=r"p_s \* mu1"):
            mc_outage_sweep("fg", [1.0], budget, 20_000, Rng(1))
        assert sndr("vg", 1e300, 1.0, budget) == 1844.2458532908906
        assert exact_outage("vg", 1.0, budget) == 1.0010850422014066e-10
        assert mc_outage_sweep("vg", [1.0], budget, 20_000, Rng(1))[0].n_outages == 0


def exact_sndr(protocol, x, y, budget):
    """The SNDR at gains x and y in exact rational arithmetic on the budget's floats."""
    s, r, cfg = budget.sel_s, budget.sel_r, budget.config
    f = Fraction
    x, y, n0, zr2 = f(x), f(y), f(cfg.n0), f(r.zeta) ** 2
    num = f(s.sigma_sq) * f(s.zeta) ** 2 * zr2 * x * y
    inv_g2 = (f(cfg.p_s) * (x if protocol == "vg" else f(cfg.mu1)) + n0) / f(r.sigma_sq)
    return num / (y * (n0 + f(s.eta) * x) * zr2 + (y * f(r.eta) + n0) * inv_g2)


class TestFixedGainFirstHopRescue:
    """A fixed-gain first-hop gain past the overflow of eta_S x is redone with an unbounded
    exponent. It gave NaN and inf, and a Monte Carlo outage of 0.833 against 1."""

    @pytest.mark.parametrize("x, y, rel", [(1e307, 1e-300, 1e-14), (1e300, 1e-320, 1e-15)])
    def test_huge_first_hop_gain_matches_exact_value(self, x, y, rel):
        b = build_budget(NetworkConfig(p_s=1e10, clip_ratio_s=5.0, clip_ratio_r=8.0))
        got, exact = sndr("fg", x, y, b), exact_sndr("fg", x, y, b)
        assert math.isfinite(got)
        assert abs(Fraction(got) - exact) <= Fraction(rel) * exact
        np.testing.assert_array_equal(sndr("fg", np.array([x, 1.0]), np.array([y, 1.0]), b),
                                      [got, sndr("fg", 1.0, 1.0, b)])


class TestZeroNoiseRescueAtScale:
    """Zero noise at the edges of the float range. At p_s = 1e308 a rescue that redid the
    gains in [1, 2) overflowed num, and left fixed gain's x unscaled: the Monte Carlo read
    0.98077 at a sure outage."""

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    @pytest.mark.parametrize("clip_s", [math.inf, 1.0])
    def test_exponential_gains_at_the_top_of_the_range(self, protocol, clip_s):
        b = build_budget(NetworkConfig(n0=0.0, p_s=1e308, clip_ratio_s=clip_s, clip_ratio_r=1.0))
        x, y = np.random.default_rng(11).exponential(1.0, (2, 200))
        for xi, yi, got in zip(x, y, sndr(protocol, x, y, b)):
            exact = exact_sndr(protocol, xi, yi, b)
            assert abs(Fraction(got) - exact) <= Fraction(1e-15) * exact

    @pytest.mark.parametrize("p_s, x, y", [(1e308, 1e300, 1e300), (1e308, 1e300, 1e-300),
                                           (1e-300, 1e300, 1e-300), (1e-300, 1e-300, 1e-300)])
    def test_far_apart_gains_keep_their_bits(self, p_s, x, y):
        # neither p_s mu1 underflowing at p_s = 1e-300 nor x is lost: a rescue that scaled
        # the larger of x and mu1 into [0.5, 1) gave inf there
        b = build_budget(NetworkConfig(n0=0.0, p_s=p_s, clip_ratio_r=1.0))
        exact = exact_sndr("fg", x, y, b)
        assert abs(Fraction(sndr("fg", x, y, b)) - exact) <= Fraction(1e-15) * exact


# the four clip configurations (source, relay) that test_analytic_pins.py pins
CLIPS = ((5.0, 8.0), (math.inf, 5.0), (5.0, math.inf), (8.0, 5.0))


def float_pass_refuses(protocol, x, y, budget):
    """Where sndr's float pass refuses num / den: den zero, subnormal or inf, or num / den inf."""
    s, r, cfg = budget.sel_s, budget.sel_r, budget.config
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        inv_g2 = (cfg.p_s * (x if protocol == "vg" else cfg.mu1) + cfg.n0) / r.sigma_sq
        zr2 = r.zeta**2
        num = s.sigma_sq * s.zeta**2 * zr2 * x * y
        den = y * (cfg.n0 + s.eta * x) * zr2 + (y * r.eta + cfg.n0) * inv_g2
        return ~((den >= np.finfo(float).tiny) & (den < math.inf) & (num / den < math.inf))


def assert_near_exact(got, protocol, x, y, budget):
    """got within 1e-15 of the exact SNDR, a subnormal within 2^-1074, one past the range inf."""
    try:
        exact = exact_sndr(protocol, x, y, budget)
    except ZeroDivisionError:  # no noise and no distortion: inf at gains > 0
        assert got == (math.inf if x > 0.0 and y > 0.0 else 0.0)
        return
    context = (protocol, x, y, budget.config, got, float(min(exact, Fraction(2) ** 1023)))
    if exact >= Fraction(2) ** 1024:
        assert got == math.inf, context
    else:
        small = exact < Fraction(2) ** -1022
        tol = Fraction(2) ** -1074 if small else Fraction(1e-15) * exact
        assert abs(Fraction(got) - exact) <= tol, context


class TestRescueIsExact:
    """Each entry the float pass refuses is the same expression evaluated with an unbounded
    exponent. One rescue per case (n0 = 0, vg and fg with noise) left such entries off,
    among them inf at 1907 and at 1e180, and 0 at 9.99e-301."""

    GAINS = [0.0, 5e-324, 1e-310, 1e-300, 1e-170, 1e-10, 0.7, 1e10, 1e170, 1e300, 1e307]

    @pytest.mark.parametrize("protocol, x, y, cfg, value", [
        ("vg", 1e-300, 1e300, NetworkConfig(n0=1e100, p_s=1e100, clip_ratio_s=5.0,
                                            clip_ratio_r=8.0), 9.994580668945594e-301),
        ("vg", 1e300, 1e10, NetworkConfig(n0=1e-170), 1e180),
        ("fg", 0.7, 5e-324, NetworkConfig(n0=1e-170, mu1=1e-300, clip_ratio_s=5.0,
                                          clip_ratio_r=8.0), 1907.18868511948),
    ], ids=["vg-read-0", "vg-read-inf", "fg-read-inf"])
    def test_named_corners(self, protocol, x, y, cfg, value):
        b = build_budget(cfg)
        assert float_pass_refuses(protocol, x, y, b)
        got = sndr(protocol, x, y, b)
        assert got == pytest.approx(value, rel=1e-13, abs=0.0)
        assert_near_exact(got, protocol, x, y, b)

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    def test_grid_of_extreme_budgets_and_gains(self, protocol):
        x, y = (g.ravel() for g in np.meshgrid(self.GAINS, self.GAINS))
        refused = 0
        mu1s = [1.0] if protocol == "vg" else [1.0, 1e300, 1e-300]  # vg's SNDR reads no mu1
        for n0, p_s, (clip_s, clip_r), mu1 in itertools.product(
                [0.0, 1e-170, 1.0, 1e100], [1e-300, 1.0, 1e300],
                (*CLIPS, (math.inf, math.inf)), mu1s):
            try:
                b = build_budget(NetworkConfig(n0=n0, p_s=p_s, mu1=mu1, clip_ratio_s=clip_s,
                                               clip_ratio_r=clip_r))
                got = sndr(protocol, x, y, b)
            except DomainError:  # a clip power, or fixed gain's p_s mu1, past the range
                continue
            bad = float_pass_refuses(protocol, x, y, b)
            for i in np.flatnonzero(bad):
                assert_near_exact(got[i], protocol, x[i], y[i], b)
            refused += int(bad.sum())
        assert refused > 3000


def noisy_and_noiseless(cfg):
    return build_budget(cfg), build_budget(replace(cfg, n0=0.0))


def exp_gains(seed, n=1000):
    return np.random.default_rng(seed).exponential(1.0, (2, n))


class TestAsymptoticSndr:
    """The distortion-limited SNDR (n0 -> 0 at fixed clip ratios) is sndr on a zero-noise budget."""

    def test_vg_deterministic(self):
        # a relay gain that tracks h1 cancels it: every draw sits on threshold("vg")
        x, y = exp_gains(77)
        for clip_s, clip_r in CLIPS:
            b, b0 = noisy_and_noiseless(NetworkConfig(clip_ratio_s=clip_s, clip_ratio_r=clip_r))
            th = threshold("vg", b)
            assert threshold("vg", b0) == th
            np.testing.assert_allclose(sndr("vg", x, y, b0), th, rtol=1e-15, atol=0.0)

    def test_vg_reference_value(self):
        assert sndr("vg", 1.0, 1.0, build_budget(replace(FIG2_CFG, n0=0.0))) == pytest.approx(
            1844.246194, rel=1e-8, abs=0.0
        )
        assert sndr("vg", 1.0, 1.0, build_budget(replace(FIG3_CFG, n0=0.0))) == pytest.approx(
            1907.188685, rel=1e-8, abs=0.0
        )

    def test_fg_does_not_depend_on_h2(self):
        x, y = exp_gains(78)
        for clip_s, clip_r in CLIPS:
            _, b0 = noisy_and_noiseless(NetworkConfig(clip_ratio_s=clip_s, clip_ratio_r=clip_r))
            lam = sndr("fg", x, 1.0, b0)
            for h2 in (y, 1e-3, 1e3):
                np.testing.assert_allclose(sndr("fg", x, h2, b0), lam, rtol=1e-15, atol=0.0)

    def test_fg_source_only_clipping_h1_independent(self):
        cfg = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=math.inf)
        b, b0 = noisy_and_noiseless(cfg)
        t_s, _, e_s, _ = _scaled_powers(b)
        ref = t_s / e_s
        for h in (0.1, 1.0, 10.0):
            assert sndr("fg", h, 1.0, b0) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_fg_floor_is_its_cdf(self):
        # the floor at gamma is P(limit <= gamma) over h1 ~ Exp(mu1), h2 aside; with a
        # linear relay the limit is one value, and the floor a step there
        n = 200_000
        for clip_s, clip_r in CLIPS:
            b, b0 = noisy_and_noiseless(NetworkConfig(clip_ratio_s=clip_s, clip_ratio_r=clip_r))
            lam = sndr("fg", np.random.default_rng(79).exponential(b.config.mu1, n), 1.0, b0)
            for gamma in np.outer(np.quantile(lam, (0.1, 0.5, 0.9)), (0.999, 1.001)).flat:
                p_floor = outage_floor("fg", float(gamma), b)
                sigma = math.sqrt(p_floor * (1.0 - p_floor) / n)
                assert abs(np.mean(lam <= gamma) - p_floor) <= 4.0 * sigma

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    def test_linear_network_is_infinite(self, protocol):
        # no noise and no distortion: every gain > 0 gets through perfectly
        _, b0 = noisy_and_noiseless(NetworkConfig())
        x, y = exp_gains(81, 20)
        assert threshold(protocol, b0) == math.inf
        assert np.all(sndr(protocol, x, y, b0) == math.inf)

    def test_subnormal_gains_keep_the_limit(self):
        # a gain so small that den's products underflow is redone at a power-of-two
        # scale: the zero-noise SNDR is the one at gains 1, not inf
        _, b0 = noisy_and_noiseless(FIG2_CFG)
        for protocol, x, y in (("vg", 5e-324, 1.0), ("vg", 2.0**-600, 2.0**-600), ("fg", 1.0, 5e-324)):
            assert sndr(protocol, x, y, b0) == sndr(protocol, 1.0, 1.0, b0)
            assert sndr(protocol, x, y, b0) == pytest.approx(1844.246194, rel=1e-8, abs=0.0)
        th = threshold("vg", b0)
        lam = sndr("vg", np.array([0.0, 5e-324, 1e-200, 1.0]), 1.0, b0)
        np.testing.assert_allclose(lam, [0.0, th, th, th], rtol=1e-15, atol=0.0)

    def test_subnormal_denominator_keeps_the_limit(self):
        # den subnormal but not 0 has lost bits to underflow: it is redone at scale too
        _, b0 = noisy_and_noiseless(FIG2_CFG)
        th = threshold("vg", b0)
        np.testing.assert_allclose(sndr("vg", [1e-310, 1e-320], 1.0, b0), th, rtol=1e-15, atol=0.0)
        # so the Monte Carlo at a subnormal mean gain counts as the closed form does
        b = build_budget(replace(FIG2_CFG, n0=0.0, mu1=1e-310, p_s=1000.0))
        th = threshold("vg", b)
        for gamma, p in ((th * (1.0 - 1e-9), 0.0), (th * (1.0 + 1e-12), 1.0)):
            assert exact_outage("vg", gamma, b) == p
            (stats,) = mc_outage_sweep("vg", [gamma], b, 200_000, Rng(1))
            assert stats.p_hat == p

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    def test_linear_network_is_infinite_at_tiny_gains(self, protocol):
        # x y underflows to 0, but both gains pass: still no noise and no distortion
        _, b0 = noisy_and_noiseless(NetworkConfig())
        assert sndr(protocol, 1e-200, 1e-200, b0) == math.inf
        assert sndr(protocol, 5e-324, 5e-324, b0) == math.inf
        np.testing.assert_array_equal(sndr(protocol, [0.0, 1e-200], [1e-200, 0.0], b0), [0.0, 0.0])


def parabola_at(t, n0s, values):
    """The quadratic through (n0s[i], values[i]), i < 3, evaluated at t."""
    (a, b, c), (va, vb, vc) = n0s, values
    return (va * (t - b) * (t - c) / ((a - b) * (a - c))
            + vb * (t - a) * (t - c) / ((b - a) * (b - c))
            + vc * (t - a) * (t - b) / ((c - a) * (c - b)))


def inverse_sndr(protocol, x, y, cfg, n0s):
    return [1.0 / sndr(protocol, x, y, build_budget(replace(cfg, n0=n0))) for n0 in n0s]


class TestNormalizedSndr:
    """At fixed gains 1/sndr is a quadratic in n0, so in eps_star = n0/eta_max: that
    is the whole of the eps_star-normalized SNDR."""

    def test_reconstruction_identity(self):
        # the parabola through three noise powers predicts a fourth
        x, y = exp_gains(17, 200)
        for (clip_s, clip_r), protocol in itertools.product(CLIPS, ("fg", "vg")):
            cfg = NetworkConfig(clip_ratio_s=clip_s, clip_ratio_r=clip_r)
            inv = inverse_sndr(protocol, x, y, cfg, (0.0, 1.0, 3.0, 10.0))
            np.testing.assert_allclose(parabola_at(10.0, (0.0, 1.0, 3.0), inv[:3]), inv[3],
                                       rtol=1e-10, atol=0.0)
            # and the n0^2 term matters: the line through the first two misses
            assert np.min(np.abs((inv[0] + 10.0 * (inv[1] - inv[0])) / inv[3] - 1.0)) > 1e-3

    def test_reconstruction_other_configs(self):
        x, y = exp_gains(18, 200)
        cfg = NetworkConfig(mu1=2.0, mu2=0.5, n0=0.1, p_s=5.0, p_ratio=0.8,
                            clip_ratio_s=2.0, clip_ratio_r=4.0)
        for protocol in ("fg", "vg"):
            inv = inverse_sndr(protocol, x, y, cfg, (0.1, 0.2, 0.4, 0.05))
            np.testing.assert_allclose(parabola_at(0.05, (0.1, 0.2, 0.4), inv[:3]), inv[3],
                                       rtol=1e-10, atol=0.0)

    def test_eps_to_zero_limit(self):
        # the parabola through budgets whose noise still dominates (1/sndr is ~600 times
        # its limit) meets the zero-noise SNDR at n0 = 0, for variable gain the threshold
        x, y = exp_gains(19, 200)
        for protocol in ("fg", "vg"):
            inv = inverse_sndr(protocol, x, y, FIG2_CFG, (1e-3, 2e-3, 3e-3, 0.0))
            np.testing.assert_allclose(parabola_at(0.0, (1e-3, 2e-3, 3e-3), inv[:3]), inv[3],
                                       rtol=1e-10, atol=0.0)
            if protocol == "vg":
                np.testing.assert_allclose(1.0 / inv[3], threshold("vg", build_budget(FIG2_CFG)),
                                           rtol=1e-15, atol=0.0)

    def test_fg_zero_first_hop_gain_has_zero_scale(self):
        # the numerator vanishes with h1 for fixed gain, whose relay gain does not:
        # the SNDR is 0 at every noise power, zero included
        for n0 in (0.0, 1e-3, 1.0):
            b = build_budget(replace(FIG2_CFG, n0=n0))
            assert sndr("fg", 0.0, np.array([1e-3, 1.0, 1e3]), b).tolist() == [0.0] * 3
