"""Critical thresholds, gap, ordinates, and the transition itself."""

import math
from dataclasses import replace

import numpy as np
import pytest

from afrelay.errors import DomainError, RegimeError
from afrelay.epsilon_critical import (
    BELOW_THRESHOLD,
    ordinate,
    report,
    threshold,
    threshold_gap,
)
from afrelay.link_budget import NetworkConfig, build_budget
from afrelay.outage import (exact_outage, outage_asymptotic, outage_floor,
                            outage_vg, small_gamma_expansion)

FIG2_CFG = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0)
FIG3_CFG = NetworkConfig(clip_ratio_s=math.inf, clip_ratio_r=5.0)


def scaled(cfg, p_s):
    return NetworkConfig(
        mu1=cfg.mu1, mu2=cfg.mu2, n0=cfg.n0, p_s=p_s, p_ratio=cfg.p_ratio,
        clip_ratio_s=cfg.clip_ratio_s, clip_ratio_r=cfg.clip_ratio_r,
    )


def at_eps_star(b, eps):
    """The budget of b's network at the noise power where eps_star is eps (it is linear in n0)."""
    return build_budget(replace(b.config, n0=b.config.n0 * (eps / b.eps_star)))


class TestThreshold:
    def test_reference_values(self):
        # frozen pre-build by composing the limiter oracle values
        b2 = build_budget(FIG2_CFG)
        assert threshold("fg", b2) == pytest.approx(1907.188685, rel=1e-8, abs=0.0)
        assert threshold("vg", b2) == pytest.approx(1844.246194, rel=1e-8, abs=0.0)
        assert 10 * math.log10(threshold("fg", b2)) == pytest.approx(32.8039, abs=1e-3)
        assert 10 * math.log10(threshold("vg", b2)) == pytest.approx(32.6582, abs=1e-3)
        b3 = build_budget(FIG3_CFG)
        assert threshold("fg", b3) == math.inf
        assert threshold("vg", b3) == pytest.approx(1907.188685, rel=1e-8, abs=0.0)

    def test_relay_linear_thresholds_coincide(self):
        b = build_budget(NetworkConfig(clip_ratio_s=5.0))
        assert threshold("fg", b) == pytest.approx(threshold("vg", b), rel=1e-12, abs=0.0)

    def test_invariant_to_power_scaling(self):
        for p_s in (1.0, 100.0, 1e7):
            b = build_budget(scaled(FIG2_CFG, p_s))
            assert threshold("vg", b) == pytest.approx(1844.246194, rel=1e-8, abs=0.0)

    def test_vg_below_fg_randomized(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            cfg = NetworkConfig(
                mu1=float(rng.uniform(0.2, 4.0)),
                mu2=float(rng.uniform(0.2, 4.0)),
                p_s=float(rng.uniform(0.1, 50.0)),
                p_ratio=float(rng.uniform(0.2, 5.0)),
                clip_ratio_s=float(rng.uniform(0.5, 12.0)),
                clip_ratio_r=float(rng.uniform(0.5, 12.0)),
            )
            b = build_budget(cfg)
            assert threshold("vg", b) <= threshold("fg", b) + 1e-9


class TestGap:
    def test_equals_threshold_difference(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            cfg = NetworkConfig(
                p_ratio=float(rng.uniform(0.2, 5.0)),
                clip_ratio_s=float(rng.uniform(0.5, 12.0)),
                clip_ratio_r=float(rng.uniform(0.5, 12.0)),
            )
            b = build_budget(cfg)
            diff = threshold("fg", b) - threshold("vg", b)
            assert threshold_gap(b) == pytest.approx(diff, rel=1e-10, abs=0.0)

    def test_reference_value(self):
        assert threshold_gap(build_budget(FIG2_CFG)) == pytest.approx(62.942492, rel=1e-6, abs=0.0)

    def test_zero_when_relay_linear(self):
        assert threshold_gap(build_budget(NetworkConfig(clip_ratio_s=5.0))) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            cfg = NetworkConfig(
                clip_ratio_s=float(rng.uniform(0.5, 15.0)),
                clip_ratio_r=float(rng.uniform(0.5, 15.0)),
            )
            assert threshold_gap(build_budget(cfg)) >= 0.0

    def test_linear_source_rejected(self):
        with pytest.raises(DomainError):
            threshold_gap(build_budget(FIG3_CFG))


class TestOrdinate:
    def test_vg_scaling_law(self):
        # ordinate ~ eps (diversity order 1): log-log slope 1
        b = build_budget(FIG2_CFG)
        eps = np.array([1e-2, 1e-3, 1e-4])
        vals = np.array([ordinate("vg", at_eps_star(b, float(e))) for e in eps])
        slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
        assert 0.98 <= slope <= 1.02

    def test_fg_linear_relay_scaling(self):
        # relay linear: O(eps log(1/eps)), whose local slope is the exact outage's own
        # (0.828 between eps_star 1e-3 and 1e-4)
        b = build_budget(NetworkConfig(clip_ratio_s=5.0))

        def exact(eps):
            b_eq = build_budget(scaled(b.config, b.p_s * b.eps_star / eps))
            return exact_outage("fg", BELOW_THRESHOLD * threshold("fg", b_eq), b_eq)

        def slope(f):
            return (math.log(f(1e-3)) - math.log(f(1e-4))) / (math.log(1e-3) - math.log(1e-4))

        assert slope(lambda e: ordinate("fg", at_eps_star(b, e))) == pytest.approx(slope(exact), abs=0.01)

    def test_fg_finite_relay_eps_flattens(self):
        # relay-dominant distortion: the mu2/eps_R term is eps-free
        b = build_budget(NetworkConfig(clip_ratio_s=8.0, clip_ratio_r=5.0))
        vals = [ordinate("fg", at_eps_star(b, e)) for e in (1e-2, 1e-3, 1e-4)]
        assert max(vals) / min(vals) < 1.2

    def test_out_of_regime(self):
        b = build_budget(FIG2_CFG)
        with pytest.raises(Exception):
            ordinate("vg", at_eps_star(b, 1e3))
        # a noise power past the float range leaves the series' region; it is no sure 1
        for protocol in ("vg", "fg"):
            with pytest.raises(RegimeError):
                ordinate(protocol, at_eps_star(b, 1.7e308))

    @pytest.mark.parametrize("proto,cfg", [("fg", FIG2_CFG), ("vg", FIG2_CFG), ("vg", FIG3_CFG),
                                           ("fg", NetworkConfig(clip_ratio_s=5.0)),
                                           ("fg", NetworkConfig(clip_ratio_s=8.0, clip_ratio_r=5.0))],
                             ids=["fig2-fg", "fig2-vg", "relay-only-vg", "source-only-fg",
                                  "relay-dominant-fg"])
    def test_zero_noise_is_the_floor(self, proto, cfg):
        # at n0 = 0 the series has no first-order term: it is the floor, bit for bit
        b = build_budget(replace(cfg, n0=0.0))
        gamma = BELOW_THRESHOLD * threshold(proto, b)
        o = ordinate(proto, b)
        assert o == exact_outage(proto, gamma, b) == outage_floor(proto, gamma, b)
        rep = report(b, include_exact_outage=True)[proto]
        assert o == rep.ordinate == rep.exact_outage_below

    def test_fg_requires_source_distortion(self):
        with pytest.raises(DomainError):
            ordinate("fg", build_budget(FIG3_CFG))


class TestOrdinateMatchesExact:
    """The ordinate is the exact outage at BELOW_THRESHOLD x threshold, to first order."""

    CASES = [
        ("fig2", "vg", FIG2_CFG),
        ("fig2", "fg", FIG2_CFG),
        ("relay-only", "vg", FIG3_CFG),
        ("source-only", "fg", NetworkConfig(clip_ratio_s=5.0)),
    ]

    @pytest.mark.parametrize("snr_db", [90, 120, 150, 200])
    @pytest.mark.parametrize("name,proto,cfg", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
    def test_within_one_percent(self, name, proto, cfg, snr_db):
        b = build_budget(scaled(cfg, 10.0 ** (snr_db / 10.0)))
        exact = exact_outage(proto, BELOW_THRESHOLD * threshold(proto, b), b)
        assert ordinate(proto, b) == pytest.approx(exact, rel=1e-2, abs=0.0)

    @pytest.mark.parametrize("snr_db", [40, 70, 90, 150, 200])
    def test_is_a_probability(self, snr_db):
        for cfg in (
            FIG2_CFG,
            FIG3_CFG,
            NetworkConfig(clip_ratio_s=5.0),
            NetworkConfig(clip_ratio_s=8.0, clip_ratio_r=5.0),
        ):
            b = build_budget(scaled(cfg, 10.0 ** (snr_db / 10.0)))
            for proto in ("vg", "fg"):
                try:
                    o = ordinate(proto, b)
                except (DomainError, RegimeError):
                    continue
                assert 0.0 <= o <= 1.0, (cfg, proto, o)

    @pytest.mark.parametrize("proto,cfg", [("fg", NetworkConfig(clip_ratio_s=5.0)),
                                           ("fg", FIG2_CFG), ("vg", FIG2_CFG)],
                             ids=["source-only-fg", "fig2-fg", "fig2-vg"])
    def test_reads_n0_only_through_the_snr(self, proto, cfg):
        # the expansion sees n0 only through n0/p_s: at 80 dB SNR and gamma = 1 all three
        # n0 give one value, the exact outage to first order (1.93e-7 for source-only fg)
        values = []
        for n0 in (1e-3, 1.0, 1e3):
            c = NetworkConfig(n0=n0, p_s=n0 * 1e8, clip_ratio_s=cfg.clip_ratio_s,
                              clip_ratio_r=cfg.clip_ratio_r)
            b = build_budget(c)
            values.append((outage_asymptotic(proto, 1.0, [c.p_s], c)[0].p_outage,
                           ordinate(proto, b), exact_outage(proto, 1.0, b)))
        for v in values[1:]:
            assert v == pytest.approx(values[0], rel=1e-12, abs=0.0)
        assert values[0][0] == pytest.approx(values[0][2], rel=1e-6, abs=0.0)

    def test_report_compares_at_the_same_point(self):
        rep = report(build_budget(scaled(FIG2_CFG, 1e12)), include_exact_outage=True)
        for proto in ("vg", "fg"):
            assert rep[proto].ordinate == pytest.approx(rep[proto].exact_outage_below, rel=1e-2, abs=0.0)


class TestReport:
    def test_linear_network_flags(self):
        rep = report(build_budget(NetworkConfig()))
        assert rep["fg"].no_phase_transition and rep["vg"].no_phase_transition
        assert rep["fg"].gamma_crit == math.inf
        assert rep["fg"].ordinate is None

    def test_clipped_network(self):
        rep = report(build_budget(scaled(FIG2_CFG, 1e7)))
        assert rep["fg"].gamma_crit == pytest.approx(1907.188685, rel=1e-8, abs=0.0)
        assert rep["vg"].gamma_crit == pytest.approx(1844.246194, rel=1e-8, abs=0.0)
        assert rep["vg"].ordinate is not None and rep["vg"].ordinate > 0.0
        assert rep["fg"].threshold_gap == pytest.approx(62.942492, rel=1e-6, abs=0.0)

    def test_relay_only_clipping(self):
        rep = report(build_budget(scaled(FIG3_CFG, 1e6)))
        assert rep["fg"].no_phase_transition
        assert not rep["vg"].no_phase_transition
        assert rep["fg"].threshold_gap is None

    def test_exact_outage_attachment(self):
        rep = report(build_budget(scaled(FIG2_CFG, 1e7)), include_exact_outage=True)
        assert 0.0 < rep["vg"].exact_outage_below < 1.0


class TestPhaseTransition:
    """The transition on both sides of the variable-gain threshold.

    Above the threshold outage is identically 1 at every noise level. Below,
    the outage falls toward the small-gamma line's scale as eps_star shrinks
    (at 40 dB eps_star ~ 0.19 and the drop has not yet formed, which is the
    expected picture).
    """

    @pytest.mark.parametrize("snr_db", [40, 60, 80])
    def test_above_threshold_sure_outage(self, snr_db):
        b = build_budget(scaled(FIG2_CFG, 10.0 ** (snr_db / 10.0)))
        assert outage_vg(threshold("vg", b) * 1.05, b).p_outage == 1.0

    @pytest.mark.parametrize("snr_db", [60, 80])
    def test_below_threshold_drops_to_line_scale(self, snr_db):
        b = build_budget(scaled(FIG2_CFG, 10.0 ** (snr_db / 10.0)))
        th = threshold("vg", b)
        below = outage_vg(th * 0.95, b).p_outage
        line = small_gamma_expansion("vg", th * 0.95, b)
        # the 0.95 offset costs a factor ~(1-d)/d ~ 19 against the line
        assert below <= 25.0 * line
        assert below < 0.1

    def test_below_value_shrinks_with_snr(self):
        th = threshold("vg", build_budget(FIG2_CFG))
        vals = []
        for snr_db in (40, 60, 80):
            b = build_budget(scaled(FIG2_CFG, 10.0 ** (snr_db / 10.0)))
            vals.append(outage_vg(th * 0.95, b).p_outage)
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3
