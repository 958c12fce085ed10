"""Property tests of the analytic outage over random networks.

Outage is a probability, it grows with the threshold, it is 1 past the
critical threshold, the closed-form variable-gain outage agrees with its
quadrature route, and the small-gamma expansion only returns probabilities
and never falls as the threshold grows. Fixed and variable gain share one
relay gain rule, so their gains and floors agree bit for bit where the rule
says they must, and the zero-noise variable-gain SNDR is its threshold. The
floor is the exact outage at zero noise power, bit for bit, and the exact
outage tends to it as the noise vanishes.
Examples are derandomized so a tier-1 run is reproducible.
"""

import math
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from afrelay.errors import RegimeError
from afrelay.link_budget import NetworkConfig, build_budget, gain_fg, gain_vg, sndr
from afrelay.outage import (
    exact_outage,
    outage_fg_floor,
    outage_floor,
    outage_vg,
    outage_vg_quadrature,
    small_gamma_expansion,
    threshold,
)

# both protocols are closed forms; neighbouring values may step down by
# rounding only (at most 1.1e-16 seen over 3 000 networks x 40 thresholds)
MONOTONE_SLACK = 1e-15


def network(clip_s, clip_r, snr_db, mu1, mu2):
    return build_budget(NetworkConfig(p_s=10.0 ** (snr_db / 10.0), mu1=mu1, mu2=mu2,
                                      clip_ratio_s=clip_s, clip_ratio_r=clip_r))


clip_ratios = st.one_of(st.just(math.inf), st.floats(1.5, 12.0))
budgets = st.builds(network, clip_ratios, clip_ratios, st.floats(0.0, 90.0),
                    st.floats(0.3, 3.0), st.floats(0.3, 3.0))
protocols = st.sampled_from(["vg", "fg"])
# thresholds in dB, spanning the distortion-limited cliff (~20-45 dB here)
gamma_dbs = st.floats(-20.0, 60.0)


def settled(max_examples):
    return settings(max_examples=max_examples, deadline=None, derandomize=True, database=None)


@settled(150)
@given(budget=budgets, protocol=protocols, g1=gamma_dbs, g2=gamma_dbs)
def test_outage_is_a_monotone_probability(budget, protocol, g1, g2):
    lo, hi = sorted((10.0 ** (g1 / 10.0), 10.0 ** (g2 / 10.0)))
    p_lo = exact_outage(protocol, lo, budget)
    p_hi = exact_outage(protocol, hi, budget)
    assert 0.0 <= p_lo <= 1.0 and 0.0 <= p_hi <= 1.0
    assert p_lo <= p_hi + MONOTONE_SLACK


@settled(150)
@given(budget=budgets, protocol=protocols, factor=st.floats(1.0 + 1e-9, 1e3))
def test_outage_is_one_past_threshold(budget, protocol, factor):
    th = threshold(protocol, budget)
    if th == math.inf:
        return
    assert exact_outage(protocol, factor * th, budget) == 1.0


@settled(100)
@given(budget=budgets, g_db=gamma_dbs)
def test_vg_closed_form_matches_quadrature(budget, g_db):
    gamma = 10.0 ** (g_db / 10.0)
    p_cf = outage_vg(gamma, budget).p_outage
    p_q = outage_vg_quadrature(gamma, budget, tol=1e-9).p_outage
    assert abs(p_q - p_cf) < 1e-6


@settled(300)
@given(budget=budgets, protocol=protocols, g_db=st.floats(-60.0, 60.0))
def test_small_gamma_expansion_returns_probabilities(budget, protocol, g_db):
    try:
        p = small_gamma_expansion(protocol, 10.0 ** (g_db / 10.0), budget)
    except RegimeError:
        return
    assert 0.0 <= p < 1.0


@settled(300)
@given(budget=budgets, protocol=protocols, g1=st.floats(-60.0, 60.0), g2=st.floats(-60.0, 60.0))
def test_fg_small_gamma_expansion_does_not_fall(budget, protocol, g1, g2):
    lo, hi = sorted((10.0 ** (g1 / 10.0), 10.0 ** (g2 / 10.0)))
    try:
        p_lo = small_gamma_expansion(protocol, lo, budget)
        p_hi = small_gamma_expansion(protocol, hi, budget)
    except RegimeError:
        return
    assert p_lo <= p_hi


# clip ratios down to 0.3 and p_s from 1 to 1e15
wide_clip_ratios = st.one_of(st.just(math.inf), st.floats(0.3, 12.0))
gain_rule_budgets = st.builds(network, wide_clip_ratios, wide_clip_ratios, st.floats(0.0, 150.0),
                              st.just(1.0), st.just(1.0))


@settled(300)
@given(budget=gain_rule_budgets, x=st.floats(1e-100, 1e6), y=st.floats(1e-100, 1e6),
       u=st.floats(0.0, 1.0), g_db=st.floats(-60.0, 60.0))
def test_one_relay_gain_rule(budget, x, y, u, g_db):
    b = budget
    assert gain_fg(b) == gain_vg(b, b.config.mu1)
    th_vg = threshold("vg", b)
    # at zero noise a gain that tracks x cancels it: sndr is the threshold to a few
    # ulps (inf for a linear network); gains stay off the underflow range
    lam = sndr("vg", x, y, build_budget(replace(b.config, n0=0.0)))
    assert math.isclose(lam, th_vg, rel_tol=1e-15, abs_tol=0.0)
    gamma = 10.0 ** (g_db / 10.0)
    assert outage_floor("fg", gamma, b) == outage_fg_floor(gamma, b)
    # the vg floor is 0 on 0 <= gamma < threshold("vg"), one float below it included
    top = math.nextafter(th_vg, 0.0)
    for below in (min(u * th_vg, top), top) if th_vg < math.inf else (gamma,):
        assert outage_floor("vg", below, b) == 0.0


@settled(150)
@given(budget=budgets, protocol=protocols, g_db=gamma_dbs)
def test_floor_is_exact_outage_at_zero_noise(budget, protocol, g_db):
    gamma = 10.0 ** (g_db / 10.0)
    noiseless = build_budget(replace(budget.config, n0=0.0))
    assert outage_floor(protocol, gamma, budget) == exact_outage(protocol, gamma, noiseless)


@settled(100)
@given(budget=budgets, protocol=protocols)
def test_outage_is_zero_at_zero_threshold(budget, protocol):
    assert exact_outage(protocol, 0.0, budget) == 0.0
    assert exact_outage(protocol, 0.0, build_budget(replace(budget.config, n0=0.0))) == 0.0


@settled(150)
@given(budget=budgets, protocol=protocols, u=st.floats(0.0, 0.9), g_db=gamma_dbs)
def test_outage_tends_to_floor_as_noise_vanishes(budget, protocol, u, g_db):
    th = threshold(protocol, budget)
    gamma = u * th if th < math.inf else 10.0 ** (g_db / 10.0)
    quiet = build_budget(replace(budget.config, n0=1e-30 * budget.p_s))
    assert abs(exact_outage(protocol, gamma, quiet) - outage_floor(protocol, gamma, budget)) < 1e-12
