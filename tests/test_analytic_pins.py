"""The analytic layer, pinned bit for bit.

Every value below was recorded with repr and is compared with ==, so any
change to the arithmetic (operation order included) of the thresholds, the
expansions, the floors or the exact outage shows up here. None records
that the function raises DomainError or RegimeError for that case. A change
that alters a value on purpose re-records it and says why.
"""

import math

import pytest

from afrelay.epsilon_critical import ordinate, threshold, threshold_gap
from afrelay.errors import DomainError, RegimeError
from afrelay.link_budget import NetworkConfig, build_budget
from afrelay.outage import (
    exact_outage,
    outage_asymptotic,
    outage_fg_floor,
)

inf = math.inf
CLIPS = ((5.0, 8.0), (inf, 5.0), (5.0, inf), (8.0, 5.0))
POWERS_DB = (30.0, 70.0, 150.0)


def _or_none(fn, *args):
    try:
        return fn(*args)
    except (DomainError, RegimeError):
        return None


def _asymptotic(protocol, gamma_th, budget):
    return outage_asymptotic(protocol, gamma_th, [budget.p_s], budget.config)[0].p_outage


def analytic_values(clip_s, clip_r, snr_db):
    """Each pinned quantity of one configuration, keyed by call."""
    p_s = 10.0 ** (snr_db / 10.0)
    b = build_budget(NetworkConfig(p_s=p_s, clip_ratio_s=clip_s, clip_ratio_r=clip_r))
    th = {p: threshold(p, b) for p in ("fg", "vg")}
    low = 0.5 * th["vg"]
    mid = 0.5 * (th["vg"] + th["fg"])
    out = {f"threshold {p}": th[p] for p in th}
    out["threshold_gap"] = _or_none(threshold_gap, b)
    for p in ("fg", "vg"):
        out[f"ordinate {p}"] = _or_none(ordinate, p, b)
        out[f"exact_outage {p} low"] = exact_outage(p, low, b)
        out[f"exact_outage {p} below"] = exact_outage(p, 0.95 * th["vg"], b)
        out[f"outage_asymptotic {p} low"] = _or_none(_asymptotic, p, low, b)
    out["outage_fg_floor low"] = outage_fg_floor(low, b)
    if th["fg"] < inf:
        out["exact_outage fg mid"] = exact_outage("fg", mid, b)
        out["outage_asymptotic fg mid"] = _or_none(_asymptotic, "fg", mid, b)
        out["outage_fg_floor mid"] = outage_fg_floor(mid, b)
        out["outage_fg_floor past"] = outage_fg_floor(2.0 * th["fg"], b)
        out["exact_outage vg past"] = exact_outage("vg", 2.0 * th["fg"], b)
    return out


PINNED = {
    (5.0, 8.0, 30.0): {
        'threshold fg': 1907.188685119584,
        'threshold vg': 1844.246193599655,
        'threshold_gap': 62.94249151992908,
        'ordinate fg': None,
        'exact_outage fg low': 0.9741380710202681,
        'exact_outage fg below': 0.9999999999998906,
        'outage_asymptotic fg low': None,
        'ordinate vg': None,
        'exact_outage vg low': 0.9983597087850016,
        'exact_outage vg below': 1.0,
        'outage_asymptotic vg low': None,
        'outage_fg_floor low': 0.031443418406773595,
        'exact_outage fg mid': 1.0,
        'outage_asymptotic fg mid': None,
        'outage_fg_floor mid': 0.8692056603302086,
        'outage_fg_floor past': 1.0,
        'exact_outage vg past': 1.0,
    },
    (5.0, 8.0, 70.0): {
        'threshold fg': 1907.188685119584,
        'threshold vg': 1844.2461935996548,
        'threshold_gap': 62.94249151992908,
        'ordinate fg': 0.4894021754863524,
        'exact_outage fg low': 0.03308272261601259,
        'exact_outage fg below': 0.3300457050760809,
        'outage_asymptotic fg low': 0.03308284573098587,
        'ordinate vg': 0.007011935535678671,
        'exact_outage vg low': 0.00036956146576055206,
        'exact_outage vg below': 0.007123535983946411,
        'outage_asymptotic vg low': 0.0003690492387199309,
        'outage_fg_floor low': 0.03144341840677358,
        'exact_outage fg mid': 0.877090160493222,
        'outage_asymptotic fg mid': 0.8771224963292201,
        'outage_fg_floor mid': 0.8692056603302053,
        'outage_fg_floor past': 1.0,
        'exact_outage vg past': 1.0,
    },
    (5.0, 8.0, 150.0): {
        'threshold fg': 1907.188685119584,
        'threshold vg': 1844.2461935996548,
        'threshold_gap': 62.94249151992908,
        'ordinate fg': 0.4771460964902635,
        'exact_outage fg low': 0.03144341845503797,
        'exact_outage fg below': 0.31981581970327283,
        'outage_asymptotic fg low': 0.031443418455037966,
        'ordinate vg': 7.011935535678693e-11,
        'exact_outage vg low': 3.6904923873760636e-12,
        'exact_outage vg below': 7.011935541332292e-11,
        'outage_asymptotic vg low': 3.6904923871993095e-12,
        'outage_fg_floor low': 0.03144341840677359,
        'exact_outage fg mid': 0.8692056606833918,
        'outage_asymptotic fg mid': 0.8692056606833917,
        'outage_fg_floor mid': 0.8692056603302065,
        'outage_fg_floor past': 1.0,
        'exact_outage vg past': 1.0,
    },
    (inf, 5.0, 30.0): {
        'threshold fg': inf,
        'threshold vg': 1907.188685119584,
        'threshold_gap': None,
        'ordinate fg': None,
        'exact_outage fg low': 0.9321914281495449,
        'exact_outage fg below': 0.9901112596205647,
        'outage_asymptotic fg low': None,
        'ordinate vg': None,
        'exact_outage vg low': 0.9987067049033189,
        'exact_outage vg below': 1.0,
        'outage_asymptotic vg low': None,
        'outage_fg_floor low': 0.39346934028736663,
    },
    (inf, 5.0, 70.0): {
        'threshold fg': inf,
        'threshold vg': 1907.188685119584,
        'threshold_gap': None,
        'ordinate fg': None,
        'exact_outage fg low': 0.394053958852299,
        'exact_outage fg below': 0.6139222174675777,
        'outage_asymptotic fg low': 0.39405398255448826,
        'ordinate vg': 0.007251117003454451,
        'exact_outage vg low': 0.00038218304389802706,
        'exact_outage vg below': 0.0073695525940846215,
        'outage_asymptotic vg low': 0.0003816377370239169,
        'outage_fg_floor low': 0.3934693402873666,
    },
    (inf, 5.0, 150.0): {
        'threshold fg': inf,
        'threshold vg': 1907.188685119584,
        'threshold_gap': None,
        'ordinate fg': None,
        'exact_outage fg low': 0.39346934030387287,
        'exact_outage fg below': 0.613258976565046,
        'outage_asymptotic fg low': 0.39346934030387287,
        'ordinate vg': 7.251117003454426e-11,
        'exact_outage vg low': 3.816377370427939e-12,
        'exact_outage vg below': 7.251117009491474e-11,
        'outage_asymptotic vg low': 3.816377370239169e-12,
        'outage_fg_floor low': 0.39346934028736663,
    },
    (5.0, inf, 30.0): {
        'threshold fg': 1907.188685119584,
        'threshold vg': 1907.188685119584,
        'threshold_gap': 0.0,
        'ordinate fg': None,
        'exact_outage fg low': 0.9781064279847975,
        'exact_outage fg below': 1.0,
        'outage_asymptotic fg low': None,
        'ordinate vg': None,
        'exact_outage vg low': 0.9987067049033189,
        'exact_outage vg below': 1.0,
        'outage_asymptotic vg low': None,
        'outage_fg_floor low': 0.0,
        'exact_outage fg mid': 1.0,
        'outage_asymptotic fg mid': 1.0,
        'outage_fg_floor mid': 1.0,
        'outage_fg_floor past': 1.0,
        'exact_outage vg past': 1.0,
    },
    (5.0, inf, 70.0): {
        'threshold fg': 1907.188685119584,
        'threshold vg': 1907.188685119584,
        'threshold_gap': 0.0,
        'ordinate fg': 0.023440379951886393,
        'exact_outage fg low': 0.0017954148616065569,
        'exact_outage fg below': 0.023407751050619992,
        'outage_asymptotic fg low': 0.0017955587224010652,
        'ordinate vg': 0.007251117003454429,
        'exact_outage vg low': 0.00038218304389802695,
        'exact_outage vg below': 0.007369552594084599,
        'outage_asymptotic vg low': 0.00038163773702391677,
        'outage_fg_floor low': 0.0,
        'exact_outage fg mid': 1.0,
        'outage_asymptotic fg mid': 1.0,
        'outage_fg_floor mid': 1.0,
        'outage_fg_floor past': 1.0,
        'exact_outage vg past': 1.0,
    },
    (5.0, inf, 150.0): {
        'threshold fg': 1907.188685119584,
        'threshold vg': 1907.188685119584,
        'threshold_gap': 0.0,
        'ordinate fg': 9.022563563072572e-10,
        'exact_outage fg low': 5.3105721791772884e-11,
        'exact_outage fg below': 9.022563562918881e-10,
        'outage_asymptotic fg low': 5.310572179182075e-11,
        'ordinate vg': 7.251117003454432e-11,
        'exact_outage vg low': 3.816377370427938e-12,
        'exact_outage vg below': 7.251117009491481e-11,
        'outage_asymptotic vg low': 3.816377370239168e-12,
        'outage_fg_floor low': 0.0,
        'exact_outage fg mid': 1.0,
        'outage_asymptotic fg mid': 1.0,
        'outage_fg_floor mid': 1.0,
        'outage_fg_floor past': 1.0,
        'exact_outage vg past': 1.0,
    },
    (8.0, 5.0, 30.0): {
        'threshold fg': 55910.87410461772,
        'threshold vg': 1844.2461935996553,
        'threshold_gap': 54066.62791101807,
        'ordinate fg': 1.0,
        'exact_outage fg low': 0.9295846897410495,
        'exact_outage fg below': 0.9900451738989462,
        'outage_asymptotic fg low': None,
        'ordinate vg': None,
        'exact_outage vg low': 0.9983597087850016,
        'exact_outage vg below': 1.0,
        'outage_asymptotic vg low': None,
        'outage_fg_floor low': 0.3883624117072626,
        'exact_outage fg mid': 1.0,
        'outage_asymptotic fg mid': None,
        'outage_fg_floor mid': 0.9999999999999749,
        'outage_fg_floor past': 1.0,
        'exact_outage vg past': 1.0,
    },
    (8.0, 5.0, 70.0): {
        'threshold fg': 55910.87410461772,
        'threshold vg': 1844.2461935996548,
        'threshold_gap': 54066.62791101807,
        'ordinate fg': 1.0,
        'exact_outage fg low': 0.3889430371982804,
        'exact_outage fg below': 0.6132962214281238,
        'outage_asymptotic fg low': 0.3889430603497687,
        'ordinate vg': 0.007011935535678692,
        'exact_outage vg low': 0.0003695614657605521,
        'exact_outage vg below': 0.007123535983946432,
        'outage_asymptotic vg low': 0.00036904923871993096,
        'outage_fg_floor low': 0.3883624117072625,
        'exact_outage fg mid': 0.9999999999999758,
        'outage_asymptotic fg mid': 0.9999999999999758,
        'outage_fg_floor mid': 0.9999999999999749,
        'outage_fg_floor past': 1.0,
        'exact_outage vg past': 1.0,
    },
    (8.0, 5.0, 150.0): {
        'threshold fg': 55910.87410461772,
        'threshold vg': 1844.2461935996548,
        'threshold_gap': 54066.62791101807,
        'ordinate fg': 1.0,
        'exact_outage fg low': 0.38836241172363833,
        'exact_outage fg below': 0.6126329184143096,
        'outage_asymptotic fg low': 0.38836241172363833,
        'ordinate vg': 7.011935535678674e-11,
        'exact_outage vg low': 3.6904923873760636e-12,
        'exact_outage vg below': 7.011935541332272e-11,
        'outage_asymptotic vg low': 3.6904923871993095e-12,
        'outage_fg_floor low': 0.38836241170726254,
        'exact_outage fg mid': 0.9999999999999749,
        'outage_asymptotic fg mid': 0.9999999999999749,
        'outage_fg_floor mid': 0.9999999999999749,
        'outage_fg_floor past': 1.0,
        'exact_outage vg past': 1.0,
    },
}


@pytest.mark.parametrize("snr_db", POWERS_DB)
@pytest.mark.parametrize("clip_s,clip_r", CLIPS)
def test_analytic_values_bit_identical(clip_s, clip_r, snr_db):
    assert analytic_values(clip_s, clip_r, snr_db) == PINNED[(clip_s, clip_r, snr_db)]
