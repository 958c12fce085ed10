"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 5 asserts the sharp
two-sided transition and bounds the exact outage at 0.95x the critical
threshold by ten times the leading-order ordinate, the first-order high-power
expansion taken at that same point.
"""

import math
import time
from dataclasses import replace

import numpy as np

from afrelay.bussgang import sel_apply, sel_params
from afrelay.cli import main as cli_main
from afrelay.epsilon_critical import ordinate, threshold
from afrelay.link_budget import NetworkConfig, build_budget
from afrelay.outage import (
    diversity_fit,
    outage_asymptotic,
    outage_fg,
    outage_vg,
    outage_vg_quadrature,
    small_gamma_expansion,
)
from afrelay.simulator import (
    Rng,
    estimator_consistent_outage,
    gen_channel,
    generator,
    mc_outage_sweep,
    measure_sndr,
    model_sndr,
    waveform_outage,
)

FIG2 = dict(clip_ratio_s=5.0, clip_ratio_r=8.0)


def fig2_cfg(snr_db, **kw):
    return NetworkConfig(p_s=10.0 ** (snr_db / 10.0), **FIG2, **kw)


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")


def stratified_clipped_gaussian(n, clip_ratio, key):
    """2^n-sample limiter run with stratified radial sampling.

    Samples are exactly circular-Gaussian distributed (stratified exponential
    radius, uniform phase); stratification just removes most of the estimator
    variance of the heavy-tailed clip events.
    """
    gen = generator(Rng(key, 0))
    p = (np.arange(n) + gen.uniform(0.0, 1.0, n)) / n
    u = -np.log1p(-p)
    x = np.sqrt(u) * np.exp(2j * np.pi * gen.uniform(0.0, 1.0, n))
    return x, sel_apply(x, clip_ratio)


def test_acceptance_1_bussgang_coefficients():
    t0 = time.time()
    n = 1 << 20
    results = []
    for r in (1.0, 3.0, 5.0, 8.0):
        ref = sel_params(1.0, r)
        x, y = stratified_clipped_gaussian(n, r, key=811)
        zeta_hat = float(np.vdot(x, y).real / np.vdot(x, x).real)
        eta_hat = float(np.mean(np.abs(y - zeta_hat * x) ** 2))
        results.append((r, abs(zeta_hat - ref.zeta), abs(eta_hat - ref.eta) / ref.eta))
    elapsed = time.time() - t0
    ok = all(dz <= 1e-3 and de <= 0.05 for _, dz, de in results)
    detail = "; ".join(f"r={r:g}: dzeta={dz:.1e} deta={de:.1%}" for r, dz, de in results)
    report(1, "bussgang coefficients", ok, f"[{detail}] {elapsed:.1f}s")
    assert elapsed < 10.0
    for r, dz, de in results:
        assert dz <= 1e-3, f"r={r}"
        assert de <= 0.05, f"r={r}"


def test_acceptance_2_vg_closed_form_vs_oracle():
    t0 = time.time()
    grid = {
        30.0: [0.0, 10.0, 20.0, 30.0, 33.0, 36.0],
        50.0: [5.0, 15.0, 25.0, 31.0, 33.0, 40.0],
        70.0: [0.0, 10.0, 20.0, 28.0, 31.0, 32.0, 33.0, 35.0],
    }
    n = 1_000_000
    worst = 0.0
    count = 0
    stream = 0
    for snr_db, gamma_dbs in grid.items():
        budget = build_budget(fig2_cfg(snr_db))
        for g_db in gamma_dbs:
            gamma = 10.0 ** (g_db / 10.0)
            p_cf = outage_vg(gamma, budget).p_outage
            stream += 1
            s = mc_outage_sweep("vg", [gamma], budget, n, Rng(820, stream))[0]
            sigma = math.sqrt(p_cf * (1.0 - p_cf) / n)
            dev = abs(s.p_hat - p_cf)
            worst = max(worst, dev / sigma if sigma > 0 else (0.0 if dev == 0.0 else math.inf))
            count += 1
            assert dev <= 3.0 * sigma, f"snr={snr_db} gamma_db={g_db}: {dev:.2e} > 3*{sigma:.2e}"
    assert count == 20
    # quadrature route agrees with the closed form to 1e-6 absolute
    budget = build_budget(fig2_cfg(50.0))
    worst_q = 0.0
    for g_db in np.linspace(0.0, 36.0, 10):
        gamma = 10.0 ** (g_db / 10.0)
        p_cf = outage_vg(gamma, budget).p_outage
        p_q = outage_vg_quadrature(gamma, budget, tol=1e-9).p_outage
        worst_q = max(worst_q, abs(p_q - p_cf))
        assert abs(p_q - p_cf) <= 1e-6
    elapsed = time.time() - t0
    report(2, "vg closed form vs oracle", True,
           f"[20 MC points worst {worst:.2f} sigma; quad worst {worst_q:.1e}] {elapsed:.0f}s")
    assert elapsed < 120.0


def test_acceptance_3_waveform_model_fidelity():
    t0 = time.time()
    # per-subcarrier SNDR at n=512, l=32 within 10% for both protocols
    cfg = fig2_cfg(25.0, n_subcarriers=512, n_taps=32)
    budget = build_budget(cfg)
    worst = {}
    for proto in ("fg", "vg"):
        ch = gen_channel(32, 512, cfg.mu1, cfg.mu2, rng=Rng(831, 1))
        lam_hat = measure_sndr(ch, budget, proto, 12000, Rng(831, 2))
        dev = np.abs(lam_hat / model_sndr(ch, budget, proto) - 1.0)
        worst[proto] = float(np.max(dev))
        assert worst[proto] <= 0.10, f"{proto}: worst per-subcarrier deviation {worst[proto]:.3f}"

    # full-waveform outage at three thresholds vs the analytic curves,
    # within 3 draw-level sigma at 1e4 channel draws
    cfg20 = fig2_cfg(20.0, n_subcarriers=512, n_taps=32)
    b20 = build_budget(cfg20)
    gammas = [2.293, 8.989, 24.625]  # analytic vg outage ~ 0.05 / 0.2 / 0.5
    n_draws, blocks = 10_000, 96
    wf_detail = []
    joint = waveform_outage(("vg", "fg"), gammas, b20, n_draws, blocks, Rng(832, 1))
    for (proto, exact), stats in zip((("vg", outage_vg), ("fg", outage_fg)), joint):
        for g, s in zip(gammas, stats):
            pred = estimator_consistent_outage(lambda x: exact(x, b20).p_outage, g, blocks)
            sigma = (s.ci_high - s.ci_low) / (2.0 * 1.959963984540054)
            dev = abs(s.p_hat - pred)
            wf_detail.append(f"{proto}@{g:.3g}: {dev / max(sigma, 1e-12):.1f} sigma")
            assert dev <= 3.0 * sigma, (
                f"{proto} gamma={g}: waveform {s.p_hat:.4f} vs predicted {pred:.4f} "
                f"(3 sigma = {3 * sigma:.4f})"
            )
    elapsed = time.time() - t0
    report(3, "waveform model fidelity", True,
           f"[sndr worst fg={worst['fg']:.3f} vg={worst['vg']:.3f}; "
           f"outage devs {', '.join(wf_detail)}] {elapsed:.0f}s")
    assert elapsed < 900.0


def test_acceptance_4_diversity_orders():
    t0 = time.time()
    grid = 10.0 ** (np.arange(40.0, 80.1, 2.5) / 10.0)
    cases = [
        ("vg with relay clipping", "vg", NetworkConfig(clip_ratio_r=5.0), 1.0, 0.1),
        ("vg without relay clipping", "vg", NetworkConfig(clip_ratio_s=5.0), 1.0, 0.1),
        ("fg with relay clipping", "fg", NetworkConfig(clip_ratio_r=5.0), 0.0, 0.1),
        ("fg source-only clipping", "fg", NetworkConfig(clip_ratio_s=5.0), 1.0, 0.15),
    ]
    details = []
    for name, proto, cfg, target, tol in cases:
        fit = diversity_fit(proto, 1.0, cfg, grid)
        details.append(f"{name}: {fit.slope:+.3f}")
        assert abs(fit.slope - target) <= tol, f"{name}: slope {fit.slope:.3f} vs {target}"
    elapsed = time.time() - t0
    report(4, "diversity orders", True, f"[{'; '.join(details)}] {elapsed:.0f}s")
    assert elapsed < 60.0


def test_acceptance_5_phase_transition():
    t0 = time.time()
    budget = build_budget(fig2_cfg(70.0))
    results = []
    ok_all = True
    for proto, exact in (("vg", outage_vg), ("fg", outage_fg)):
        gc = threshold(proto, budget)
        above = exact(1.05 * gc, budget).p_outage
        below = exact(0.95 * gc, budget).p_outage
        bound = 10.0 * ordinate(proto, budget)
        ok_above = above > 0.99
        ok_below = below < bound
        ok_all = ok_all and ok_above and ok_below
        results.append(
            f"{proto}: above={above:.3f} ({'ok' if ok_above else 'FAIL'}), "
            f"below={below:.3e} vs 10*ord={bound:.3e} ({'ok' if ok_below else 'FAIL'})"
        )
    elapsed = time.time() - t0
    report(5, "phase transition vs ordinate", ok_all, f"[{'; '.join(results)}] {elapsed:.0f}s")
    # The two-sided jump itself is real and sharp:
    for proto, exact in (("vg", outage_vg), ("fg", outage_fg)):
        gc = threshold(proto, budget)
        assert exact(1.05 * gc, budget).p_outage > 0.99
        assert exact(0.95 * gc, budget).p_outage < 0.5
    # Below the threshold the outage is of the ordinate's order:
    for proto, exact in (("vg", outage_vg), ("fg", outage_fg)):
        gc = threshold(proto, budget)
        assert exact(0.95 * gc, budget).p_outage < 10.0 * ordinate(proto, budget), (
            f"{proto}: outage(0.95*gamma_c) is not below 10x the leading-order "
            "ordinate at 70 dB"
        )


def test_acceptance_6_asymptotic_constants():
    t0 = time.time()
    # variable gain: exact/asymptotic ratio within 10% at 80 dB
    gamma = 1.0
    cfg = NetworkConfig(**FIG2)
    p_s = 1e8
    b = build_budget(fig2_cfg(80.0))
    p_exact = outage_vg(gamma, b).p_outage
    p_asym = outage_asymptotic("vg", gamma, [p_s], cfg)[0].p_outage
    ratio_vg = p_exact / p_asym
    assert 0.9 <= ratio_vg <= 1.1

    # fixed gain, source-only clipping: expansion within 10% of the exact outage
    cfg_so = NetworkConfig(clip_ratio_s=5.0)
    b_so = build_budget(NetworkConfig(clip_ratio_s=5.0, p_s=1e8))
    p_ex = outage_fg(gamma, b_so).p_outage
    p_a = outage_asymptotic("fg", gamma, [1e8], cfg_so)[0].p_outage
    ratio_fg = p_ex / p_a
    assert 0.9 <= ratio_fg <= 1.1
    elapsed = time.time() - t0
    report(6, "asymptotic constants", True,
           f"[vg ratio {ratio_vg:.4f}; fg ratio {ratio_fg:.4f}] {elapsed:.0f}s")
    assert elapsed < 60.0


def test_acceptance_7_small_gamma_expansions():
    t0 = time.time()
    b = build_budget(fig2_cfg(30.0))
    z = 1.0 / (
        (b.sel_s.sigma_sq * b.sel_s.zeta**2 * b.config.mu1 / b.config.n0)
        * (b.sel_r.sigma_sq * b.sel_r.zeta**2 * b.config.mu2 / b.config.n0)
    )
    gamma = 1e-6 / z
    r_vg = small_gamma_expansion("vg", gamma, b) / outage_vg(gamma, b).p_outage
    r_fg = small_gamma_expansion("fg", gamma, b) / outage_fg(gamma, b).p_outage
    ok = 0.95 <= r_vg <= 1.05 and 0.9 <= r_fg <= 1.1
    elapsed = time.time() - t0
    report(7, "small-gamma expansions", ok,
           f"[vg ratio {r_vg:.4f}; fg ratio {r_fg:.4f}; gamma={gamma:.3g}] {elapsed:.0f}s")
    assert 0.95 <= r_vg <= 1.05
    assert 0.9 <= r_fg <= 1.1
    assert elapsed < 60.0


def at_eps_star(b, eps):
    """The budget of b's network at the noise power where eps_star is eps (it is linear in n0)."""
    return build_budget(replace(b.config, n0=b.config.n0 * (eps / b.eps_star)))


def test_acceptance_8_ordinate_scaling_laws():
    t0 = time.time()
    eps = np.array([1e-2, 1e-3, 1e-4])
    # variable gain: ordinate ~ eps (diversity order 1), log-log slope 1
    b = build_budget(NetworkConfig(**FIG2))
    vals = np.array([ordinate("vg", at_eps_star(b, float(e))) for e in eps])
    slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
    assert 0.98 <= slope <= 1.02
    # fixed gain with relay-dominant distortion flattens to a constant
    b_fg = build_budget(NetworkConfig(clip_ratio_s=8.0, clip_ratio_r=5.0))
    vals_fg = [ordinate("fg", at_eps_star(b_fg, float(e))) for e in eps]
    spread = max(vals_fg) / min(vals_fg)
    assert spread <= 1.2
    elapsed = time.time() - t0
    report(8, "ordinate scaling laws", True,
           f"[vg slope {slope:.3f}; fg spread {spread:.3f}] {elapsed:.1f}s")
    assert elapsed < 1.0


def test_acceptance_9_determinism(tmp_path):
    t0 = time.time()
    base = [
        "outage-sweep", "--protocol", "vg", "--clip-s", "5", "--clip-r", "8",
        "--snr-db", "50", "--gamma-db", "0:0.5:30", "--trials", "1e4", "--seed", "7",
    ]
    blobs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "3"), ("d", "3")):
        out = tmp_path / f"{tag}.csv"
        assert cli_main(base + ["--workers", workers, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2] == blobs[3]
    elapsed = time.time() - t0
    report(9, "determinism incl. parallel", ok, f"[4 runs byte-identical] {elapsed:.0f}s")
    assert ok
    assert elapsed < 60.0
