"""Waveform-level OFDM simulation vs the per-subcarrier analytic model.

Runs full waveform blocks (IFFT, per-sample limiter, tapped channel applied
per subcarrier, noise, relay gain, limiter, second hop) for one frozen channel
and compares the measured per-subcarrier SNDR with the analytic expression.
Also shows why the fixed-gain model needs enough channel taps: with a flat
channel the relay limiter's input power inherits the first-hop fade, and the
stationary-Gaussian picture behind the model breaks down.

Run: python demos/waveform_validation.py
"""

import numpy as np

from afrelay import (
    NetworkConfig,
    Rng,
    build_budget,
    fg_stationarity_check,
    gen_channel,
    measure_sndr,
    model_sndr,
)


def main():
    n, l = 512, 32
    cfg = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0, p_s=10.0 ** 2.5,
                        n_subcarriers=n, n_taps=l)
    budget = build_budget(cfg)
    ch = gen_channel(l, n, cfg.mu1, cfg.mu2, rng=Rng(7, 0))

    print(f"one frozen {l}-tap channel, {n} subcarriers, 4000 blocks per protocol")
    for proto in ("fg", "vg"):
        lam_hat = measure_sndr(ch, budget, proto, 4000, Rng(7, 1))
        dev = np.abs(lam_hat / model_sndr(ch, budget, proto) - 1.0)
        print(f"  {proto}: per-subcarrier deviation median {np.median(dev):.3f}, "
              f"p95 {np.percentile(dev, 95):.3f}, worst {dev.max():.3f}")

    print()
    print("relay input power spread (coefficient of variation) vs channel taps,")
    print("fixed gain; the flat channel keeps the full first-hop fade:")
    cfg_cv = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0, p_s=100.0, n_subcarriers=256)
    b = build_budget(cfg_cv)
    for taps in (1, 2, 4, 8, 16, 32, 64):
        cv = fg_stationarity_check(taps, b, 300, Rng(8, taps))
        bar = "#" * int(round(cv * 50))
        print(f"  l={taps:3d}: CV = {cv:5.3f} {bar}")


if __name__ == "__main__":
    main()
