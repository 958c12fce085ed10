"""The distortion-limited phase transition and its critical thresholds.

With both nodes clipping, each protocol's SNDR saturates as the power budget
grows; crossing the saturation value with the protection threshold flips the
network from reliable to surely-outaged. This script prints the thresholds,
their gap, fixed gain's edge at the gap's midpoint (variable gain is in sure
outage there, so the edge is 1 - the fixed-gain exact outage), and walks the
outage across the cliff.

Run: python demos/phase_transition.py
"""

from afrelay import NetworkConfig, build_budget, exact_outage, outage_vg, report
from afrelay.epsilon_critical import BELOW_THRESHOLD


def main():
    for name, cfg in (
        ("source r=5, relay r=8", NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0, p_s=1e7)),
        ("linear source, relay r=5", NetworkConfig(clip_ratio_r=5.0, p_s=1e7)),
        ("linear network", NetworkConfig(p_s=1e7)),
    ):
        print(f"== {name}")
        budget = build_budget(cfg)
        reps = report(budget, include_exact_outage=True)
        for proto in ("fg", "vg"):
            r = reps[proto]
            if r.no_phase_transition:
                print(f"  {proto}: no phase transition (linear path)")
                continue
            print(f"  {proto}: critical threshold {r.gamma_crit:10.1f} ({r.gamma_crit_db:.2f} dB), "
                  f"ordinate {r.ordinate:.3e}, outage at {BELOW_THRESHOLD:.2f}x threshold "
                  f"{r.exact_outage_below:.3e}")
        r = reps["fg"]
        if r.threshold_gap is not None:
            mid = 0.5 * (r.gamma_crit + reps["vg"].gamma_crit)
            print(f"  threshold gap {r.threshold_gap:.2f}; fixed-gain edge at its midpoint "
                  f"1 - P_o,fg = {1.0 - exact_outage('fg', mid, budget):.3f}")
        print()

    cfg = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0, p_s=1e7)
    budget = build_budget(cfg)
    th = report(budget)["vg"].gamma_crit
    print("walking the variable-gain cliff at 70 dB:")
    for f in (0.90, 0.95, 0.99, 1.0, 1.01, 1.05):
        p = outage_vg(f * th, budget).p_outage
        print(f"  gamma = {f:4.2f} x threshold: P_o = {p:.4e}")


if __name__ == "__main__":
    main()
