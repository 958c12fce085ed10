"""CLI contract tests: schemas, exit codes, determinism."""

import argparse
import hashlib
import json
import math
import os
import tracemalloc
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest

from afrelay import cli
from afrelay.bussgang import sel_apply, sel_params
from afrelay.cli import (RunConfig, _build_run_config, _db_to_lin, _parse_grid,
                         _stratified_radius, main)
from afrelay.errors import ConfigError, RegimeError
from afrelay.link_budget import NetworkConfig, build_budget
from afrelay.outage import diversity_fit
from afrelay.simulator import Rng, estimate_bussgang, generator, mc_outage_sweep

SWEEP_ARGS = [
    "outage-sweep", "--protocol", "vg", "--clip-s", "5", "--clip-r", "8",
    "--snr-db", "50", "--gamma-db", "0:0.25:30", "--trials", "1e4", "--seed", "7",
]
FIG2 = ["--clip-s", "5", "--clip-r", "8"]


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestOutageSweep:
    def test_csv_schema_and_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0].startswith("# threshold_db=")
        assert lines[1] == ("gamma_th_db,po_analytic,po_floor,po_small_gamma,"
                            "po_mc,ci_low,ci_high,n_trials,seed")
        assert len(lines) == 2 + 121  # metadata + header + rows
        for ln in lines[2:]:
            parts = ln.split(",")
            assert len(parts) == 9
            po = float(parts[1])
            assert 0.0 <= po <= 1.0
            p_mc, lo, hi = float(parts[4]), float(parts[5]), float(parts[6])
            assert lo <= p_mc <= hi

    @pytest.mark.parametrize("argv", [
        ["--protocol", "fg", "--mu2", "1e307", "--trials", "1e5"],
        ["--protocol", "vg", "--mu1", "1e160", "--mu2", "1e160", "--trials", "1e4"],
    ], ids=["fg-mu2-1e307", "vg-mu-1e160"])
    def test_huge_mean_gains_count_every_trial(self, tmp_path, argv):
        # num and den of the SNDR overflowed at such gains: NaN SNDRs were never counted
        # as outages (fg's po_mc at 20 dB read 0.038 against 0.095), with numpy warnings
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["outage-sweep", *argv, "--gamma-db", "0:10:20", "--out", str(out)]) == 0
        for ln in read_lines(out)[2:]:
            parts = ln.split(",")
            po, lo, hi = float(parts[1]), float(parts[5]), float(parts[6])
            assert lo <= po <= hi

    def test_fg_huge_first_hop_gains_count_every_outage(self, tmp_path):
        # eta_S x overflowed for 16 287 of the 1e5 first-hop draws: those SNDRs were inf,
        # never counted, and po_mc read 0.83302 where the closed form gives 1
        out = tmp_path / "sweep.csv"
        assert main(["outage-sweep", "--protocol", "fg", "--mu1", "1e298", "--snr-db", "100",
                     *FIG2, "--gamma-db", "33:1:35", "--trials", "1e5", "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in read_lines(out)[2:]]
        assert [(r[1], r[4]) for r in rows] == [("1", "1")] * 3

    def test_fg_gain_rule_overflow_exits_2(self, capsys):
        # p_s * mu1 = 1e310: fixed gain has no finite gain rule. It exited 2 naming an
        # internal kernel (one_minus_x_k1 got a NaN); variable gain keeps its table
        args = ["--mu1", "1e300", "--snr-db", "100", "--trials", "20000", "--gamma-db", "0:10:10"]
        assert main(["outage-sweep", "--protocol", "fg", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "p_s * mu1" in captured.err
        assert main(["outage-sweep", "--protocol", "vg", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
            "7a000c1f59fe5463ca0a45c5eff07ce96d2ffc1376ae883639215afdfbfa52a8")

    def test_golden_file(self, tmp_path):
        # Frozen after the first oracle-validated run (all 121 rows had the
        # analytic value inside the MC interval, worst deviation 1.85 sigma).
        import hashlib

        out = tmp_path / "golden.csv"
        args = SWEEP_ARGS.copy()
        args[args.index("--trials") + 1] = "1e5"
        assert main(args + ["--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "6d7983353b464a69c300ba5cfd2cbf78e057f39bc861198e986d446e1cd5cd91"

    def test_deterministic_including_parallel(self, tmp_path):
        outs = []
        for tag, workers in (("a", "1"), ("b", "3"), ("c", "3")):
            out = tmp_path / f"{tag}.csv"
            args = SWEEP_ARGS + ["--gamma-db", "0:1:30", "--out", str(out), "--workers", workers]
            assert main(args) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_pool_is_capped_at_the_core_count(self, monkeypatch, tmp_path):
        # a recorder stands in for the pool and maps in process: nothing is forked
        sizes = []

        class RecordingPool:
            map = staticmethod(map)

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(cli, "Pool", RecordingPool)
        outs = []
        for workers in ("1", "4096"):
            out = tmp_path / f"w{workers}.csv"
            args = SWEEP_ARGS + ["--gamma-db", "0:5:30", "--workers", workers, "--out", str(out)]
            assert main(args) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(sizes) == 1 and 1 <= sizes[0] <= (os.cpu_count() or 1)

    def test_trials_zero_empty_mc_columns(self, tmp_path):
        out = tmp_path / "nomc.csv"
        args = SWEEP_ARGS.copy()
        args[args.index("--trials") + 1] = "0"
        assert main(args + ["--out", str(out)]) == 0
        row = read_lines(out)[2].split(",")
        assert row[4] == "" and row[5] == "" and row[6] == "" and row[7] == ""

    def test_gamma_above_threshold_all_one(self, tmp_path):
        out = tmp_path / "hi.csv"
        args = [
            "outage-sweep", "--protocol", "vg", "--clip-s", "5", "--clip-r", "8",
            "--snr-db", "70", "--gamma-db", "34:0.5:40", "--trials", "0",
            "--seed", "1", "--out", str(out),
        ]
        assert main(args) == 0
        for ln in read_lines(out)[2:]:
            assert float(ln.split(",")[1]) == 1.0

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        args = SWEEP_ARGS + ["--gamma-db", "0:5:30", "--format", "json", "--out", str(out)]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["protocol"] == "vg"
        assert len(payload["rows"]) == 7
        assert payload["rows"][0]["gamma_th_db"] == 0.0

    def test_mc_column_monotone(self, tmp_path):
        # shared draws across the grid make the MC estimate monotone
        out = tmp_path / "mono.csv"
        assert main(SWEEP_ARGS + ["--gamma-db", "0:1:30", "--out", str(out)]) == 0
        mc = [float(ln.split(",")[4]) for ln in read_lines(out)[2:]]
        assert mc == sorted(mc)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_mc_columns_are_the_library_sweep(self, tmp_path, workers):
        # the CLI runs the simulator's engine on the same streams, pooled or not
        out = tmp_path / "lib.json"
        args = SWEEP_ARGS + ["--gamma-db", "0:5:30", "--trials", "7e4", "--format", "json",
                             "--workers", workers, "--out", str(out)]
        assert main(args) == 0
        rows = json.loads(out.read_text())["rows"]
        gammas = 10.0 ** (np.array([r["gamma_th_db"] for r in rows]) / 10.0)
        cfg = NetworkConfig(p_s=1e5, clip_ratio_s=5.0, clip_ratio_r=8.0)
        stats = mc_outage_sweep("vg", gammas, build_budget(cfg), 70_000, Rng(7))
        assert [(r["po_mc"], r["ci_low"], r["ci_high"], r["n_trials"]) for r in rows] == [
            (s.p_hat, s.ci_low, s.ci_high, s.n_trials) for s in stats]


    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    @pytest.mark.parametrize("argv", [["--clip-s", "5", "--snr-db", "1600"], ["--snr-db", "2000"]],
                             ids=["clipped-1600dB", "linear-2000dB"])
    def test_small_gamma_at_extreme_power_is_first_order(self, tmp_path, protocol, argv):
        # the series is built from n0/p_s, so nothing under- or overflows at these powers
        out = tmp_path / "hi.csv"
        assert main(["outage-sweep", "--protocol", protocol, *argv, "--gamma-db", "30",
                     "--trials", "0", "--out", str(out)]) == 0
        row = read_lines(out)[2].split(",")
        exact, small = float(row[1]), float(row[3])
        if "--clip-s" in argv:
            # first order in gamma takes a(gamma) at gamma = 0; 30 dB is over half the
            # 32.8 dB threshold, so the series stays below the exact outage (factor 0.48)
            assert 0.0 < small < exact
        else:
            # no distortion, so a is gamma-free: the series is the exact outage here
            # (fg: 4.5445483199002394e-195 against 4.54454831990024e-195)
            assert small == pytest.approx(exact, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("protocol, argv, gamma_db", [
        ("vg", ["--clip-s", "5", "--clip-r", "8", "--snr-db", "30"], "28:2:40"),
        ("fg", ["--clip-s", "5", "--snr-db", "200"], "40"),
    ], ids=["vg-term-past-one", "fg-past-threshold"])
    def test_small_gamma_outside_region_leaves_cell_empty(self, tmp_path, protocol, argv, gamma_db):
        # the first-order term read 1.27 ... 20.06 (vg) and 3.8e-15 against an
        # exact 1 (fg) here; every row is outside the expansion's region
        out = tmp_path / "sg.csv"
        assert main(["outage-sweep", "--protocol", protocol, *argv, "--gamma-db", gamma_db,
                     "--trials", "0", "--out", str(out)]) == 0
        rows = read_lines(out)[2:]
        assert rows and all(row.split(",")[3] == "" for row in rows)


    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    def test_zero_noise_sweep_is_scale_invariant(self, tmp_path, protocol):
        # at n0 = 0 nothing depends on p_s: at 3080 dB the Monte Carlo read 0.98077 (vg)
        # at a sure outage, and fixed gain's exact outage 1 where it is 0.858979896818
        outs = []
        for snr_db in ("30", "3080"):
            outs.append(tmp_path / f"{snr_db}.csv")
            assert main(["outage-sweep", "--protocol", protocol, "--n0", "0", "--snr-db", snr_db,
                         "--clip-r", "1", "--gamma-db", "0:5:20", "--trials", "1e5",
                         "--seed", "3", "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestPowerSweep:
    def test_vg_summary_slope(self, tmp_path):
        out = tmp_path / "ps.csv"
        args = [
            "power-sweep", "--protocol", "vg", "--clip-s", "5", "--clip-r", "8",
            "--gamma-db", "0", "--ps-db", "40:2.5:80", "--out", str(out),
        ]
        assert main(args) == 0
        lines = read_lines(out)
        assert lines[0] == "ps_db,po_exact,po_asymptotic,ratio"
        assert lines[-1].startswith("# summary ")
        summary = json.loads(lines[-1][len("# summary "):])
        assert abs(summary["slope"] - 1.0) <= 0.1
        last = lines[-2].split(",")
        assert float(last[3]) == pytest.approx(1.0, abs=0.1)

    def test_fg_relay_clipping_floor(self, tmp_path):
        out = tmp_path / "psfg.csv"
        args = [
            "power-sweep", "--protocol", "fg", "--clip-r", "5",
            "--gamma-db", "0", "--ps-db", "40:2.5:80", "--out", str(out),
        ]
        assert main(args) == 0
        lines = read_lines(out)
        summary = json.loads(lines[-1][len("# summary "):])
        assert abs(summary["slope"]) <= 0.1
        # outage plateaus at the floor
        from afrelay.link_budget import NetworkConfig, build_budget
        from afrelay.outage import outage_fg_floor

        floor = outage_fg_floor(1.0, build_budget(NetworkConfig(clip_ratio_r=5.0)))
        last = lines[-2].split(",")
        assert float(last[1]) == pytest.approx(floor, rel=0.01, abs=0.0)

    def test_fg_relay_dominant_near_threshold(self, tmp_path):
        # the first-order coefficient underflows here; it must not overflow
        out = tmp_path / "ps85.csv"
        args = [
            "power-sweep", "--protocol", "fg", "--clip-s", "8", "--clip-r", "5",
            "--gamma-db", "47.43", "--ps-db", "40:10:80", "--out", str(out),
        ]
        assert main(args) == 0
        lines = read_lines(out)
        for ln in lines[1:-1]:
            assert float(ln.split(",")[2]) == 1.0
        # every point is a sure outage, so the fitted slope is zero, not -0.0
        assert '"slope": 0.0,' in lines[-1]

    @pytest.mark.parametrize("snr_db", ["-4000", "4000"])
    def test_snr_db_is_not_read(self, tmp_path, snr_db):
        # the grid sets p_s; --snr-db 4000 exited 2 with "snr_db is too large"
        base = ["power-sweep", "--protocol", "fg", "--clip-r", "5", "--gamma-db", "0",
                "--ps-db", "40:10:80"]
        assert main(base + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(base + ["--snr-db", snr_db, "--out", str(tmp_path / "b.csv")]) == 0
        assert read_lines(tmp_path / "a.csv") == read_lines(tmp_path / "b.csv")

    def test_narrow_grid_rejected(self, tmp_path):
        args = [
            "power-sweep", "--protocol", "vg", "--gamma-db", "0",
            "--ps-db", "40:5:60", "--out", str(tmp_path / "x.csv"),
        ]
        assert main(args) == 2

    def test_nominal_30_db_grids_accepted(self):
        # S:step:S+30 for S = 20.0 .. 89.9: rounding may leave the linear ratio a few ulps
        # short of 1e3, and the one span rule still takes the grid the command line builds
        cfg = NetworkConfig(clip_ratio_r=5.0)
        for tenths in range(200, 900):
            for step in ("2.5", "5", "10"):
                spec = f"{tenths // 10}.{tenths % 10}:{step}:{tenths // 10 + 30}.{tenths % 10}"
                grid = _db_to_lin(_parse_grid(spec, "ps_db"), "ps_db", spec)
                diversity_fit("vg", 1.0, cfg, grid)


class TestThresholds:
    def test_clipped_config(self, tmp_path):
        out = tmp_path / "th.json"
        args = ["thresholds", "--clip-s", "5", "--clip-r", "8", "--snr-db", "70",
                "--out", str(out)]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert payload["fg"]["gamma_crit_db"] == pytest.approx(32.8039, abs=1e-3)
        assert payload["vg"]["gamma_crit_db"] == pytest.approx(32.6582, abs=1e-3)
        assert payload["vg"]["ordinate"] > 0.0

    def test_relay_only_case(self, tmp_path):
        out = tmp_path / "th3.json"
        args = ["thresholds", "--clip-r", "5", "--snr-db", "60", "--out", str(out)]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert payload["fg"]["no_phase_transition"] is True
        assert payload["fg"]["gamma_crit"] is None  # inf maps to null in JSON
        assert payload["vg"]["gamma_crit_db"] == pytest.approx(32.8039, abs=1e-3)

    def test_linear_config_flags(self, capsys):
        assert main(["thresholds", "--snr-db", "30"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fg"]["no_phase_transition"] is True
        assert payload["vg"]["no_phase_transition"] is True


class TestValidate:
    def test_default_passes(self, capsys):
        args = ["validate", "--protocol", "vg", "--clip-s", "5", "--clip-r", "8",
                "--snr-db", "25", "--trials", "2e4", "--blocks", "400", "--seed", "1"]
        assert main(args) == 0
        assert "validate: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("n, batch", [(64, 256), (512, 256), (1024, 128), (16_384, 8)])
    def test_waveform_batch_shrinks_with_n(self, monkeypatch, capsys, n, batch):
        # at most 2^17 samples a batch, so the waveform check's memory does not grow with n
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["batch"])
            raise RegimeError("stop after the call")

        monkeypatch.setattr(cli, "measure_sndr", spy)
        args = ["validate", "--clip-s", "inf", "--clip-r", "inf", "--n", str(n), "--taps", "1"]
        assert main(args) == 2
        assert seen == [batch]

    def test_flat_channel_fg_informational(self, capsys):
        args = ["validate", "--protocol", "fg", "--clip-s", "0.1", "--clip-r", "5",
                "--snr-db", "25", "--taps", "1", "--n", "128", "--trials", "1e4",
                "--blocks", "200", "--seed", "1"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "informational" in out

    @pytest.mark.parametrize("fail", [False, True], ids=["pass", "fail"])
    def test_out_path_gets_the_report(self, monkeypatch, tmp_path, capsys, fail):
        if fail:  # a closed form the Monte Carlo cannot match
            monkeypatch.setattr(cli, "exact_outage", lambda protocol, gamma, budget: 0.5)
        out = tmp_path / "v.txt"
        args = ["validate", "--protocol", "vg", *FIG2, "--snr-db", "25", "--seed", "2",
                "--blocks", "100", "--trials", "1e4", "--n", "64", "--taps", "16", "--out", str(out)]
        assert main(args) == (1 if fail else 0)
        assert capsys.readouterr().out == ""
        last = read_lines(out)[-1]
        assert last.startswith("validate: FAIL (outage-mc") if fail else last == "validate: PASS"

    SMALL = ["validate", "--snr-db", "100", "--n", "64", "--taps", "16", "--blocks", "100",
             "--trials", "1e4"]

    @pytest.mark.parametrize("flag, inside", [("--mu1", ["1e295", "2.8e296"]),
                                              ("--mu2", ["2.8e294"])])
    def test_waveform_inside_the_float_range_keeps_its_bytes(self, capsys, flag, inside):
        # up to each bound of _check_waveform_range the report is the one at a mean gain
        # of 1e100 (--mu1 1e298 moved its p95 from 0.1977 to 0.2165, with warnings)
        outs = []
        for value in ["1e100", *inside]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([*self.SMALL, flag, value]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].endswith("validate: PASS\n") and outs == [outs[0]] * len(outs)

    @pytest.mark.parametrize("argv, name", [
        (["--mu1", "2.9e296"], "p_s * mu1 * 64"),
        (["--mu1", "1e300"], "p_s * mu1 * 64"),
        (["--mu2", "2.9e294"], "p_ratio * p_s * mu2 * blocks * 64"),
        (["--snr-db", "3070", "--mu1", "0.01", "--mu2", "1e-6"], "blocks * sigma_S^2"),
    ], ids=["mu1-edge", "mu1-1e300", "mu2-edge", "source-power"])
    def test_waveform_past_the_float_range_exits_2(self, capsys, argv, name):
        # --mu1 1e300 printed a relay input power CV of nan and a spurious sndr-model FAIL
        # with p95 1.0000, and --mu2 1e298 overflowed measure_sndr's power sums
        assert main([*self.SMALL, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: validate's waveform sums overflow: {name} = ")


class TestValidateLimiterSampling:
    def test_relay_eta_seed_2_passes(self, capsys):
        # plain Gaussian draws put eta at clip ratio 8 29% high on this seed
        args = ["validate", "--protocol", "vg", "--clip-s", "5", "--clip-r", "8",
                "--snr-db", "25", "--seed", "2", "--blocks", "100", "--trials", "1e4",
                "--n", "64", "--taps", "16"]
        assert main(args) == 0
        assert "validate: PASS" in capsys.readouterr().out

    def test_samples_are_circular_gaussian(self):
        # the magnitudes of CN(0, 1) samples; the phase is not drawn
        n = 1 << 16
        r = _stratified_radius(generator(Rng(3)), n)
        # stratified exponential radius: every tail fraction is exact to 1/n
        for t in (0.5, 2.0, 8.0):
            assert abs(np.mean(r * r > t) - math.exp(-t)) <= 1.0 / n
        assert r.dtype == np.float64 and np.all(r > 0.0)


def radius_and_phase_whole(gen, n):
    """The stratified exponential radius and the uniform phase as two whole-array draws,
    one expression each."""
    radius = np.sqrt(-np.log1p(-(np.arange(n) + gen.uniform(0.0, 1.0, n)) / n))
    return radius, gen.uniform(0.0, 2.0 * np.pi, n)


def circular_gaussian_whole(gen, n):
    """CN(0, 1) samples from radius_and_phase_whole: the limiter check's samples before
    it dropped the phase, and the reference its lines are checked against."""
    radius, phase = radius_and_phase_whole(gen, n)
    x = np.empty(n, dtype=complex)
    np.multiply(radius, np.cos(phase), out=x.real)
    np.multiply(radius, np.sin(phase), out=x.imag)
    return x


class TestLimiterCheckPhaseFree:
    """An envelope limiter's zeta and eta depend on |x| alone: the radial sums print the
    line that estimate_bussgang prints on circular Gaussian samples of the same radius."""

    N = 1 << 20

    @pytest.mark.parametrize("ratio", [0.5, 2.0, 5.0, 8.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_line_as_circular_gaussian(self, seed, ratio):
        p = sel_params(1.0, ratio)
        gen = generator(Rng(seed, 11))
        # a first limiter, then one after a limiter's whole radius and phase draws
        for earlier in (0, 1):
            x = circular_gaussian_whole(gen, self.N)
            zeta_hat, eta_hat, _ = estimate_bussgang(x, sel_apply(x, ratio))
            line, _ = cli._limiter_check(seed, earlier, ratio)
            assert line.startswith(f"zeta {zeta_hat:.6f} vs {p.zeta:.6f}, "
                                   f"eta {eta_hat:.3e} vs {p.eta:.3e} -> ")


class TestLimiterCheckMemory:
    """The limiter check holds its float radius and _CHUNK-sample temporaries."""

    N = 1 << 20

    @pytest.mark.parametrize("n", [1, 7, 65_535, 65_537, 2**17 + 5, 2**20])
    def test_samples_same_bits_as_one_expression(self, n):
        got = _stratified_radius(generator(Rng(5, 11)), n)
        ref, _ = radius_and_phase_whole(generator(Rng(5, 11)), n)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 5, 65_537])
    @pytest.mark.parametrize("drawn", [1, 3, 6], ids=["1-word", "3-words", "6-words-uint32"])
    def test_samples_same_bits_from_any_stream_position(self, n, drawn):
        # from any place in Philox's 4-word block, the samples are whole-array draws'
        got_gen, ref_gen = generator(Rng(5, 11)), generator(Rng(5, 11))
        for gen in (got_gen, ref_gen):
            gen.random(drawn)
            if drawn == 6:  # and with a cached 32-bit half word
                gen.integers(0, 2**32, dtype=np.uint32)
        got = _stratified_radius(got_gen, n)
        ref, _ = radius_and_phase_whole(ref_gen, n)
        assert got.tobytes() == ref.tobytes()

    def test_one_limiter_stage_peak(self):
        # 8n bytes for the float radius and _CHUNK-sample temporaries: under 0.75 x 16n
        tracemalloc.start()
        try:
            line, ok = cli._limiter_check(1, 0, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok, line
        assert peak <= 0.75 * 16 * self.N

    def test_validate_peak(self, capsys):
        # both limiters, the SNDR model and the Monte Carlo at small sizes: the first
        # limiter's samples are freed before the second limiter's are drawn
        args = ["validate", "--protocol", "vg", *FIG2, "--snr-db", "25", "--seed", "2",
                "--blocks", "100", "--trials", "1e4", "--n", "64", "--taps", "16"]
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out.count("-> ok") == 6
        assert peak <= 0.75 * 16 * self.N


class TestPinnedOutput:
    """Every subcommand's stdout, pinned by SHA-256: valid input keeps its bytes."""

    @pytest.mark.parametrize("argv,digest", [
        (["outage-sweep", "--protocol", "vg", *FIG2, "--snr-db", "50", "--gamma-db", "0:5:30",
          "--trials", "1e4", "--seed", "7", "--format", "json"],
         "33d67e82f52a65ae327a037e792bf1ede6dd2ffb4248f69965a9327c369e384e"),
        (["power-sweep", "--protocol", "vg", *FIG2, "--gamma-db", "0", "--ps-db", "40:10:80"],
         "520469efad152e9372a71b38b956ccfda9ef851ee4a90038d732f6628ad00abc"),
        (["power-sweep", "--protocol", "fg", "--clip-r", "5", "--gamma-db", "0",
          "--ps-db", "40:10:80", "--format", "json"],
         "b6b1db7ca5777bf7cc35b39f5cd3364193a02b09d4dba970b96b686b56ce9de3"),
        (["thresholds", *FIG2, "--snr-db", "70"],
         "ee2e052a884264f6627218ca6af3def62bcfcfdde55e335577208e9fe6e50733"),
        # thresholds writes JSON whatever --format says
        (["thresholds", "--snr-db", "30", "--format", "csv"],
         "f1de1d5d34f0d839b62135f8bc0f78f15692128c7d4428c63cc06a579c4a7b78"),
        (["thresholds", "--n0", "0", *FIG2],
         "166b31abd70685c751b7b8c1447da0bacb4b23a34aa37bab93c3d10d42b62bc9"),
        (["validate", "--protocol", "vg", *FIG2, "--snr-db", "25", "--seed", "2", "--blocks", "100",
          "--trials", "1e4", "--n", "64", "--taps", "16"],
         "3fad3040153b59ea1bcd754f2bc4e9783234e696cb00aa396af53b5bb0a922ed"),
        (["validate", "--protocol", "vg", "--clip-s", "2", "--clip-r", "3", "--snr-db", "25",
          "--seed", "1", "--blocks", "100", "--trials", "1e4", "--n", "64", "--taps", "16"],
         "e8dee942d487b442391a1bf7f2f8fd7d0426dce14dbcb19339bd77e3d0672203"),
        # a linear source: the relay's limiter is the first on its stream
        (["validate", "--protocol", "vg", "--clip-s", "inf", "--clip-r", "8", "--snr-db", "25",
          "--seed", "1", "--blocks", "100", "--trials", "1e4", "--n", "64", "--taps", "16"],
         "11c39e0507db04f96d217de4dcb5576befcb338bf3d3579541310bb3fcc6e28a"),
        # n0 != 1: 0 dB stands for n0, so these pin the dB-to-power base as well
        (["outage-sweep", "--n0", "0.3", "--snr-db", "47.5", "--protocol", "fg", *FIG2,
          "--gamma-db", "0:5:30", "--trials", "1e4", "--seed", "3"],
         "4e43c44ede7d0ff6d3a0553f8ccda0086e7eb575cc85a402c1f9677946e2ac17"),
        (["power-sweep", "--n0", "1e-3", "--ps-db=-10:5:40", "--protocol", "vg", *FIG2,
          "--gamma-db", "0"],
         "299990087169571be1e340fb789b53c47b5cc7f3357ddf4ed458e3905635417b"),
    ], ids=["outage-sweep-json", "power-sweep-csv", "power-sweep-json", "thresholds-clipped",
            "thresholds-linear", "thresholds-n0-0", "validate", "validate-clip-2-3",
            "validate-relay-only", "outage-sweep-n0-0.3", "power-sweep-n0-1e-3"])
    def test_stdout_sha256(self, capsys, argv, digest):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "protocol": "vg", "clip_s": 5.0, "clip_r": 8.0, "snr_db": 50.0,
            "gamma_db": "0:5:30", "trials": 1000, "seed": 3,
        }))
        out1 = tmp_path / "o1.csv"
        assert main(["outage-sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        # flag overrides the file
        out2 = tmp_path / "o2.csv"
        assert main(["outage-sweep", "--config", str(cfg), "--seed", "4",
                     "--out", str(out2)]) == 0
        row1 = read_lines(out1)[2].split(",")
        row2 = read_lines(out2)[2].split(",")
        assert row1[8] == "3" and row2[8] == "4"

    def test_corrupt_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "never.csv"
        assert main(["outage-sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        assert main(["outage-sweep", "--config", str(cfg)]) == 2

    def test_every_field_lands_in_run_config(self, tmp_path):
        values = {
            "mu1": 2.0, "mu2": 3.0, "n0": 0.5, "snr_db": 40.0, "p_ratio": 2.0,
            "clip_s": 5.0, "clip_r": 8.0, "n_subcarriers": 64, "n_taps": 4,
            "protocol": "fg", "gamma_db": "0:5:30", "ps_db": "30:5:90", "trials": 1000,
            "blocks": 300, "seed": 9, "workers": 2, "out": "x.csv", "format": "json",
        }
        default = asdict(RunConfig())
        assert sorted(values) == sorted(f.name for f in fields(RunConfig))
        assert all(values[k] != default[k] for k in values)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        rc = asdict(_build_run_config(argparse.Namespace(config=str(cfg))))
        assert rc == values
        assert all(type(rc[k]) is type(v) for k, v in values.items())

    @pytest.mark.parametrize("data,key", [({"trials": "abc"}, "trials"), ({"seed": [1]}, "seed")],
                             ids=["trials-str", "seed-list"])
    def test_wrong_type_exits_2(self, tmp_path, capsys, data, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main(["outage-sweep", "--config", str(cfg)]) == 2
        assert f"{key!r}" in capsys.readouterr().err

    def test_null_keeps_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": None, "out": None}))
        assert _build_run_config(argparse.Namespace(config=str(cfg))) == RunConfig()

    @pytest.mark.parametrize("argv,name", [
        (["outage-sweep", "--snr-db", "1e6", "--gamma-db", "10", "--trials", "0"], "snr_db"),
        (["thresholds", "--n0", "1e300", "--snr-db", "300"], "p_s"),
        (["thresholds", "--clip-s", "5", "--clip-r", "8", "--snr-db", "3079"], "source"),
        (["thresholds", "--snr-db", "3000", "--p-ratio", "1e10"], "the relay power p_ratio * p_s"),
    ], ids=["snr_db-overflow", "p_s-inf", "clip-power-overflow", "relay-power-overflow"])
    def test_overflowing_power_exits_2(self, capsys, argv, name):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} ")

    NOISY_TINY = ["--n0", "1", "--snr-db", "-3000", "--mu2", "1e-300", "--clip-s", "5",
                  "--trials", "0", "--gamma-db", "0:10:10"]
    NOISELESS_TINY = ["--n0", "0", "--snr-db", "-3000", "--mu1", "1e-300", "--mu2", "1e-300",
                      "--clip-s", "5", "--clip-r", "8", "--trials", "0", "--gamma-db", "0:10:10"]

    @pytest.mark.parametrize("argv", [
        ["outage-sweep", *NOISY_TINY],
        ["outage-sweep", *NOISELESS_TINY],
        ["thresholds", *NOISELESS_TINY],
    ], ids=["sweep-floor", "sweep-noiseless", "thresholds-noiseless"])
    def test_underflowing_zero_noise_outage_exits_2(self, capsys, argv):
        # a * mu2 underflowed to 0 and gamma n0 / (a mu2) ended the run in a ZeroDivisionError
        # traceback; at zero noise the outage is refused in one line naming its scale
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the zero-noise outage (the floor) underflows at the scale " \
                               "p_s * mu2 = 1e-300 * 1e-300\n"

    def test_underflowing_noisy_outage_is_sure(self, capsys):
        assert main(["thresholds", *self.NOISY_TINY]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fg"]["exact_outage_below"] == report["vg"]["exact_outage_below"] == 1.0

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    def test_overflowing_noise_term_is_sure_outage(self, capsys, protocol):
        # variable gain exited 2 with "one_minus_x_k1 requires x >= 0, got nan"
        assert main(["outage-sweep", "--protocol", protocol, "--mu1", "1e-200", "--mu2", "1e-200",
                     "--trials", "1000", "--gamma-db", "0:10:10"]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[2:]]
        assert [(r[1], r[4]) for r in rows] == [("1", "1"), ("1", "1")]

    @pytest.mark.parametrize("argv,name", [
        (["outage-sweep", "--clip-s", "1e-13", "--clip-r", "8"], "clip_ratio_s"),
        (["outage-sweep", "--protocol", "fg", "--clip-s", "1e-13", "--clip-r", "8"], "clip_ratio_s"),
        (["outage-sweep", "--clip-r", "1e-13"], "clip_ratio_r"),
        (["outage-sweep", "--protocol", "fg", "--clip-r", "1e-13"], "clip_ratio_r"),
        (["thresholds", "--clip-s", "5", "--clip-r", "1e-13"], "clip_ratio_r"),
        (["power-sweep", "--protocol", "fg", "--clip-s", "5", "--clip-r", "1e-13",
          "--gamma-db", "0"], "clip_ratio_r"),
    ], ids=["vg-source", "fg-source", "vg-relay", "fg-relay", "thresholds", "power-sweep-fg"])
    def test_clip_ratio_that_passes_nothing_exits_2(self, capsys, argv, name):
        # below 1e-12 a node passes no signal (zeta = eta = 0), which analysis divides by
        assert main(argv + ["--trials", "0"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must be >= 1e-12 or inf")

    def test_noiseless_vg_power_sweep_exits_2(self, capsys):
        # a noiseless vg outage below threshold is exactly 0: nothing to fit a slope to
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["power-sweep", "--n0", "0", *FIG2, "--gamma-db", "0"])
        assert code == 2 and caught == []
        assert capsys.readouterr().err == (
            "error: outage is exactly 0 at p_s=10000000.0: no slope to fit\n")

    @pytest.mark.parametrize("argv,code,start", [
        (["outage-sweep", "--gamma-db", "4000", "--trials", "0"], 2, "gamma_db is too large"),
        (["outage-sweep", "--protocol", "fg", "--gamma-db", "4000", "--trials", "0"], 2,
         "gamma_db is too large"),
        (["outage-sweep", "--clip-r", "5", "--gamma-db", "1e308", "--trials", "0"], 2,
         "gamma_db is too large"),
        (["power-sweep", "--gamma-db", "4000"], 2, "gamma_db is too large"),
        (["power-sweep", "--protocol", "fg", "--clip-r", "5", "--gamma-db", "0",
          "--ps-db=-4000:10:-3960"], 2, "ps_db is too small, got '-4000:10:-3960'"),
        (["power-sweep", "--clip-r", "5", "--gamma-db", "0", "--ps-db=-4000:10:-3960"], 2,
         "ps_db is too small, got '-4000:10:-3960'"),
        (["thresholds", "--snr-db=-4000"], 2, "snr_db is too small, got -4000.0"),
        (["power-sweep", "--ps-db", "3000:50:3100", "--gamma-db", "0"], 2,
         "ps_db is too large, got '3000:50:3100'"),
        (["power-sweep", "--protocol", "fg", "--n0", "1e300", "--gamma-db", "0",
          "--ps-db", "40:10:100"], 2, "p_s must be positive and finite"),
        (["power-sweep", "--ps-db", "20:9.95:49.9", "--gamma-db", "0"], 2,
         "power grid must span at least three decades"),
        (["power-sweep", "--ps-db", "20.1:10:50.1", "--gamma-db", "0"], 0, None),
        (["power-sweep", "--ps-db", "20.8:10:50.8", "--gamma-db", "0"], 0, None),
    ], ids=["gamma-overflow-vg", "gamma-overflow-fg", "gamma-overflow-relay-only",
            "power-sweep-gamma-overflow", "ps-underflow-fg", "ps-underflow-vg", "snr-underflow",
            "ps-overflow", "ps-times-n0-overflow", "span-29.85-db", "span-30-db-from-20.1",
            "span-30-db-from-20.8"])
    def test_axis_rule_violations_exit_2_in_one_line(self, capsys, argv, code, start):
        # one error line, no traceback, no numpy or Python warning; 30 dB grids still run
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        if start is None:
            assert err == ""
        else:
            assert err.startswith(f"error: {start}") and err.count("\n") == 1

    def test_underflowing_gamma_is_zero(self, capsys):
        # -4000 dB is 0.0 in floats: a valid threshold with outage 0, where a power is refused
        assert main(["outage-sweep", "--gamma-db=-4000", "--trials", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[2].split(",")[:3] == ["-4000", "0", "0"]

    # ConvergenceError is raised only by the quadrature oracle, which no subcommand calls
    @pytest.mark.parametrize("exc", [RegimeError("outside the expansion's regime")], ids=["regime"])
    def test_regime_and_convergence_errors_exit_2(self, monkeypatch, capsys, exc):
        def raise_exc(rc):
            raise exc
        monkeypatch.setattr(cli, "cmd_thresholds", raise_exc)
        assert main(["thresholds"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {exc}\n"

    @staticmethod
    def _thresholds_run_config(monkeypatch, tmp_path, source, flag, key, value):
        """Exit code and the RunConfig main built, from a flag or a config file."""
        seen = []
        monkeypatch.setattr(cli, "cmd_thresholds", lambda rc: seen.append(rc) or 0)
        if source == "flag":
            argv = flag
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            argv = ["--config", str(cfg)]
        return main(["thresholds", *argv]), seen

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key,flag,value", [
        ("format", ["--format", "xml"], "xml"),
        ("protocol", ["--protocol", "FG"], "FG"),
        ("trials", ["--trials", "2.7"], 1.9),
        ("trials", ["--trials", "true"], True),
        ("seed", ["--seed", "1.5"], True),
        ("workers", ["--workers", "true"], True),
        ("snr_db", ["--snr-db", "true"], True),
        # the streams take the seed modulo 2^64: 2^64 + 1 would draw what 1 draws
        ("seed", ["--seed=-1"], -1),
        ("seed", ["--seed", "18446744073709551617"], 2**64 + 1),
    ], ids=["format-xml", "protocol-FG", "trials-fraction", "trials-bool", "seed-fraction-bool",
            "workers-bool", "snr_db-bool", "seed-negative", "seed-2**64+1"])
    def test_rejected_value_exits_2(self, monkeypatch, tmp_path, capsys, source, key, flag, value):
        code, seen = self._thresholds_run_config(monkeypatch, tmp_path, source, flag, key, value)
        assert code == 2 and seen == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad value for {key!r}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key,flag,value,expected", [
        ("trials", ["--trials", "1e5"], "1e5", 100_000),
        ("trials", ["--trials", "100000"], 1e5, 100_000),
        ("seed", ["--seed", "12345678901234567891"], 12345678901234567891, 12345678901234567891),
        ("seed", ["--seed", "18446744073709551615"], 2**64 - 1, 2**64 - 1),
        ("clip_s", ["--clip-s", "Infinity"], "Infinity", math.inf),
        ("clip_r", ["--clip-r", "INF"], "INF", math.inf),
        ("snr_db", ["--snr-db", "40"], 40, 40.0),
        ("protocol", ["--protocol", "fg"], "fg", "fg"),
        ("format", ["--format", "json"], "json", "json"),
        ("n_subcarriers", ["--n", "16384"], 16384, 16384),
        ("trials", ["--trials", "1e10"], 1e10, 10**10),
    ], ids=["trials-1e5-str", "trials-1e5-num", "seed-big", "seed-2**64-1", "clip_s-Infinity",
            "clip_r-INF", "snr_db-int", "protocol", "format", "n-at-cap", "trials-at-cap"])
    def test_accepted_value_same_from_flag_and_file(self, monkeypatch, tmp_path, source, key,
                                                    flag, value, expected):
        code, seen = self._thresholds_run_config(monkeypatch, tmp_path, source, flag, key, value)
        assert code == 0
        got = getattr(seen[0], key)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key,flag,value", [
        ("n_subcarriers", ["--n", "16385"], 16385),
        ("n_subcarriers", ["--n", "1099511627776"], 2**40),
        ("trials", ["--trials", "10000000001"], 10**10 + 1),
        ("trials", ["--trials", "1e15"], 1e15),
    ], ids=["n-past-cap", "n-2**40", "trials-past-cap", "trials-1e15"])
    def test_oversized_value_exits_2(self, monkeypatch, tmp_path, capsys, source, key, flag,
                                     value):
        # refused before any allocation that grows with the value
        code, seen = self._thresholds_run_config(monkeypatch, tmp_path, source, flag, key, value)
        assert code == 2 and seen == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be at most ") and err.count("\n") == 1

    def test_bad_grid_spec(self):
        assert main(["outage-sweep", "--gamma-db", "5:-1:0"]) == 2

    @pytest.mark.parametrize("spec", ["nan", "inf", "-inf"])
    def test_non_finite_single_value_exits_2(self, capsys, spec):
        # a single value meets the same finite rule as start:step:stop
        assert main(["outage-sweep", f"--gamma-db={spec}", "--trials", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gamma_db ") and "one_minus_x_k1" not in err

    @pytest.mark.parametrize("spec", ["0:1e-9:30", "0:1e-320:30", "0:1:4096"])
    def test_oversized_grid_exits_2(self, spec):
        # rejected before any allocation: 0:1e-9:30 would be 3e10 points
        assert main(["outage-sweep", "--gamma-db", spec, "--trials", "0"]) == 2

    def test_grid_cap_is_inclusive(self):
        assert _parse_grid("0:1:4095", "gamma_db").size == 4096
        with pytest.raises(ConfigError):
            _parse_grid("0:0.5:2048", "gamma_db")

    @pytest.mark.parametrize("spec,size,last", [
        ("0:1:2.6", 3, 2.0), ("0:0.3:1.1", 4, 0.9), ("40:2.5:81.5", 17, 80.0),
        ("0:2:5", 3, 4.0), ("0:2:7", 4, 6.0),
        # a stop that lies on the grid up to float error is kept
        ("0:0.1:0.3", 4, 0.3), ("20.1:10:50.1", 4, 50.1), ("0:0.25:30", 121, 30.0),
    ])
    def test_grid_never_passes_stop(self, spec, size, last):
        grid = _parse_grid(spec, "gamma_db")
        assert grid.size == size and grid[-1] == pytest.approx(last, rel=1e-12, abs=0.0)

    def test_grid_cap_counts_the_points_it_makes(self):
        # 0:1:4095.4 names the 4 096 points 0..4095
        assert _parse_grid("0:1:4095.4", "gamma_db").size == 4096

    def test_db_roundtrip(self):
        for db in np.linspace(-30, 60, 91):
            lin = 10.0 ** (db / 10.0)
            assert 10.0 * math.log10(lin) == pytest.approx(db, abs=1e-12)

    def test_inf_clip_in_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"clip_s": "inf", "clip_r": 5.0, "snr_db": 40.0,
                                   "gamma_db": "0:10:30", "trials": 0}))
        out = tmp_path / "o.csv"
        assert main(["outage-sweep", "--config", str(cfg), "--out", str(out)]) == 0
