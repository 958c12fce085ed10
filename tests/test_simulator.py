"""Simulator tests: chain identities, moment checks, determinism."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from multiprocessing.pool import ThreadPool

import numpy as np
import pytest

from afrelay import simulator
from afrelay.bussgang import sel_apply
from afrelay.errors import DomainError
from afrelay.link_budget import NetworkConfig, build_budget, gain_fg, gain_vg, sndr
from afrelay.outage import outage_vg
from afrelay.special_math import unitary_dft, unitary_idft
from afrelay.simulator import (
    ChannelRealization,
    Rng,
    _QPSK_POINTS,
    _SLICE,
    _cgauss,
    _chunk_counts,
    _complex_normal,
    _hop,
    _noiseless_last_hop,
    _pilot_sndr,
    _qpsk,
    _qpsk_symbols,
    _relay_gains,
    _residual_energy,
    _t975,
    estimate_bussgang,
    fg_stationarity_check,
    gen_channel,
    generator,
    mc_outage_sweep,
    measure_sndr,
    model_sndr,
    reseed,
    substream,
    waveform_chain,
    waveform_outage,
    wilson_interval,
)

LINEAR_CFG = NetworkConfig(n_subcarriers=64, n_taps=4)
CLIPPED_CFG = NetworkConfig(clip_ratio_s=5.0, clip_ratio_r=8.0, n_subcarriers=64, n_taps=4)


def flat_unit_channel(n):
    ones = np.ones(n, dtype=complex)
    return ChannelRealization(ones, ones)


def qpsk(n, sigma_sq, rng):
    return _qpsk(generator(rng), (n,), sigma_sq)


class TestChannels:
    def test_statistical_moment(self):
        # mean per-subcarrier power equals mu within 1%
        n, l = 64, 8
        acc1 = 0.0
        acc2 = 0.0
        reps = 3000
        for i in range(reps):
            ch = gen_channel(l, n, 2.0, 0.5, rng=Rng(1234, i))
            acc1 += float(np.mean(np.abs(ch.freq_h1) ** 2))
            acc2 += float(np.mean(np.abs(ch.freq_h2) ** 2))
        assert acc1 / reps == pytest.approx(2.0, rel=0.01, abs=0.0)
        assert acc2 / reps == pytest.approx(0.5, rel=0.01, abs=0.0)

    def test_single_tap_is_flat(self):
        ch = gen_channel(1, 64, 1.0, 1.0, rng=Rng(3))
        assert np.max(np.abs(ch.freq_h1 - ch.freq_h1[0])) < 1e-12

    @pytest.mark.parametrize("l,n", [(1, 8), (4, 32), (64, 64)])
    def test_freq_is_per_hop_dft_bitwise(self, l, n):
        # redraw the taps from the same stream: CN(0, n mu / l), hop 1 first
        ch = gen_channel(l, n, 2.0, 0.5, rng=Rng(4, l))
        gen = generator(Rng(4, l))
        for mu, freq in ((2.0, ch.freq_h1), (0.5, ch.freq_h2)):
            pad = np.zeros(n, dtype=complex)
            pad[:l] = _cgauss(gen, l, n * mu / l)
            assert np.array_equal(freq, np.fft.fft(pad, norm="ortho"))

    @pytest.mark.parametrize("l,n,seed", [(1, 8, 0), (3, 16, 1), (16, 256, 2), (32, 32, 3),
                                          (64, 64, 4)])
    def test_bits_match_stacked_padded_taps(self, l, n, seed):
        # the former build: stack both hops' taps, zero-pad them to n, one DFT
        ch = gen_channel(l, n, 2.0, 0.5, rng=Rng(seed))
        gen = generator(Rng(seed))
        taps = [_cgauss(gen, l, n * mu / l) for mu in (2.0, 0.5)]
        freqs = np.fft.fft(np.pad(np.stack(taps), ((0, 0), (0, n - l))), norm="ortho")
        assert ch.freq_h1.tobytes() == freqs[0].tobytes()
        assert ch.freq_h2.tobytes() == freqs[1].tobytes()

    def test_domain(self):
        with pytest.raises(DomainError):
            gen_channel(65, 64, 1.0, 1.0, rng=Rng(5))
        with pytest.raises(DomainError):
            gen_channel(2, 48, 1.0, 1.0, rng=Rng(5))


class TestQpsk:
    def test_constant_modulus(self):
        x = qpsk(512, 3.0, Rng(6))
        assert np.max(np.abs(np.abs(x) ** 2 - 3.0)) < 1e-12

    def test_symbol_frequencies_uniform(self):
        n = 1 << 20
        x = qpsk(n, 2.0, Rng(7))
        counts = np.array([
            np.sum((x.real > 0) & (x.imag > 0)),
            np.sum((x.real > 0) & (x.imag < 0)),
            np.sum((x.real < 0) & (x.imag > 0)),
            np.sum((x.real < 0) & (x.imag < 0)),
        ])
        expected = n / 4
        sigma = math.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - expected) <= 4 * sigma)

    def test_mean_near_zero(self):
        n = 1 << 16
        x = qpsk(n, 1.0, Rng(8))
        assert abs(np.mean(x)) <= 4.0 / math.sqrt(n)

    @pytest.mark.parametrize("sigma_sq", [0.0, 0.5, 3.0, 1e6])
    def test_same_bytes_as_scaling_the_indexed_points(self, sigma_sq):
        x = _qpsk(generator(Rng(10)), (96, 64), sigma_sq)
        idx = generator(Rng(10)).integers(0, 4, (96, 64))
        assert x.tobytes() == (math.sqrt(sigma_sq / 2.0) * _QPSK_POINTS[idx]).tobytes()


def reference_chain(x_freq, channel, budget, protocol, gen):
    """Time-domain oracle for waveform_chain, one hop at a time.

    Cyclic prefix of 2l + 1 samples, per-sample limiter, linear convolution
    with the taps scaled to the physical impulse response, receive window,
    DFT, then CN(0, n0) noise per subcarrier; the relay gain is applied to
    the first hop's output. The taps are the first l samples of each
    response's unitary inverse DFT. Draws the noise in the same order as the
    simulator, so only the channel path is checked independently; the noise
    has a statistical test of its own.
    """
    n = x_freq.shape[-1]
    l = budget.config.n_taps
    cp = 2 * l + 1
    taps1, taps2 = (np.fft.ifft(f, norm="ortho")[:l] for f in (channel.freq_h1, channel.freq_h2))

    def hop(block, taps, p_max):
        sent = sel_apply(block[..., np.arange(-cp, n) % n], p_max)
        rx = np.array([np.convolve(row, taps / math.sqrt(n)) for row in sent])
        y = np.fft.fft(rx[..., cp : cp + n], norm="ortho")
        if budget.config.n0 > 0.0:
            s = math.sqrt(budget.config.n0 / 2.0)
            y = y + s * (gen.standard_normal(y.shape) + 1j * gen.standard_normal(y.shape))
        return y

    relay_in = hop(np.fft.ifft(x_freq, norm="ortho"), taps1, budget.sel_s.p_max)
    gains = gain_fg(budget) if protocol == "fg" else gain_vg(budget, np.abs(channel.freq_h1) ** 2)
    relay_block = np.fft.ifft(gains * relay_in, norm="ortho")
    return hop(relay_block, taps2, budget.sel_r.p_max)


class TestWaveformChain:
    def test_identity_no_clip_no_noise_flat(self):
        n = 64
        cfg = NetworkConfig(n0=0.0, n_subcarriers=n, n_taps=1)
        b = build_budget(cfg)
        ch = flat_unit_channel(n)
        x = qpsk(n, b.sel_s.sigma_sq, Rng(9)).reshape(1, n)
        g = gain_fg(b)
        y = waveform_chain(x, ch, b, "fg", generator(Rng(9, 1)))
        assert np.max(np.abs(y - g * x)) < 1e-9

    def test_energy_conservation_linear_chain(self):
        n = 64
        cfg = NetworkConfig(n0=0.0, n_subcarriers=n, n_taps=1)
        b = build_budget(cfg)
        ch = flat_unit_channel(n)
        x = qpsk(n, 1.0, Rng(10)).reshape(1, n)
        y = waveform_chain(x, ch, b, "vg", generator(Rng(10, 1)))
        g = math.sqrt(b.sel_r.sigma_sq / (cfg.p_s * 1.0 + 0.0))
        assert float(np.sum(np.abs(y) ** 2)) == pytest.approx(
            g * g * float(np.sum(np.abs(x) ** 2)), rel=1e-9, abs=0.0
        )

    def test_linear_snr_matches_model(self):
        # no clipping, noise on: measured per-subcarrier SNR tracks the
        # distortion-free reduction of the SNDR expression
        n, l = 64, 4
        cfg = NetworkConfig(p_s=100.0, p_ratio=1.0, n_subcarriers=n, n_taps=l)
        b = build_budget(cfg)
        ch = gen_channel(l, n, 1.0, 1.0, rng=Rng(11))
        lam_hat = measure_sndr(ch, b, "vg", 4000, Rng(11, 7))
        lam_model = model_sndr(ch, b, "vg")
        ratio = lam_hat / lam_model
        assert np.median(np.abs(ratio - 1.0)) < 0.05
        assert np.max(np.abs(ratio - 1.0)) < 0.25

    @pytest.mark.parametrize("protocol", ["fg", "vg"])
    @pytest.mark.parametrize("n,l,n0", [(64, 16, 1.0), (256, 256, 1.0), (64, 1, 1.0),
                                        (128, 4, 0.0)])
    def test_matches_time_domain_reference(self, protocol, n, l, n0):
        cfg = NetworkConfig(n0=n0, p_s=100.0, clip_ratio_s=5.0, clip_ratio_r=8.0,
                            n_subcarriers=n, n_taps=l)
        b = build_budget(cfg)
        ch = gen_channel(l, n, 1.0, 1.0, rng=Rng(12))
        x = generator(Rng(12, 1)).standard_normal((3, n)) * math.sqrt(b.sel_s.sigma_sq) + 0j
        y = waveform_chain(x, ch, b, protocol, generator(Rng(12, 2)))
        y_ref = reference_chain(x, ch, b, protocol, generator(Rng(12, 2)))
        assert np.max(np.abs(y - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))

    def test_noise_is_white_per_subcarrier(self):
        # zero input through linear nodes and flat unit hops leaves only the
        # noise, g w1 + w2: circular, of power n0 (g^2 + 1), white across
        # subcarriers
        n, blocks = 64, 4000
        cfg = NetworkConfig(n0=0.7, n_subcarriers=n, n_taps=1)
        b = build_budget(cfg)
        g = gain_fg(b)
        y = waveform_chain(np.zeros((blocks, n), dtype=complex), flat_unit_channel(n), b, "fg",
                           generator(Rng(31)))
        power = float(np.mean(np.abs(y) ** 2))
        assert power / (cfg.n0 * (g * g + 1.0)) == pytest.approx(1.0, abs=0.02)
        assert float(np.var(y.real) / np.var(y.imag)) == pytest.approx(1.0, abs=0.03)
        adjacent = abs(np.mean(y[:, 1:] * np.conj(y[:, :-1]))) / power
        assert adjacent < 0.02


class TestEstimateBussgang:
    def test_identity(self):
        x = qpsk(256, 1.0, Rng(14))
        z, e, c = estimate_bussgang(x, x)
        assert z == pytest.approx(1.0, abs=1e-12)
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_pure_scaling(self):
        x = qpsk(256, 1.0, Rng(15))
        z, e, _ = estimate_bussgang(x, 0.5 * x)
        assert z == pytest.approx(0.5, abs=1e-12)
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_clipped_gaussian_matches_formula(self):
        from afrelay.bussgang import sel_apply, sel_params

        gen = generator(Rng(16))
        n = 1 << 20
        x = (gen.standard_normal(n) + 1j * gen.standard_normal(n)) / math.sqrt(2.0)
        y = sel_apply(x, 5.0)
        p = sel_params(1.0, 5.0)
        z, e, corr = estimate_bussgang(x, y)
        assert z == pytest.approx(p.zeta, abs=1e-3)
        assert e == pytest.approx(p.eta, rel=3e-1, abs=0.0)
        assert corr < 1e-12

    def test_resid_corr_is_projection_zero(self):
        gen = generator(Rng(17))
        x = gen.standard_normal(4096) + 1j * gen.standard_normal(4096)
        y = np.tanh(np.abs(x)) * np.exp(1j * np.angle(x))
        _, _, corr = estimate_bussgang(x, y)
        assert corr < 1e-12

    def test_zero_input_rejected(self):
        with pytest.raises(DomainError):
            estimate_bussgang(np.zeros(8), np.ones(8))


def estimate_bussgang_whole(input_samples, output_samples):
    """estimate_bussgang as whole-array reductions, written out: the reference it must match.

    Every sum is one np.add.reduce over the flattened arrays, |z|^2 summed over z's
    float64 words squared.
    """
    x = np.asarray(input_samples, dtype=complex).ravel()
    y = np.asarray(output_samples, dtype=complex).ravel()
    px = float(np.add.reduce(np.square(x.view(float))))
    zeta_hat = complex(np.add.reduce(np.conj(x) * y)) / px
    resid = y - zeta_hat * x
    rr = float(np.add.reduce(np.square(resid.view(float))))
    norm = math.sqrt(rr) * math.sqrt(px)
    return float(zeta_hat.real), rr / x.size, float(abs(np.add.reduce(np.conj(x) * resid)) / norm)


class TestEstimateBussgangChunks:
    """zeta and eta keep the bits of whole-array np.add.reduce sums, at any size and layout."""

    @pytest.mark.parametrize("shape", [(7,), (65_535,), (65_537,), (2**17 + 5,), (2**20,),
                                       (3, 40_000), "F"],
                             ids=["7", "65535", "65537", "2^17+5", "2^20", "2-D", "F-order"])
    def test_same_bits_as_whole_array(self, shape):
        gen = generator(Rng(24))
        if shape == "F":  # fancy-indexed on the last axis, as the cyclic prefix is: F order
            block = _cgauss(gen, (3, 40_000), 1.0)
            x = block[..., np.arange(-1001, 40_000) % 40_000]
            assert x.flags.f_contiguous and not x.flags.c_contiguous
        else:
            x = _cgauss(gen, shape, 1.0)
        y = sel_apply(x, 1.5)
        zeta_ref, eta_ref, corr_ref = estimate_bussgang_whole(x, y)
        zeta, eta, corr = estimate_bussgang(x, y)
        assert (zeta, eta) == (zeta_ref, eta_ref)
        assert abs(corr - corr_ref) <= 1e-12

    def test_same_bits_at_any_blas_thread_count(self):
        # np.vdot's bits follow OpenBLAS's thread count; numpy's own reductions do not
        code = ("from afrelay.bussgang import sel_apply; "
                "from afrelay.simulator import Rng, _cgauss, estimate_bussgang, generator; "
                "x = _cgauss(generator(Rng(1, 11)), 1 << 20, 1.0); "
                "print(repr(estimate_bussgang(x, sel_apply(x, 5.0))[:2]))")
        src = os.path.dirname(os.path.dirname(simulator.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, env={**os.environ, "PYTHONPATH": path,
                                                "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2")]
        assert outs[0] == outs[1] != ""

    def test_single_sample_rejected(self):
        with pytest.raises(DomainError):
            estimate_bussgang(np.ones(1), np.ones(1))

    def test_mismatched_output_rejected(self):
        with pytest.raises(DomainError):
            estimate_bussgang(np.ones(8), np.ones(9))


class TestMcOutage:
    def test_zero_gamma(self):
        b = build_budget(CLIPPED_CFG)
        s = mc_outage_sweep("vg", [0.0], b, 1000, Rng(18))[0]
        assert s.p_hat == 0.0 and s.n_outages == 0

    def test_huge_gamma(self):
        b = build_budget(CLIPPED_CFG)
        s = mc_outage_sweep("vg", [1e9], b, 1000, Rng(19))[0]
        assert s.p_hat == 1.0

    def test_matches_closed_form(self):
        # single seeded run, so test at 3 sigma; 95% coverage is checked
        # across many runs in test_coverage
        cfg = NetworkConfig(p_s=10.0, clip_ratio_r=5.0)
        b = build_budget(cfg)
        p_cf = outage_vg(1.0, b).p_outage
        n = 200_000
        s = mc_outage_sweep("vg", [1.0], b, n, Rng(20))[0]
        assert abs(s.p_hat - p_cf) <= 3.0 * math.sqrt(p_cf * (1.0 - p_cf) / n)

    def test_deterministic(self):
        b = build_budget(CLIPPED_CFG)
        a = mc_outage_sweep("vg", [1.0], b, 70_000, Rng(21, 5))[0]
        c = mc_outage_sweep("vg", [1.0], b, 70_000, Rng(21, 5))[0]
        assert a == c

    def test_crn_monotone_in_gamma(self):
        b = build_budget(CLIPPED_CFG)
        stats = mc_outage_sweep("vg", [0.5, 1.0, 2.0, 4.0], b, 50_000, Rng(22))
        ps = [s.p_hat for s in stats]
        assert ps == sorted(ps)

    def test_sweep_map_fn_matches_serial(self):
        b = build_budget(CLIPPED_CFG)
        gammas = [0.5, 1.0, 2.0, 4.0]
        serial = mc_outage_sweep("vg", gammas, b, 150_000, Rng(29))
        with ThreadPool(2) as pool:
            pooled = mc_outage_sweep("vg", gammas, b, 150_000, Rng(29), map_fn=pool.map)
        assert pooled == serial

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf], ids=["nan", "negative", "-inf"])
    def test_nan_or_negative_gamma_rejected(self, bad):
        b = build_budget(CLIPPED_CFG)
        with pytest.raises(DomainError):
            mc_outage_sweep("vg", [1.0, bad], b, 1000, Rng(24))
        with pytest.raises(DomainError):
            mc_outage_sweep("vg", [bad], b, 1000, Rng(24))

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    def test_chunk_counts_match_broadcast_count(self, protocol):
        # unsorted, duplicated, tied to drawn SNDRs, 0 and +inf
        b = build_budget(CLIPPED_CFG)
        rng, m = Rng(25, 3), 5000
        gen = generator(rng)
        lam = sndr(protocol, gen.exponential(b.config.mu1, m), gen.exponential(b.config.mu2, m), b)
        gammas = np.array([4.0, lam[17], 0.5, math.inf, lam[17], 0.0, lam[4000], 2.0, 0.5,
                           lam.max(), lam.min()])
        got = _chunk_counts((protocol, gammas, b, rng, m))
        np.testing.assert_array_equal(got, np.count_nonzero(lam[None, :] <= gammas[:, None], axis=1))
        assert got[3] == m and got[5] == 0 and got[-1] >= 1

    @pytest.mark.parametrize("m", [3 * _SLICE + 517, 1 << 16], ids=["ragged", "full"])
    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    def test_sliced_chunk_matches_unsliced_draw_order(self, protocol, m):
        # the chunk draws its second-hop gains slice by slice; the counts must
        # be those of one whole exponential call per hop
        b = build_budget(replace(CLIPPED_CFG, p_s=1e4, mu2=2.5))
        rng = Rng(26, 5)
        gen = generator(rng)
        lam = sndr(protocol, gen.exponential(b.config.mu1, m), gen.exponential(b.config.mu2, m), b)
        gammas = np.concatenate([10.0 ** np.arange(-1.0, 4.01, 0.25),
                                 lam[[0, _SLICE - 1, _SLICE, 2 * _SLICE, m - 1]]])
        got = _chunk_counts((protocol, gammas, b, rng, m))
        np.testing.assert_array_equal(got, np.count_nonzero(lam[None, :] <= gammas[:, None], axis=1))

    def test_wilson_properties(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo < 1.0
        lo, hi = wilson_interval(50, 100)
        assert lo <= 0.5 <= hi

    def test_coverage(self):
        # interval covers the truth in most independent runs
        cfg = NetworkConfig(p_s=10.0, clip_ratio_r=5.0)
        b = build_budget(cfg)
        p_cf = outage_vg(1.0, b).p_outage
        hits = 0
        for i in range(40):
            s = mc_outage_sweep("vg", [1.0], b, 20_000, Rng(400 + i))[0]
            hits += s.ci_low <= p_cf <= s.ci_high
        assert hits >= 35


def stationarity_reference(l, budget, n_realizations, rng):
    """fg_stationarity_check one realization at a time, each with its own generators."""
    cfg = budget.config
    n = cfg.n_subcarriers
    g = gain_fg(budget)
    powers = np.empty(n_realizations)
    for i in range(n_realizations):
        r = substream(rng, i)
        ch = gen_channel(l, n, cfg.mu1, cfg.mu2, rng=substream(r, 0))
        gen = generator(substream(r, 1))
        x = _qpsk(gen, (1, n), budget.sel_s.sigma_sq)
        relay_in = g * _hop(x, ch.freq_h1, budget.sel_s.p_max, cfg.n0, gen)
        powers[i] = float(np.mean(np.abs(relay_in) ** 2))
    return float(np.std(powers) / np.mean(powers))


class TestStationarity:
    @pytest.mark.parametrize("n0,clip_s", [(1.0, 5.0), (0.0, 5.0), (1.0, math.inf)])
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("l", [1, 3, "n"])
    @pytest.mark.parametrize("n_real", [2, 7, 40])
    def test_batched_pass_matches_reference_loop(self, n0, clip_s, n, l, n_real):
        l = n if l == "n" else l
        b = build_budget(NetworkConfig(p_s=100.0, n0=n0, clip_ratio_s=clip_s, clip_ratio_r=8.0,
                                       n_subcarriers=n, n_taps=1))
        rng = Rng(90 + n_real, l)
        assert fg_stationarity_check(l, b, n_real, rng) == stationarity_reference(l, b, n_real, rng)

    def test_realizations_past_one_chunk_match_reference_loop(self):
        # 4 096 subcarriers: 16 realizations per batched pass, so 40 take three
        b = build_budget(NetworkConfig(p_s=100.0, clip_ratio_s=5.0, n_subcarriers=4096, n_taps=1))
        assert fg_stationarity_check(8, b, 40, Rng(96)) == stationarity_reference(8, b, 40, Rng(96))

    @pytest.mark.parametrize("l,n,message", [
        (65, 64, "need 1 <= l <= n, got l=65, n=64"),
        (2, 48, "n must be a power of two, got 48"),
    ])
    def test_channel_domain_errors(self, l, n, message):
        b = build_budget(NetworkConfig(n_subcarriers=n, n_taps=1))
        with pytest.raises(DomainError, match=message):
            fg_stationarity_check(l, b, 10, Rng(97))

    def test_single_tap_matches_conditional_variance_spread(self):
        cfg = NetworkConfig(p_s=100.0, n_subcarriers=256, n_taps=1)
        b = build_budget(cfg)
        cv = fg_stationarity_check(1, b, 400, Rng(24))
        # CV of (P_S |h|^2 + N0)/(P_S mu1 + N0) with exponential |h|^2
        expected = cfg.p_s * cfg.mu1 / (cfg.p_s * cfg.mu1 + cfg.n0)
        assert cv == pytest.approx(expected, rel=0.10, abs=0.0)

    def test_many_taps_average_out(self):
        cfg = NetworkConfig(p_s=100.0, n_subcarriers=256, n_taps=1)
        b = build_budget(cfg)
        cv1 = fg_stationarity_check(1, b, 300, Rng(25))
        cv16 = fg_stationarity_check(16, b, 300, Rng(26))
        cv_full = fg_stationarity_check(256, b, 300, Rng(27))
        assert cv1 / cv16 > 3.0
        assert cv_full < cv16

    @pytest.mark.parametrize("l,seed,expected", [
        (1, 24, 0.8387790647375544),
        (16, 26, 0.20187022543278274),
    ])
    def test_frozen_values(self, l, seed, expected):
        # pins the first hop's draw order and arithmetic shared with waveform_chain
        cfg = NetworkConfig(p_s=100.0, clip_ratio_s=5.0, clip_ratio_r=8.0,
                            n_subcarriers=256, n_taps=1)
        cv = fg_stationarity_check(l, build_budget(cfg), 50, Rng(seed))
        assert cv == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_decreasing_in_taps(self):
        cfg = NetworkConfig(p_s=50.0, n_subcarriers=128, n_taps=1)
        b = build_budget(cfg)
        cvs = [fg_stationarity_check(l, b, 250, Rng(28, l)) for l in (1, 4, 16, 64)]
        assert cvs[0] > cvs[1] > cvs[2] > cvs[3]


def explicit_pilot_sndr(channel, budget, protocol, n_blocks, rng):
    """_pilot_sndr with the destination's noise drawn sample by sample.

    Runs the full chain, noise included, and sums |y_b - c x_b|^2 over the
    blocks: the reference for the closed-form residual draw.
    """
    gen = generator(rng)
    sigma_sq = budget.sel_s.sigma_sq
    gains = gain_fg(budget) if protocol == "fg" else gain_vg(budget, np.abs(channel.freq_h1) ** 2)
    c = budget.sel_s.zeta * budget.sel_r.zeta * gains * channel.freq_h1 * channel.freq_h2
    x = _qpsk(gen, (n_blocks, channel.freq_h1.shape[0]), sigma_sq)
    y = waveform_chain(x, channel, budget, protocol, gen)
    resid = np.sum(np.abs(y - c * x) ** 2, axis=0)
    resid = np.maximum(resid, 1e-300)
    return np.abs(c) ** 2 * sigma_sq * n_blocks / resid


class TestResidualClosedForm:
    """The destination's noise drawn in closed form, against the explicit draw."""

    N0 = 1.0
    BLOCKS = 24
    DRAWS = 3000

    def _fixed_residual(self):
        # fixed symbols through a fixed clipped channel; the first hop's noise
        # is drawn once, so e is fixed too
        cfg = replace(CLIPPED_CFG, p_s=100.0, n0=self.N0, n_subcarriers=16)
        budget = build_budget(cfg)
        ch = gen_channel(4, 16, 1.0, 1.0, rng=Rng(60))
        gen = generator(Rng(61))
        x = _qpsk(gen, (self.BLOCKS, 16), budget.sel_s.sigma_sq)
        c = (budget.sel_s.zeta * budget.sel_r.zeta * gain_vg(budget, np.abs(ch.freq_h1) ** 2)
             * ch.freq_h1 * ch.freq_h2)
        return _noiseless_last_hop(x, ch, budget, "vg", gen) - c * x

    def _assert_exact_moments(self, r, energy):
        # R = (n0/2) chi'^2(k, lam) has cumulants (n0/2)^j 2^(j-1) (j-1)! (k + j lam)
        n0, b = self.N0, self.BLOCKS
        mean = energy + b * n0
        var = b * n0 * n0 + 2.0 * n0 * energy
        k4 = (n0 / 2.0) ** 4 * 48.0 * (2 * b + 8.0 * energy / n0)
        n = r.shape[0]
        assert np.all(np.abs(r.mean(axis=0) - mean) <= 5.0 * np.sqrt(var / n))
        assert np.all(np.abs(r.var(axis=0, ddof=1) - var) <= 5.0 * np.sqrt((k4 + 2 * var**2) / n))

    def test_explicit_noise_has_exact_moments(self):
        e = self._fixed_residual()
        gen = generator(Rng(62))
        r = np.array([np.sum(np.abs(e + _cgauss(gen, e.shape, self.N0)) ** 2, axis=0)
                      for _ in range(self.DRAWS)])
        self._assert_exact_moments(r, np.sum(np.abs(e) ** 2, axis=0))

    def test_closed_form_has_exact_moments(self):
        energy = np.sum(np.abs(self._fixed_residual()) ** 2, axis=0)
        r = _residual_energy(np.tile(energy, self.DRAWS), self.BLOCKS, self.N0,
                             generator(Rng(63)))
        self._assert_exact_moments(r.reshape(self.DRAWS, -1), energy)

    def test_no_noise_draws_nothing(self):
        energy = np.array([0.0, 1.5, 7.0])
        gen = generator(Rng(64))
        assert _residual_energy(energy, 24, 0.0, gen) is energy
        assert gen.standard_normal() == generator(Rng(64)).standard_normal()

    def test_noise_below_float_range_leaves_energy(self):
        # 2 E / n0 overflows: the noise is far below E's last digit
        energy = np.array([1.0, 50.0])
        r = _residual_energy(energy, 24, 5e-324, generator(Rng(65)))
        assert np.array_equal(r, energy)

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    def test_noiseless_matches_explicit_path_bitwise(self, monkeypatch, protocol):
        budget = build_budget(replace(CLIPPED_CFG, p_s=100.0, n0=0.0, n_subcarriers=16))
        ch = gen_channel(4, 16, 1.0, 1.0, rng=Rng(66))
        [ours] = _pilot_sndr(ch, budget, (protocol,), 20, Rng(67))
        assert ours.tobytes() == explicit_pilot_sndr(ch, budget, protocol, 20, Rng(67)).tobytes()
        gammas = np.quantile(ours, [0.1, 0.5, 0.9])
        stats = waveform_outage(protocol, gammas, budget, 4, 20, Rng(68))
        monkeypatch.setattr(simulator, "_pilot_sndr",
                            lambda ch, b, protocols, n_blocks, rng:
                            [explicit_pilot_sndr(ch, b, p, n_blocks, rng) for p in protocols])
        assert stats == waveform_outage(protocol, gammas, budget, 4, 20, Rng(68))


class TestWaveformFrozen:
    # values recorded with the per-subcarrier noise draw, the Student-t
    # interval and the destination's noise in closed form; they pin the draw
    # order of the whole waveform Monte Carlo
    CFG = NetworkConfig(p_s=100.0, clip_ratio_s=5.0, clip_ratio_r=8.0, n_subcarriers=64,
                        n_taps=4)
    CFG16 = NetworkConfig(p_s=100.0, clip_ratio_s=5.0, clip_ratio_r=8.0, n_subcarriers=16,
                          n_taps=4)

    @pytest.mark.parametrize("protocol,expected", [
        ("fg", [(0.020833333333333332, 0.0, 0.08012369323328272),
                (0.18229166666666666, 0.0, 0.4097247708149758)]),
        ("vg", [(0.010416666666666666, 0.0, 0.03282631630077846),
                (0.1875, 0.0, 0.45920256222269246)]),
    ])
    def test_waveform_outage(self, protocol, expected):
        stats = waveform_outage(protocol, [1.0, 10.0], build_budget(self.CFG), 3, 20, Rng(41))
        assert [(s.p_hat, s.ci_low, s.ci_high) for s in stats] == expected

    def test_measure_sndr(self):
        expected = [
            86.79596991394187, 75.20303869452735, 33.53309351403941, 2.8911439963318593,
            17.086684914506286, 3.5301569088277485, 24.870671886941484, 56.60452026672793,
            57.96193052758291, 30.603818269054994, 4.827250846733492, 21.028773741296426,
            26.148888126941817, 12.900101601201632, 10.560668673880711, 47.696242844571316,
        ]
        cfg = NetworkConfig(p_s=100.0, clip_ratio_s=5.0, clip_ratio_r=8.0, n_subcarriers=16,
                            n_taps=4)
        ch = gen_channel(4, 16, 1.0, 1.0, rng=Rng(42))
        lam = measure_sndr(ch, build_budget(cfg), "vg", 100, Rng(43))
        assert lam == pytest.approx(expected, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n_draws,n_blocks", [(0, 20), (3, 0), (3, -3)])
    def test_waveform_outage_rejects_bad_counts(self, n_draws, n_blocks):
        with pytest.raises(DomainError):
            waveform_outage("vg", [1.0], build_budget(self.CFG), n_draws, n_blocks, Rng(44))

    def test_waveform_outage_single_draw_has_full_interval(self):
        # one draw has no draw-level spread to measure
        stats = waveform_outage("vg", [1.0, 10.0], build_budget(self.CFG16), 1, 1, Rng(2))
        for s in stats:
            assert 0.0 <= s.p_hat <= 1.0
            assert (s.ci_low, s.ci_high) == (0.0, 1.0)

    @pytest.mark.parametrize("protocols", [("vg", "fg"), ("fg", "vg"), ("fg",)])
    @pytest.mark.parametrize("n0,n_draws", [(1.0, 3), (0.0, 2), (1.0, 1)])
    def test_joint_outage_matches_separate_calls(self, protocols, n0, n_draws):
        b = build_budget(replace(self.CFG, n0=n0))
        joint = waveform_outage(protocols, [1.0, 10.0], b, n_draws, 20, Rng(45))
        assert joint == [waveform_outage(p, [1.0, 10.0], b, n_draws, 20, Rng(45))
                         for p in protocols]

    @pytest.mark.parametrize("protocols", [("vg", "af"), ()])
    def test_joint_outage_rejects_bad_protocols(self, protocols):
        with pytest.raises(DomainError):
            waveform_outage(protocols, [1.0], build_budget(self.CFG), 3, 20, Rng(46))

    @pytest.mark.parametrize("batch", [0, -1])
    def test_measure_sndr_rejects_bad_batch(self, batch):
        ch = gen_channel(4, 16, 1.0, 1.0, rng=Rng(42))
        with pytest.raises(DomainError):
            measure_sndr(ch, build_budget(self.CFG16), "vg", 100, Rng(43), batch=batch)


class TestWaveformInterval:
    def test_t975_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        df = np.arange(1, 10_001)
        ours = np.array([_t975(int(k)) for k in df])
        assert np.max(np.abs(ours / stats.t.ppf(0.975, df) - 1.0)) <= 2e-3

    def test_coverage_at_three_draws(self):
        # a normal interval on the biased draw variance covers ~0.72 here
        cfg = NetworkConfig(p_s=100.0, clip_ratio_s=5.0, clip_ratio_r=8.0, n_subcarriers=16,
                            n_taps=4)
        b = build_budget(cfg)
        truth = waveform_outage("vg", [10.0], b, 4000, 20, Rng(77, 1))[0].p_hat
        repeats = 300
        hits = 0
        for i in range(repeats):
            s = waveform_outage("vg", [10.0], b, 3, 20, Rng(77, 2 + i))[0]
            hits += s.ci_low <= truth <= s.ci_high
        assert hits / repeats >= 0.88


class TestDeterminism:
    @pytest.mark.parametrize("rng", [Rng(5, 9), Rng(-1), Rng(-(2**63), 3), Rng(7, 2**63),
                                     Rng(2**64 - 3, 2**64 - 1)])
    def test_reseed_matches_fresh_generator(self, rng):
        def draws(gen):
            return (gen.standard_normal(5), gen.integers(0, 4, 7), gen.standard_normal(3),
                    gen.noncentral_chisquare(4, [0.5, 2.0, 9.0]))
        gen = generator(Rng(11, 12))
        # leave the previous stream's Philox buffer and 32-bit half-word partly used
        gen.standard_normal(3)
        gen.integers(0, 4, 3)
        state = gen.bit_generator.state
        assert 0 < state["buffer_pos"] < 4 and state["has_uint32"]
        for got, want in zip(draws(reseed(gen, rng)), draws(generator(rng))):
            assert np.array_equal(got, want)

    def test_key_is_seed_and_stream_modulo_2_64(self):
        for seed, stream in ((-1, 0), (2**64 - 3, 7), (3, 2**63 + 1)):
            key = generator(Rng(seed, stream)).bit_generator.state["state"]["key"]
            assert key.tolist() == [seed % 2**64, stream % 2**64]
        assert generator(Rng(-1)).standard_normal() != generator(Rng(0)).standard_normal()

    def test_substreams_differ(self):
        a = generator(substream(Rng(1), 0)).standard_normal(4)
        b = generator(substream(Rng(1), 1)).standard_normal(4)
        assert not np.allclose(a, b)

    def test_same_key_same_draws(self):
        a = generator(Rng(99, 3)).standard_normal(8)
        b = generator(Rng(99, 3)).standard_normal(8)
        assert np.array_equal(a, b)

    def test_measure_sndr_deterministic(self):
        b = build_budget(CLIPPED_CFG)
        ch = gen_channel(4, 64, 1.0, 1.0, rng=Rng(29))
        a = measure_sndr(ch, b, "fg", 200, Rng(30))
        c = measure_sndr(ch, b, "fg", 200, Rng(30))
        assert np.array_equal(a, c)


# -- the copying chain: every stage into a fresh array ------------------------
# The waveform chain as it was before it worked in place; the in-place chain
# must reproduce its bytes.


def faded_copying(x_freq, freq_h, p_max):
    y = unitary_dft(sel_apply(unitary_idft(x_freq), p_max))
    y *= freq_h
    return y


def hop_copying(x_freq, freq_h, p_max, n0, gen):
    y = faded_copying(x_freq, freq_h, p_max)
    y += _cgauss(gen, y.shape, n0)
    return y


def chain_copying(x_freq, channel, budget, protocol, gen):
    relay_in = hop_copying(x_freq, channel.freq_h1, budget.sel_s.p_max, budget.config.n0, gen)
    relay_in *= _relay_gains(budget, channel, protocol)
    y = faded_copying(relay_in, channel.freq_h2, budget.sel_r.p_max)
    y += _cgauss(gen, y.shape, budget.config.n0)
    return y


def measure_sndr_copying(channel, budget, protocol, n_blocks, rng, batch=256):
    n = channel.freq_h1.shape[0]
    sigma_sq = budget.sel_s.sigma_sq
    acc_xy = np.zeros(n, dtype=complex)
    acc_xx = np.zeros(n)
    acc_yy = np.zeros(n)
    done = 0
    idx = 0
    while done < n_blocks:
        b = min(batch, n_blocks - done)
        gen = generator(substream(rng, idx))
        x = _qpsk(gen, (b, n), sigma_sq)
        y = chain_copying(x, channel, budget, protocol, gen)
        acc_xy += np.sum(np.conj(x) * y, axis=0)
        acc_xx += np.sum(np.abs(x) ** 2, axis=0)
        acc_yy += np.sum(np.abs(y) ** 2, axis=0)
        done += b
        idx += 1
    c = acc_xy / acc_xx
    resid_power = (acc_yy - np.abs(c) ** 2 * acc_xx) / (n_blocks - 1)
    resid_power = np.maximum(resid_power, 1e-300)
    return np.abs(c) ** 2 * sigma_sq / resid_power


def pilot_sndr_copying(channel, budget, protocols, n_blocks, rng):
    n = channel.freq_h1.shape[0]
    gen = generator(rng)
    sigma_sq = budget.sel_s.sigma_sq
    x = _qpsk(gen, (n_blocks, n), sigma_sq)
    relay_in = hop_copying(x, channel.freq_h1, budget.sel_s.p_max, budget.config.n0, gen)
    state = gen.bit_generator.state
    out = []
    for protocol in protocols:
        gen.bit_generator.state = state
        gains = _relay_gains(budget, channel, protocol)
        c = budget.sel_s.zeta * budget.sel_r.zeta * gains * channel.freq_h1 * channel.freq_h2
        e = faded_copying(relay_in * gains, channel.freq_h2, budget.sel_r.p_max)
        e -= c * x
        energy = np.abs(e)
        energy *= energy
        resid = _residual_energy(np.sum(energy, axis=0), n_blocks, budget.config.n0, gen)
        resid = np.maximum(resid, 1e-300)
        out.append(np.abs(c) ** 2 * sigma_sq * n_blocks / resid)
    return out


def relay_input_power_copying(l, budget, rng, realizations, gen):
    cfg = budget.config
    n, m = cfg.n_subcarriers, len(realizations)
    taps = np.zeros((m, 2 * n))
    idx = np.empty((m, n), dtype=np.int64)
    noise = np.empty((m, 2 * n))
    for row, i in enumerate(realizations):
        r = substream(rng, i)
        reseed(gen, substream(r, 0))
        gen.standard_normal(out=taps[row, :l])
        gen.standard_normal(out=taps[row, n:n + l])
        idx[row] = reseed(gen, substream(r, 1)).integers(0, 4, n)
        if cfg.n0:
            gen.standard_normal(out=noise[row])
    freq_h1 = unitary_dft(_complex_normal(taps[:, :n], taps[:, n:], n * cfg.mu1 / l))
    y = faded_copying(_qpsk_symbols(idx, budget.sel_s.sigma_sq), freq_h1, budget.sel_s.p_max)
    if cfg.n0:
        y += _complex_normal(noise[:, :n], noise[:, n:], cfg.n0)
    return np.mean(np.abs(gain_fg(budget) * y) ** 2, axis=1)


CHAIN_CFG = NetworkConfig(p_s=100.0, clip_ratio_s=5.0, clip_ratio_r=8.0, n_subcarriers=64,
                          n_taps=4)
CHAIN_CASES = {
    "clipped": CHAIN_CFG,
    "clipped-n0=0": replace(CHAIN_CFG, n0=0.0),
    "linear": replace(CHAIN_CFG, clip_ratio_s=math.inf, clip_ratio_r=math.inf),
    "linear-n0=0": replace(CHAIN_CFG, n0=0.0, clip_ratio_s=math.inf, clip_ratio_r=math.inf),
    "linear-source": replace(CHAIN_CFG, clip_ratio_s=math.inf),
}


class TestInPlaceChain:
    """The in-place chain keeps every byte of the copying one and leaves its inputs alone."""

    @pytest.fixture(params=list(CHAIN_CASES), ids=str)
    def budget(self, request):
        return build_budget(CHAIN_CASES[request.param])

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    @pytest.mark.parametrize("shape", [(64,), (5, 64)], ids=["1-D", "2-D"])
    def test_waveform_chain_bytes(self, budget, protocol, shape):
        ch = gen_channel(4, 64, 1.0, 1.0, rng=Rng(120))
        x = _qpsk(generator(Rng(121)), shape, budget.sel_s.sigma_sq)
        kept = x.copy()
        y = waveform_chain(x, ch, budget, protocol, generator(Rng(122)))
        assert y.tobytes() == chain_copying(kept, ch, budget, protocol, generator(Rng(122))).tobytes()
        assert x.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    @pytest.mark.parametrize("n_blocks,batch", [(100, 256), (300, 128), (257, 64)])
    def test_measure_sndr_bytes(self, budget, protocol, n_blocks, batch):
        ch = gen_channel(4, 64, 1.0, 1.0, rng=Rng(123))
        got = measure_sndr(ch, budget, protocol, n_blocks, Rng(124), batch=batch)
        ref = measure_sndr_copying(ch, budget, protocol, n_blocks, Rng(124), batch=batch)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("protocols", [("vg",), ("fg",), ("vg", "fg"), ("fg", "vg")])
    def test_waveform_outage_bytes(self, budget, monkeypatch, protocols):
        ch = gen_channel(4, 64, 1.0, 1.0, rng=Rng(125))
        got = _pilot_sndr(ch, budget, protocols, 20, Rng(126))
        ref = pilot_sndr_copying(ch, budget, protocols, 20, Rng(126))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
        stats = waveform_outage(protocols, [1.0, 10.0, 30.0], budget, 3, 20, Rng(127))
        monkeypatch.setattr(simulator, "_pilot_sndr", pilot_sndr_copying)
        assert stats == waveform_outage(protocols, [1.0, 10.0, 30.0], budget, 3, 20, Rng(127))

    @pytest.mark.parametrize("l", [1, 3, 64])
    def test_fg_stationarity_bytes(self, budget, monkeypatch, l):
        cv = fg_stationarity_check(l, budget, 40, Rng(128, l))
        monkeypatch.setattr(simulator, "_relay_input_power", relay_input_power_copying)
        assert cv == fg_stationarity_check(l, budget, 40, Rng(128, l))

    @pytest.mark.parametrize("shape", [(64,), (5, 64)], ids=["1-D", "2-D"])
    def test_hop_leaves_its_input(self, budget, shape):
        ch = gen_channel(4, 64, 1.0, 1.0, rng=Rng(129))
        x = _qpsk(generator(Rng(130)), shape, budget.sel_s.sigma_sq)
        kept = x.copy()
        y = _hop(x, ch.freq_h1, budget.sel_s.p_max, budget.config.n0, generator(Rng(131)))
        ref = hop_copying(kept, ch.freq_h1, budget.sel_s.p_max, budget.config.n0,
                          generator(Rng(131)))
        assert y.tobytes() == ref.tobytes()
        assert x.tobytes() == kept.tobytes()


def traced_peak(call):
    """Peak bytes tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWaveformMemory:
    """A batch holds its sent and received blocks and one float scratch array: under 3 of
    its 16 b n-byte complex block arrays, where the copying chain peaked at 4.5 to 5.5."""

    N = 256
    BUDGET = build_budget(NetworkConfig(p_s=100.0, clip_ratio_s=5.0, clip_ratio_r=8.0,
                                        n_subcarriers=256, n_taps=16))

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    @pytest.mark.parametrize("n_blocks", [256, 700], ids=["one-batch", "three-batches"])
    def test_measure_sndr_peak(self, protocol, n_blocks):
        ch = gen_channel(16, self.N, 1.0, 1.0, rng=Rng(140))
        peak = traced_peak(lambda: measure_sndr(ch, self.BUDGET, protocol, n_blocks, Rng(141),
                                                batch=256))
        assert peak <= 3 * 16 * 256 * self.N

    @pytest.mark.parametrize("protocol", ["vg", "fg"])
    def test_waveform_outage_draw_peak(self, protocol):
        blocks = 256
        peak = traced_peak(lambda: waveform_outage(protocol, [1.0, 10.0], self.BUDGET, 1, blocks,
                                                   Rng(142)))
        assert peak <= 3 * 16 * blocks * self.N
