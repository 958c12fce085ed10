"""Monte Carlo ground truth.

Two levels of fidelity:

* channel-level trials draw per-subcarrier fading gains and evaluate the
  SNDR expression directly (fast, used to validate the closed forms);
* waveform-level trials run full OFDM blocks through both limiters, clipping
  each time-domain sample, with the tapped channels, the relay gains and the
  additive noise applied per subcarrier (used to validate the Bussgang model
  itself).

Randomness is counter based: every (seed, stream_id) pair indexes an
independent Philox stream, trials are pre-partitioned into fixed chunks with
their own streams, and reductions are order insensitive. Results are
therefore bit identical no matter how work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bussgang import sel_apply
from .errors import DomainError
from .link_budget import (LinkBudget, _gain_line, check_threshold, gain_fg, gain_vg,
                          normalize_protocol, sndr)
from .special_math import _check_pow2_length, unitary_dft, unitary_idft

_CHUNK = 1 << 16
# SNDRs are computed this many trials at a time: 64 KB float64 temporaries
# stay below the allocator's mmap threshold and in L2
_SLICE = 1 << 13
# spacing between derived stream ids; keeps nested derivations collision free
_STREAM_STRIDE = 0x1000


@dataclass(frozen=True)
class Rng:
    """Counter-based stream address: same (seed, stream_id) -> same draws."""

    seed: int
    stream_id: int = 0


def _key(rng: Rng) -> tuple[int, int]:
    """Philox's two key words: seed and stream id, each taken modulo 2^64."""
    return rng.seed & 0xFFFFFFFFFFFFFFFF, rng.stream_id & 0xFFFFFFFFFFFFFFFF


def generator(rng: Rng) -> np.random.Generator:
    # an explicit uint64 array: numpy may infer float64, which rounds, for a word >= 2^63
    return np.random.Generator(np.random.Philox(key=np.array(_key(rng), dtype=np.uint64)))


_NO_WORDS = np.zeros(4, dtype=np.uint64)


def reseed(gen: np.random.Generator, rng: Rng) -> np.random.Generator:
    """Restart gen's Philox at the start of rng's stream; returns gen.

    Its draws are then those of a fresh generator(rng), whatever gen drew
    before, without building new objects or reading an OS entropy seed.
    """
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": _NO_WORDS, "key": _key(rng)},
                               "buffer": _NO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def substream(rng: Rng, index: int) -> Rng:
    return Rng(seed=rng.seed, stream_id=rng.stream_id * _STREAM_STRIDE + index + 1)


@dataclass(frozen=True)
class ChannelRealization:
    """Per-hop subcarrier responses: unitary DFTs of the taps zero-padded to n."""

    freq_h1: np.ndarray
    freq_h2: np.ndarray


@dataclass(frozen=True)
class SimStats:
    n_trials: int
    n_outages: int
    p_hat: float
    ci_low: float
    ci_high: float


_Z975 = 1.959963984540054


def _t975(df: int) -> float:
    """0.975 quantile of Student's t with df >= 1 degrees of freedom.

    Closed forms at df = 1 and 2; above that Hill's Cornish-Fisher series in
    1/df, within 1.3e-3 relative at df = 3 and 4e-6 from df = 10.
    """
    if df <= 2:
        return (math.tan(0.475 * math.pi), 0.95 / math.sqrt(2.0 * 0.975 * 0.025))[df - 1]
    z, z2 = _Z975, _Z975 * _Z975
    g = (z * (z2 + 1.0) / 4.0,
         z * ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0,
         z * (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0,
         z * ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) / 92160.0)
    return z + sum(gk / df ** (k + 1) for k, gk in enumerate(g))


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% score interval; stays sane at p_hat near 0 or 1."""
    if n <= 0:
        return 0.0, 1.0
    z = _Z975
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def _add_cn(y: np.ndarray, var: float, gen: np.random.Generator) -> np.ndarray:
    """y += CN(0, var) samples drawn from gen, in place; returns y.

    All real parts are drawn and then all imaginary parts, each scaled in one
    float scratch array and added to its half of y. At var = 0 nothing is drawn.
    """
    if var == 0.0:
        return y
    scale = math.sqrt(var / 2.0)
    tmp = np.empty(y.shape)
    for part in (y.real, y.imag):
        gen.standard_normal(out=tmp)
        tmp *= scale
        part += tmp
    return y


def _check_taps(l: int, n: int) -> None:
    if not (1 <= l <= n):
        raise DomainError(f"need 1 <= l <= n, got l={l}, n={n}")
    _check_pow2_length(n)


def gen_channel(l: int, n: int, mu1: float, mu2: float, rng: Rng) -> ChannelRealization:
    """Draw one quasi-static channel pair with l taps over n subcarriers.

    Each tap is CN(0, n mu / l), so each subcarrier response is exactly
    CN(0, mu).
    """
    _check_taps(l, n)
    gen = generator(rng)
    taps = np.zeros((2, n), dtype=complex)
    for row, mu in zip(taps, (mu1, mu2)):
        _add_cn(row[:l], n * mu / l, gen)
    freqs = unitary_dft(taps)
    return ChannelRealization(freqs[0], freqs[1])


_QPSK_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])


def _qpsk_symbols(idx, sigma_sq):
    return (math.sqrt(sigma_sq / 2.0) * _QPSK_POINTS)[idx]


def _qpsk(gen, shape, sigma_sq):
    return _qpsk_symbols(gen.integers(0, 4, shape), sigma_sq)


def _faded(x_freq: np.ndarray, freq_h: np.ndarray, p_max: float) -> np.ndarray:
    """One hop without its noise, frequency domain in and out, in place.

    A cyclic prefix longer than the channel in front of a memoryless limiter
    makes the receive window's convolution circular, so the limiter clips
    each time-domain sample and the channel is a per-subcarrier multiply by
    freq_h. x_freq, a contiguous complex array, is transformed, clipped and
    multiplied where it lies, and returned.
    """
    unitary_idft(x_freq, out=x_freq)
    sel_apply(x_freq, p_max, out=x_freq)
    unitary_dft(x_freq, out=x_freq)
    x_freq *= freq_h
    return x_freq


def _hop(x_freq: np.ndarray, freq_h: np.ndarray, p_max: float, n0: float,
         gen: np.random.Generator) -> np.ndarray:
    """One hop with its noise, into a fresh array: x_freq is left as it was.

    The unitary DFT of the window's white CN(0, n0) noise is again white
    CN(0, n0), so the noise is drawn per subcarrier.
    """
    return _add_cn(_faded(np.array(x_freq, dtype=complex, order="C"), freq_h, p_max), n0, gen)


def _relay_gains(budget: LinkBudget, channel: ChannelRealization, protocol: str):
    """Relay gain per subcarrier: a scalar for fixed gain, a vector for variable gain."""
    alpha, beta = _gain_line(protocol, budget)
    return gain_vg(budget, np.abs(channel.freq_h1) ** 2 if alpha else beta)


def _relay_stage(relay_in: np.ndarray, gains, channel: ChannelRealization,
                 budget: LinkBudget) -> np.ndarray:
    """The relay's gains, its limiter and the second hop, in place on relay_in; draws nothing.

    The destination's noise is left to the caller.
    """
    relay_in *= gains
    return _faded(relay_in, channel.freq_h2, budget.sel_r.p_max)


def waveform_chain(x_freq: np.ndarray, channel: ChannelRealization, budget: LinkBudget,
                   protocol: str, gen: np.random.Generator) -> np.ndarray:
    """Push frequency-domain blocks (..., n) through the full two-hop chain.

    Each node clips the time-domain samples of its block; each hop multiplies
    every subcarrier by its channel response and adds CN(0, n0) noise per
    subcarrier. The relay applies its gain per subcarrier (a scalar for fixed
    gain) between the hops, the standard idealized per-subcarrier model.
    """
    gains = _relay_gains(budget, channel, protocol)
    relay_in = _hop(x_freq, channel.freq_h1, budget.sel_s.p_max, budget.config.n0, gen)
    return _add_cn(_relay_stage(relay_in, gains, channel, budget), budget.config.n0, gen)


def estimate_bussgang(input_samples, output_samples) -> tuple[float, float, float]:
    """Least-squares gain, residual power, and leftover correlation.

    The residual correlation is zero by construction of the projection and
    is returned as a sanity figure. Every sum is one np.add.reduce over the
    flattened arrays, each |z|^2 summed over z's float64 words squared, so no
    BLAS call (whose bits follow its thread count) is made.
    """
    x = np.asarray(input_samples, dtype=complex).ravel()
    y = np.asarray(output_samples, dtype=complex).ravel()
    if x.size < 2 or y.shape != x.shape:
        raise DomainError("need two equal-length sample vectors of size >= 2")
    px = float(np.add.reduce(np.square(x.view(float))))
    if px <= 0.0:
        raise DomainError("input power is zero")
    zeta_hat = complex(np.add.reduce(np.conj(x) * y)) / px
    resid = y - zeta_hat * x
    rr = float(np.add.reduce(np.square(resid.view(float))))
    norm = math.sqrt(rr) * math.sqrt(px)
    resid_corr = float(abs(np.add.reduce(np.conj(x) * resid)) / norm) if norm > 0.0 else 0.0
    return float(zeta_hat.real), rr / x.size, resid_corr


def measure_sndr(channel: ChannelRealization, budget: LinkBudget, protocol: str,
                 n_blocks: int, rng: Rng, batch: int = 256) -> np.ndarray:
    """Per-subcarrier SNDR of a fixed channel, measured over n_blocks blocks.

    Splits each subcarrier's received symbols into a projection onto the sent
    symbols (signal) and the residual (noise plus distortion). A batch holds
    its sent and received blocks and one float scratch array for |x|^2 and
    |y|^2; the cross term conj(x) y is formed in x, which is no longer needed,
    and the batch's arrays are dropped before the next batch is drawn.
    """
    if n_blocks < 100:
        raise DomainError("need at least 100 blocks for a stable split")
    if batch < 1:
        raise DomainError(f"batch must be at least 1, got {batch}")
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
        y = waveform_chain(x, channel, budget, protocol, gen)
        power = np.abs(x)
        power *= power
        acc_xx += np.sum(power, axis=0)
        np.abs(y, out=power)
        power *= power
        acc_yy += np.sum(power, axis=0)
        np.multiply(np.conjugate(x, out=x), y, out=x)
        acc_xy += np.sum(x, axis=0)
        del x, y, power
        done += b
        idx += 1
    c = acc_xy / acc_xx
    # least-squares split; the projection eats one block of freedom
    resid_power = (acc_yy - np.abs(c) ** 2 * acc_xx) / (n_blocks - 1)
    resid_power = np.maximum(resid_power, 1e-300)
    return np.abs(c) ** 2 * sigma_sq / resid_power


def model_sndr(channel: ChannelRealization, budget: LinkBudget, protocol: str) -> np.ndarray:
    """Analytic per-subcarrier SNDR for a given channel realization."""
    return sndr(protocol, np.abs(channel.freq_h1) ** 2, np.abs(channel.freq_h2) ** 2, budget)


def _outage_counts(lam: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Number of SNDRs lam <= gamma for every gamma; sorts lam in place.

    The count is the right insertion point of gamma in the sorted SNDRs, for
    any gamma order, ties and duplicates included; NaN SNDRs sort last and
    are never counted.
    """
    lam.sort()
    return np.searchsorted(lam, gammas, side="right")


def _chunk_counts(chunk) -> np.ndarray:
    """Outage counts per gamma over one chunk of independently seeded draws.

    All m first-hop gains are drawn first, then the second-hop gains _SLICE
    at a time; the stream continues, so the draws are those of two whole
    exponential calls. Each slice's SNDRs overwrite its first-hop gains, so
    no temporary outgrows a slice.
    """
    protocol, gammas, budget, rng, m = chunk
    gen = generator(rng)
    lam = gen.exponential(budget.config.mu1, m)
    for s in range(0, m, _SLICE):
        x = lam[s:s + _SLICE]
        x[:] = sndr(protocol, x, gen.exponential(budget.config.mu2, x.size), budget)
    return _outage_counts(lam, gammas)


def mc_outage_sweep(protocol: str, gammas, budget: LinkBudget, n_trials: int,
                    rng: Rng, map_fn=map) -> list[SimStats]:
    """Outage estimates for a whole gamma grid from one shared draw set.

    The trials are cut into fixed chunks of 65 536, chunk i drawing from
    substream(rng, i). Each chunk computes its SNDRs in place, 8 192 trials
    at a time, sorts them once and counts the trials at or below every gamma
    by binary search, and the integer counts are summed. map_fn applies the
    chunk counter to the chunks; passing a process pool's map spreads them
    over workers without changing any result.
    """
    protocol = normalize_protocol(protocol)
    if n_trials < 1:
        raise DomainError("n_trials must be at least 1")
    gammas = check_threshold(np.asarray(gammas, dtype=float))
    chunks = [(protocol, gammas, budget, substream(rng, i), min(_CHUNK, n_trials - start))
              for i, start in enumerate(range(0, n_trials, _CHUNK))]
    counts = sum(map_fn(_chunk_counts, chunks))
    out = []
    for k in counts:
        lo, hi = wilson_interval(int(k), n_trials)
        out.append(SimStats(n_trials=n_trials, n_outages=int(k), p_hat=int(k) / n_trials,
                            ci_low=lo, ci_high=hi))
    return out


def _residual_energy(energy: np.ndarray, n_blocks: int, n0: float,
                     gen: np.random.Generator) -> np.ndarray:
    """R = sum_b |e_b + w_b|^2 per subcarrier, w_b ~ CN(0, n0) iid, drawn in closed form.

    Given the noiseless energy E = sum_b |e_b|^2 over n_blocks blocks, R is
    exactly (n0/2) chi'^2(2 n_blocks, 2 E / n0), a noncentral chi-square, so
    one draw per subcarrier replaces 2 n_blocks normals. At n0 = 0, R is E
    and nothing is drawn.
    """
    if n0 == 0.0:
        return energy
    with np.errstate(over="ignore"):
        nonc = 2.0 * energy / n0
    # where that overflows, the noise lies far below the last digit of E
    exact = np.isinf(nonc)
    nonc[exact] = 0.0
    return np.where(exact, energy, 0.5 * n0 * gen.noncentral_chisquare(2 * n_blocks, nonc))


def _pilot_sndr(channel: ChannelRealization, budget: LinkBudget, protocols: tuple[str, ...],
                n_blocks: int, rng: Rng) -> list[np.ndarray]:
    """Per-subcarrier SNDR of each protocol, with the signal coefficient taken from the model.

    Everything not captured by the linear coefficient (noise, distortion, and
    any model error in the coefficient itself) lands in the residual, so this
    split is conservative. The residual-power estimate carries an exact
    Gamma(n_blocks) kernel, which waveform_outage undoes on the analytic side.

    Only the residual energy R = sum_b |y_b - c x_b|^2 of each subcarrier is
    needed, and the destination's CN(0, n0) noise enters after the last DFT.
    So the chain stops before that noise, at the noiseless residual e_b, and
    R = sum_b |e_b + w_b|^2 = (n0/2) chi'^2(2 n_blocks, 2 sum_b |e_b|^2 / n0)
    is drawn in closed form by _residual_energy.

    The protocols share the QPSK blocks, the source limiter, the first hop
    and its noise, computed once. Each protocol's remainder starts from the
    generator state saved after that noise, so each array is bit identical
    to a call with that protocol alone.
    """
    n = channel.freq_h1.shape[0]
    gen = generator(rng)
    sigma_sq = budget.sel_s.sigma_sq
    x = _qpsk(gen, (n_blocks, n), sigma_sq)
    relay_in = _hop(x, channel.freq_h1, budget.sel_s.p_max, budget.config.n0, gen)
    state = gen.bit_generator.state
    out = []
    for k, protocol in enumerate(protocols):
        gen.bit_generator.state = state
        gains = _relay_gains(budget, channel, protocol)
        c = budget.sel_s.zeta * budget.sel_r.zeta * gains * channel.freq_h1 * channel.freq_h2
        # the last protocol may overwrite the shared relay input and sent blocks
        last = k == len(protocols) - 1
        e = _relay_stage(relay_in if last else relay_in.copy(), gains, channel, budget)
        e -= np.multiply(c, x, out=x if last else None)
        energy = np.abs(e)
        energy *= energy
        resid = _residual_energy(np.sum(energy, axis=0), n_blocks, budget.config.n0, gen)
        resid = np.maximum(resid, 1e-300)
        out.append(np.abs(c) ** 2 * sigma_sq * n_blocks / resid)
    return out


def estimator_consistent_outage(p_of_gamma, gamma: float, n_blocks: int) -> float:
    """Expected measured outage given the residual estimator's Gamma kernel.

    The measured SNDR is the true one divided by u/n_blocks with
    u ~ Gamma(n_blocks), so the prediction smears the analytic curve with
    that kernel.
    """
    b = float(n_blocks)
    half_width = 8.0 * math.sqrt(b)
    u = np.linspace(max(b - half_width, 1e-9), b + half_width, 401)
    log_pdf = (b - 1.0) * np.log(u) - u - math.lgamma(b)
    w = np.exp(log_pdf - np.max(log_pdf))
    w /= np.sum(w)
    return float(np.sum(w * np.array([p_of_gamma(gamma * ui / b) for ui in u])))


def waveform_outage(protocol: str | tuple[str, ...], gammas, budget: LinkBudget, n_draws: int,
                    n_blocks: int, rng: Rng) -> list[SimStats] | list[list[SimStats]]:
    """Full-waveform outage: measured per-subcarrier SNDR against thresholds.

    Each channel draw contributes the outage fraction across its subcarriers;
    the interval is a Student-t one on the draw-level means (n - 1 variance),
    which respects the within-draw correlation. One draw cannot estimate that
    spread, so its interval is [0, 1].

    protocol is "vg", "fg" or a tuple of them. A tuple returns one stats list
    per protocol, in its order, from common random numbers: every protocol
    sees the same channels, QPSK blocks and first-hop noise, computed once per
    draw, and each list is bit identical to the call with that protocol alone.
    """
    protocols = ((normalize_protocol(protocol),) if isinstance(protocol, str)
                 else tuple(normalize_protocol(p) for p in protocol))
    if not protocols:
        raise DomainError("need at least one protocol")
    if n_draws < 1 or n_blocks < 1:
        raise DomainError(f"need n_draws >= 1 and n_blocks >= 1, got {n_draws} and {n_blocks}")
    gammas = check_threshold(np.asarray(gammas, dtype=float))
    cfg = budget.config
    n = cfg.n_subcarriers
    shape = (len(protocols), gammas.size)
    sums = np.zeros(shape)
    sq_sums = np.zeros(shape)
    total = np.zeros(shape, dtype=np.int64)
    for d in range(n_draws):
        draw_rng = substream(rng, d)
        ch = gen_channel(cfg.n_taps, n, cfg.mu1, cfg.mu2, rng=substream(draw_rng, 0))
        lams = _pilot_sndr(ch, budget, protocols, n_blocks, substream(draw_rng, 1))
        for k, lam in enumerate(lams):
            counts = _outage_counts(lam, gammas)
            frac = counts / n
            sums[k] += frac
            sq_sums[k] += frac * frac
            total[k] += counts
    mean = sums / n_draws
    var = np.maximum(sq_sums - n_draws * mean**2, 0.0) / max(n_draws - 1, 1)
    half = _t975(n_draws - 1) * np.sqrt(var / n_draws) if n_draws > 1 else np.inf
    lo, hi = np.maximum(mean - half, 0.0), np.minimum(mean + half, 1.0)
    stats = [[SimStats(n_trials=n_draws * n, n_outages=int(k), p_hat=float(p), ci_low=float(a),
                       ci_high=float(b)) for k, p, a, b in zip(*rows)]
             for rows in zip(total, mean, lo, hi)]
    return stats[0] if isinstance(protocol, str) else stats


def fg_stationarity_check(l: int, budget: LinkBudget, n_realizations: int, rng: Rng) -> float:
    """Spread of the relay limiter's input power across channel draws.

    Returns the coefficient of variation of the per-block mean power after
    fixed-gain amplification. Flat channels leave the full first-hop fading
    in this power; many taps average it away, which is what makes the
    stationary-Gaussian model of the relay input accurate.

    Realization i, r = substream(rng, i), reads its first hop's taps from
    substream(r, 0) and its QPSK block and first-hop noise from
    substream(r, 1), through the calls and in the order of gen_channel and
    _hop; the second hop's taps are never drawn. One generator is reseeded
    for each stream. The realizations then pass the DFTs, the limiter and
    the first hop together, in batches of at most _CHUNK samples, so memory
    does not grow with n_realizations.
    """
    cfg = budget.config
    n = cfg.n_subcarriers
    _check_taps(l, n)
    if n_realizations < 2:
        raise DomainError(f"need at least 2 realizations, got {n_realizations}")
    gen = generator(rng)
    rows = max(1, _CHUNK // n)
    powers = np.empty(n_realizations)
    for s in range(0, n_realizations, rows):
        m = min(rows, n_realizations - s)
        freq_h1 = np.zeros((m, n), dtype=complex)
        idx = np.empty((m, n), dtype=np.int64)
        noise = np.zeros((m, n), dtype=complex)
        for row in range(m):
            r = substream(rng, s + row)
            _add_cn(freq_h1[row, :l], n * cfg.mu1 / l, reseed(gen, substream(r, 0)))
            idx[row] = reseed(gen, substream(r, 1)).integers(0, 4, n)
            _add_cn(noise[row], cfg.n0, gen)
        unitary_dft(freq_h1, out=freq_h1)
        y = _faded(_qpsk_symbols(idx, budget.sel_s.sigma_sq), freq_h1, budget.sel_s.p_max)
        y += noise
        y *= gain_fg(budget)
        # by Parseval the mean power over subcarriers is the window's mean power
        power = np.abs(y)
        power *= power
        powers[s:s + m] = np.mean(power, axis=1)
    return float(np.std(powers) / np.mean(powers))
