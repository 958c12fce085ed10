"""Network parameterization and the per-subcarrier SNDR.

A two-hop amplify-and-forward link: the source transmits an OFDM waveform
through a soft limiter, hop 1 adds Rayleigh fading and noise, the relay
amplifies (fixed gain from the average received power, or variable gain from
the instantaneous per-subcarrier gain: _gain_line, the one place they differ),
passes through its own limiter, and hop 2 delivers to the destination.
Everything downstream (outage, critical thresholds) consumes the LinkBudget.

Conventions: gamma values and channel gains are linear, powers in watts.
Under fixed clip ratios all node powers scale with the source power p_s, so
each node's signal and distortion powers over p_s (_scaled_powers) are invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bussgang import _TINY_CLIP_RATIO, SelParams, sel_params, sigma_for_target_power
from .errors import DomainError

PROTOCOLS = ("fg", "vg")


def normalize_protocol(protocol: str) -> str:
    p = str(protocol).lower()
    if p not in PROTOCOLS:
        raise DomainError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    return p


def check_threshold(gamma_th):
    """gamma_th (a number or an array) if every value is finite and >= 0; NaN is neither."""
    ok = (gamma_th >= 0.0) & (gamma_th < math.inf)
    if not (ok is True or np.all(ok)):
        raise DomainError("gamma_th must be finite and non-negative")
    return gamma_th


def check_gains(*gains):
    """The channel gains as float arrays if every value is finite and >= 0; NaN is neither."""
    arrays = tuple(np.asarray(g, dtype=float) for g in gains)
    if not all(np.all((g >= 0.0) & (g < math.inf)) for g in arrays):
        raise DomainError("channel gains must be finite and non-negative")
    return arrays


@dataclass(frozen=True)
class NetworkConfig:
    """Static network parameters.

    mu1/mu2 are per-hop mean channel gains, n0 the noise power, p_s the source
    average transmit power, p_ratio the relay-to-source power ratio, and the
    clip ratios are p_max/sigma_sq at each node (inf = no clipping). A clip
    ratio below 1e-12 is refused: such a node passes no signal at all.
    """

    mu1: float = 1.0
    mu2: float = 1.0
    n0: float = 1.0
    p_s: float = 1.0
    p_ratio: float = 1.0
    clip_ratio_s: float = math.inf
    clip_ratio_r: float = math.inf
    n_subcarriers: int = 512
    n_taps: int = 32

    def __post_init__(self):
        for name in ("mu1", "mu2", "p_s", "p_ratio"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise DomainError(f"{name} must be positive and finite, got {value!r}")
        if not (0.0 <= self.n0 < math.inf):
            raise DomainError(f"n0 must be non-negative and finite, got {self.n0!r}")
        for name in ("clip_ratio_s", "clip_ratio_r"):
            value = getattr(self, name)
            if not (value >= _TINY_CLIP_RATIO):
                raise DomainError(f"{name} must be >= {_TINY_CLIP_RATIO:g} or inf, got {value!r}")
        if self.n_subcarriers < 1 or self.n_taps < 1:
            raise DomainError("n_subcarriers and n_taps must be at least 1")


@dataclass(frozen=True)
class LinkBudget:
    """A configured network and its two limiters; nothing here divides by n0, which may be 0."""

    config: NetworkConfig
    sel_s: SelParams
    sel_r: SelParams

    @property
    def p_s(self) -> float:
        return self.config.p_s

    @property
    def n0(self) -> float:
        return self.config.n0

    @property
    def eps_star(self) -> float:
        """min over the nodes of n0/eta: inf for a linear network, 0 at zero noise power."""
        return min(self.n0 / s.eta if s.eta > 0.0 else math.inf for s in (self.sel_s, self.sel_r))


def build_budget(cfg: NetworkConfig) -> LinkBudget:
    """The limiter triples of a configuration.

    Each node's limiter input power is sized so its average transmit power
    hits the configured target (p_s at the source, p_ratio*p_s at the relay).
    A relay target outside the float range is refused, naming p_ratio * p_s.
    """
    if not (0.0 < cfg.p_ratio * cfg.p_s < math.inf):
        raise DomainError(f"the relay power p_ratio * p_s must be positive and finite, got "
                          f"{cfg.p_ratio!r} * {cfg.p_s!r}")
    sels = []
    for node, p_target, ratio in (("source", cfg.p_s, cfg.clip_ratio_s),
                                  ("relay", cfg.p_ratio * cfg.p_s, cfg.clip_ratio_r)):
        sigma_sq = sigma_for_target_power(p_target, ratio)
        # an overflowing clip power would silently make a clipping node linear
        if ratio < math.inf and ratio * sigma_sq == math.inf:
            raise DomainError(f"{node} clip power overflows at clip ratio {ratio!r}")
        sels.append(sel_params(sigma_sq, ratio * sigma_sq))
    return LinkBudget(cfg, *sels)


def _scaled_powers(budget: LinkBudget) -> tuple[float, float, float, float]:
    """(T_S, T_R, E_S, E_R): per node, signal power sigma_sq zeta^2 and distortion eta, over p_s."""
    p_s, s, r = budget.config.p_s, budget.sel_s, budget.sel_r
    return (s.sigma_sq / p_s * s.zeta**2, r.sigma_sq / p_s * r.zeta**2, s.eta / p_s, r.eta / p_s)


def _gain_line(protocol: str, budget: LinkBudget) -> tuple[float, float]:
    """(alpha, beta) of the relay's gain rule sigma_R^2/g^2 = p_s (alpha x + beta) + n0.

    The one place fixed gain (0, mu1) and variable gain (1, 0) differ. Read
    x if alpha else beta, never alpha x: at x = inf that is NaN for fixed gain.
    A fixed gain whose p_s * mu1 overflows has no finite gain rule and is refused.
    """
    if normalize_protocol(protocol) == "vg":
        return 1.0, 0.0
    cfg = budget.config
    if not cfg.p_s * cfg.mu1 < math.inf:
        raise DomainError(f"fixed gain needs a finite p_s * mu1, got {cfg.p_s!r} * {cfg.mu1!r}")
    return 0.0, cfg.mu1


def threshold(protocol: str, budget: LinkBudget) -> float:
    """Critical threshold; +inf when the protocol has no phase transition.

    The root in gamma of a = T_R (T_S - gamma E_S) - gamma E_R alpha, the
    coefficient whose sign decides outage in the distortion limit.
    """
    alpha, _ = _gain_line(protocol, budget)
    t_s, t_r, e_s, e_r = _scaled_powers(budget)
    den = alpha * e_r + t_r * e_s
    return t_s * t_r / den if den > 0.0 else math.inf


def threshold_gap(budget: LinkBudget) -> float:
    """threshold(fg) - threshold(vg) in closed form; needs source distortion."""
    t_s, t_r, e_s, e_r = _scaled_powers(budget)
    if e_s <= 0.0:
        raise DomainError("threshold gap is undefined for a distortion-free source")
    return t_s * e_r / (e_s * (e_r + t_r * e_s))


def gain_fg(budget: LinkBudget) -> float:
    """Fixed relay amplification, sized from the average received power."""
    return gain_vg(budget, budget.config.mu1)


def gain_vg(budget: LinkBudget, h1_gain):
    """Relay amplification sized from first-hop gain |h1|^2 (the mean mu1 for fixed gain).

    A zero gain with zero noise leaves the relay nothing to size from: the
    gain is its limit, inf.
    """
    (h1_gain,) = check_gains(h1_gain)
    cfg = budget.config
    with np.errstate(divide="ignore"):
        out = np.sqrt(budget.sel_r.sigma_sq / (cfg.p_s * h1_gain + cfg.n0))
    return float(out) if out.ndim == 0 else out


class _Wide:
    """Non-negative floats as m 2**e, m in [0.5, 1) (0 at zero), e int64. *, / and + round m
    as a float operation rounds a normal result: the same bits wherever the float's are normal."""

    __array_ufunc__ = None  # a numpy scalar operand defers to __rmul__

    def __init__(self, m, e=0):
        m, de = np.frexp(m)  # int32 exponents, cast before the int64 zero sentinel meets them
        self.m, self.e = m, np.where(m == 0.0, -(2**40), de.astype(np.int64) + e)

    def __mul__(self, o):
        o = o if isinstance(o, _Wide) else _Wide(o)
        return _Wide(self.m * o.m, self.e + o.e)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = o if isinstance(o, _Wide) else _Wide(o)
        return _Wide(self.m / o.m, self.e - o.e)

    def __add__(self, o):
        o = o if isinstance(o, _Wide) else _Wide(o)
        e = np.maximum(self.e, o.e)  # the smaller term moved to e: exact, or below m's half ulp
        return _Wide(np.ldexp(self.m, self.e - e) + np.ldexp(o.m, o.e - e), e)

    def value(self):  # the nearest float, inf past the range; a subnormal rounds m twice
        return np.ldexp(self.m, self.e)  # numpy's ldexp clamps an int64 e past int's range


def _num_den(alpha: float, beta: float, x, y, budget: LinkBudget, n0):
    s, r = budget.sel_s, budget.sel_r
    zr2 = r.zeta**2
    # sndr = num / den, den = y (n0 + eta_S x) zeta_R^2 + (y eta_R + n0) / g^2, built
    # in place in the order of that expression, so the rounding is the same
    den = s.eta * x
    den += n0
    den = y * den
    den *= zr2
    relay = y * r.eta
    relay += n0
    inv_g2 = budget.config.p_s * (x if alpha else beta)
    inv_g2 += n0
    inv_g2 /= r.sigma_sq
    den += relay * inv_g2
    return s.sigma_sq * s.zeta**2 * zr2 * x * y, den


def sndr(protocol: str, h1_gain, h2_gain, budget: LinkBudget):
    """Instantaneous per-subcarrier SNDR for given channel gains.

    Accepts scalars or broadcastable arrays of finite gains >= 0; a zero gain gives 0.
    At zero noise it is the distortion-limited limit: threshold("vg") for variable gain
    at any gains > 0, and for fixed gain a function of h1_gain alone whose CDF is
    outage_floor("fg", ...). An entry whose float num or den leaves the normal range is
    the same expression evaluated with an unbounded exponent.
    """
    alpha, beta = _gain_line(protocol, budget)
    x, y = check_gains(h1_gain, h2_gain)
    n0 = budget.config.n0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num, den = _num_den(alpha, beta, x, y, budget, n0)
        out = np.asarray(num / den)
        if not np.all(ok := (den >= np.finfo(float).tiny) & (den < math.inf) & (out < math.inf)):
            # den = 0 (a zero gain, a noiseless distortion-free path or an underflow),
            # subnormal or inf, or num / den = inf: the same expression on _Wide
            xb, yb = (_Wide(np.broadcast_to(g, out.shape)[~ok]) for g in (x, y))
            num, den = _num_den(alpha, _Wide(beta), xb, yb, budget, _Wide(n0))
            out[~ok] = np.where(num.m > 0.0, (num / den).value(), 0.0)
    return float(out) if out.ndim == 0 else out
