"""Soft envelope limiter model.

A node with clip power p_max passes its time-domain waveform through a
memoryless limiter that caps the instantaneous envelope at sqrt(p_max) while
preserving phase. For a circular Gaussian input of power sigma_sq the output
splits into a scaled replica plus uncorrelated distortion (Bussgang), with

    zeta  = 1 - e^{-r} + sqrt(pi r / 4) * erfc(sqrt(r)),   r = p_max/sigma_sq
    p_avg = sigma_sq * (1 - e^{-r})
    eta   = p_avg - zeta^2 * sigma_sq

zeta depends on the clip ratio r alone; eta scales linearly with sigma_sq.
erfc is the standard library's. sel_params accepts only a finite sigma_sq,
so r is never NaN, and r = inf (no clipping) returns before erfc is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Below this clip ratio the limiter passes essentially nothing and eta is a
# difference of vanishing terms; treat as a zero clip.
_TINY_CLIP_RATIO = 1e-12
# sel_apply clips this many samples at a time: 1 MB of complex output
_SLICE = 1 << 16


@dataclass(frozen=True)
class SelParams:
    """One node's limiter characterization.

    sigma_sq is the mean input power, p_max the clip power, zeta the Bussgang
    linear gain, eta the distortion power and p_avg the average transmit power.
    """

    sigma_sq: float
    p_max: float
    zeta: float
    eta: float
    p_avg: float


def sel_apply(sample, p_max, out=None):
    """Clip the envelope of a complex sample (or array) to sqrt(p_max).

    Phase is preserved exactly: samples at or below the clip level pass
    through unchanged. With out=None the result is a fresh complex array (a
    complex number for a scalar sample). Otherwise out, a C- or F-contiguous
    complex array of the sample's shape, receives it and is returned; out may
    be the sample itself, which is then clipped in place. |.|, the mask and
    the scale are formed one _SLICE of it at a time, so the temporaries stay
    within _SLICE elements whatever the input's size. Each element sees the
    same arithmetic as a whole-array pass, in place or not.
    """
    if not (p_max >= 0.0):
        raise DomainError(f"clip power must be non-negative, got {p_max!r}")
    if out is None:
        out = np.array(sample, dtype=complex)
    else:
        if (out.dtype != complex or out.shape != np.shape(sample)
                or not (out.flags.c_contiguous or out.flags.f_contiguous)):
            raise DomainError("out must be a contiguous complex array of the sample's shape")
        if out is not sample:
            np.copyto(out, sample)
    limit = math.sqrt(p_max) if math.isfinite(p_max) else math.inf
    # out is dense in C, F or another kept order: ravel(order="K") is a view of it
    flat = out.ravel(order="K")
    for start in range(0, flat.size, _SLICE):
        part = flat[start:start + _SLICE]
        mag = np.abs(part)
        over = mag > limit
        part[over] *= limit / mag[over]
    return complex(out) if out.ndim == 0 else out


def _zeta_eta_unit(r: float) -> tuple[float, float, float]:
    """(zeta, eta, p_avg) for unit input power and clip ratio r."""
    if math.isinf(r):
        return 1.0, 0.0, 1.0
    if r < _TINY_CLIP_RATIO:
        return 0.0, 0.0, 0.0
    p_bar = -math.expm1(-r)
    t = math.sqrt(math.pi * r / 4.0) * math.erfc(math.sqrt(r))
    zeta = p_bar + t
    # eta = p_bar - zeta^2 expanded so no leading digits cancel at large r
    eta = p_bar * math.exp(-r) - 2.0 * p_bar * t - t * t
    return zeta, max(eta, 0.0), p_bar


def sel_params(sigma_sq: float, p_max: float) -> SelParams:
    """Bussgang triple for a limiter with input power sigma_sq and clip p_max.

    p_max = inf is the linear limit (zeta = 1, eta = 0); p_max = 0 passes
    nothing.
    """
    if not (0.0 < sigma_sq < math.inf):
        raise DomainError(f"input power must be positive and finite, got {sigma_sq!r}")
    if not (p_max >= 0.0):
        raise DomainError(f"clip power must be non-negative, got {p_max!r}")
    zeta, eta_unit, p_bar = _zeta_eta_unit(p_max / sigma_sq)
    return SelParams(sigma_sq=sigma_sq, p_max=p_max, zeta=zeta, eta=eta_unit * sigma_sq,
                     p_avg=p_bar * sigma_sq)


def sigma_for_target_power(p_target: float, clip_ratio: float) -> float:
    """Input power sigma_sq such that the limiter's average output is p_target.

    Inverts p_avg = sigma_sq (1 - e^{-r}) at fixed clip ratio r.
    """
    if not (p_target > 0.0):
        raise DomainError(f"target power must be positive, got {p_target!r}")
    if not (clip_ratio > 0.0):
        raise DomainError(f"clip ratio must be positive, got {clip_ratio!r}")
    if math.isinf(clip_ratio):
        return p_target
    return p_target / -math.expm1(-clip_ratio)
