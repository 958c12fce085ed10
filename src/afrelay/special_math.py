"""Numerical kernels used throughout the package.

The first-order modified Bessel function of the second kind and adaptive
quadrature on the half line are written here; the unitary DFT pair is
numpy's FFT behind a length check, writing a fresh array or one passed as
out. None keeps shared mutable state, so all are safe to call concurrently
on distinct arrays.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError


# -- modified Bessel K1 ------------------------------------------------------

# Gauss-Legendre rule for the integral representation, frozen at import time.
# f(w) = w^2 sqrt(w^2/x + 2) e^{-w^2} is analytic on [0, 9] with the nearest
# singularity at w = i sqrt(2x), x >= 2, so the rule converges geometrically;
# the truncated tail beyond w = 9 is below 1e-28 of the integral.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)
_GL_U = 4.5 * (_GL_NODES + 1.0)
_GL_W = 4.5 * _GL_WEIGHTS
_GL_U2 = _GL_U * _GL_U
_GL_BASE = _GL_W * _GL_U2 * np.exp(-_GL_U2)

_K1_SPLIT = 2.0


def bessel_k1(x: float) -> float:
    """Modified Bessel function K1(x) for x > 0.

    Ascending log series below 2; above 2 the exact representation
    K1(x) = 2x e^{-x} Int_0^inf v^2 sqrt(v^2 + 2) e^{-x v^2} dv evaluated with
    a fixed 96-point Gauss-Legendre rule (the e^{-x} scale is factored out, so
    relative accuracy is uniform out to the underflow limit near x = 745).
    """
    x = float(x)
    if not (x > 0.0):
        raise DomainError(f"bessel_k1 requires x > 0, got {x!r}")
    if x < _K1_SPLIT:
        return _k1_series(x)
    return (2.0 / math.sqrt(x)) * math.exp(-x) * float(
        np.dot(_GL_BASE, np.sqrt(_GL_U2 / x + 2.0))
    )


def _k1_series_parts(x: float) -> tuple[float, float]:
    """Return (I1(x), S(x)) with S the digamma-weighted companion series.

    K1(x) = ln(x/2) I1(x) + 1/x - (x/4) S(x).
    """
    q = 0.25 * x * x
    # psi(1) = -gamma, psi(2) = 1 - gamma; running harmonic updates after.
    psi_a = -np.euler_gamma
    psi_b = 1.0 - np.euler_gamma
    term_i = 1.0  # (x^2/4)^k / (k! (k+1)!)
    i1 = 1.0
    s = psi_a + psi_b
    k = 0
    while True:
        k += 1
        term_i *= q / (k * (k + 1))
        psi_a += 1.0 / k
        psi_b += 1.0 / (k + 1)
        i1 += term_i
        s += (psi_a + psi_b) * term_i
        if term_i * (psi_a + psi_b + 1.0) < 1e-18 * (abs(s) + 1.0) and k >= 4:
            break
        if k > 200:
            break
    return 0.5 * x * i1, s


def _k1_series(x: float) -> float:
    i1, s = _k1_series_parts(x)
    return math.log(0.5 * x) * i1 + 1.0 / x - 0.25 * x * s


def one_minus_x_k1(x: float) -> float:
    """1 - x*K1(x), accurate for small x where the direct difference cancels.

    The product x*K1(x) tends to 1 from below like (x^2/2) log(2/x); outage
    expressions need this deficit at full relative precision.
    """
    x = float(x)
    if x == 0.0:
        return 0.0
    if not (x > 0.0):
        raise DomainError(f"one_minus_x_k1 requires x >= 0, got {x!r}")
    if x == math.inf:
        return 1.0  # x K1(x) -> 0, where the product below is inf * 0
    if x >= 1.0:
        return 1.0 - x * bessel_k1(x)
    i1, s = _k1_series_parts(x)
    # 1 - x K1 = -x ln(x/2) I1 + (x^2/4) S; both terms are positive for x < 2.
    return -x * math.log(0.5 * x) * i1 + 0.25 * x * x * s


# -- unitary DFT -------------------------------------------------------------


def _check_pow2_length(n: int) -> None:
    if n < 1:
        raise DomainError("transform length must be at least 1")
    if n & (n - 1):
        raise DomainError(f"transform length must be a power of two, got {n}")


def unitary_dft(v, out=None) -> np.ndarray:
    """Unitary DFT along the last axis; length must be a power of two.

    out, a complex array of v's shape, receives the transform and is
    returned; it may be v itself. Written in place or not, the bits are
    those of a fresh transform.
    """
    v = np.asarray(v)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise DomainError("unitary_dft requires a non-empty vector")
    _check_pow2_length(v.shape[-1])
    return np.fft.fft(v, norm="ortho", out=out)


def unitary_idft(v, out=None) -> np.ndarray:
    """Inverse of :func:`unitary_dft`, with the same out= (v itself allowed)."""
    v = np.asarray(v)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise DomainError("unitary_idft requires a non-empty vector")
    _check_pow2_length(v.shape[-1])
    return np.fft.ifft(v, norm="ortho", out=out)


# -- adaptive quadrature on [0, inf) -----------------------------------------


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error: float
    evaluations: int


# Paired Gauss rules on [-1, 1]; the 7/15 difference is the error estimate.
_QN_LO, _QW_LO = np.polynomial.legendre.leggauss(7)
_QN_HI, _QW_HI = np.polynomial.legendre.leggauss(15)


def _gauss_pair(g, a: float, b: float) -> tuple[float, float, int]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    lo = half * float(np.dot(_QW_LO, g(mid + half * _QN_LO)))
    hi = half * float(np.dot(_QW_HI, g(mid + half * _QN_HI)))
    return hi, abs(hi - lo), 22


def integrate_semi_infinite(f, tol: float, max_evals: int = 200_000) -> QuadratureResult:
    """Integrate f over [0, inf) with absolute tolerance `tol`.

    The half line is mapped to t in [0, 1) by x = t/(1 - t) and the mapped
    integrand refined adaptively, always bisecting the interval with the
    largest error estimate. Raises ConvergenceError (carrying the best
    estimate) if the evaluation budget runs out first.
    """
    if not (tol > 0.0):
        raise DomainError("quadrature tolerance must be positive")

    def g(t):
        t = np.asarray(t, dtype=float)
        omt = 1.0 - t
        x = t / omt
        return np.asarray(f(x), dtype=float) / (omt * omt)

    evals = 0
    heap = []
    total = 0.0
    err_total = 0.0
    counter = 0
    for a, b in ((0.0, 0.5), (0.5, 1.0)):
        val, err, n = _gauss_pair(g, a, b)
        evals += n
        total += val
        err_total += err
        heapq.heappush(heap, (-err, counter, a, b, val))
        counter += 1

    while err_total > tol and evals + 44 <= max_evals:
        neg_err, _, a, b, val = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1, n1 = _gauss_pair(g, a, mid)
        v2, e2, n2 = _gauss_pair(g, mid, b)
        evals += n1 + n2
        total += (v1 + v2) - val
        err_total += (e1 + e2) - (-neg_err)
        heapq.heappush(heap, (-e1, counter, a, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2))
        counter += 1

    result = QuadratureResult(value=total, abs_error=err_total, evaluations=evals)
    if err_total > tol:
        raise ConvergenceError(
            f"quadrature did not reach tol={tol:g} within {max_evals} evaluations "
            f"(estimate {total:.6g}, error {err_total:.2g})",
            result=result,
        )
    return result
