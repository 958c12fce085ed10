"""Tests for the numerical kernels against independent oracles."""

import math

import numpy as np
import pytest

from afrelay.errors import ConvergenceError, DomainError
from afrelay.special_math import (
    QuadratureResult,
    bessel_k1,
    integrate_semi_infinite,
    one_minus_x_k1,
    unitary_dft,
    unitary_idft,
)

# Frozen before the build from a 40-digit continued-fraction/series evaluation.
ERFC_REF = {
    0.5: 0.47950012218695346232,
    2.0: 0.0046777349810472658379,
    5.0: 1.5374597944280348502e-12,
    10.0: 2.088487583762544757e-45,
    26.0: 5.6631924088561428465e-296,
}
K1_REF = {
    0.1: 9.8538447808706061348,
    1.0: 0.60190723019723457474,
    2.0: 0.13986588181652242728,
    5.0: 0.0040446134454521642084,
    10.0: 1.8648773453825584597e-05,
    50.0: 3.4441022267175556126e-23,
    700.0: 4.6731107967079661091e-306,
}


def erfc_cf_oracle(x, terms=200):
    """Independent continued-fraction oracle, bottom-up evaluation."""
    tail = 0.0
    for n in range(terms, 0, -1):
        tail = (0.5 * n) / (x + tail)
    return math.exp(-x * x) / (math.sqrt(math.pi) * (x + tail))


def k1_series_oracle(x, kmax=60):
    """Ascending-series oracle for K1, digamma terms built from harmonics."""
    q = x * x / 4.0
    gamma = float(np.euler_gamma)
    i1 = 0.0
    s = 0.0
    fact_k = 1.0
    fact_k1 = 1.0
    for k in range(kmax):
        if k > 0:
            fact_k *= k
            fact_k1 *= k + 1
        psi_a = -gamma + sum(1.0 / j for j in range(1, k + 1))
        psi_b = -gamma + sum(1.0 / j for j in range(1, k + 2))
        c = q**k / (fact_k * fact_k1)
        i1 += c
        s += (psi_a + psi_b) * c
    i1 *= x / 2.0
    return math.log(x / 2.0) * i1 + 1.0 / x - (x / 4.0) * s


def k1_asymptotic_oracle(x, kmax=12):
    """Large-argument asymptotic series oracle for K1."""
    total = 1.0
    term = 1.0
    mu = 4.0
    for k in range(1, kmax):
        term *= (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        total += term
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * total


class TestErfc:
    # math.erfc is what bussgang evaluates zeta with
    def test_zero(self):
        assert math.erfc(0.0) == 1.0

    def test_tail_no_underflow_fault(self):
        assert math.erfc(30.0) < 1e-300

    @pytest.mark.parametrize("x,ref", sorted(ERFC_REF.items()))
    def test_frozen_values(self, x, ref):
        assert math.erfc(x) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_against_cf_oracle(self):
        for x in [2.0, 3.0, 5.0, 8.0, 13.0, 26.0]:
            assert math.erfc(x) == pytest.approx(erfc_cf_oracle(x), rel=1e-13, abs=0.0)

    def test_reflection_identity(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-6.0, 6.0, 200):
            assert math.erfc(x) + math.erfc(-x) == pytest.approx(2.0, abs=1e-12)


class TestBesselK1:
    def test_small_argument_limit(self):
        x = 1e-8
        assert x * bessel_k1(x) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("x,ref", sorted(K1_REF.items()))
    def test_frozen_values(self, x, ref):
        assert bessel_k1(x) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_against_series_oracle(self):
        for x in [0.05, 0.3, 1.0, 1.9, 2.5, 3.5]:
            assert bessel_k1(x) == pytest.approx(k1_series_oracle(x), rel=1e-11, abs=0.0)

    def test_against_asymptotic_oracle(self):
        for x in [20.0, 40.0, 100.0, 400.0, 700.0]:
            assert bessel_k1(x) == pytest.approx(k1_asymptotic_oracle(x), rel=1e-10, abs=0.0)

    def test_split_point_continuity(self):
        assert bessel_k1(2.0 - 1e-12) == pytest.approx(bessel_k1(2.0 + 1e-12), rel=1e-9, abs=0.0)

    def test_x_k1_monotone_and_bounded(self):
        xs = np.logspace(-8, 2.5, 400)
        vals = np.array([x * bessel_k1(x) for x in xs])
        assert np.all(vals <= 1.0 + 1e-12)
        assert np.all(np.diff(vals) < 1e-12)

    def test_one_minus_x_k1_consistency(self):
        for x in [1e-6, 1e-3, 0.05, 0.4, 0.9, 1.5, 3.0]:
            assert one_minus_x_k1(x) == pytest.approx(1.0 - x * bessel_k1(x), rel=2e-7, abs=1e-15)

    def test_one_minus_x_k1_large_x(self):
        # x K1(x) underflows long before x = inf, where the product is inf * 0
        for x in [40.0, 700.0, 1e300, math.inf]:
            assert one_minus_x_k1(x) == 1.0

    def test_one_minus_x_k1_small_x_precision(self):
        # At x = 1e-6 the deficit is ~7.5e-12; the direct difference would
        # carry only a few good digits.
        x = 1e-6
        expected = -x * x / 2.0 * math.log(x / 2.0) + x * x / 4.0 * (1.0 - 2.0 * np.euler_gamma)
        assert one_minus_x_k1(x) == pytest.approx(expected, rel=1e-6, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k1(0.0)
        with pytest.raises(DomainError):
            bessel_k1(-1.0)


def dft_oracle(v):
    """Direct O(n^2) unitary DFT."""
    n = len(v)
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return w @ v


class TestUnitaryDft:
    def test_impulse(self):
        out = unitary_dft([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(out, 0.5 * np.ones(4), atol=1e-15)

    def test_parseval(self):
        rng = np.random.default_rng(11)
        for n in [2, 8, 64, 512]:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.linalg.norm(unitary_dft(v)) == pytest.approx(np.linalg.norm(v), rel=1e-12, abs=0.0)

    def test_roundtrip_512(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        assert np.max(np.abs(unitary_idft(unitary_dft(v)) - v)) < 1e-12

    def test_against_direct_oracle(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        assert np.max(np.abs(unitary_dft(v) - dft_oracle(v))) < 1e-12

    def test_inner_product_preserved(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a = rng.standard_normal(128) + 1j * rng.standard_normal(128)
            b = rng.standard_normal(128) + 1j * rng.standard_normal(128)
            lhs = np.vdot(unitary_dft(a), unitary_dft(b))
            assert abs(lhs - np.vdot(a, b)) < 1e-12 * max(1.0, abs(np.vdot(a, b)))

    def test_batch_axis(self):
        rng = np.random.default_rng(15)
        v = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
        out = unitary_dft(v)
        assert out.shape == (5, 64)
        assert np.allclose(out[2], unitary_dft(v[2]))

    def test_rejects_bad_lengths(self):
        with pytest.raises(DomainError):
            unitary_dft(np.zeros(0))
        with pytest.raises(DomainError):
            unitary_dft(np.zeros(12))

    @pytest.mark.parametrize("transform", [unitary_dft, unitary_idft])
    @pytest.mark.parametrize("layout", ["1-D", "C", "F"])
    def test_out_keeps_the_bits_of_a_fresh_transform(self, transform, layout):
        rng = np.random.default_rng(16)
        v = rng.standard_normal((6, 256)) + 1j * rng.standard_normal((6, 256))
        v = v[0] if layout == "1-D" else np.asfortranarray(v) if layout == "F" else v
        fresh = transform(v)
        other = np.empty_like(v)
        assert transform(v, out=other) is other
        assert other.tobytes(order="A") == fresh.tobytes(order="A")
        inplace = v.copy(order="A")
        assert transform(inplace, out=inplace) is inplace
        assert inplace.tobytes(order="A") == fresh.tobytes(order="A")


def trapezoid_oracle(f, hi, n):
    x = np.linspace(0.0, hi, n)
    return float(np.trapezoid(f(x), x))


class TestQuadrature:
    def test_exponential(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x), tol=1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.evaluations >= 1

    def test_gamma_two(self):
        res = integrate_semi_infinite(lambda x: x * np.exp(-x), tol=1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_exp_over_one_plus_x(self):
        # Frozen from a high-resolution oracle; equals e*E1(1).
        res = integrate_semi_infinite(lambda x: np.exp(-x) / (1.0 + x), tol=1e-10)
        assert res.value == pytest.approx(0.59634736232319407, abs=1e-8)
        # independent coarse oracle agrees
        ref = trapezoid_oracle(lambda x: np.exp(-x) / (1.0 + x), 60.0, 2_000_001)
        assert res.value == pytest.approx(ref, abs=1e-7)

    def test_error_bound_is_conservative(self):
        cases = [
            (lambda x: np.exp(-x), 1.0),
            (lambda x: x * np.exp(-x), 1.0),
            (lambda x: np.exp(-x) / (1.0 + x), 0.59634736232319407),
        ]
        for f, truth in cases:
            res = integrate_semi_infinite(f, tol=1e-9)
            assert res.abs_error >= abs(res.value - truth)

    def test_result_invariants(self):
        res = integrate_semi_infinite(lambda x: np.exp(-2.0 * x), tol=1e-9)
        assert isinstance(res, QuadratureResult)
        assert res.abs_error >= 0.0
        assert res.evaluations >= 1
        assert res.value == pytest.approx(0.5, abs=1e-9)

    def test_sharp_knee_integrand(self):
        # Mass concentrated within [0, ~1e-6]; the refinement has to find it.
        kappa = 1e-7
        res = integrate_semi_infinite(
            lambda x: np.exp(-x) * -np.expm1(-kappa / np.maximum(x, 1e-300)), tol=1e-12
        )
        # truth = kappa*(log(1/kappa) + 1 - 2*gamma) + O(kappa^2), from the
        # exact value 1 - 2 sqrt(kappa) K1(2 sqrt(kappa))
        truth = 1.0 - 2.0 * math.sqrt(kappa) * bessel_k1(2.0 * math.sqrt(kappa))
        assert res.value == pytest.approx(truth, rel=1e-4, abs=0.0)

    def test_budget_exhaustion_carries_estimate(self):
        with pytest.raises(ConvergenceError) as exc:
            integrate_semi_infinite(lambda x: np.exp(-x), tol=1e-300, max_evals=200)
        assert exc.value.result is not None
        assert exc.value.result.value == pytest.approx(1.0, rel=1e-4, abs=0.0)

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda x: np.exp(-x), tol=0.0)
