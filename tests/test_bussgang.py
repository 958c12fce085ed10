"""Limiter model tests: frozen oracle values, scale invariance, MC consistency."""

import math

import numpy as np
import pytest

from afrelay.bussgang import sel_apply, sel_params, sigma_for_target_power
from afrelay.errors import DomainError

# Frozen pre-build from a 2e8-sample Monte Carlo of the limiter on circular
# Gaussian input (agreement ~1e-4 on zeta, ~0.2% on eta) and the closed form
# evaluated at high precision.
SEL_UNIT_REF = {
    1.0: (0.7715233515, 3.6872276967e-02, 0.6321205588),
    3.0: (0.9721723129, 5.0939257453e-03, 0.9502129316),
    5.0: (0.9963641538, 5.2052612027e-04, 0.9932620530),
    8.0: (0.9998233134, 1.7879288673e-05, 0.9996645374),
}


def clipped_gaussian(rng, n, sigma_sq, p_max):
    x = math.sqrt(sigma_sq / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return x, sel_apply(x, p_max)


class TestSelApply:
    def test_below_clip_unchanged(self):
        assert sel_apply(0.3 + 0.4j, 1.0) == 0.3 + 0.4j

    def test_clipped_phase_kept(self):
        out = sel_apply(3.0 + 4.0j, 1.0)
        assert out == pytest.approx(0.6 + 0.8j, abs=1e-15)

    def test_zero_fixed_point(self):
        assert sel_apply(0.0, 1.0) == 0.0

    def test_array_input(self):
        out = sel_apply(np.array([0.5, 2.0, -2.0j]), 1.0)
        assert np.allclose(out, [0.5, 1.0, -1.0j], atol=1e-15)

    def test_infinite_clip_identity(self):
        z = 5.0 - 7.0j
        assert sel_apply(z, math.inf) == z

    def test_negative_clip_rejected(self):
        with pytest.raises(DomainError):
            sel_apply(1.0, -0.5)


def sel_apply_whole(sample, p_max):
    """sel_apply as one whole-array expression: the reference its slice loop must match."""
    out = np.array(sample, dtype=complex)
    mag = np.abs(out)
    limit = math.sqrt(p_max) if math.isfinite(p_max) else math.inf
    over = mag > limit
    out[over] *= limit / mag[over]
    return complex(out) if out.ndim == 0 else out


SLICE_CASES = [1, 7, 65_535, 65_537, 2**17 + 5, 2**20, "0-d", "2-D", "F-order"]


def slice_case(case):
    """An input across the slice boundaries, a 0-d one, or a 2-D one in C or F order."""
    gen = np.random.default_rng(24)
    if case == "0-d":
        return np.array(1.7 - 2.1j)
    if isinstance(case, int):
        return gen.standard_normal(case) + 1j * gen.standard_normal(case)
    block = gen.standard_normal((3, 40_000)) + 1j * gen.standard_normal((3, 40_000))
    # a fancy index on the last axis returns an F-ordered array, as the cyclic prefix does
    return block if case == "2-D" else block[..., np.arange(-1001, 40_000) % 40_000]


class TestSelApplySlices:
    """sel_apply clips slice by slice: the same bits, shape and order as one whole-array pass."""

    @pytest.mark.parametrize("case", SLICE_CASES, ids=str)
    @pytest.mark.parametrize("p_max", [1.0, 2.0, 5.0, math.inf])
    def test_same_bits_as_whole_array(self, case, p_max):
        sample = slice_case(case)
        got, ref = sel_apply(sample, p_max), sel_apply_whole(sample, p_max)
        if case == "0-d":
            assert type(got) is complex and got == ref
            return
        assert got.shape == ref.shape and got.strides == ref.strides
        assert got.tobytes(order="A") == ref.tobytes(order="A")

    def test_f_ordered_input_is_clipped_in_place_of_its_output(self):
        sample = slice_case("F-order")
        assert sample.flags.f_contiguous and not sample.flags.c_contiguous
        out = sel_apply(sample, 1.0)
        assert np.max(np.abs(out)) <= 1.0 + 1e-15
        assert np.max(np.abs(sample)) > 2.0


class TestSelApplyOut:
    """sel_apply(x, p, out=...) clips into out, x itself included, with the bits of a copy."""

    @pytest.mark.parametrize("case", [7, 65_537, "2-D", "F-order"], ids=str)
    @pytest.mark.parametrize("p_max", [1.0, 5.0, math.inf])
    def test_in_place_same_bits_as_copy(self, case, p_max):
        sample = slice_case(case)
        ref = sel_apply(sample, p_max)
        x = sample.copy(order="K")
        assert sel_apply(x, p_max, out=x) is x
        assert x.strides == ref.strides
        assert x.tobytes(order="A") == ref.tobytes(order="A")

    @pytest.mark.parametrize("case", [65_537, "F-order"], ids=str)
    def test_into_another_array_leaves_the_sample(self, case):
        sample = slice_case(case)
        kept = sample.copy(order="K")
        out = np.empty_like(sample)
        assert sel_apply(sample, 1.0, out=out) is out
        assert out.tobytes(order="A") == sel_apply(kept, 1.0).tobytes(order="A")
        assert sample.tobytes(order="A") == kept.tobytes(order="A")

    def test_copy_leaves_the_sample(self):
        sample = slice_case(65_537)
        kept = sample.copy()
        sel_apply(sample, 1.0)
        assert sample.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("out", [np.empty(8), np.empty(4, dtype=complex),
                                     np.empty(16, dtype=complex)[::2]],
                             ids=["float", "short", "strided"])
    def test_bad_out_rejected(self, out):
        with pytest.raises(DomainError, match="^out must be"):
            sel_apply(np.ones(8, dtype=complex), 1.0, out=out)


class TestSelParams:
    def test_no_clipping_limit(self):
        p = sel_params(1.0, math.inf)
        assert p.zeta == 1.0 and p.eta == 0.0 and p.p_avg == 1.0

    def test_zero_clip_power(self):
        p = sel_params(1.0, 0.0)
        assert p.zeta == 0.0 and p.eta == 0.0 and p.p_avg == 0.0

    @pytest.mark.parametrize("r,ref", sorted(SEL_UNIT_REF.items()))
    def test_frozen_oracle_values(self, r, ref):
        zeta_ref, eta_ref, pavg_ref = ref
        p = sel_params(1.0, r)
        assert p.zeta == pytest.approx(zeta_ref, abs=1e-9)
        assert p.eta == pytest.approx(eta_ref, rel=1e-8, abs=0.0)
        assert p.p_avg == pytest.approx(pavg_ref, abs=1e-9)

    def test_invariants(self):
        for r in [0.3, 1.0, 2.5, 5.0, 8.0, 20.0, 60.0]:
            for s2 in [0.5, 1.0, 7.3]:
                p = sel_params(s2, r * s2)
                assert 0.0 <= p.zeta <= 1.0
                assert p.eta >= 0.0
                assert p.p_avg == pytest.approx(s2 * -math.expm1(-r), rel=1e-14, abs=0.0)
                assert p.eta == pytest.approx(p.p_avg - p.zeta**2 * p.sigma_sq, abs=1e-13 * s2)
                assert p.p_avg <= min(p.sigma_sq, p.p_max) + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        base = sel_params(1.0, 4.0)
        for k in rng.uniform(0.1, 30.0, 50):
            scaled = sel_params(k, 4.0 * k)
            assert scaled.zeta == pytest.approx(base.zeta, abs=1e-12)
            assert scaled.eta == pytest.approx(base.eta * k, rel=1e-12, abs=0.0)

    def test_zeta_monotone_eta_vanishes(self):
        rs = np.linspace(0.05, 40.0, 300)
        zetas = [sel_params(1.0, r).zeta for r in rs]
        assert np.all(np.diff(zetas) > -1e-14)
        assert sel_params(1.0, 50.0).eta < 1e-20

    def test_large_ratio_eta_keeps_precision(self):
        # eta ~ remainder terms; the naive p_avg - zeta^2 difference would
        # return garbage at this scale. Reference from a 40-digit evaluation.
        p = sel_params(1.0, 25.0)
        assert p.eta == pytest.approx(2.62561198682e-13, rel=1e-9, abs=0.0)

    def test_empirical_bussgang_consistency(self):
        # Residual after removing the analytic gain is uncorrelated with the
        # input: |sample corr| <= 4/sqrt(N).
        rng = np.random.default_rng(np.random.Philox(key=[99, 0]))
        n = 1 << 19
        for r in [1.0, 3.0, 5.0]:
            p = sel_params(2.0, 2.0 * r)
            x, y = clipped_gaussian(rng, n, 2.0, 2.0 * r)
            d = y - p.zeta * x
            corr = abs(np.vdot(x, d)) / (np.linalg.norm(x) * np.linalg.norm(d))
            assert corr <= 4.0 / math.sqrt(n)

    @pytest.mark.parametrize("r,eta_tol", [(1.0, 0.05), (3.0, 0.08), (5.0, 0.2)])
    def test_mc_estimates_match(self, r, eta_tol):
        # Plain iid sampling; eta_hat noise is heavy-tailed (clip events carry
        # the distortion), so the tolerance tracks the estimator's sigma.
        rng = np.random.default_rng(np.random.Philox(key=[99, int(r)]))
        n = 1 << 19
        p = sel_params(1.0, r)
        x, y = clipped_gaussian(rng, n, 1.0, r)
        zeta_hat = float(np.vdot(x, y).real / np.vdot(x, x).real)
        eta_hat = float(np.mean(np.abs(y - zeta_hat * x) ** 2))
        assert zeta_hat == pytest.approx(p.zeta, abs=2e-3)
        assert eta_hat == pytest.approx(p.eta, rel=eta_tol, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            sel_params(0.0, 1.0)
        with pytest.raises(DomainError):
            sel_params(-1.0, 1.0)
        with pytest.raises(DomainError):
            sel_params(1.0, -1.0)

    @pytest.mark.parametrize("sigma_sq", [math.inf, math.nan])
    def test_nonfinite_input_power_rejected(self, sigma_sq):
        with pytest.raises(DomainError):
            sel_params(sigma_sq, 1.0)


class TestSigmaForTargetPower:
    def test_no_clipping(self):
        assert sigma_for_target_power(1.0, math.inf) == 1.0

    def test_value_and_roundtrip(self):
        s2 = sigma_for_target_power(1.0, 5.0)
        assert s2 == pytest.approx(1.0067836549063043, rel=1e-12, abs=0.0)
        assert sel_params(s2, 5.0 * s2).p_avg == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_linear_scaling(self):
        assert sigma_for_target_power(2.0, 5.0) == pytest.approx(
            2.0 * sigma_for_target_power(1.0, 5.0), rel=1e-14, abs=0.0
        )

    def test_roundtrip_random(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p_t = float(rng.uniform(0.1, 20.0))
            r = float(rng.uniform(0.2, 30.0))
            s2 = sigma_for_target_power(p_t, r)
            assert sel_params(s2, r * s2).p_avg == pytest.approx(p_t, rel=1e-12, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            sigma_for_target_power(1.0, 0.0)
        with pytest.raises(DomainError):
            sigma_for_target_power(1.0, -2.0)
        with pytest.raises(DomainError):
            sigma_for_target_power(0.0, 1.0)
