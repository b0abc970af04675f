import dataclasses
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cvqkd import (
    ChannelModel,
    Covariance2,
    DomainError,
    EprSource,
    InconsistentStatisticsError,
    ProtocolKind,
    RateReport,
    analytic_covariance,
    apply_sifting,
    conditional_squeezing_check,
    conditional_variance,
    gaussian_conditional_entropy,
    gaussian_entropy,
    heterodyne_covariance_transform,
    rate_bound,
    vacuum_entropy,
)
from cvqkd.rates import (
    CONDITIONING_RTOL,
    Moments,
    _rounding_bound,
)
from cvqkd.simulator import MAX_SOURCE_VARIANCE, analytic_moments

H0 = 0.5 * math.log2(2 * math.pi * math.e)

# the reference channel: source variance 20, half transmission, no excess noise
K_WORKED = Covariance2(20.0, 10.5, math.sqrt(0.5) * math.sqrt(399.0))


def covariances(min_var=0.05, max_var=50.0, max_rho=0.99):
    return st.tuples(
        st.floats(min_var, max_var), st.floats(min_var, max_var),
        st.floats(-max_rho, max_rho),
    ).map(lambda t: Covariance2(t[0], t[1], t[2] * math.sqrt(t[0] * t[1])))


class TestCovariance2:
    @pytest.mark.parametrize("entries", [
        (math.nan, 1.0, 0.0), (1.0, math.nan, 0.0), (1.0, 1.0, math.nan),
    ], ids=["var_a", "var_b", "cov_ab"])
    def test_rejects_nan(self, entries):
        with pytest.raises(DomainError, match="^covariance entries must be finite$"):
            Covariance2(*entries)

    @pytest.mark.parametrize("entries", [(-1.0, 1.0, 0.0), (1.0, -1.0, 0.0)])
    def test_rejects_negative_variance(self, entries):
        with pytest.raises(DomainError, match=re.escape(
                f"variances must be non-negative, got {entries[:2]}")):
            Covariance2(*entries)


class TestGaussianEntropy:
    def test_vacuum_value(self):
        assert gaussian_entropy(1.0) == pytest.approx(2.0470956, abs=1e-6)

    def test_quadrupling_variance_adds_one_bit(self):
        assert gaussian_entropy(4.0) == pytest.approx(gaussian_entropy(1.0) + 1.0)

    def test_zero_crossing(self):
        assert gaussian_entropy(1.0 / (2 * math.pi * math.e)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(DomainError):
            gaussian_entropy(bad)


class TestVacuumEntropy:
    def test_default_unit(self):
        assert vacuum_entropy() == pytest.approx(2.0470956, abs=1e-6)

    def test_rescaled_unit(self):
        assert vacuum_entropy(0.25) == pytest.approx(vacuum_entropy() - 1.0)

    @given(st.floats(1e-6, 1e6))
    def test_matches_gaussian_entropy(self, n0):
        assert vacuum_entropy(n0) == gaussian_entropy(n0)


class TestConditionalVariance:
    def test_uncorrelated_no_reduction(self):
        assert conditional_variance(Covariance2(1, 1, 0)) == 1.0

    def test_partial_reduction(self):
        assert conditional_variance(Covariance2(2, 2, 1)) == 1.5

    def test_perfect_correlation_vanishes(self):
        assert conditional_variance(Covariance2(4, 9, 6)) == 0.0

    def test_degenerate_alice(self):
        with pytest.raises(DomainError):
            conditional_variance(Covariance2(0.0, 1.0, 0.0))

    @given(covariances())
    def test_never_negative(self, k):
        assert conditional_variance(k) >= 0.0


class TestGaussianConditionalEntropy:
    def test_uncorrelated_equals_vacuum(self):
        assert gaussian_conditional_entropy(Covariance2(1, 1, 0)) == vacuum_entropy()

    def test_partial_correlation(self):
        assert gaussian_conditional_entropy(Covariance2(2, 2, 1)) == pytest.approx(
            2.3395768, abs=1e-6)

    def test_estimated_covariance_close_to_truth(self):
        # plug-in value from 1e6 samples lands within ~3 standard errors
        rng = np.random.default_rng(11)
        z = rng.multivariate_normal([0, 0], [[2, 1], [1, 2]], 1_000_000)
        za, zb = z[:, 0] - z[:, 0].mean(), z[:, 1] - z[:, 1].mean()
        n = len(za)
        k_hat = Covariance2(za @ za / n, zb @ zb / n, za @ zb / n)
        assert gaussian_conditional_entropy(k_hat) == pytest.approx(
            2.3395768, abs=0.005)

    def test_degenerate_conditional_variance(self):
        with pytest.raises(DomainError):
            gaussian_conditional_entropy(Covariance2(4, 9, 6))


class TestSqueezedRateBound:
    def test_security_boundary(self):
        report = rate_bound(Covariance2(1, 1, 0), 1, ProtocolKind.SQUEEZED_HOMODYNE)
        assert report.delta_i_min_per_pulse == 0.0

    def test_half_vacuum_conditional_variance(self):
        k = Covariance2(1.0, 0.5, 0.0)
        report = rate_bound(k, 10, ProtocolKind.SQUEEZED_HOMODYNE)
        assert report.delta_i_min_per_pulse == pytest.approx(1.0)
        assert report.delta_i_min_block == pytest.approx(10.0)

    def test_worked_example(self):
        report = rate_bound(K_WORKED, 1, ProtocolKind.SQUEEZED_HOMODYNE)
        assert report.cond_var_b_given_a == pytest.approx(0.525, rel=1e-12)
        assert report.delta_i_min_per_pulse == pytest.approx(
            math.log2(1 / 0.525), rel=1e-12)
        assert report.i_ab == pytest.approx(0.5 * math.log2(20), rel=1e-12)
        assert report.i_be_bound == pytest.approx(report.i_ab - report.delta_i_min_per_pulse)

    def test_negative_rates_returned_as_is(self):
        report = rate_bound(Covariance2(1.0, 4.0, 0.0), 1, ProtocolKind.SQUEEZED_HOMODYNE)
        assert report.delta_i_min_per_pulse == pytest.approx(-2.0)

    def test_rejects_bad_block_size(self):
        with pytest.raises(DomainError):
            rate_bound(K_WORKED, 0, ProtocolKind.SQUEEZED_HOMODYNE)

    @pytest.mark.parametrize("n", [-1, np.int64(0), True, np.True_, 5.0, np.float64(5.0), "5"],
                             ids=repr)
    def test_rejects_non_integer_block_size(self, n):
        with pytest.raises(DomainError, match="^block size must be a positive integer, "
                                              f"got {re.escape(repr(n))}$"):
            rate_bound(K_WORKED, n, ProtocolKind.SQUEEZED_HOMODYNE)

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_accepts_any_integer_block_size(self, protocol):
        # a session run with a numpy n gives its record a numpy n
        report = rate_bound(K_WORKED, np.int64(5), protocol)
        assert type(report.block_size) is int
        assert report == rate_bound(K_WORKED, 5, protocol)

    @given(covariances(max_rho=0.995), st.integers(1, 1000))
    def test_block_value_is_n_times_per_pulse(self, k, n):
        report = rate_bound(k, n, ProtocolKind.SQUEEZED_HOMODYNE)
        assert report.delta_i_min_block == pytest.approx(
            n * report.delta_i_min_per_pulse)

    @given(covariances())
    @settings(max_examples=200)
    def test_chain_consistency(self, k):
        # direct form agrees with 2*(H0 - H_G(B|A)) to floating-point accuracy
        report = rate_bound(k, 1, ProtocolKind.SQUEEZED_HOMODYNE)
        chain = 2.0 * (vacuum_entropy() - gaussian_conditional_entropy(k))
        assert report.delta_i_min_per_pulse == pytest.approx(
            chain, rel=1e-12, abs=1e-12)

    def test_monotone_in_correlation(self):
        rates = [
            rate_bound(Covariance2(3.0, 5.0, c), 1,
                       ProtocolKind.SQUEEZED_HOMODYNE).delta_i_min_per_pulse
            for c in (0.0, 1.0, 2.0, 3.0, 3.8)
        ]
        assert all(lo < hi for lo, hi in zip(rates, rates[1:]))

    @given(covariances(), st.floats(0.01, 100.0))
    @settings(max_examples=200)
    def test_scale_covariance(self, k, scale):
        base = rate_bound(k, 1, ProtocolKind.SQUEEZED_HOMODYNE, 1.0)
        scaled = rate_bound(
            Covariance2(scale * k.var_a, scale * k.var_b, scale * k.cov_ab),
            1, ProtocolKind.SQUEEZED_HOMODYNE, n0=scale)
        assert scaled.delta_i_min_per_pulse == pytest.approx(
            base.delta_i_min_per_pulse, rel=1e-9, abs=1e-9)
        assert scaled.i_ab == pytest.approx(base.i_ab, rel=1e-9, abs=1e-9)


class TestHeterodyneTransform:
    def test_shot_noise_limited_alice(self):
        # a measured variance at the vacuum level reconstructs a vacuum mode
        k = heterodyne_covariance_transform(Covariance2(1.0 + 1e-9, 1.0, 0.0))
        assert k.var_a == pytest.approx(1.0, abs=1e-8)
        assert k.var_b == 1.0
        assert k.cov_ab == 0.0

    def test_beamsplitter_form(self):
        k = heterodyne_covariance_transform(Covariance2(3.0, 5.0, 2.0))
        assert (k.var_a, k.var_b) == (5.0, 5.0)
        assert k.cov_ab == pytest.approx(2.0 * math.sqrt(2.0))

    def test_rejects_subvacuum_alice(self):
        with pytest.raises(DomainError):
            heterodyne_covariance_transform(Covariance2(0.9, 5.0, 0.1))

    def test_inconsistent_statistics_detected(self):
        # measured statistics with no physical pre-beam-splitter mode
        with pytest.raises(InconsistentStatisticsError):
            heterodyne_covariance_transform(Covariance2(2.0, 2.0, 2.0))
        # lossless entangled-source statistics reconstruct the source variance
        v = 20.0
        measured = Covariance2((v + 1) / 2, v, math.sqrt(v * v - 1) / math.sqrt(2))
        physical = heterodyne_covariance_transform(measured)
        assert physical.var_a == pytest.approx(v, rel=1e-12)


class TestCoherentRateBound:
    def test_boundary(self):
        # var_a = 1.5 puts both conditional variances exactly at the vacuum
        k = Covariance2(1.5, 1.0, 0.0)
        report = rate_bound(k, 1, ProtocolKind.COHERENT_HETERODYNE)
        assert report.delta_i_min_per_pulse == pytest.approx(0.0)

    def test_symmetric_half_vacuum(self):
        # zero correlation makes both conditional variances equal var_b
        k = Covariance2(2.0, 0.5, 0.0)
        report = rate_bound(k, 1, ProtocolKind.COHERENT_HETERODYNE)
        assert report.cond_var_b_given_a == pytest.approx(0.5)
        assert report.cond_var_b_given_a_prime == pytest.approx(0.5)
        assert report.delta_i_min_per_pulse == pytest.approx(1.0)

    def test_block_scaling(self):
        k = Covariance2(3.0, 1.0, 1.0)
        per = rate_bound(k, 1, ProtocolKind.COHERENT_HETERODYNE).delta_i_min_per_pulse
        report = rate_bound(k, 7, ProtocolKind.COHERENT_HETERODYNE)
        assert report.delta_i_min_block == pytest.approx(7 * per)

    def test_chain_equals_closed_form(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 500:
            var_a = rng.uniform(1.05, 30.0)
            var_b = rng.uniform(0.05, 30.0)
            rho = rng.uniform(-0.99, 0.99)
            k = Covariance2(var_a, var_b, rho * math.sqrt(var_a * var_b))
            try:
                report = rate_bound(k, 1, ProtocolKind.COHERENT_HETERODYNE)
            except DomainError:
                continue
            chain = (2.0 * vacuum_entropy()
                     - gaussian_conditional_entropy(k)
                     - gaussian_conditional_entropy(heterodyne_covariance_transform(k)))
            assert report.delta_i_min_per_pulse == pytest.approx(
                chain, rel=1e-12, abs=1e-12)
            checked += 1

    def test_heterodyne_penalty_same_channel(self):
        # on one channel, heterodyning Alice's mode can only cost rate
        # relative to homodyning it (squeezed-protocol statistics)
        rng = np.random.default_rng(6)
        for _ in range(300):
            v = rng.uniform(1.5, 40.0)
            t = rng.uniform(0.05, 1.0)
            eps = rng.uniform(0.0, 0.3)
            var_b = t * v + (1 - t) + t * eps
            c = math.sqrt(t * (v * v - 1))
            k_hom = Covariance2(v, var_b, c)
            k_het = Covariance2((v + 1) / 2, var_b, c / math.sqrt(2))
            squeezed = rate_bound(k_hom, 1, ProtocolKind.SQUEEZED_HOMODYNE)
            coherent = rate_bound(k_het, 1, ProtocolKind.COHERENT_HETERODYNE)
            assert (coherent.delta_i_min_per_pulse
                    <= squeezed.delta_i_min_per_pulse + 1e-12)

    def test_heterodyne_penalty_against_presplit_mode(self):
        # the coherent bound never beats the squeezed bound evaluated on
        # the reconstructed pre-beam-splitter covariance
        rng = np.random.default_rng(16)
        checked = 0
        while checked < 300:
            var_a = rng.uniform(1.05, 30.0)
            var_b = rng.uniform(0.05, 30.0)
            rho = rng.uniform(-0.99, 0.99)
            k = Covariance2(var_a, var_b, rho * math.sqrt(var_a * var_b))
            try:
                coherent = rate_bound(k, 1, ProtocolKind.COHERENT_HETERODYNE)
                squeezed_prime = rate_bound(
                    heterodyne_covariance_transform(k), 1, ProtocolKind.SQUEEZED_HOMODYNE)
            except DomainError:
                continue
            assert (coherent.delta_i_min_per_pulse
                    <= squeezed_prime.delta_i_min_per_pulse + 1e-12)
            checked += 1


class TestOverflow:
    """Entries whose products overflow raise DomainError, not OverflowError
    or a math domain error."""

    @pytest.mark.parametrize("var_a, var_b, cov_ab", [
        (1e200, 1e200, 1e199), (1e300, 1e300, -2e154), (1.0, 1.0, 1e300),
    ])
    def test_cov_ab_square_overflow(self, var_a, var_b, cov_ab):
        with pytest.raises(DomainError, match=r"cov_ab = .* its square overflows"):
            Covariance2(var_a, var_b, cov_ab)

    def test_largest_cov_ab_conditions(self):
        # the largest cov_ab whose square is finite passes the PSD check, and
        # conditional_variance squares it again without overflow
        cov_ab = math.sqrt(sys.float_info.max)
        k = Covariance2(1e300, 1e300, cov_ab)
        assert conditional_variance(k) == 1e300 - cov_ab ** 2 / 1e300

    def test_in_range_psd_violation_unchanged(self):
        with pytest.raises(InconsistentStatisticsError,
                           match=r"cov_ab\^2 = 25 exceeds var_a\*var_b = 1"):
            Covariance2(1.0, 1.0, 5.0)

    @pytest.mark.parametrize("k, quotient", [
        (Covariance2(1e200, 1e200, 0.0), "0"), (Covariance2(2.0, 1e-200, 0.0), "inf"),
    ], ids=["product-overflow", "product-underflow"])
    def test_coherent_bound_out_of_range(self, k, quotient):
        with pytest.raises(DomainError,
                           match=rf"n0/sqrt\(cv1\*cv2\) = {quotient} is not finite and positive"):
            rate_bound(k, 1, ProtocolKind.COHERENT_HETERODYNE)

    def test_coherent_bound_in_range_bits(self):
        # the guard leaves the closed form as it was
        report = rate_bound(Covariance2(2.0, 0.5, 0.0), 1, ProtocolKind.COHERENT_HETERODYNE)
        assert report.delta_i_min_per_pulse == math.log2(1.0 / math.sqrt(0.5 * 0.5))

    @pytest.mark.parametrize("k, n0, message", [
        (Covariance2(1.0, 1e-310, 0.0), 1.0,
         r"conditional variance 1e-310 is out of range .* n0/cv = inf is not finite"),
        (Covariance2(1e300, 1e300, 0.0), 1e-300,
         r"conditional variance 1e\+300 is out of range .* n0/cv = 0 is not finite"),
    ], ids=["quotient-overflow", "quotient-underflow"])
    def test_squeezed_bound_out_of_range(self, k, n0, message):
        with pytest.raises(DomainError, match=message):
            rate_bound(k, 1, ProtocolKind.SQUEEZED_HOMODYNE, n0)

    @pytest.mark.parametrize("k, n", [
        (K_WORKED, 10 ** 309), (Covariance2(1000.0, 1000.0, 999.9995), 10 ** 308),
    ], ids=["n-beyond-float", "block-rate-overflow"])
    def test_block_rate_out_of_range(self, k, n):
        with pytest.raises(DomainError, match=rf"block size {n} is too large: "
                                              r"the block rate n \* .* bits is not finite"):
            rate_bound(k, n, ProtocolKind.SQUEEZED_HOMODYNE)

    @pytest.mark.parametrize("n", [10 ** 308, 10 ** 309], ids=["block-rate-overflow",
                                                               "n-beyond-float"])
    def test_block_rate_out_of_range_on_a_grid(self, n):
        # a grid leaves NaN wherever the block rate of its point is not finite
        points = [dataclasses.astuple(K_WORKED), (1000.0, 1000.0, 999.9995)]
        k = Moments(*map(np.array, zip(*points)))
        with np.errstate(all="ignore"):
            grid = stored_rates(rate_bound(k, n, ProtocolKind.SQUEEZED_HOMODYNE))
        for i, point in enumerate(points):
            try:
                want = stored_rates(rate_bound(Covariance2(*point), n,
                                               ProtocolKind.SQUEEZED_HOMODYNE))
            except DomainError:
                assert all(math.isnan(column[i]) for column in grid[:3])
            else:
                assert [column[i] for column in grid[:3]] == want[:3]

    def test_large_block_in_range_bits(self):
        # the guard leaves the block rate as it was
        report = rate_bound(K_WORKED, 10 ** 300, ProtocolKind.SQUEEZED_HOMODYNE)
        assert report.delta_i_min_block == 10 ** 300 * report.delta_i_min_per_pulse

    def test_transform_overflow_names_given_cov_ab(self):
        with pytest.raises(DomainError, match=r"^cov_ab = 1\.2e\+154 is too large for the "
                                              r"heterodyne transform: the square of "
                                              r"sqrt\(2\)\*cov_ab overflows$"):
            heterodyne_covariance_transform(Covariance2(1e300, 1e300, 1.2e154))

    def test_transform_overflow_names_given_var_a(self):
        with pytest.raises(DomainError, match=r"^var_a = 1e\+308 is too large for the "
                                              r"heterodyne transform: the reconstructed "
                                              r"variance overflows$"):
            heterodyne_covariance_transform(Covariance2(1e308, 1e308, 0.0))

    @pytest.mark.parametrize("n0, message", [
        (math.inf, "shot-noise unit must be finite, got inf"),
        (math.nan, "shot-noise unit must be positive, got nan"),
        (0.0, "shot-noise unit must be positive, got 0.0"),
        (-1.0, "shot-noise unit must be positive, got -1.0"),
    ], ids=["inf", "nan", "zero", "negative"])
    def test_bound_rejects_shot_noise_unit(self, n0, message):
        for protocol in ProtocolKind:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                rate_bound(Covariance2(3.0, 3.0, 0.0), 1, protocol, n0)


class TestConditioning:
    """A bound refuses a conditional variance that rounding may have moved by
    more than CONDITIONING_RTOL of itself, rather than overstate the rate."""

    @pytest.mark.parametrize("v", [1e12, 1e15])
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_large_source_variance_raises(self, v, protocol):
        k = analytic_covariance(EprSource(v), ChannelModel(0.5, 0.1), protocol)
        with pytest.raises(DomainError, match=r"^conditional variance .* is ill-conditioned: "
                                              r"rounding in var_b - cov_ab\^2/var_a"):
            rate_bound(k, 1, protocol)

    def test_gaussian_conditional_entropy_raises(self):
        # unchecked, it reads 1.451 bits from a conditional variance of 0.4375
        # whose exact value is 0.4202
        k = analytic_covariance(EprSource(1e15), ChannelModel(0.5, 0.1),
                                ProtocolKind.SQUEEZED_HOMODYNE)
        with pytest.raises(DomainError, match=r"^conditional variance 0\.4375 is "
                                              r"ill-conditioned"):
            gaussian_conditional_entropy(k)

    @given(st.floats(1.0, MAX_SOURCE_VARIANCE), st.floats(0.0, 1.0, exclude_min=True),
           st.floats(0.0, 1e6))
    @settings(max_examples=300)
    def test_squeezed_bound_is_exact_or_raises(self, v, t, eps):
        k = analytic_covariance(EprSource(v), ChannelModel(t, eps),
                                ProtocolKind.SQUEEZED_HOMODYNE)
        try:
            cv = rate_bound(k, 1, ProtocolKind.SQUEEZED_HOMODYNE).cond_var_b_given_a
        except DomainError:
            return
        v, t, eps = Fraction(v), Fraction(t), Fraction(eps)
        exact = t * v + (1 - t) + t * eps - t * (v * v - 1) / v
        assert abs(Fraction(cv) - exact) <= Fraction(CONDITIONING_RTOL) * exact


@pytest.mark.parametrize("protocol", list(ProtocolKind))
@given(st.floats(1.0, 1e12), st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 1e3))
@example(2.0, 0.25, 0.0)  # a modulation-variance bound would read 0.5 bits, over I_AB = 0.161
@settings(max_examples=1000)
def test_physical_channel_rate_stays_below_i_ab(protocol, v, t, eps):
    # Eve's information on a physical channel cannot be negative, so no bound
    # there may exceed I_AB beyond rounding
    try:
        k = analytic_covariance(EprSource(v), ChannelModel(t, eps), protocol)
        report = rate_bound(k, 1, protocol)
    except DomainError:
        return
    assert report.i_be_bound >= -1e-9 * max(1.0, report.i_ab)


@pytest.mark.parametrize("protocol", list(ProtocolKind))
@given(st.floats(1e-3, 1e3), st.floats(1.0, 1e7),
       st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
       st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
@example(32.571426414094596, 33289.98154965703, 1.0, 0.0)  # -0.19 of the allowance
@settings(max_examples=1000)
def test_rounding_bounds_how_far_eve_goes_below_zero(protocol, n0, v_over_n0, t, eps):
    # on a lossless channel (t = 1, eps = 0) var_b*cv = n0^2 exactly and Eve's
    # bound is 0, so rounding alone may put it below 0. How far is bounded by the
    # rounding each conditional variance of the report may carry, in bits: a
    # tolerance for Eve's bound on exact input must allow that much
    k = analytic_covariance(EprSource(n0 * v_over_n0, n0), ChannelModel(t, eps), protocol)
    try:
        report = rate_bound(k, 1, protocol, n0)
    except DomainError:
        return
    ks = [(k, report.cond_var_b_given_a)]
    if protocol is ProtocolKind.COHERENT_HETERODYNE:
        ks.append((heterodyne_covariance_transform(k, n0), report.cond_var_b_given_a_prime))
    allowance = sum(_rounding_bound(k_i) / cv_i for k_i, cv_i in ks) / math.log(2.0)
    assert report.i_be_bound >= -allowance


@given(st.sampled_from([0.25, 1.0, 1.5]), st.floats(0.0, 6.0),
       st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
@example(1.0, 1.0, 0.5, 1.0, 1.0 + 2.0 ** -52)  # excess noises one ulp apart
@settings(max_examples=500)
def test_pooling_quadratures_is_conservative(n0, digits, t, eps_q, eps_p):
    # a session pools q with the sign-flipped p, with equal weight. Where the channel
    # adds different excess noise to each, the pooled squeezed bound log2(n0/cv)
    # stays below the paper's crosswise per-quadrature bound
    # log2(n0^2/(cv_q*cv_p))/2: the conditional variance is concave in the moments
    # (a Schur complement), so cv >= (cv_q + cv_p)/2 >= sqrt(cv_q*cv_p) (AM-GM).
    # Allowed beyond a few ulps: the rounding each of the three conditional
    # variances may carry, in bits
    assume(eps_q != eps_p)
    # each quadrature's moments, Bob's p sign-flipped as sessions pool it
    q, p = (analytic_moments(n0 * 10.0 ** digits, t, eps, n0, ProtocolKind.SQUEEZED_HOMODYNE)
            for eps in (eps_q, eps_p))
    pooled = Moments(*((x + y) / 2 for x, y in zip(q, p)))
    ks = [Covariance2(*m) for m in (q, p, pooled)]
    try:
        report_q, report_p, report = (
            rate_bound(k, 1, ProtocolKind.SQUEEZED_HOMODYNE, n0) for k in ks)
    except DomainError:  # a conditional variance the bound calls ill-conditioned
        return
    crosswise = 0.5 * math.log2(
        n0 * n0 / (report_q.cond_var_b_given_a * report_p.cond_var_b_given_a))
    rounding = sum(_rounding_bound(k) / conditional_variance(k) for k in ks) / math.log(2.0)
    assert report.delta_i_min_per_pulse <= crosswise + rounding + 4 * math.ulp(abs(crosswise))


#: moment entries at the edges of the float range and of the bounds' domains,
#: the shot-noise units below among them
EDGE_MOMENTS = [0.0, -0.0, -1.0, 1e-310, 0.25, 1.0, 1.5, 1e154, 1e200, 1e308,
                math.inf, -math.inf, math.nan]


@st.composite
def moment_points(draw):
    """(var_a, var_b, cov_ab): edge entries, ordinary ones and any float, with
    cov_ab either drawn alike or within 1e-7 of the PSD boundary, either side."""
    entry = st.one_of(st.sampled_from(EDGE_MOMENTS), st.floats(-10.0, 100.0), st.floats())
    var_a, var_b = draw(entry), draw(entry)
    product = var_a * var_b
    if 0.0 <= product < math.inf and draw(st.booleans()):
        scale = (1.0 + draw(st.floats(-1e-7, 1e-7))) * draw(st.sampled_from([1.0, -1.0]))
        return var_a, var_b, math.sqrt(product) * scale
    return var_a, var_b, draw(entry)


def stored_rates(report):
    """The values a RateReport stores, of one point or of a grid."""
    return [report.delta_i_min_per_pulse, report.i_ab, report.cond_var_b_given_a,
            report.cond_var_b_given_a_prime]


@pytest.mark.parametrize("protocol", list(ProtocolKind))
@pytest.mark.parametrize("n0", [0.25, 1.0, 1.5, 0.0, -1.0, math.nan, math.inf, 1e-320])
@given(st.lists(moment_points(), min_size=1, max_size=30))
@settings(max_examples=200)
def test_columns_equal_points(protocol, n0, points):
    # rate_bound on a grid goes through the closed forms and checks of one point:
    # each entry has rate_bound's bits at that point, and is NaN exactly where
    # Covariance2 or rate_bound raises, the shot-noise unit's rule among them
    k = Moments(*map(np.array, zip(*points)))
    with np.errstate(all="ignore"):
        columns = stored_rates(rate_bound(k, 1, protocol, np.full(len(points), n0)))
    for i, point in enumerate(points):
        got = [None if column is None else column[i].item() for column in columns]
        try:
            want = stored_rates(rate_bound(Covariance2(*point), 1, protocol, n0))
        except DomainError:
            assert all(x is None or math.isnan(x) for x in got), (point, got)
        else:
            assert [None if x is None else x.hex() for x in got] == \
                [None if x is None else x.hex() for x in want], point


#: the functions besides the bounds (TestOverflow) that take a
#: shot-noise unit, as functions of that unit
SHOT_NOISE_UNIT_USERS = {
    "vacuum_entropy": vacuum_entropy,
    "conditional_squeezing_check":
        lambda n0: conditional_squeezing_check(Covariance2(3.0, 3.0, 0.0), n0),
    "heterodyne_covariance_transform":
        lambda n0: heterodyne_covariance_transform(Covariance2(3.0, 3.0, 1.0), n0),
}


@pytest.mark.parametrize("use", SHOT_NOISE_UNIT_USERS.values(), ids=SHOT_NOISE_UNIT_USERS)
@pytest.mark.parametrize("n0, message", [
    (0.0, "shot-noise unit must be positive, got 0.0"),
    (-1.0, "shot-noise unit must be positive, got -1.0"),
    (math.nan, "shot-noise unit must be positive, got nan"),
    (math.inf, "shot-noise unit must be finite, got inf"),
], ids=["zero", "negative", "nan", "inf"])
def test_one_shot_noise_unit_rule(use, n0, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        use(n0)


class TestRateReportDerivedRates:
    """Eve's bound and the block rate are computed from the stored rates, so
    they agree with them exactly, sifted or not."""

    def test_neither_is_stored(self):
        names = {field.name for field in dataclasses.fields(RateReport)}
        assert not names & {"i_be_bound", "delta_i_min_block"}

    @given(covariances(), st.integers(1, 10 ** 6), st.sampled_from(list(ProtocolKind)))
    def test_identities_hold_exactly(self, k, n, protocol):
        try:
            report = rate_bound(k, n, protocol)
        except DomainError:
            return
        for r in (report, report.with_sifting()):
            assert r.i_be_bound == r.i_ab - r.delta_i_min_per_pulse
            assert r.delta_i_min_block == n * r.delta_i_min_per_pulse

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_sifting_halves_every_rate_exactly(self, protocol):
        report = rate_bound(K_WORKED, 7, protocol)
        sifted = report.with_sifting()
        assert sifted.sifting_applied and not report.sifting_applied
        for name in ("delta_i_min_per_pulse", "delta_i_min_block", "i_ab", "i_be_bound"):
            assert getattr(sifted, name) == getattr(report, name) / 2


class TestEffectiveRate:
    def test_perfect_reconciliation_recovers_bound(self):
        report = rate_bound(K_WORKED, 1, ProtocolKind.SQUEEZED_HOMODYNE)
        assert report.effective_rate(report.i_ab) == pytest.approx(
            report.delta_i_min_per_pulse)

    def test_no_reconciled_bits_no_key(self):
        report = rate_bound(K_WORKED, 1, ProtocolKind.SQUEEZED_HOMODYNE)
        value = report.effective_rate(0.0)
        assert value == pytest.approx(-report.i_be_bound)
        assert value <= 0.0

    def test_ninety_percent_reconciliation(self):
        report = rate_bound(K_WORKED, 1, ProtocolKind.SQUEEZED_HOMODYNE)
        i_eff = 0.9 * report.i_ab
        expected = i_eff - (report.i_ab - math.log2(1 / 0.525))
        assert report.effective_rate(i_eff) == pytest.approx(expected)

    def test_rejects_super_shannon_efficiency(self):
        report = rate_bound(K_WORKED, 1, ProtocolKind.SQUEEZED_HOMODYNE)
        with pytest.raises(DomainError):
            report.effective_rate(report.i_ab * 1.01)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            rate_bound(K_WORKED, 1, ProtocolKind.SQUEEZED_HOMODYNE).effective_rate(-0.1)


class TestApplySifting:
    def test_halves(self):
        assert apply_sifting(1.0) == 0.5

    def test_zero(self):
        assert apply_sifting(0.0) == 0.0

    @given(st.floats(-100, 100))
    def test_composition_quarters(self, r):
        assert apply_sifting(apply_sifting(r)) == pytest.approx(r / 4)


class TestConditionalSqueezingCheck:
    def test_boundary_is_insecure(self):
        assert conditional_squeezing_check(Covariance2(1, 1, 0)) == "insecure"

    def test_squeezed_is_secure(self):
        assert conditional_squeezing_check(Covariance2(2, 2, 1.5)) == "secure"

    def test_matches_rate_sign(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            var_a = rng.uniform(0.1, 10)
            var_b = rng.uniform(0.1, 10)
            rho = rng.uniform(-0.99, 0.99)
            k = Covariance2(var_a, var_b, rho * math.sqrt(var_a * var_b))
            verdict = conditional_squeezing_check(k)
            rate = rate_bound(k, 1, ProtocolKind.SQUEEZED_HOMODYNE).delta_i_min_per_pulse
            assert (verdict == "secure") == (rate > 0)


class TestMutualInformation:
    @given(covariances(max_rho=0.999), st.sampled_from(list(ProtocolKind)))
    def test_non_negative(self, k, protocol):
        try:
            mi = rate_bound(k, 1, protocol).i_ab
        except DomainError:
            return
        assert mi >= 0.0
