"""Closed-form information quantities and secret-key-rate lower bounds.

All second moments are expressed in shot-noise units: the variance of one
vacuum quadrature is ``n0`` (1.0 by convention, configurable everywhere).
All entropies and rates are in bits. Every function here is pure.

Conventions for a reverse-reconciliation link, Bob's data making the key:

* ``i_ab``       Alice-Bob mutual information of the Gaussian model,
                 0.5*log2(var_b / cond_var).
* ``i_be_bound`` upper bound on Eve's information per pulse, defined so
                 that ``delta_i_min = i_ab - i_be_bound`` always holds.
* ``delta_i_min`` guaranteed distillable secret bits per pulse given the
                 observed covariance, whatever (non-Gaussian, coherent)
                 attack produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import DomainError, InconsistentStatisticsError

#: relative slack allowed on the positive-semidefiniteness invariant,
#: so covariances estimated in floating point are not rejected
PSD_RTOL = 1e-9

#: largest relative rounding error a rate bound accepts on a conditional
#: variance var_b - cov_ab**2/var_a, whose two terms cancel as B nears a
#: deterministic function of A
CONDITIONING_RTOL = 1e-6


class ProtocolKind(Enum):
    """Which entanglement-based protocol variant produced the data."""

    SQUEEZED_HOMODYNE = "squeezed_homodyne"
    COHERENT_HETERODYNE = "coherent_heterodyne"


class HeterodyneTransform(Enum):
    """Convention for reconstructing Alice's pre-beam-splitter variance.

    There is one: BEAMSPLITTER inverts the physical 50:50 split with vacuum,
    var_a' = 2*var_a - n0, and scales the covariance by sqrt(2). It is the
    mode variance the entanglement-based bound needs, and the verification
    suite records that it matches simulated physics. The enum stays only
    because perfbench's monte-carlo-rate workload passes this member to
    rate_bound by name.
    """

    BEAMSPLITTER = "beamsplitter"


@dataclass(frozen=True)
class Covariance2:
    """Second moments of one zero-mean Alice/Bob quadrature pair."""

    var_a: float
    var_b: float
    cov_ab: float

    def __post_init__(self):
        if not (math.isfinite(self.var_a) and math.isfinite(self.var_b)
                and math.isfinite(self.cov_ab)):
            raise DomainError("covariance entries must be finite")
        if self.var_a < 0 or self.var_b < 0:
            raise DomainError(
                f"variances must be non-negative, got ({self.var_a}, {self.var_b})")
        bound = self.var_a * self.var_b
        try:
            square = self.cov_ab ** 2
        except OverflowError:
            raise DomainError(f"cov_ab = {self.cov_ab:.6g} is too large: "
                              f"its square overflows") from None
        if square > bound * (1.0 + PSD_RTOL):
            raise InconsistentStatisticsError(
                f"cov_ab^2 = {square:.6g} exceeds var_a*var_b = {bound:.6g}")


@dataclass(frozen=True)
class RateReport:
    """Key-rate bound plus the intermediate quantities that produced it.

    For covariances of physically realizable states (var_b * cond_var >=
    n0**2) the usual orderings hold: i_be_bound >= 0 and
    delta_i_min_per_pulse <= i_ab. A covariance literal violating that
    product makes i_be_bound negative, which flags the input as not
    quantum-realizable; values are reported as computed, never clamped.
    """

    delta_i_min_per_pulse: float
    block_size: int
    i_ab: float
    cond_var_b_given_a: float
    sifting_applied: bool
    cond_var_b_given_a_prime: float | None = None

    @property
    def i_be_bound(self) -> float:
        return self.i_ab - self.delta_i_min_per_pulse

    @property
    def delta_i_min_block(self) -> float:
        return self.block_size * self.delta_i_min_per_pulse

    def with_sifting(self) -> "RateReport":
        """Halve the stored rates with `apply_sifting` (random independent quadrature
        choices make Alice and Bob agree half of the time); the derived ones follow exactly."""
        return replace(
            self,
            delta_i_min_per_pulse=apply_sifting(self.delta_i_min_per_pulse),
            i_ab=apply_sifting(self.i_ab),
            sifting_applied=True,
        )

    def effective_rate(self, i_eff: float) -> float:
        """Per-pulse key rate when reconciliation extracts only i_eff of
        the i_ab shared bits per pulse: i_eff - i_be_bound.

        i_eff = i_ab (perfect reconciliation) recovers the plain bound;
        i_eff above the Gaussian mutual information is impossible and raises.
        """
        if i_eff < 0:
            raise DomainError(f"reconciled information cannot be negative, got {i_eff}")
        if i_eff > self.i_ab * (1.0 + 1e-12):
            raise DomainError(
                f"reconciled information {i_eff} exceeds the Shannon limit {self.i_ab}")
        return i_eff - self.i_be_bound


def gaussian_entropy(variance: float) -> float:
    """Differential entropy in bits of a Gaussian with the given variance,
    0.5*log2(2*pi*e*variance). This is the maximum entropy any
    distribution with that variance can have."""
    if not variance > 0:
        raise DomainError(f"variance must be positive, got {variance}")
    return 0.5 * math.log2(2.0 * math.pi * math.e * variance)


def vacuum_entropy(n0: float = 1.0) -> float:
    """Entropy of one vacuum quadrature (2.047095... bits for n0 = 1)."""
    _check_shot_noise(n0)
    return gaussian_entropy(n0)


def conditional_variance(k: Covariance2) -> float:
    """Residual variance of B after the best linear estimate from A:
    var_b - cov_ab**2 / var_a. Never negative; tiny negative floating-point
    residue at the perfectly-correlated boundary is clipped to 0."""
    if k.var_a <= 0:
        raise DomainError("var_a must be positive to condition on A")
    # cov_ab ** 2 cannot overflow here: Covariance2 rejects a cov_ab whose square does
    return max(k.var_b - k.cov_ab ** 2 / k.var_a, 0.0)


def gaussian_conditional_entropy(k: Covariance2) -> float:
    """Conditional entropy H(B|A) of the bivariate Gaussian with covariance
    k; equals the entropy of a Gaussian at the conditional variance.
    Raises DomainError when that variance is ill-conditioned."""
    cv = conditional_variance(k)
    if cv <= 0:
        raise DomainError("conditional variance is zero: B is a deterministic "
                          "linear function of A")
    _check_conditioning(k, cv)
    return gaussian_entropy(cv)


def gaussian_mutual_information(k: Covariance2) -> float:
    """I(A;B) in bits for the bivariate Gaussian model, 0.5*log2(var_b/cond_var).
    Raises DomainError when the conditional variance is ill-conditioned."""
    cv = conditional_variance(k)
    if cv <= 0 or k.var_b <= 0:
        raise DomainError("mutual information undefined for degenerate covariance")
    _check_conditioning(k, cv)
    return _mutual_information(k, cv)


def _mutual_information(k: Covariance2, cv: float) -> float:
    """I(A;B) of k from its positive conditional variance cv, unchecked."""
    return 0.5 * math.log2(k.var_b / cv)


def squeezed_rate_bound(k: Covariance2, n: int, n0: float = 1.0) -> RateReport:
    """Secret-key-rate lower bound for the squeezed-state/homodyne protocol.

    Per pulse: log2(n0 / cond_var). Negative values are returned as-is;
    they mean no secure key at this covariance, which the caller decides
    how to report.
    """
    _check_bound_args(n, n0)
    cv = conditional_variance(k)
    if cv <= 0:
        raise DomainError("conditional variance must be positive for a rate bound")
    quotient = n0 / cv
    if not 0.0 < quotient < math.inf:
        raise DomainError(
            f"conditional variance {cv:.6g} is out of range for a rate bound: "
            f"n0/cv = {quotient:.6g} is not finite and positive")
    _check_conditioning(k, cv)
    return _report(k, n, math.log2(quotient), cv)


def heterodyne_covariance_transform(k_measured: Covariance2, n0: float = 1.0) -> Covariance2:
    """Covariance of Alice's pre-beam-splitter mode against Bob, inferred
    from her heterodyne-measured statistics.

    The heterodyne 50:50 split halves the signal and adds half a vacuum
    unit, so the measured Alice variance must exceed n0 to carry any
    signal. Inverting the split gives var_a' = 2*var_a - n0 and
    cov_ab' = sqrt(2)*cov_ab (see HeterodyneTransform). Raises
    InconsistentStatisticsError when the reconstructed matrix is not
    positive semidefinite.
    """
    _check_shot_noise(n0)
    if not k_measured.var_a > n0:
        raise DomainError(
            f"measured Alice variance {k_measured.var_a} must exceed the "
            f"shot-noise unit {n0} for the heterodyne transform")
    var_a_prime = 2.0 * k_measured.var_a - n0
    if math.isinf(var_a_prime):
        raise DomainError(f"var_a = {k_measured.var_a:.6g} is too large for the heterodyne "
                          f"transform: the reconstructed variance overflows")
    cov_ab_prime = math.sqrt(2.0) * k_measured.cov_ab
    if math.isinf(cov_ab_prime * cov_ab_prime):
        raise DomainError(f"cov_ab = {k_measured.cov_ab:.6g} is too large for the heterodyne "
                          f"transform: the square of sqrt(2)*cov_ab overflows")
    return Covariance2(var_a_prime, k_measured.var_b, cov_ab_prime)


def coherent_rate_bound(k_measured: Covariance2, n: int, n0: float = 1.0) -> RateReport:
    """Secret-key-rate lower bound for the coherent-state/heterodyne
    protocol, from Alice's measured covariance against Bob.

    Per pulse: log2(n0 / sqrt(cv1 * cv2)) where cv1 conditions Bob on
    Alice's measured data and cv2 on her reconstructed pre-beam-splitter
    mode. Equivalent to the entropy chain
    2*H0 - H_G(B|A) - H_G(B|A'), which the test suite checks against this
    closed form.
    """
    _check_bound_args(n, n0)
    cv1 = conditional_variance(k_measured)
    k_prime = heterodyne_covariance_transform(k_measured, n0)
    cv2 = conditional_variance(k_prime)
    if cv1 <= 0 or cv2 <= 0:
        raise DomainError("both conditional variances must be positive")
    product = cv1 * cv2
    quotient = n0 / math.sqrt(product) if product > 0 else math.inf
    if not 0.0 < quotient < math.inf:
        raise DomainError(
            f"conditional variances {cv1:.6g} and {cv2:.6g} are out of range for a rate "
            f"bound: n0/sqrt(cv1*cv2) = {quotient:.6g} is not finite and positive")
    _check_conditioning(k_measured, cv1)
    _check_conditioning(k_prime, cv2)
    return _report(k_measured, n, math.log2(quotient), cv1, cv2)


def _check_conditioning(k: Covariance2, cv: float) -> None:
    """Raise DomainError when rounding may have moved the conditional variance
    cv = var_b - cov_ab**2/var_a of k by more than CONDITIONING_RTOL of itself.
    Four units in the last place of var_b + cov_ab**2/var_a bound that error."""
    error = 4.0 * 2.0 ** -53 * (k.var_b + k.cov_ab ** 2 / k.var_a)
    if error > CONDITIONING_RTOL * cv:
        raise DomainError(
            f"conditional variance {cv:.6g} is ill-conditioned: rounding in var_b - "
            f"cov_ab^2/var_a (var_b = {k.var_b:.6g}) may move it by {error:.3g}, more "
            f"than {CONDITIONING_RTOL:g} of its value")


def _report(k: Covariance2, n: int, per_pulse: float, cv: float,
            cv_prime: float | None = None) -> RateReport:
    """The unsifted report of a bound of per_pulse bits for blocks of n; the
    bound has already checked k's conditional variance cv."""
    try:
        block = n * per_pulse
    except OverflowError:  # an n beyond the float range
        block = math.inf
    if not math.isfinite(block):
        raise DomainError(f"block size {n} is too large: the block rate "
                          f"n * {per_pulse:.6g} bits is not finite")
    return RateReport(
        delta_i_min_per_pulse=per_pulse, block_size=n, i_ab=_mutual_information(k, cv),
        cond_var_b_given_a=cv, sifting_applied=False, cond_var_b_given_a_prime=cv_prime)


def rate_bound(
    k: Covariance2,
    n: int,
    protocol: ProtocolKind,
    n0: float = 1.0,
    transform: HeterodyneTransform = HeterodyneTransform.BEAMSPLITTER,
) -> RateReport:
    """Dispatch to the bound matching the protocol.

    transform has one value and changes nothing; it stays only because
    perfbench's monte-carlo-rate workload passes it.
    """
    if protocol is ProtocolKind.SQUEEZED_HOMODYNE:
        return squeezed_rate_bound(k, n, n0)
    return coherent_rate_bound(k, n, n0)


def apply_sifting(rate: float) -> float:
    """Rate penalty of random independent quadrature choices: the bases
    agree half of the time, so every information rate is halved."""
    return rate / 2.0


def conditional_squeezing_check(k: Covariance2, n0: float = 1.0) -> str:
    """Sufficient security condition on second moments alone: the verdict
    is "secure" iff the conditional variance of B given A is below the
    vacuum variance (strictly; the boundary carries zero key rate)."""
    _check_shot_noise(n0)
    return "secure" if conditional_variance(k) < n0 else "insecure"


def _check_bound_args(n: int, n0: float) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"block size must be a positive integer, got {n!r}")
    _check_shot_noise(n0)


def _check_shot_noise(n0: float) -> None:
    """Raise DomainError unless the shot-noise unit n0 is positive and finite."""
    if not n0 > 0:
        raise DomainError(f"shot-noise unit must be positive, got {n0}")
    if math.isinf(n0):
        raise DomainError(f"shot-noise unit must be finite, got {n0}")
