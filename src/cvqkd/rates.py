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
import operator
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, InconsistentStatisticsError

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


class Moments(NamedTuple):
    """Second moments var_a, var_b and cov_ab, unchecked: floats for one point, or
    numpy columns for a grid of points. The closed forms below take either, or a
    Covariance2, the checked moments of one point."""

    var_a: float | np.ndarray
    var_b: float | np.ndarray
    cov_ab: float | np.ndarray


@dataclass(frozen=True)
class Covariance2:
    """Second moments of one zero-mean Alice/Bob quadrature pair."""

    var_a: float
    var_b: float
    cov_ab: float

    def __post_init__(self):
        _accepted(self)


# The closed forms take floats or numpy columns alike, with the same roundings:
# squares are products, because the C library's pow(x, 2) is not always correctly
# rounded (a product is); a square root is correctly rounded in numpy and in math;
# and log2 is math.log2 on every entry, because numpy's log2 rounds differently
# on some. So a grid of points gets the bits of each point on its own. Their checks
# are written once for both: each is a _require, which for one point raises where
# the check fails, in the order the checks are written, and for a grid returns
# where it holds.

def _require(holds, error):
    """holds, a column of where a check holds on a grid of points, unchanged; or,
    for one point, True where the check holds, and otherwise raise error()."""
    if holds is True or isinstance(holds, np.ndarray):
        return holds
    if not holds:
        raise error()
    return True


def _accepted(k):
    """Where Covariance2 accepts the moments k: finite, non-negative variances and
    cov_ab^2 within var_a*var_b, up to PSD_RTOL."""
    holds = _require((abs(k.var_a) < math.inf) & (abs(k.var_b) < math.inf)
                     & (abs(k.cov_ab) < math.inf),
                     lambda: DomainError("covariance entries must be finite"))
    holds &= _require((k.var_a >= 0) & (k.var_b >= 0), lambda: DomainError(
        f"variances must be non-negative, got ({k.var_a}, {k.var_b})"))
    square = k.cov_ab * k.cov_ab
    holds &= _require(square < math.inf, lambda: DomainError(
        f"cov_ab = {k.cov_ab:.6g} is too large: its square overflows"))
    return holds & _require(
        square <= k.var_a * k.var_b * (1.0 + PSD_RTOL), lambda: InconsistentStatisticsError(
            f"cov_ab^2 = {square:.6g} exceeds var_a*var_b = {k.var_a * k.var_b:.6g}"))


def _sqrt(x):
    """The square root of a float, or of each entry of a column."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _clip_at_zero(x):
    """x, or 0 where x is negative, of a float or of each entry of a column."""
    return np.maximum(x, 0.0) if isinstance(x, np.ndarray) else max(x, 0.0)


def _log2(x):
    """math.log2 of a float, or of each entry of a column."""
    if not isinstance(x, np.ndarray):
        return math.log2(x)
    return np.array([math.log2(e) for e in x.tolist()])


@dataclass(frozen=True)
class RateReport:
    """Key-rate bound plus the intermediate quantities that produced it, of one
    point, or of a grid of points as numpy columns (see rate_bound).

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

    def effective_rate(self, beta: float) -> float:
        """Per-pulse key rate at reconciliation efficiency beta, beta * i_ab - i_be_bound,
        of one point or of a grid, after the one efficiency rule (_efficiency_accepted,
        which raises for one point outside [0, 1]); beta = 1 gives the plain bound."""
        _efficiency_accepted(beta)
        return beta * self.i_ab - self.i_be_bound


def gaussian_entropy(variance: float) -> float:
    """Differential entropy in bits of a Gaussian with the given variance,
    0.5*log2(2*pi*e*variance). This is the maximum entropy any
    distribution with that variance can have."""
    if not variance > 0:
        raise DomainError(f"variance must be positive, got {variance}")
    return 0.5 * math.log2(2.0 * math.pi * math.e * variance)


def vacuum_entropy(n0: float = 1.0) -> float:
    """Entropy of one vacuum quadrature (2.047095... bits for n0 = 1)."""
    _shot_noise_accepted(n0)
    return gaussian_entropy(n0)


def conditional_variance(k: Covariance2) -> float:
    """Residual variance of B after the best linear estimate from A:
    var_b - cov_ab**2 / var_a. Never negative; tiny negative floating-point
    residue at the perfectly-correlated boundary is clipped to 0."""
    return _conditional_variance(k)[1]


def _conditional_variance(k):
    """(where var_a > 0, var_b - cov_ab**2 / var_a clipped at 0) of moments k."""
    holds = _require(k.var_a > 0, lambda: DomainError("var_a must be positive to condition on A"))
    return holds, _clip_at_zero(k.var_b - k.cov_ab * k.cov_ab / k.var_a)


def gaussian_conditional_entropy(k: Covariance2) -> float:
    """Conditional entropy H(B|A) of the bivariate Gaussian with covariance
    k; equals the entropy of a Gaussian at the conditional variance.
    Raises DomainError when that variance is ill-conditioned."""
    cv = conditional_variance(k)
    if cv <= 0:
        raise DomainError("conditional variance is zero: B is a deterministic "
                          "linear function of A")
    _conditioned(k, cv)
    return gaussian_entropy(cv)


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
    _shot_noise_accepted(n0)
    return Covariance2(*_presplit(k_measured, n0)[1])


def _presplit(k, n0) -> tuple:
    """(where the heterodyne transform's own checks hold, its moments) of moments k:
    Alice's pre-beam-splitter mode against Bob. Covariance2's checks of those moments
    come next, in its callers."""
    holds = _require(k.var_a > n0, lambda: DomainError(
        f"measured Alice variance {k.var_a} must exceed the "
        f"shot-noise unit {n0} for the heterodyne transform"))
    k_prime = Moments(2.0 * k.var_a - n0, k.var_b, math.sqrt(2.0) * k.cov_ab)
    holds &= _require(k_prime.var_a < math.inf, lambda: DomainError(
        f"var_a = {k.var_a:.6g} is too large for the heterodyne "
        f"transform: the reconstructed variance overflows"))
    holds &= _require(k_prime.cov_ab * k_prime.cov_ab < math.inf, lambda: DomainError(
        f"cov_ab = {k.cov_ab:.6g} is too large for the heterodyne "
        f"transform: the square of sqrt(2)*cov_ab overflows"))
    return holds, k_prime


def _bound(k, protocol: ProtocolKind, n0: float) -> tuple:
    """The body of both rate bounds on moments k, for one point or a grid: (where
    the bound holds, 2 to the power of its bits per pulse, the conditional variance
    B|A, and B|A' for the coherent bound or None). The shot-noise unit n0 is checked
    first."""
    holds = _shot_noise_accepted(n0)
    conditioned, cv = _conditional_variance(k)
    holds &= conditioned
    k_prime = cv_prime = None
    if protocol is ProtocolKind.COHERENT_HETERODYNE:
        transformed, k_prime = _presplit(k, n0)
        holds &= transformed & _accepted(k_prime)
        cv_prime = _conditional_variance(k_prime)[1]  # var_a' > var_a > 0 where it holds
    positive = cv > 0 if k_prime is None else (cv > 0) & (cv_prime > 0)
    holds &= _require(positive, lambda: DomainError(
        f"conditional variance must be positive for a rate bound (var_b = {k.var_b:.6g}; "
        f"rounding in var_b - cov_ab^2/var_a may move it by {_rounding_bound(k):.3g})"
        if k_prime is None else
        f"both conditional variances must be positive (var_b = {k.var_b:.6g}; "
        f"rounding in var_b - cov_ab^2/var_a may move them by "
        f"{max(_rounding_bound(k), _rounding_bound(k_prime)):.3g})"))
    quotient = _quotient(n0, cv, cv_prime)
    holds &= _require((0.0 < quotient) & (quotient < math.inf), lambda: DomainError(
        f"conditional variance {cv:.6g} is out of range for a rate bound: "
        f"n0/cv = {quotient:.6g} is not finite and positive"
        if k_prime is None else
        f"conditional variances {cv:.6g} and {cv_prime:.6g} are out of range for a rate "
        f"bound: n0/sqrt(cv1*cv2) = {quotient:.6g} is not finite and positive"))
    holds &= _conditioned(k, cv)
    if k_prime is not None:
        holds &= _conditioned(k_prime, cv_prime)
    return holds, quotient, cv, cv_prime


def _quotient(n0, cv, cv_prime=None):
    """2 to the power of a bound's bits per pulse: n0/cv for the squeezed bound,
    n0/sqrt(cv*cv_prime) for the coherent one; infinite where the divisor is 0."""
    divisor = cv if cv_prime is None else _sqrt(cv * cv_prime)
    return n0 / divisor if isinstance(divisor, np.ndarray) or divisor > 0 else math.inf


def _rounding_bound(k) -> float:
    """How far rounding may move the conditional variance var_b - cov_ab**2/var_a
    of moments k: four units in the last place of var_b + cov_ab**2/var_a."""
    return 4.0 * 2.0 ** -53 * (k.var_b + k.cov_ab * k.cov_ab / k.var_a)


def _conditioned(k, cv):
    """Where rounding may have moved the conditional variance cv = var_b -
    cov_ab^2/var_a of moments k by at most CONDITIONING_RTOL of itself."""
    error = _rounding_bound(k)
    return _require(error <= CONDITIONING_RTOL * cv, lambda: DomainError(
        f"conditional variance {cv:.6g} is ill-conditioned: rounding in var_b - "
        f"cov_ab^2/var_a (var_b = {k.var_b:.6g}) may move it by {error:.3g}, more "
        f"than {CONDITIONING_RTOL:g} of its value"))


def rate_bound(
    k: Covariance2 | Moments,
    n: int,
    protocol: ProtocolKind,
    n0: float = 1.0,
    transform: HeterodyneTransform = HeterodyneTransform.BEAMSPLITTER,
) -> RateReport:
    """The unsifted rate bound of the protocol for blocks of n, at one point, whose
    moments k are a Covariance2, or on a grid, whose moments k are numpy columns. On
    a grid the report's values are columns, NaN exactly where Covariance2(*point) or
    rate_bound would raise for that point, and each other entry has that point's
    bits. Run it under np.errstate(all="ignore") on a grid: the points it rejects
    may overflow.

    transform has one value and changes nothing; it stays only because
    perfbench's monte-carlo-rate workload passes it.
    """
    try:
        size = operator.index(n)
    except TypeError:
        size = 0
    if isinstance(n, bool) or size < 1:
        raise DomainError(f"block size must be a positive integer, got {n!r}")
    holds = _accepted(k)  # a Covariance2 has passed it already
    bound_holds, quotient, cv, cv_prime = _bound(k, protocol, n0)
    holds &= bound_holds
    grid = isinstance(holds, np.ndarray)
    per_pulse = _log2(np.where(holds, quotient, np.nan) if grid else quotient)
    try:
        block = size * per_pulse
    except OverflowError:  # a size beyond the float range
        block = per_pulse * math.inf
    holds &= _require(abs(block) < math.inf, lambda: DomainError(
        f"block size {size} is too large: the block rate n * {per_pulse:.6g} bits is not finite"))
    if grid:
        per_pulse, cv = np.where(holds, per_pulse, np.nan), np.where(holds, cv, np.nan)
        cv_prime = None if cv_prime is None else np.where(holds, cv_prime, np.nan)
    return RateReport(
        delta_i_min_per_pulse=per_pulse, block_size=size, i_ab=0.5 * _log2(k.var_b / cv),
        cond_var_b_given_a=cv, sifting_applied=False, cond_var_b_given_a_prime=cv_prime)


def apply_sifting(rate: float) -> float:
    """Rate penalty of random independent quadrature choices: the bases
    agree half of the time, so every information rate is halved."""
    return rate / 2.0


def conditional_squeezing_check(k: Covariance2, n0: float = 1.0) -> str:
    """Sufficient security condition on second moments alone: the verdict
    is "secure" iff the conditional variance of B given A is below the
    vacuum variance (strictly; the boundary carries zero key rate)."""
    _shot_noise_accepted(n0)
    return "secure" if conditional_variance(k) < n0 else "insecure"


def _efficiency_accepted(beta):
    """Where the reconciliation efficiency beta, a float or a column, is in [0, 1]."""
    return _require((0.0 <= beta) & (beta <= 1.0), lambda: ConfigurationError(
        f"reconciliation efficiency must be in [0, 1], got {beta}"))


def _shot_noise_accepted(n0):
    """Where the shot-noise unit n0, a float or a column, is positive and finite."""
    holds = _require(n0 > 0, lambda: DomainError(f"shot-noise unit must be positive, got {n0}"))
    return holds & _require(n0 < math.inf, lambda: DomainError(
        f"shot-noise unit must be finite, got {n0}"))
