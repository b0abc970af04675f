"""Monte Carlo generation of Alice/Bob quadrature data.

Models the entanglement-based picture: an EPR source's twin beams go to
Alice (homodyne, or heterodyne through a 50:50 splitter) and through a
lossy, noisy channel to Bob. Eve appears only through the classical
channel she induces on the (A, B) statistics; noise shapes beyond
Gaussian let her attack carry non-Gaussian structure at identical second
moments.

Randomness: a counter-based Philox generator keyed by the session seed,
split into one substream per chunk of whole blocks (~2**18 pulses). The
chunks run through ``estimators.in_parallel``, each writing its own slice
of the columns, so the bytes do not depend on how many cores there are.

Each chunk is drawn into its columns: the pipeline's steps update in place
the arrays they are handed, so beyond its slices of the columns a chunk
holds three chunk-sized float arrays (Alice's and Bob's p values and one for
the draws), and the int64 label draw while only two of them exist.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CapacityError, ConfigurationError
from .estimators import MOMENT_CHUNK, SampleSet, in_parallel
from .rates import Covariance2, Moments, ProtocolKind, _require, _sqrt

#: target pulses per RNG substream; chunks always hold whole blocks
CHUNK_PULSES = 1 << 18

#: relative tolerance when matching a noise shape's variance to the channel
SHAPE_RTOL = 1e-9

#: the largest source variance v whose square v*v is a finite float
MAX_SOURCE_VARIANCE = math.sqrt(sys.float_info.max)

Q, P = 0, 1  # quadrature label codes used in record arrays
LABEL_CHARS = ("q", "p")

#: dtypes of a record's a, pooled_b, label_a and label_b columns
COLUMN_DTYPES = (float, float, np.uint8, np.uint8)


# ---------------------------------------------------------------------------
# noise shapes

@dataclass(frozen=True)
class GaussianNoise:
    """Gaussian channel noise; adapts to whatever variance the channel
    declares, and is the shape the covariance bounds implicitly assume."""

    kind = "gaussian"

    @property
    def declared_variance(self):
        return None

    @classmethod
    def matching(cls, variance: float) -> "GaussianNoise":
        return cls()

    def draw(self, out: np.ndarray, rng: np.random.Generator, variance: float) -> None:
        _normal(out, rng, math.sqrt(variance))


@dataclass(frozen=True)
class TwoComponentMixture:
    """Zero-mean mixture of two Gaussians: weights w1, w2 on variances v1, v2."""

    w1: float
    w2: float
    v1: float
    v2: float
    kind = "mixture"

    def __post_init__(self):
        if not (self.w1 >= 0 and self.w2 >= 0 and abs(self.w1 + self.w2 - 1.0) <= 1e-12):
            raise ConfigurationError("mixture weights must be non-negative and sum to 1")
        if not (self.v1 >= 0 and self.v2 >= 0):
            raise ConfigurationError("mixture component variances must be non-negative")

    @property
    def declared_variance(self) -> float:
        return self.w1 * self.v1 + self.w2 * self.v2

    @classmethod
    def matching(cls, variance: float) -> "TwoComponentMixture":
        # equal weights on spreads 1:9, so v1 = variance / (0.5 + 0.5 * 9)
        v1 = variance / 5.0
        return cls(0.5, 0.5, v1, 9.0 * v1)

    def draw(self, out, rng, variance):
        # rng.normal(0.0, 1.0) * np.where(pick, sqrt(v1), sqrt(v2)) on a 1-d out,
        # a slice at a time (a masked multiply is about three times slower)
        pick = rng.random(out=out) < self.w1
        _normal(out, rng)
        for start in range(0, out.size, MOMENT_CHUNK):
            part = out[start:start + MOMENT_CHUNK]
            part *= np.where(pick[start:start + MOMENT_CHUNK],
                             math.sqrt(self.v1), math.sqrt(self.v2))


@dataclass(frozen=True)
class UniformNoise:
    """Uniform noise on [-halfwidth, halfwidth]."""

    halfwidth: float
    kind = "uniform"

    def __post_init__(self):
        if not self.halfwidth > 0:
            raise ConfigurationError("halfwidth must be positive")

    @property
    def declared_variance(self) -> float:
        return self.halfwidth * self.halfwidth / 3.0

    @classmethod
    def matching(cls, variance: float) -> "UniformNoise":
        return cls(math.sqrt(3.0 * variance))

    def draw(self, out, rng, variance):
        # rng.uniform(-halfwidth, halfwidth) forms low + (high - low) * u
        rng.random(out=out)
        out *= 2.0 * self.halfwidth
        out -= self.halfwidth


@dataclass(frozen=True)
class DiscreteDisplacement:
    """Noise of +magnitude or -magnitude (probability/2 each), else 0.

    Maximally structured: the second moment matches a Gaussian attack
    while the conditional entropy it induces stays far below the Gaussian
    maximum.
    """

    magnitude: float
    probability: float
    kind = "displacement"

    def __post_init__(self):
        if not self.magnitude > 0:
            raise ConfigurationError("displacement magnitude must be positive")
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError("displacement probability must be in (0, 1]")

    @property
    def declared_variance(self) -> float:
        return self.probability * (self.magnitude * self.magnitude)

    @classmethod
    def matching(cls, variance: float) -> "DiscreteDisplacement":
        return cls(math.sqrt(variance), 1.0)

    def draw(self, out, rng, variance):
        # magnitude * sign(u - 0.5) where |u - 0.5| < probability/2, else a zero
        # of the sign of u - 0.5 (u - 0.5 is exact for every u in [0, 1))
        d = rng.random(out=out)
        d -= 0.5
        half = self.probability / 2.0
        inside = d < half
        inside &= d > -half
        np.sign(d, out=d)
        d *= inside
        d *= self.magnitude


NOISE_SHAPES = (GaussianNoise, TwoComponentMixture, UniformNoise, DiscreteDisplacement)

#: the one lookup from a shape name (bare, or the kind of a spec) to its class
SHAPE_KINDS = {shape.kind: shape for shape in NOISE_SHAPES}


# ---------------------------------------------------------------------------
# source and channel

@dataclass(frozen=True)
class EprSource:
    """Two-mode squeezed vacuum: each half has quadrature variance v, the
    halves are correlated +sqrt(v*v - n0*n0) in q and the opposite in p.
    v = n0 is the vacuum (no entanglement)."""

    v: float
    n0: float = 1.0

    def __post_init__(self):
        _source_accepted(self.v, self.n0)

    @property
    def cross_correlation(self) -> float:
        return _cross_correlation(self.v, self.n0)


def _source_accepted(v, n0):
    """Where 0 < n0 <= v <= MAX_SOURCE_VARIANCE (so n0*n0 is finite too) holds for
    EprSource's v and n0, each a float or a column (see rates._require)."""
    holds = _require(n0 > 0, lambda: ConfigurationError(
        f"shot-noise unit must be positive, got {n0}"))
    holds &= _require(v >= n0, lambda: ConfigurationError(
        f"source variance {v} below the vacuum variance {n0}"))
    return holds & _require(v <= MAX_SOURCE_VARIANCE, lambda: ConfigurationError(
        f"source variance {v} is too large: its square overflows"))


def _cross_correlation(v, n0):
    """The EPR correlation sqrt(v*v - n0*n0) of source variances v, a float or a column."""
    return _sqrt(v * v - n0 * n0)


@dataclass(frozen=True)
class ChannelModel:
    """Transmission t, excess noise eps (referred to the channel input, so
    it appears as t*eps*n0 at Bob), and the distribution of the added
    noise. rho_block correlates the Gaussian noise of the pulses inside
    one block, giving a minimal coherent-attack structure."""

    t: float
    eps: float = 0.0
    shape: object = field(default_factory=GaussianNoise)
    rho_block: float = 0.0

    def __post_init__(self):
        _channel_accepted(self.t, self.eps)
        if not isinstance(self.shape, NOISE_SHAPES):
            raise ConfigurationError(f"unknown noise shape {self.shape!r}")
        if not 0.0 <= self.rho_block < 1.0:
            raise ConfigurationError(f"rho_block must be in [0, 1), got {self.rho_block}")
        if self.rho_block and not isinstance(self.shape, GaussianNoise):
            raise ConfigurationError(
                "intra-block noise correlation is only modeled for Gaussian noise")

    def noise_variance(self, n0: float = 1.0) -> float:
        """Total additive noise variance at Bob: vacuum replacing the lost
        fraction plus the transmitted excess noise."""
        return (1.0 - self.t) * n0 + self.t * self.eps * n0

    def validate_shape(self, n0: float = 1.0) -> None:
        """Raise unless the noise variance is finite and matches the shape's, if declared."""
        target = self.noise_variance(n0)
        if not math.isfinite(target):
            raise ConfigurationError(
                f"the channel's noise variance (1-t)*n0 + t*eps*n0 = {target} is not finite")
        declared = self.shape.declared_variance
        if declared is not None and not abs(declared - target) <= SHAPE_RTOL * max(target, 1.0):
            raise ConfigurationError(
                f"noise shape variance {declared:.6g} does not match the channel's "
                f"(1-t)*n0 + t*eps*n0 = {target:.6g}")


def _channel_accepted(t, eps):
    """Where ChannelModel accepts transmission t and excess noise eps, each a float
    or a column (see rates._require)."""
    holds = _require((0.0 < t) & (t <= 1.0), lambda: ConfigurationError(
        f"transmission must be in (0, 1], got {t}"))
    return holds & _require((0 <= eps) & (eps < math.inf), lambda: ConfigurationError(
        f"excess noise must be finite and >= 0, got {eps}"))


class SiftingMode(Enum):
    """How Bob's quadrature choice relates to Alice's."""

    RANDOM_BASIS = "random_basis"
    QUANTUM_MEMORY = "quantum_memory"


# ---------------------------------------------------------------------------
# elementary sampling operations: each step updates, in place, the arrays it is
# handed; the public operations copy their inputs and run the same steps

def _normal(out, rng, scale=1.0):
    """Fill out with rng.normal(0.0, scale, out.shape), bit for bit, and return it:
    numpy forms 0.0 + scale*z, and adding 0.0 turns a -0.0 into +0.0 as that does."""
    rng.standard_normal(out=out)
    out *= scale
    out += 0.0
    return out


def simulate_epr_pulse(src: EprSource, rng: np.random.Generator, size: int):
    """Draw quadrature outcomes (qa, pa, qb0, pb0) of the twin beams before
    the channel, as arrays of size pulses."""
    qa, pa, qb0, pb0 = np.empty((4, size))
    _draw_epr(rng, qa, qb0, pa, pb0)
    _mix_epr(src, qa, pa, qb0, pb0, np.empty(size))
    return qa, pa, qb0, pb0


def _draw_epr(rng, x1, x2, y1, y2):
    """Draw the twin beams' four standard normals, in this order."""
    for out in (x1, x2, y1, y2):
        _normal(out, rng)


def _mix_epr(src, x1, y1, x2, y2, scratch):
    """Turn the draws into qa = x1, pa = y1, qb0 = x2 and pb0 = y2, in place,
    with the roundings of sv * x1, sv * y1, gain * x1 + residual * x2 and
    -gain * y1 + residual * y2 (addition commutes)."""
    sv = math.sqrt(src.v)
    gain = src.cross_correlation / sv
    residual = src.n0 / sv
    x2 *= residual
    x2 += np.multiply(gain, x1, out=scratch)
    y2 *= residual
    y2 -= np.multiply(gain, y1, out=scratch)
    x1 *= sv
    y1 *= sv


def apply_attack(qb0, pb0, ch: ChannelModel, rng: np.random.Generator,
                 n0: float = 1.0, n: int = 1):
    """Send Bob's beam through the channel: attenuate by sqrt(t) and add
    noise drawn from the channel's shape, independently per quadrature.

    The pulses form consecutive blocks of n; with rho_block > 0 and n > 1
    the noise within a block is correlated (all q noise is drawn first).
    """
    qb = np.array(qb0, dtype=float)
    pb = np.array(pb0, dtype=float)
    _attack(qb.reshape(-1), pb.reshape(-1), ch, rng, n0, n, np.empty(qb.size))
    return qb, pb


def _attack(qb, pb, ch, rng, n0, n, noise):
    """apply_attack in place on 1-d qb and pb, drawing into noise."""
    ch.validate_shape(n0)
    if n < 1 or qb.size % n:
        raise ConfigurationError(f"{qb.size} pulses do not fill blocks of n={n}")
    var = ch.noise_variance(n0)
    root_t = math.sqrt(ch.t)
    rho = ch.rho_block
    for x in (qb, pb):
        if rho > 0.0 and n > 1:
            _block_noise(noise, rng, rho, n, var)
        else:
            ch.shape.draw(noise, rng, var)
        # the sum root_t * x + noise (addition commutes)
        x *= root_t
        x += noise


def _block_noise(out, rng, rho, n, variance):
    """Fill out with Gaussian noise of the given variance, exchangeably correlated
    within blocks of n: every pulse's noise shares a common block component with
    weight sqrt(rho)."""
    common = rng.normal(0.0, 1.0, out.size // n)
    common *= math.sqrt(rho)
    _normal(out, rng)
    out *= math.sqrt(1.0 - rho)
    blocks = out.reshape(-1, n)
    blocks += common[:, None]
    out *= math.sqrt(variance)


def measure_alice(qa, pa, protocol: ProtocolKind, rng: np.random.Generator,
                  n0: float = 1.0):
    """Alice's detection of both quadratures; returns (qa_measured,
    pa_measured), of which the caller keeps the labeled one.

    Homodyne: exact, copies of the inputs as float arrays, drawing nothing.
    Heterodyne: both through the 50:50 splitter, each picking up an
    independent vacuum contribution, (value + vacuum)/sqrt(2).
    """
    qa = np.array(qa, dtype=float, ndmin=1)
    pa = np.array(pa, dtype=float, ndmin=1)
    _measure_alice(qa, pa, protocol, rng, n0, np.empty(qa.shape))
    return qa, pa


def _measure_alice(qa, pa, protocol, rng, n0, vacuum):
    """measure_alice in place, drawing into vacuum."""
    if protocol is ProtocolKind.SQUEEZED_HOMODYNE:
        return
    root_half = math.sqrt(0.5)
    vac_std = math.sqrt(n0)
    # vacuum + qa and pa - vacuum (addition commutes)
    qa += _normal(vacuum, rng, vac_std)
    qa *= root_half
    pa -= _normal(vacuum, rng, vac_std)
    pa *= root_half


# ---------------------------------------------------------------------------
# sessions

@dataclass(frozen=True)
class BlockRecord:
    """l blocks of n pulses: Alice's measured values, Bob's values pooled (his q
    values, and his p values negated, so that both labels share one joint law:
    the EPR correlation is anti-symmetric in p) and the quadrature labels (0=q,
    1=p), plus the configuration that generated them. Pulses are stored
    block-major: pulse j of block i sits at index i*n + j."""

    n: int
    l: int
    protocol: ProtocolKind
    sifting_mode: SiftingMode
    seed: int
    source: EprSource
    channel: ChannelModel
    a: np.ndarray
    pooled_b: np.ndarray
    label_a: np.ndarray
    label_b: np.ndarray

    def __post_init__(self):
        total = self.n * self.l
        for arr in (self.a, self.pooled_b, self.label_a, self.label_b):
            if len(arr) != total:
                raise ConfigurationError("record arrays must hold n*l entries")

    @property
    def b(self) -> np.ndarray:
        """Bob's measured values, as a new array."""
        return flip_p(self.pooled_b.copy(), self.label_b)

    @property
    def total_pulses(self) -> int:
        return self.n * self.l

    @property
    def kept(self) -> np.ndarray:
        """The sifting flags: a pulse is kept when Alice's and Bob's labels agree."""
        return self.label_a == self.label_b

    @property
    def kept_count(self) -> int:
        """How many pulses are kept, counted one MOMENT_CHUNK slice at a time, so
        that no per-pulse flags are made."""
        return sum(int(np.count_nonzero(self.label_a[start:start + MOMENT_CHUNK]
                                        == self.label_b[start:start + MOMENT_CHUNK]))
                   for start in range(0, self.total_pulses, MOMENT_CHUNK))

    def samples(self) -> SampleSet:
        """Kept pulses as a SampleSet of Alice's values and Bob's pooled ones.
        When every pulse is kept, both are read-only views of the record's
        columns, not copies, and no per-pulse flags are made."""
        if self.kept_count == self.total_pulses:
            a, b = self.a.view(), self.pooled_b.view()
            a.flags.writeable = b.flags.writeable = False
        else:
            kept = self.kept
            a, b = self.a[kept], self.pooled_b[kept]
        return SampleSet(a, b)


def flip_p(b: np.ndarray, label_b: np.ndarray) -> np.ndarray:
    """Negate in place, and return, the values of b whose label is p: measured to
    pooled and back. A sign-bit flip, so exact on every bit pattern, NaN included."""
    return np.negative(b, out=b, where=label_b == P)


def run_session(src: EprSource, ch: ChannelModel, protocol: ProtocolKind | str,
                n: int, l: int, sifting_mode: SiftingMode | str = SiftingMode.RANDOM_BASIS,
                rng_seed: int = 0) -> BlockRecord:
    """Generate l blocks of n pulses. Deterministic for a given seed."""
    if n < 1 or l < 1:
        raise ConfigurationError(f"need n >= 1 and l >= 1, got n={n}, l={l}")
    try:
        protocol, sifting_mode = ProtocolKind(protocol), SiftingMode(sifting_mode)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    ch.validate_shape(src.n0)  # before the columns are allocated

    # each chunk is written straight into its slice of the columns, so the
    # peak holds the finished columns plus the temporaries of the chunks in
    # flight (one per core), never a second copy
    try:
        columns = [np.empty(n * l, dtype) for dtype in COLUMN_DTYPES]
    except (MemoryError, ValueError):
        raise CapacityError(f"cannot hold a session of n*l = {n * l} pulses") from None
    per_chunk = max(1, CHUNK_PULSES // n) * n
    master = np.random.Philox(rng_seed)
    in_parallel(_generate_chunk, [
        (src, ch, protocol, n, sifting_mode, np.random.Generator(master.jumped(chunk)),
         [column[start:start + per_chunk] for column in columns])
        for chunk, start in enumerate(range(0, n * l, per_chunk))])

    a, pooled_b, label_a, label_b = columns
    return BlockRecord(n=n, l=l, protocol=protocol, sifting_mode=sifting_mode,
                       seed=rng_seed, source=src, channel=ch,
                       a=a, pooled_b=pooled_b, label_a=label_a, label_b=label_b)


# one chunk, drawn in place into its slices of the four columns; its own
# function so that its temporaries are freed as soon as it returns
def _generate_chunk(src, ch, protocol, n, sifting_mode, rng, out):
    a, b, label_a, label_b = out
    m = len(a)
    # the EPR draws x1, x2, y1, y2 land in a, b, pa and pb, which become Alice's
    # q, Bob's q, Alice's p and Bob's p values
    pa, pb = np.empty(m), np.empty(m)
    _draw_epr(rng, a, b, pa, pb)

    label_a[:] = rng.integers(0, 2, m)
    if sifting_mode is SiftingMode.RANDOM_BASIS:
        label_b[:] = rng.integers(0, 2, m)
    else:
        label_b[:] = label_a

    scratch = np.empty(m)
    _mix_epr(src, a, pa, b, pb, scratch)
    # Bob's values pooled: q as measured, p negated (see BlockRecord)
    _attack(b, pb, ch, rng, src.n0, n, scratch)
    np.copyto(b, np.negative(pb, out=pb), where=label_b == P)
    _measure_alice(a, pa, protocol, rng, src.n0, scratch)
    np.copyto(a, pa, where=label_a == P)


def analytic_covariance(src: EprSource, ch: ChannelModel,
                        protocol: ProtocolKind) -> Covariance2:
    """Exact second moments of the kept (sign-pooled) session data, the
    closed-form oracle for the Monte Carlo pipeline. Independent of the
    noise shape by construction."""
    return Covariance2(*analytic_moments(src.v, ch.t, ch.eps, src.n0, protocol))


def analytic_moments(v, t, eps, n0, protocol: ProtocolKind) -> Moments:
    """The moments analytic_covariance gives source variance v, transmission t and
    excess noise eps, unchecked; each a float, or a numpy column for a grid of points."""
    # summed left to right, not as t*v + ch.noise_variance(n0): regrouping
    # the terms changes the last bit of var_b at some grid points
    var_b = t * v + (1.0 - t) * n0 + t * eps * n0
    cov = _sqrt(t) * _cross_correlation(v, n0)
    if protocol is ProtocolKind.SQUEEZED_HOMODYNE:
        return Moments(v, var_b, cov)
    return Moments((v + n0) / 2.0, var_b, cov / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# attack catalog

#: the source of every catalogued attack
CATALOG_SOURCE = EprSource(20.0)


def _catalog() -> dict[str, ChannelModel]:
    # every noise shape fitted to one noise-only channel (t = 1, two shot-noise
    # units of excess noise), so all carry exactly the same second moments. The
    # Gaussian saturates the Gaussian bounds; the displacement is the
    # counterexample, with conditional variance above the vacuum while its
    # conditional entropy stays below the vacuum entropy
    t, eps = 1.0, 2.0
    var = ChannelModel(t, eps).noise_variance()
    return {shape.kind: ChannelModel(t, eps, shape.matching(var)) for shape in NOISE_SHAPES}


ATTACK_CATALOG = _catalog()
