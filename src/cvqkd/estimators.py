"""Covariance and differential-entropy estimation from finite samples.

The entropy estimator is the classic nearest-neighbor construction
(digamma-corrected log of k-th neighbor distances), applied after an
affine whitening of the data so strongly correlated quadrature pairs do
not bias the neighbor search; the whitening log-determinant is added
back. In 1-d the k-th neighbor distances come from one sort and a
window of k neighbors on each side, exactly equal to a k-d tree's; in
2-d and above they come from scipy's ``cKDTree``, queried in the tree's
own leaf order for the k-th distance alone. scipy is imported on the
first estimate, so code that never estimates an entropy does not load
it. Standard errors come from 10-fold subsampling.

The entropy terms of one estimate (all rows and every fold) run through
``in_parallel`` and are summed in a fixed order, so estimates are
deterministic for a fixed input ordering and jitter seed on any core count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError, InsufficientDataError
from .rates import Covariance2, conditional_variance

#: jitter magnitude relative to the per-axis sample standard deviation,
#: applied before the neighbor search so exact duplicates do not produce
#: zero distances
JITTER_SCALE = 1e-12

#: subsampling folds used for standard errors
FOLDS = 10

#: samples per slice of the covariance's second-moment sums
MOMENT_CHUNK = 1 << 16

LOG2 = math.log(2.0)


def in_parallel(function, calls) -> list:
    """``[function(*args) for args in calls]`` (a list), run on one thread per
    core the process may use, the calling thread among them (none is
    started for one core or one call). Calls start in order, none after a
    failure, and the first failing call's error is raised once the started
    ones end. The threads gain where the calls release the GIL, as numpy does."""
    results, errors = [None] * len(calls), {}
    todo, lock = iter(range(len(calls))), threading.Lock()

    def drain():
        while True:
            with lock:
                i = None if errors else next(todo, None)
            if i is None:
                return
            try:
                results[i] = function(*calls[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc

    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    helpers = [threading.Thread(target=drain) for _ in range(min(cores, len(calls)) - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return results


@dataclass(frozen=True)
class SampleSet:
    """Paired Alice/Bob quadrature outcomes."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
            raise DomainError("sample arrays must be 1-d and of equal length")
        if len(a) < 2:
            raise InsufficientDataError(f"need at least 2 samples, got {len(a)}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise DomainError("samples must be finite")

    def __len__(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class EntropyEstimate:
    """A k-NN differential-entropy value in bits and its standard error."""

    value: float
    std_error: float


def estimate_covariance(s: SampleSet) -> Covariance2:
    """Sample covariance of (a, b) after subtracting sample means,
    population-normalized. A covariance marginally outside the positive-
    semidefinite cone (floating point) is clipped to the boundary.

    The centred products are summed one MOMENT_CHUNK slice at a time (numpy's
    pairwise sum, no BLAS) and the partial sums combined with ``math.fsum``, so
    the result depends on the input and MOMENT_CHUNK alone, not on the core or
    BLAS thread count, and no temporary is larger than a slice."""
    mean_a, mean_b = s.a.mean(), s.b.mean()
    aa, bb, ab = [], [], []
    for start in range(0, len(s), MOMENT_CHUNK):
        a = s.a[start:start + MOMENT_CHUNK] - mean_a
        b = s.b[start:start + MOMENT_CHUNK] - mean_b
        aa.append(float((a * a).sum()))
        bb.append(float((b * b).sum()))
        ab.append(float((a * b).sum()))
    n = len(s)
    var_a = math.fsum(aa) / n
    var_b = math.fsum(bb) / n
    cov = math.fsum(ab) / n
    limit = math.sqrt(var_a * var_b)
    if abs(cov) > limit:
        cov = math.copysign(limit, cov)
    return Covariance2(var_a, var_b, cov)


def _as_matrix(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DomainError("values must be a 1-d sequence or an (n, d) array")
    if not np.isfinite(x).all():
        raise DomainError("values must be finite")
    return x


def _jitter(x: np.ndarray, seed: int) -> np.ndarray:
    scale = x.std(axis=0) * JITTER_SCALE
    if not scale.any():
        raise DegenerateDataError("all samples identical on some axis")
    rng = np.random.default_rng(seed)
    return x + rng.normal(0.0, 1.0, x.shape) * scale


def _whiten(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Map samples to unit covariance; return them with the entropy
    correction (bits) lost by the map, to be added back."""
    x = x - x.mean(axis=0)
    cov = (x.T @ x) / len(x)
    eigval, eigvec = np.linalg.eigh(cov)
    if eigval[0] <= eigval[-1] * 1e-12 or eigval[-1] <= 0:
        raise DegenerateDataError(
            "sample covariance is singular: the data has no spread in some "
            "direction (e.g. one variable is an exact function of the other)")
    y = (x @ eigvec) / np.sqrt(eigval)
    return y, 0.5 * float(np.log2(eigval).sum())


def _kth_neighbor_distance_1d(y: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point of a 1-d sample to its k-th nearest other
    point, in input order, with inf where fewer than k others exist.

    The k nearest of a sorted point are its m nearest on the left and
    k - m nearest on the right for some m, so the k-th distance is the
    least of max(L_m, R_{k-m}) over m = 0..k (L_0 = R_0 = 0), where L_m
    and R_m are the distances to the m-th point on either side. Each is
    one subtraction of sorted values, and equals a k-d tree's Euclidean
    distance bit for bit: fl(u - v) == -fl(v - u), and sqrt(fl(d*d)) ==
    |d| in IEEE doubles unless d*d underflows or overflows, which needs
    gaps below 1e-154 or above 1e154, far from whitened unit-variance data.
    """
    order = np.argsort(y, kind="stable")
    s = y[order]
    n = len(s)
    padded = np.concatenate([np.full(k, -np.inf), s, np.full(k, np.inf)])

    def left(m):
        return s - padded[k - m:k - m + n]

    def right(m):
        return padded[k + m:k + m + n] - s

    kth = np.minimum(left(k), right(k))
    for m in range(1, k):
        np.minimum(kth, np.maximum(left(m), right(k - m)), out=kth)
    eps = np.empty(n)
    eps[order] = kth
    return eps


def _kth_neighbor_distance_tree(y: np.ndarray, k: int) -> np.ndarray:
    """Distance from each row of an (n, d) sample to its k-th nearest other
    row, in input order, equal to ``cKDTree(y).query(y, k=k + 1)[0][:, k]``.

    The points are queried in the tree's leaf order, so neighboring
    queries walk the same nodes, and only the k-th distance is kept. Each
    distance is the same sum of squares of coordinate differences
    whatever the tree's shape, so the unbalanced, uncompacted tree (the
    faster to build) gives the same bits. One thread per query: the
    estimate's terms already hold the cores.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(y, balanced_tree=False, compact_nodes=False)
    dist, _ = tree.query(y[tree.indices], k=[k + 1], workers=1)
    eps = np.empty(len(y))
    eps[tree.indices] = dist[:, 0]
    return eps


def _knn_entropy_bits(x: np.ndarray, k: int, jitter_seed: int) -> float:
    """Point estimate of the nearest-neighbor entropy (bits) for an
    (n, d) sample matrix."""
    # scipy is imported here, not at module level, so that commands which
    # never estimate an entropy do not pay its import time
    from scipy.special import digamma, gammaln

    n, d = x.shape
    y, log_det_bits = _whiten(_jitter(x, jitter_seed))
    if d == 1:
        eps = _kth_neighbor_distance_1d(y[:, 0], k)
    else:
        eps = _kth_neighbor_distance_tree(y, k)
    if not eps.all():
        raise DegenerateDataError(
            f"zero distance to neighbor {k}: data is duplicate-heavy")
    log_unit_ball = (d / 2.0) * math.log(math.pi) - gammaln(d / 2.0 + 1.0)
    nats = (digamma(n) - digamma(k) + log_unit_ball
            + d * float(np.mean(np.log(eps))))
    return nats / LOG2 + log_det_bits


def _knn_estimate(terms, k: int, jitter_seed: int) -> EntropyEstimate:
    """The k-NN estimate of sum(sign * H(x)) over the (sign, matrix) terms,
    whose matrices share their rows, on all rows, with the standard error
    from the interleaved folds f::FOLDS, fold f jittered with seed
    jitter_seed + 1 + f.

    The (rows, term) entropies run through ``in_parallel`` in the order
    all rows, then folds 0..FOLDS-1, each in terms order, so the first
    failing term in that order raises and no term starts after a failure."""
    count = len(terms[0][1])
    if k < 1:
        raise DomainError(f"neighbor order must be >= 1, got {k}")
    if count < FOLDS * (k + 1):
        raise InsufficientDataError(
            f"need at least {FOLDS * (k + 1)} samples for "
            f"k={k} with {FOLDS}-fold errors, got {count}")

    runs = [(slice(None), jitter_seed)] + [
        (slice(f, None, FOLDS), jitter_seed + 1 + f) for f in range(FOLDS)]
    # row slices are views, so listing every term copies no data
    bits = iter(in_parallel(_knn_entropy_bits, [
        (x[rows], k, seed) for rows, seed in runs for _, x in terms]))
    # summed left to right from 0, so two terms give the float H(x) - H(y) exactly
    value, *per_fold = [sum(sign * next(bits) for sign, _ in terms) for _ in runs]
    err = float(np.array(per_fold).std(ddof=1) / math.sqrt(FOLDS))
    return EntropyEstimate(value, err)


def knn_differential_entropy(values, k: int = 4, jitter_seed: int = 0) -> EntropyEstimate:
    """Nearest-neighbor differential entropy of a scalar (or vector)
    sample, in bits.

    Consistent for any distribution with a density; duplicate-heavy data
    degenerates the neighbor distances and raises DegenerateDataError.
    """
    return _knn_estimate([(1, _as_matrix(values))], k, jitter_seed)


def conditional_entropy_estimate(s: SampleSet, k: int = 4,
                                 jitter_seed: int = 0) -> EntropyEstimate:
    """H(B|A) in bits, computed as H(A, B) - H(A) with the neighbor
    estimator; the standard error is taken on the per-fold differences so
    the two estimates' shared fluctuations cancel."""
    if conditional_variance(estimate_covariance(s)) <= 0:
        raise DegenerateDataError("B is an exact linear function of A: "
                                  "conditional spread is zero")
    return _knn_estimate([(1, np.column_stack([s.a, s.b])), (-1, s.a[:, None])],
                         k, jitter_seed)

