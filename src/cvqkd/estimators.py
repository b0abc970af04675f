"""Covariance and differential-entropy estimation from finite samples.

The entropy estimator is the classic nearest-neighbor construction
(digamma-corrected log of k-th neighbor distances), applied after an
affine whitening of the data so strongly correlated quadrature pairs do
not bias the neighbor search; the whitening log-determinant is added
back. The whitening is the regression of each column on the ones before
it (a Cholesky factor of the sample covariance) over the second moments
that ``estimate_covariance`` sums, in fixed MOMENT_CHUNK slices combined
with ``math.fsum``; it uses no BLAS or LAPACK, so neither the BLAS build
nor its thread count moves an estimate. In 1-d the k-th neighbor
distances come from one sort and a window of k neighbors on each side,
exactly equal to a k-d tree's; in 2-d and above they come from scipy's
``cKDTree``, queried in the tree's own leaf order for the k-th distance
alone. scipy is imported on the first estimate, so code that never
estimates an entropy does not load it. Standard errors come from 10-fold
subsampling.

The entropy terms of one estimate (all rows and every fold) run through
``in_parallel`` and are summed in a fixed order, so estimates are
deterministic for a fixed input ordering on any core count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError, InsufficientDataError
from .rates import Covariance2, conditional_variance

#: subsampling folds used for standard errors
FOLDS = 10

#: samples per slice of the second-moment sums
MOMENT_CHUNK = 1 << 16

#: largest ratio of the sample covariance's least to greatest eigenvalue at
#: which the k-NN whitening counts it as singular
SINGULAR_RATIO = 1e-12

#: det/trace^2 of a 2x2 covariance whose eigenvalue ratio r is SINGULAR_RATIO:
#: det/trace^2 = r/(1 + r)^2, which grows with r
_SINGULAR_DET = SINGULAR_RATIO / ((1.0 + SINGULAR_RATIO) * (1.0 + SINGULAR_RATIO))

_SINGULAR = ("sample covariance is singular: the data has no spread in some "
            "direction (e.g. one variable is an exact function of the other)")

LOG2 = math.log(2.0)


def in_parallel(function, calls) -> list:
    """``[function(*args) for args in calls]`` (a list), run on one thread per
    core the process may use, the calling thread among them (none is
    started for one core or one call). Calls start in order, none after a
    failure, and the first failing call's error is raised once the started
    ones end. The threads gain where the calls release the GIL, as numpy does.
    The calls must not start thread pools of their own, such as a BLAS's or
    a ``workers`` argument's, which would fight these threads for the cores."""
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


def _moments(*columns) -> tuple[list, list[list[float]]]:
    """The means of equal-length 1-d columns and the symmetric matrix of their
    population second moments about those means: for columns a and b,
    ([mean_a, mean_b], [[s_aa, s_ab], [s_ab, s_bb]]).

    The centred products are summed one MOMENT_CHUNK slice at a time (numpy's
    pairwise sum, no BLAS) and the partial sums combined with ``math.fsum``, so
    the result depends on the input and MOMENT_CHUNK alone, not on the core or
    BLAS thread count, and no temporary is larger than a slice."""
    means = [column.mean() for column in columns]
    pairs = [(i, j) for i in range(len(columns)) for j in range(i, len(columns))]
    sums = [[] for _ in pairs]
    for start in range(0, len(columns[0]), MOMENT_CHUNK):
        centred = [column[start:start + MOMENT_CHUNK] - mean
                   for column, mean in zip(columns, means)]
        for (i, j), partial in zip(pairs, sums):
            partial.append(float((centred[i] * centred[j]).sum()))
    matrix = [[0.0] * len(columns) for _ in columns]
    for (i, j), partial in zip(pairs, sums):
        matrix[i][j] = matrix[j][i] = math.fsum(partial) / len(columns[0])
    return means, matrix


def estimate_covariance(s: SampleSet) -> Covariance2:
    """Sample covariance of (a, b) after subtracting sample means,
    population-normalized, from ``_moments``. A covariance marginally outside
    the positive-semidefinite cone (floating point) is clipped to the boundary."""
    _, ((var_a, cov), (_, var_b)) = _moments(s.a, s.b)
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


def _whiten(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Map an (n, d) sample to unit sample covariance; return it with the
    entropy correction (bits) lost by the map, to be added back.

    The map regresses each column on the ones before it, a Cholesky factor of
    the ``_moments`` covariance S. Column j's covariance with residual k < j is
    c_jk = S_jk - sum over m < k of (c_km/p_m) c_jm; its residual
    z_j = x_j - mean_j - sum over k < j of (c_jk/p_k) z_k has the variance (pivot)
    p_j = S_jj - sum over k < j of c_jk^2/p_k, and maps to z_j/sqrt(p_j). The
    correction is log2(det S)/2, det S being the pivots' product. For columns a
    and b, y2 = (b - mean_b - (s_ab/s_aa)(a - mean_a))/sqrt(cv) with
    cv = s_bb - s_ab^2/s_aa. Its Euclidean distances equal any other whitening's
    up to rounding, and it needs no BLAS or LAPACK, so no BLAS build moves its bits.

    The covariance is singular when its least eigenvalue is at most
    SINGULAR_RATIO times its greatest: s_aa <= 0 in 1-d, and
    s_aa*cv <= _SINGULAR_DET*(s_aa + s_bb)^2 in 2-d, in its determinant and trace.
    With more columns the rule is a pivot test instead: some p_j is at most
    SINGULAR_RATIO times the trace. Every pivot is at least the least eigenvalue
    and the trace at most d times the greatest, so the test rejects only ratios
    up to d*SINGULAR_RATIO; it may pass a smaller one, but keeps the map finite."""
    d = x.shape[1]
    means, cov = _moments(*x.T)
    trace = sum(cov[j][j] for j in range(d))
    # with one or two columns the pivots need only be positive to divide by: in
    # 1-d that is the whole rule, and in 2-d the determinant rule below decides
    floor = SINGULAR_RATIO * trace if d > 2 else 0.0
    slopes, pivots = [], []
    for j in range(d):
        covs = []
        for k in range(j):
            covs.append(cov[j][k] - sum(slope * c for slope, c in zip(slopes[k], covs)))
        pivot = cov[j][j] - sum(c * c / p for c, p in zip(covs, pivots))
        if pivot <= floor:
            raise DegenerateDataError(_SINGULAR)
        slopes.append([c / p for c, p in zip(covs, pivots)])
        pivots.append(pivot)
    det = math.prod(pivots)
    if d == 2 and det <= _SINGULAR_DET * trace * trace:
        raise DegenerateDataError(_SINGULAR)
    y, residuals = np.empty_like(x), []
    for j in range(d):
        # the last residual is needed by no other column, so it is formed in place
        column = y[:, j]
        residual = (x[:, j] - means[j] if j < d - 1
                    else np.subtract(x[:, j], means[j], out=column))
        for slope, earlier in zip(slopes[j], residuals):
            residual -= slope * earlier
        residuals.append(residual)
        np.divide(residual, math.sqrt(pivots[j]), out=column)
    return y, 0.5 * math.log2(det)


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


def _knn_entropy_bits(x: np.ndarray, k: int) -> float:
    """Point estimate of the nearest-neighbor entropy (bits) for an
    (n, d) sample matrix."""
    # scipy is imported here, not at module level, so that commands which
    # never estimate an entropy do not pay its import time
    from scipy.special import digamma, gammaln

    n, d = x.shape
    y, log_det_bits = _whiten(x)
    if d == 1:
        eps = _kth_neighbor_distance_1d(y[:, 0], k)
    else:
        eps = _kth_neighbor_distance_tree(y, k)
    if not eps.all():
        raise DegenerateDataError(f"zero distance to neighbor {k} at {n - np.count_nonzero(eps)} "
                                  f"of {n} points: data is duplicate-heavy")
    log_unit_ball = (d / 2.0) * math.log(math.pi) - gammaln(d / 2.0 + 1.0)
    nats = (digamma(n) - digamma(k) + log_unit_ball
            + d * float(np.mean(np.log(eps))))
    return nats / LOG2 + log_det_bits


def _knn_estimate(terms, k: int) -> EntropyEstimate:
    """The k-NN estimate of sum(sign * H(x)) over the (sign, matrix) terms,
    whose matrices share their rows, on all rows, with the standard error
    from the interleaved folds f::FOLDS.

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

    runs = [slice(None)] + [slice(f, None, FOLDS) for f in range(FOLDS)]
    # row slices are views, so listing every term copies no data
    bits = iter(in_parallel(_knn_entropy_bits, [(x[rows], k) for rows in runs for _, x in terms]))
    # summed left to right from 0, so two terms give the float H(x) - H(y) exactly
    value, *per_fold = [sum(sign * next(bits) for sign, _ in terms) for _ in runs]
    err = float(np.array(per_fold).std(ddof=1) / math.sqrt(FOLDS))
    return EntropyEstimate(value, err)


def knn_differential_entropy(values, k: int = 4) -> EntropyEstimate:
    """Nearest-neighbor differential entropy of a scalar (or vector)
    sample, in bits.

    Consistent for any distribution with a density. The estimate depends on
    the data alone: where k + 1 values coincide, the k-th neighbor distance is
    zero and DegenerateDataError names the share of such points.
    """
    return _knn_estimate([(1, _as_matrix(values))], k)


def conditional_entropy_estimate(s: SampleSet, k: int = 4) -> EntropyEstimate:
    """H(B|A) in bits, computed as H(A, B) - H(A) with the neighbor
    estimator; the standard error is taken on the per-fold differences so
    the two estimates' shared fluctuations cancel."""
    if conditional_variance(estimate_covariance(s)) <= 0:
        raise DegenerateDataError("B is an exact linear function of A: "
                                  "conditional spread is zero")
    return _knn_estimate([(1, np.column_stack([s.a, s.b])), (-1, s.a[:, None])], k)

