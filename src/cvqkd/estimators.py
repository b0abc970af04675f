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
distances come from one sort and a window of k neighbors on each side;
in 2-d and above from the column sweep, which takes candidates from
windows in sorted columns of grid cells and keeps a k-th distance only
where no point left out can be nearer. Both equal a k-d tree's
(``scipy.spatial.cKDTree``) bit for bit, and digamma equals ``scipy.special``'s;
the unit-ball constant comes from ``math.lgamma``, and no scipy is imported.
Standard errors come from 10-fold subsampling.

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
from .rates import Covariance2

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

#: width of the column sweep's cells, in (k+1)-th neighbor distances at the
#: centre of a unit normal
SWEEP_WIDTH = 2.0

#: points on each side of a query, along the swept axis, that the column
#: sweep's first pass takes from each column of the band
SWEEP_WINDOW = 6

#: candidate distances the column sweep forms at a time
SWEEP_BLOCK = 1 << 16


def in_parallel(function, calls) -> list:
    """``[function(*args) for args in calls]`` (a list), run on one thread per
    core the process may use, the calling thread among them (none is
    started for one core or one call). Calls start in order, none after a
    failure, and the first failing call's error is raised once the started
    ones end. The threads gain where the calls release the GIL, as numpy does.
    The calls must not start thread pools of their own, such as a BLAS's,
    which would fight these threads for the cores."""
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
        # NaN propagates through min and max, so this allocates no mask
        if not all(np.isfinite(column.min()) and np.isfinite(column.max()) for column in (a, b)):
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
    if (factor := _cholesky(cov)) is None:
        raise DegenerateDataError(_SINGULAR)
    slopes, pivots = factor
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
    return y, 0.5 * math.log2(math.prod(pivots))


def _cholesky(cov: list[list[float]]) -> tuple[list, list] | None:
    """The slopes c_jk/p_k and the pivots p_j of _whiten's map for the covariance
    cov, or None where _whiten's rule counts cov singular."""
    d = len(cov)
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
            return None
        slopes.append([c / p for c, p in zip(covs, pivots)])
        pivots.append(pivot)
    if d == 2 and math.prod(pivots) <= _SINGULAR_DET * trace * trace:
        return None
    return slopes, pivots


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


def _kth_neighbor_distance_sweep(y: np.ndarray, k: int) -> np.ndarray:
    """Distance from each row of an (n, d) sample, d >= 2, to its k-th nearest
    other row, in input order, equal to ``cKDTree(y).query(y, k=k + 1)[0][:, k]``
    bit for bit: the column sweep.

    One axis is swept: the one whose points crowd least along it. The others are
    cut into cells SWEEP_WIDTH times as wide as the (k+1)-th neighbor distance at
    the centre of a unit normal (whitened data has unit covariance), and each
    column of cells is sorted along the swept axis. A point's candidates are, in
    every column of a band of (2R + 1)^(d-1) around its own, the 2W + 1 points
    nearest it along that axis (R = 1 and W = SWEEP_WINDOW at first). Each
    squared distance is the sum of squared coordinate differences, left to
    right, as the tree forms it, and the k-th smallest, the point itself being
    the one at distance 0, is kept if it is at most the computed coordinate
    difference to every point left out: on each cell axis to the nearest
    coordinate of the cells beyond the band (cumulative minima and maxima over
    slabs of cells), on the swept axis to the first point beyond each window. A
    computed distance is at least its computed difference along any one axis,
    since rounding and sqrt are monotone and sqrt(fl(t*t)) == |t| (unless t*t
    underflows, as in 1-d), so the test needs no slack. A point that fails
    retries with twice the band or twice the window, whichever failed, and
    takes every point as a candidate once the band and window would hold as
    many.
    """
    n, d = y.shape
    axes = d - 1
    # the sweep runs along the axis whose points crowd least (the greatest median
    # gap between sorted values, on a sample); the others are cut into cells
    gaps = np.median(np.diff(np.sort(y[::max(1, n >> 12)], axis=0), axis=0), axis=0)
    lead = int(np.argmax(gaps))
    cross = [j for j in range(d) if j != lead]
    width = SWEEP_WIDTH * ((k + 1) * (2.0 * math.pi) ** (d / 2.0)
                           / (n * math.exp(_log_unit_ball(d)))) ** (1.0 / d)
    # each column is laid out below as a row of -inf on the swept axis, its points
    # and 2W + 2 rows of +inf (W = SWEEP_WINDOW), so no first-pass window reaches
    # another column
    gap = 2 * SWEEP_WINDOW + 3
    # cells beyond +-half join the outermost, so there are at most n / gap
    # columns and the layout has fewer than 2n rows
    half = max(0, int(((n / gap) ** (1.0 / axes) - 3.0) // 2))
    cell = np.clip(np.floor(y[:, cross] / width), -half, half).astype(np.intp)
    cell -= cell.min(axis=0) - 1  # cells 0 and dims - 1 stay empty
    dims = cell.max(axis=0) + 2
    strides = np.ones(axes, dtype=np.intp)
    strides[:-1] = np.cumprod(dims[:0:-1])[::-1]
    ncols = int(strides[0] * dims[0])

    # the extreme coordinate on each cell axis of the cells above (or below) a cell
    above, below = [], []
    for i, j in enumerate(cross):
        least = np.full(dims[i] + 1, np.inf)
        np.minimum.at(least, cell[:, i], y[:, j])
        greatest = np.full(dims[i] + 1, -np.inf)
        np.maximum.at(greatest[1:], cell[:, i], y[:, j])
        above.append(np.minimum.accumulate(least[::-1])[::-1])  # least in cells >= c
        below.append(np.maximum.accumulate(greatest))  # greatest in cells < c

    # a point's key is its column times n plus its rank along the swept axis
    # (ties in any order); points are sorted by key
    keys = cell @ strides
    del cell
    keys *= n
    keys[np.argsort(y[:, lead])] += np.arange(n)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.searchsorted(keys, np.arange(ncols + 1) * n)
    first = starts[:-1] + gap * np.arange(ncols) + 1
    stop = starts[1:] + gap * np.arange(ncols) + 1
    place = np.arange(n) + gap * (keys // n) + 1
    coords = []
    for j in range(d):
        values = np.full(n + gap * ncols, np.inf)
        values[place] = y[order, j]
        coords.append(values)
    del place
    last = coords[lead]
    last[first - 1] = -np.inf
    out = np.empty(n)

    def sweep(queries, r, w):
        """Set the k-th distance of each sorted point in queries whose band of
        radius r and windows of w points on each side pass the test; append
        the others to retry, keyed by the band radius and window they retry with."""
        band = np.stack(np.meshgrid(*[np.arange(-r, r + 1)] * axes, indexing="ij"),
                        axis=-1).reshape(-1, axes)
        span = 2 * w + 1
        candidates = len(band) * span
        if candidates >= n:
            rows = max(1, SWEEP_BLOCK // n)
            for start in range(0, len(queries), rows):
                q = order[queries[start:start + rows]]
                dist = sum(np.square(y[:, j] - y[q, j, None]) for j in range(d))
                out[q] = np.sqrt(np.partition(dist, k, axis=1)[:, k])
            return
        shifts = np.arange(span)[:, None]
        rows = max(1, SWEEP_BLOCK // candidates)
        for start in range(0, len(queries), rows):
            q = queries[start:start + rows]
            key = keys[q]
            column = key // n
            rank = key - column * n
            cells = column[:, None] // strides % dims
            p = [values[q + gap * column + 1] for values in coords]
            # one row per column of the band: its first and stopping rows, and
            # where the query's swept coordinate would fall in it
            target = np.ascontiguousarray(
                (np.clip(cells[:, None, :] + band, 0, dims - 1) @ strides).T)
            a, b = first[target], stop[target]
            at = np.searchsorted(keys, target * n + rank) + gap * target + 1
            lo = np.minimum(np.maximum(at - w, a), np.maximum(a, b - span))
            hi = lo + span
            index = (lo[:, None, :] + shifts).reshape(candidates, len(q))
            if w > SWEEP_WINDOW:  # longer than the padding: stop at the +inf row
                np.minimum(index, np.repeat(b, span, axis=0), out=index)
                np.minimum(hi, b, out=hi)
            squares = []
            for values, value in zip(coords, p):
                square = values[index]
                square -= value
                squares.append(np.square(square, out=square))
            for square in squares[1:-1]:
                squares[0] += square
            dist = np.empty((len(q), candidates))
            np.add(squares[0], squares[-1], out=dist.T)
            dist.sort(axis=1)
            kth = np.sqrt(dist[:, k])
            window_ok = kth <= np.minimum(p[lead] - last[lo - 1], last[hi] - p[lead]).min(axis=0)
            band_ok = np.ones(len(q), dtype=bool)
            for i, j in enumerate(cross):
                band_ok &= kth <= above[i][np.minimum(cells[:, i] + r + 1, dims[i])] - p[j]
                band_ok &= kth <= p[j] - below[i][np.maximum(cells[:, i] - r, 0)]
            ok = band_ok & window_ok
            out[order[q[ok]]] = kth[ok]
            for state, failed in (((2 * r, w), window_ok & ~band_ok),
                                  ((r, 2 * w), band_ok & ~window_ok),
                                  ((2 * r, 2 * w), ~(band_ok | window_ok))):
                if failed.any():
                    retry.setdefault(state, []).append(q[failed])

    retry = {(1, SWEEP_WINDOW): [np.arange(n)]}
    while retry:
        pending, retry = retry, {}
        for (r, w), parts in pending.items():
            sweep(np.concatenate(parts), r, w)
    return out


#: digamma's asymptotic series in cephes ``psi``, in z = 1/x^2, highest power first
_PSI_SERIES = (8.33333333333333333333e-2, -2.10927960927960927961e-2, 7.57575757575757575758e-3,
               -4.16666666666666666667e-3, 3.96825396825396825397e-3, -8.33333333333333333333e-3,
               8.33333333333333333333e-2)

EULER = 0.57721566490153286061


def _digamma(n: int) -> float:
    """digamma(n) at a positive integer, equal to ``scipy.special.digamma(n)``
    bit for bit: cephes ``psi``, the harmonic sum less Euler's constant up to
    10, and above it log(n) - 1/(2n) - z*A(z), z = 1/n^2, with A its 7-term
    series summed by Horner's rule."""
    if n <= 10:
        total = 0.0
        for i in range(1, n):
            total += 1.0 / i
        return total - EULER
    x = float(n)
    z = 1.0 / (x * x)
    series = _PSI_SERIES[0]
    for coefficient in _PSI_SERIES[1:]:
        series = series * z + coefficient
    return math.log(x) - 0.5 / x - z * series


def _log_unit_ball(d: int) -> float:
    """log of the d-dimensional unit ball's volume, pi^(d/2)/Gamma(d/2 + 1), within
    2e-15 relative of ``scipy.special.gammaln``'s form up to d = 64. Added to
    digamma(n) - digamma(4) in 1-d or 2-d, it rounds as that form does for n >= 6."""
    return (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)


def _knn_entropy_bits(x: np.ndarray, k: int) -> float:
    """Point estimate of the nearest-neighbor entropy (bits) for an
    (n, d) sample matrix."""
    n, d = x.shape
    y, log_det_bits = _whiten(x)
    if d == 1:
        eps = _kth_neighbor_distance_1d(y[:, 0], k)
    else:
        eps = _kth_neighbor_distance_sweep(y, k)
    if not eps.all():
        raise DegenerateDataError(f"zero distance to neighbor {k} at {n - np.count_nonzero(eps)} "
                                  f"of {n} points: data is duplicate-heavy")
    nats = (_digamma(n) - _digamma(k) + _log_unit_ball(d)
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
    the two estimates' shared fluctuations cancel. Data that _whiten's 2-d rule
    counts singular, which every copy B = A is, raises before k is checked; a
    constant A is left to _whiten to name."""
    _, cov = _moments(s.a, s.b)
    if cov[0][0] > 0 and _cholesky(cov) is None:
        raise DegenerateDataError("B is an exact linear function of A: "
                                  "conditional spread is zero")
    return _knn_estimate([(1, np.column_stack([s.a, s.b])), (-1, s.a[:, None])], k)

