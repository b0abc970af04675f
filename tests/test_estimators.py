import math
import os
import re
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.special import digamma, gammaln

from cvqkd import (
    ATTACK_CATALOG,
    CATALOG_SOURCE,
    Covariance2,
    DegenerateDataError,
    DomainError,
    EntropyEstimate,
    InsufficientDataError,
    ProtocolKind,
    SampleSet,
    SiftingMode,
    conditional_entropy_estimate,
    estimate_covariance,
    gaussian_conditional_entropy,
    gaussian_entropy,
    knn_differential_entropy,
    run_session,
    vacuum_entropy,
)
from cvqkd import estimators
from cvqkd.estimators import (
    FOLDS,
    MOMENT_CHUNK,
    SINGULAR_RATIO,
    _digamma,
    _knn_estimate,
    _kth_neighbor_distance_1d,
    _kth_neighbor_distance_sweep,
    _log_unit_ball,
    _whiten,
    in_parallel,
)

N = 100_000


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(123)


@pytest.fixture(scope="module")
def correlated_gaussian(rng):
    z = rng.multivariate_normal([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]], N)
    return SampleSet(z[:, 0], z[:, 1])


class TestSampleSet:
    def test_rejects_single_sample(self):
        with pytest.raises(InsufficientDataError):
            SampleSet(np.array([1.0]), np.array([2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            SampleSet(np.array([1.0, np.nan]), np.array([0.0, 0.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_rejects_non_finite_anywhere(self, value, position, side):
        # the check reads each column's min and max, through which NaN propagates
        columns = {"a": np.arange(5.0), "b": -np.arange(5.0)}
        columns[side][position] = value
        with pytest.raises(DomainError, match="^samples must be finite$"):
            SampleSet(**columns)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(DomainError, match="^sample arrays must be 1-d and of equal length$"):
            SampleSet(np.zeros(3), np.zeros(2))


class TestEstimateCovariance:
    def test_two_point_antisymmetric(self):
        k = estimate_covariance(SampleSet(np.array([1, -1]), np.array([1, -1])))
        assert (k.var_a, k.var_b, k.cov_ab) == (1.0, 1.0, 1.0)

    def test_constant_data(self):
        k = estimate_covariance(SampleSet(np.array([3, 3, 3]), np.array([5, 5, 5])))
        assert (k.var_a, k.var_b, k.cov_ab) == (0.0, 0.0, 0.0)

    def test_mean_subtraction(self):
        k = estimate_covariance(SampleSet(np.array([11, 9]), np.array([101, 99])))
        assert (k.var_a, k.var_b, k.cov_ab) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("scale, seed", [(3.0, 0), (-2.3, 5)])
    def test_rounding_outside_the_cone_is_clipped(self, scale, seed):
        # b = scale * a: the sample covariance rounds past sqrt(var_a * var_b)
        a = np.random.default_rng(seed).normal(size=5)
        x, y = a - a.mean(), scale * a - (scale * a).mean()
        raw, limit = float(x @ y) / 5, math.sqrt(float(x @ x) / 5 * float(y @ y) / 5)
        assert abs(raw) > limit
        k = estimate_covariance(SampleSet(a, scale * a))
        assert k.cov_ab == math.copysign(limit, raw)

    def test_large_sample_close_to_truth(self, correlated_gaussian):
        k = estimate_covariance(correlated_gaussian)
        # 5 standard errors; se(var) ~ var*sqrt(2/N), se(cov) similar scale
        se_var = 2.0 * math.sqrt(2.0 / N)
        assert abs(k.var_a - 2.0) < 5 * se_var
        assert abs(k.var_b - 2.0) < 5 * se_var
        assert abs(k.cov_ab - 1.0) < 5 * se_var

    def test_result_is_valid_covariance(self, rng):
        for _ in range(50):
            a = rng.normal(size=16)
            s = SampleSet(a, a * rng.choice([-1.0, 1.0]) * 2.0)
            k = estimate_covariance(s)
            assert k.cov_ab ** 2 <= k.var_a * k.var_b * (1 + 1e-9)

    def test_peak_memory_is_a_few_slices(self):
        # the second moments stream through MOMENT_CHUNK slices: no whole-column
        # temporary, where centred copies of both columns took 16 MB here. Its
        # own generator, so the module's stream reaches later tests unchanged
        z = np.random.default_rng(5).normal(size=(2, 10**6))
        s = SampleSet(z[0], z[1])
        tracemalloc.start()
        try:
            estimate_covariance(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @settings(max_examples=40, deadline=None)
    @given(length=st.one_of(st.integers(2, 500),
                            st.integers(MOMENT_CHUNK - 3, 3 * MOMENT_CHUNK + 7)),
           offset=st.sampled_from([0.0, -3.5, 1e6]),
           rho=st.sampled_from([0.0, 0.6, -0.99, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_exactly_rounded_sums(self, length, offset, rho, seed):
        # within 1e-12 of the correctly rounded sums of the centred products,
        # also at lengths that are no multiple of MOMENT_CHUNK and on data far
        # from the origin, and never outside the positive-semidefinite cone.
        # A slice's pairwise sum errs by at most about 16 * 2**-53 of the sum of
        # its terms' magnitudes, and fsum adds no more than one more rounding
        z = np.random.default_rng(seed).normal(size=(2, length))
        a = offset + z[0]
        b = 2.0 * offset + rho * z[0] + math.sqrt(1.0 - rho * rho) * z[1]
        k = estimate_covariance(SampleSet(a, b))
        x, y = a - math.fsum(a) / length, b - math.fsum(b) / length
        var_a, var_b = math.fsum(x * x) / length, math.fsum(y * y) / length
        cov = math.fsum(x * y) / length
        assert k.var_a == pytest.approx(var_a, rel=1e-12)
        assert k.var_b == pytest.approx(var_b, rel=1e-12)
        assert abs(k.cov_ab - cov) <= 1e-12 * math.sqrt(var_a * var_b)
        assert abs(k.cov_ab) <= math.sqrt(k.var_a * k.var_b)


class TestKnnEntropy:
    def test_standard_gaussian(self, rng):
        est = knn_differential_entropy(rng.normal(size=N), k=4)
        assert est.value == pytest.approx(vacuum_entropy(), abs=0.01)

    def test_uniform_unit_support(self, rng):
        est = knn_differential_entropy(rng.uniform(size=N))
        assert est.value == pytest.approx(0.0, abs=0.01)

    def test_scaling_adds_one_bit(self, rng):
        x = rng.normal(size=N)
        base = knn_differential_entropy(x)
        scaled = knn_differential_entropy(2.0 * x)
        assert scaled.value - base.value == pytest.approx(
            1.0, abs=3 * (base.std_error + scaled.std_error))

    def test_translation_invariance(self, rng):
        x = rng.exponential(size=20_000)
        a = knn_differential_entropy(x)
        b = knn_differential_entropy(x + 1000.0)
        assert b.value == pytest.approx(a.value, abs=3 * (a.std_error + b.std_error))

    def test_same_data_gives_same_bits(self, rng):
        x = rng.normal(size=5_000)
        assert knn_differential_entropy(x) == knn_differential_entropy(x.copy())

    def test_duplicate_heavy_data_degenerates(self):
        with pytest.raises(DegenerateDataError):
            knn_differential_entropy(np.zeros(1000))

    @pytest.mark.parametrize("values, message", [
        (np.zeros((4, 2, 2)), "values must be a 1-d sequence or an (n, d) array"),
        ([1.0, math.nan, 2.0], "values must be finite"),
    ], ids=["three-axes", "nan"])
    def test_rejects_values(self, values, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            knn_differential_entropy(values)

    def test_trivariate_gaussian(self, rng):
        # any number of columns: a correlated 3-d Gaussian's entropy is
        # log2((2 pi e)^3 det K)/2
        k = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.4], [-0.3, 0.4, 0.5]])
        x = rng.normal(size=(N, 3)) @ np.linalg.cholesky(k).T
        est = knn_differential_entropy(x)
        exact = 0.5 * math.log2((2 * math.pi * math.e) ** 3 * np.linalg.det(k))
        assert est.value == pytest.approx(exact, abs=0.03)

    def test_exact_linear_relation_is_singular(self, rng):
        x, z = rng.normal(size=(2, 1000))
        for columns in ([x, 2 * x], [x, z, x + z], [x, z, 2 * z]):
            with pytest.raises(DegenerateDataError, match="^sample covariance is singular"):
                knn_differential_entropy(np.column_stack(columns))

    def test_rounded_data_names_its_tied_share(self, rng):
        # 3000 normal values rounded to 0.01: most have k = 7 or more others at distance zero
        x = np.round(rng.normal(size=3000), 2)
        _, copy_of, copies = np.unique(x, return_inverse=True, return_counts=True)
        tied = int((copies[copy_of] > 7).sum())
        assert 0 < tied < len(x)
        message = f"zero distance to neighbor 7 at {tied} of 3000 points: data is duplicate-heavy"
        with pytest.raises(DegenerateDataError, match=f"^{re.escape(message)}$"):
            knn_differential_entropy(x, k=7)

    def test_exact_pairs_give_a_finite_estimate(self, rng):
        # every value twice: a pair is fewer than k + 1 copies, so no k-th distance is zero
        x = np.repeat(rng.normal(size=N // 2), 2)
        est = knn_differential_entropy(x)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)

    def test_gaussian_maximality(self, rng):
        # among all tested distributions, none beats the Gaussian entropy
        # at its own sample variance
        samples = {
            "uniform": rng.uniform(-1, 1, N),
            "exponential": rng.exponential(1.0, N),
            "bimodal": rng.normal(0, 0.3, N) + rng.choice([-2.0, 2.0], N),
            "laplace": rng.laplace(0.0, 1.0, N),
        }
        for name, x in samples.items():
            est = knn_differential_entropy(x)
            ceiling = gaussian_entropy(float(x.var()))
            assert est.value <= ceiling + 3 * est.std_error, name

    def test_error_shrinks_with_sample_count(self):
        # quadrupling the sample count roughly halves the reported error
        # and does not worsen the actual deviation (within scatter); its own
        # generator, so its data do not depend on what the tests before it draw
        x = np.random.default_rng(123).normal(size=4 * N)
        small = knn_differential_entropy(x[:N])
        big = knn_differential_entropy(x)
        true = vacuum_entropy()
        assert big.std_error < small.std_error
        assert big.std_error == pytest.approx(small.std_error / 2, rel=0.75)
        assert abs(big.value - true) < max(abs(small.value - true), 4 * big.std_error)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            knn_differential_entropy(np.arange(10.0), k=4)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("estimate", [
    lambda s, k: knn_differential_entropy(s.a, k=k),
    lambda s, k: conditional_entropy_estimate(s, k=k),
], ids=["knn", "conditional"])
def test_neighbor_order_below_one_rejected(rng, estimate, k):
    a = rng.normal(size=500)
    with pytest.raises(DomainError, match="neighbor order must be >= 1"):
        estimate(SampleSet(a, a + rng.normal(size=500)), k)


class TestKthNeighborDistance1d:
    """The sort-and-window distances equal a k-d tree's bit for bit."""

    @staticmethod
    def tree(y, k):
        return cKDTree(y[:, None]).query(y[:, None], k=k + 1)[0][:, k]

    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_tree(self, rng, k):
        # at n = k + 1 every point's k neighbors are all the others; at
        # n = 2k + 1 only the middle point has k on each side
        for n in (k + 1, 2 * k + 1, 3 * k, 2000):
            for y in (rng.normal(size=n), rng.uniform(size=n),
                      np.round(rng.normal(size=n), 1)):  # ties
                assert np.array_equal(_kth_neighbor_distance_1d(y, k), self.tree(y, k))

    def test_exact_duplicates_degenerate(self):
        # ten copies of each value: every point has more than k others at distance zero
        x = 1e8 + np.repeat(np.arange(100.0), 10)
        y = x - x.mean()
        eps = _kth_neighbor_distance_1d(y, 4)
        assert np.array_equal(eps, self.tree(y, 4)) and not eps.any()
        with pytest.raises(DegenerateDataError, match="^zero distance to neighbor 4 at 1000 of "
                                                       "1000 points: data is duplicate-heavy$"):
            knn_differential_entropy(x)


def tree_kth(y, k):
    return cKDTree(y).query(y, k=k + 1)[0][:, k]


class TestKthNeighborDistanceTree:
    """The column sweep's k-th distances equal the default k-d tree's full
    query bit for bit."""

    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_default_tree(self, rng, k):
        # d = 3 and 4 draw from a generator of their own, so the module's draws
        # for the tests after this one stay as they were
        for d, gen in ((2, rng), (3, np.random.default_rng(k)), (4, np.random.default_rng(k))):
            for n in (k + 1, 2 * k + 1, 3 * k, 2000):
                for y in (gen.normal(size=(n, d)), gen.uniform(size=(n, d)),
                          np.round(gen.normal(size=(n, d)), 1)):  # ties, duplicates
                    assert np.array_equal(_kth_neighbor_distance_sweep(y, k), tree_kth(y, k))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), k=st.integers(1, 8),
           size=st.integers(0, 3000), kind=st.sampled_from(
               ["normal", "ties", "duplicates", "lattice", "clusters", "outliers", "lines"]),
           log_scale=st.floats(-3.0, 3.0))
    def test_matches_tree_on_any_data(self, seed, d, k, size, kind, log_scale):
        rng = np.random.default_rng(seed)
        n = k + 1 + size % (3000 - k)
        y = rng.normal(size=(n, d))
        if kind == "ties":
            y = np.round(y, 1)
        elif kind == "duplicates":
            y[n // 2:] = y[:n - n // 2]
        elif kind == "lattice":
            y = rng.integers(-3, 4, size=(n, d)).astype(float)
        elif kind == "clusters":
            y[: n // 2] = 1e-3 * y[: n // 2] + 50.0
            y[n // 2:] *= 1e-3
        elif kind == "outliers":
            y[:3] *= 1e4
        elif kind == "lines":  # two thin tilted lines across the first axis
            y[:, -1] = np.sign(y[:, -1]) + 1e-3 * y[:, 0]
        y *= 10.0 ** log_scale
        assert np.array_equal(_kth_neighbor_distance_sweep(y, k), tree_kth(y, k))

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_matches_tree_on_whitened_catalog_shapes(self, n):
        # the four noise shapes of the attack catalog, as the estimator sees them:
        # whitened (a, b) pairs of a 10^5-pulse session, or one 10^4-row fold
        for offset, channel in enumerate(ATTACK_CATALOG.values()):
            record = run_session(CATALOG_SOURCE, channel, ProtocolKind.SQUEEZED_HOMODYNE,
                                 n=1, l=100_000, sifting_mode=SiftingMode.QUANTUM_MEMORY,
                                 rng_seed=offset)
            s = record.samples()
            y, _ = _whiten(np.column_stack([s.a, s.b])[::100_000 // n])
            assert np.array_equal(_kth_neighbor_distance_sweep(y, 4), tree_kth(y, 4))


def scipy_log_unit_ball(d):
    """The unit-ball constant as scipy.special.gammaln gives it."""
    return (d / 2.0) * math.log(math.pi) - gammaln(d / 2.0 + 1.0)


class TestSpecialFunctions:
    """The digamma replica equals scipy.special's bit for bit. The unit-ball
    constant, from math.lgamma, is within 4e-15 relative of gammaln's form, and
    the k = 4 entropy constant in 1-d and 2-d rounds to the same double."""

    def test_digamma_at_every_integer_to_1e5(self):
        n = np.arange(1, 100_001)
        assert np.array_equal([_digamma(int(i)) for i in n], digamma(n.astype(float)))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**9))
    def test_digamma_at_any_integer(self, n):
        assert _digamma(n) == digamma(float(n))

    @pytest.mark.parametrize("d", range(1, 65))
    def test_log_unit_ball(self, d):
        expected = scipy_log_unit_ball(d)
        assert abs(_log_unit_ball(d) - expected) <= 4e-15 * max(1.0, abs(expected))

    def test_k4_constant_rounds_as_scipy_at_every_n_to_1e6(self):
        # psi(n) - psi(4) + log V_d, summed left to right as _knn_entropy_bits sums it
        shifted = np.array([_digamma(n) for n in range(6, 10**6 + 1)]) - _digamma(4)
        for d in (1, 2):
            assert np.array_equal(shifted + _log_unit_ball(d), shifted + scipy_log_unit_ball(d))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(6, 10**9), st.sampled_from([1, 2]))
    def test_k4_constant_rounds_as_scipy_at_any_n(self, n, d):
        shifted = _digamma(n) - _digamma(4)
        assert shifted + _log_unit_ball(d) == shifted + scipy_log_unit_ball(d)


#: the message of a singular sample covariance, word for word
SINGULAR_MESSAGE = ("sample covariance is singular: the data has no spread in some "
                    "direction (e.g. one variable is an exact function of the other)")


def eigen_whitened(x):
    """The eigenvector whitening of an (n, d) sample that the regression map
    replaced, with its singularity rule: the centred sample times the sample
    covariance's eigenvectors, over the root eigenvalues, and the log-determinant
    in bits."""
    x = x - x.mean(axis=0)
    eigval, eigvec = np.linalg.eigh((x.T @ x) / len(x))
    if eigval[0] <= eigval[-1] * 1e-12 or eigval[-1] <= 0:
        raise DegenerateDataError(SINGULAR_MESSAGE)
    return (x @ eigvec) / np.sqrt(eigval), 0.5 * float(np.log2(eigval).sum())


def kth_distances(y, k=4):
    return (_kth_neighbor_distance_1d(y[:, 0], k) if y.shape[1] == 1
            else _kth_neighbor_distance_sweep(y, k))


class TestWhiten:
    """The regression whitening against the eigenvector whitening it replaced:
    the same k-th distances and log-determinant up to rounding, and, for one or
    two columns, the same samples called singular, with the same message."""

    #: both maps round each whitened coordinate to about one ulp of the raw
    #: sample's largest entry max|x|, in units of its greatest spread
    #: sqrt(lambda_max), and lose up to kappa = lambda_max/lambda_min of those ulps
    #: in the sample's thin direction. So the k-th distances (absolutely, as they
    #: are differences of coordinates) and the log-determinant bits must agree
    #: within ULPS * kappa * max|x|/sqrt(lambda_max) ulps: a relative tolerance
    #: on the whitened coordinates. 4000 random samples like these reached 1.5
    ULPS = 16

    @given(st.integers(0, 2 ** 32 - 1), st.integers(5, 2000),
           st.sampled_from([-1.0, 1.0]), st.floats(0.0, 6.0), st.floats(-1.0, 1.0),
           st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    @example(0, 2000, 1.0, 6.0, 0.0, 3.0, -3.0)  # |r| = 1 - 1e-6
    @example(1, 5, -1.0, 6.0, 1.0, 0.0, 0.0)
    @settings(max_examples=60, deadline=None)
    def test_matches_eigen_whitening(self, seed, n, sign, digits, log_ratio, mean_a, mean_b):
        # correlation r = sign * (1 - 10^-digits), so |r| runs up to 1 - 1e-6
        r = sign * (1.0 - 10.0 ** -digits)
        u, v, w = np.random.default_rng(seed).normal(size=(3, n))
        x = np.column_stack([u + mean_a,
                             10.0 ** log_ratio * (r * u + math.sqrt(1.0 - r * r) * v) + mean_b,
                             w - 0.5 * u + 2.0 * v])
        for sample in (x[:, :1], x[:, :2], x):
            eigval = np.linalg.eigvalsh(np.atleast_2d(np.cov(sample.T, bias=True)))
            extent = abs(sample).max() / math.sqrt(eigval[-1])
            tolerance = self.ULPS * 2.0 ** -52 * eigval[-1] / eigval[0] * extent
            y, bits = _whiten(sample)
            reference, reference_bits = eigen_whitened(sample)
            assert abs(kth_distances(y) - kth_distances(reference)).max() <= tolerance
            assert abs(bits - reference_bits) <= tolerance

    @staticmethod
    def thin_sample(ratio, angle):
        """Four points whose sample covariance has eigenvalues 1 and ratio, exactly
        while the angle is 0; rotated by the angle."""
        a = np.array([1.0, -1.0, 1.0, -1.0])
        b = math.sqrt(ratio) * np.array([1.0, 1.0, -1.0, -1.0])
        c, s = math.cos(angle), math.sin(angle)
        return np.column_stack([c * a - s * b, s * a + c * b])

    @pytest.mark.parametrize("angle, margin", [(0.0, 1e-6), (0.3, 0.1), (1.0, 0.1)])
    def test_each_side_of_the_singular_threshold(self, angle, margin):
        # rotated, the thin direction's variance is known only to about
        # 1e12 ulps, so the margin widens
        below = self.thin_sample(SINGULAR_RATIO * (1.0 - margin), angle)
        above = self.thin_sample(SINGULAR_RATIO * (1.0 + margin), angle)
        for whiten in (_whiten, eigen_whitened):
            with pytest.raises(DegenerateDataError, match=f"^{re.escape(SINGULAR_MESSAGE)}$"):
                whiten(below)
            assert math.isfinite(whiten(above)[1])

    @pytest.mark.parametrize("x", [
        np.zeros((10, 1)), np.zeros((10, 2)),
        np.column_stack([np.arange(10.0), np.zeros(10)]),
        np.column_stack([np.zeros(10), np.arange(10.0)]),
    ], ids=["zeros-1d", "zeros-2d", "constant-b", "constant-a"])
    def test_no_spread_is_singular(self, x):
        for whiten in (_whiten, eigen_whitened):
            with pytest.raises(DegenerateDataError, match=f"^{re.escape(SINGULAR_MESSAGE)}$"):
                whiten(x)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(-14.0, -10.0))
    @settings(max_examples=200, deadline=None)
    def test_three_columns_pivot_test(self, seed, log_ratio):
        # a sample whose covariance has eigenvalues 1, 1 and 10^log_ratio, turned
        # by a random rotation: the pivot test calls it singular only where the
        # eigenvalue ratio is at most 3 * SINGULAR_RATIO, and then with the message
        rng = np.random.default_rng(seed)
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        x = rng.normal(size=(50, 3))
        x -= x.mean(axis=0)
        x = x @ np.linalg.cholesky(np.linalg.inv(x.T @ x / len(x)))  # unit covariance
        x = (x * [1.0, 1.0, math.sqrt(10.0 ** log_ratio)]) @ rotation.T
        eigval = np.linalg.eigvalsh(x.T @ x / len(x))
        try:
            _, bits = _whiten(x)
        except DegenerateDataError as exc:
            assert str(exc) == SINGULAR_MESSAGE
            assert eigval[0] <= 3 * SINGULAR_RATIO * eigval[-1] * (1 + 1e-3)
        else:
            assert math.isfinite(bits)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(FOLDS * 5, 400),
           st.sampled_from(["copy", "scaled", "negated", "constant-a", "constant-b",
                            "constant", "near-copy", "independent"]),
           st.sampled_from([1e-12, 1e-9, 1e-7, 1e-5, 1e-3]),
           st.sampled_from([1, 2]))
    @settings(max_examples=80, deadline=None)
    def test_singular_inputs_raise_as_before(self, seed, n, kind, spread, dims):
        # the estimates raise where the eigenvector whitening raised, with the same
        # message; the near copies' covariances have eigenvalue ratios of about
        # spread^2/4, a factor 25 or more from the threshold
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n)
        b = {"copy": a, "scaled": 3.0 * a, "negated": -a, "constant-a": a,
             "constant-b": np.full(n, 2.5), "constant": np.full(n, 2.5),
             "near-copy": a + spread * rng.normal(size=n),
             "independent": rng.normal(size=n)}[kind]
        if kind in ("constant-a", "constant"):
            a = np.full(n, -1.5)
        values = a if dims == 1 else np.column_stack([a, b])

        def outcome():
            try:
                knn_differential_entropy(values)
            except DegenerateDataError as exc:
                return str(exc)
            return None

        with mock.patch.object(estimators, "_whiten", eigen_whitened):
            before = outcome()
        assert outcome() == before


class TestCores:
    """The entropy terms of an estimate run on one thread per core the
    process may use; the core count must not reach the estimate or hide
    an error."""

    @pytest.fixture(scope="class")
    def pair(self):
        rng = np.random.default_rng(77)
        a = rng.normal(size=3000)
        return SampleSet(a, 0.8 * a + 0.6 * rng.normal(size=3000))

    @staticmethod
    def set_cores(monkeypatch, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)

    def test_core_count_cannot_change_an_estimate(self, monkeypatch, pair):
        # with threads switching every microsecond, every (rows, term)
        # entropy is still computed exactly once, by at most one thread per
        # core; a term is known by its length and first row
        entropy_bits = estimators._knn_entropy_bits
        calls = []

        def tracked(x, k):
            calls.append((threading.get_ident(), (len(x), tuple(x[0]))))
            return entropy_bits(x, k)

        monkeypatch.setattr(estimators, "_knn_entropy_bits", tracked)
        n = len(pair)
        estimates = {
            "knn-1d": (lambda: knn_differential_entropy(pair.a), ([pair.a],)),
            "knn-2d": (lambda: knn_differential_entropy(
                np.column_stack([pair.a, pair.b]), k=3), ([pair.a, pair.b],)),
            "conditional": (lambda: conditional_entropy_estimate(pair),
                            ([pair.a, pair.b], [pair.a])),
        }
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 2, 8):
                self.set_cores(monkeypatch, cores)
                for name, (estimate, matrices) in estimates.items():
                    calls.clear()
                    results[name, cores] = estimate()
                    threads, terms = zip(*calls)
                    expected = [(n, tuple(c[0] for c in columns)) for columns in matrices] + [
                        (len(range(f, n, FOLDS)), tuple(c[f] for c in columns))
                        for f in range(FOLDS) for columns in matrices]
                    assert sorted(terms) == sorted(expected)
                    assert len(set(threads)) <= cores
        finally:
            sys.setswitchinterval(interval)
        for name in estimates:
            for cores in (2, 8):
                assert results[name, cores] == results[name, 1], (name, cores)

    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_first_failing_term_reaches_the_caller(self, monkeypatch, pair, cores):
        # folds 3 and 7 both fail, and with more than one core fold 3
        # waits until fold 7 has failed; fold 3 comes first in the summing
        # order, so its error is the one raised
        self.set_cores(monkeypatch, cores)
        entropy_bits = estimators._knn_entropy_bits
        fold_7_failed = threading.Event()

        class TermFailed(Exception):
            pass

        def failing(x, k):
            # a fold's first row is row f, and the all-rows term is the longest
            fold = None if len(x) == len(pair) else int(np.flatnonzero(pair.a == x[0, 0])[0])
            if x.shape[1] == 1 and fold in (3, 7):
                if fold == 7:
                    fold_7_failed.set()
                elif cores > 1:
                    fold_7_failed.wait(timeout=30)
                raise TermFailed(f"fold {fold}")
            return entropy_bits(x, k)

        monkeypatch.setattr(estimators, "_knn_entropy_bits", failing)
        threads = threading.enumerate()
        terms = [(1, np.column_stack([pair.a, pair.b])), (-1, pair.a[:, None])]
        with pytest.raises(TermFailed, match="fold 3"):
            _knn_estimate(terms, 4)
        assert threading.enumerate() == threads


class CallFailed(Exception):
    pass


class TestInParallel:
    """in_parallel's contract, with threads switching every microsecond."""

    @pytest.fixture(autouse=True)
    def fast_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    set_cores = staticmethod(TestCores.set_cores)

    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_results_come_back_in_call_order(self, monkeypatch, cores):
        # later calls finish sooner, so finishing order is not call order
        self.set_cores(monkeypatch, cores)

        def square(i):
            time.sleep((40 - i) * 1e-4)
            return i * i

        assert in_parallel(square, [(i,) for i in range(40)]) == [i * i for i in range(40)]

    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_first_failing_call_in_order_raises(self, monkeypatch, cores):
        # calls 3 and 7 both fail, and with more than one core call 3 waits
        # until call 7 has failed; call 3 comes first, so its error is raised
        self.set_cores(monkeypatch, cores)
        call_7_failed = threading.Event()
        started = []

        def call(i):
            started.append(i)
            if i == 7:
                call_7_failed.set()
                raise CallFailed("call 7")
            if i == 3:
                if cores > 1:
                    call_7_failed.wait(timeout=30)
                raise CallFailed("call 3")
            return i

        with pytest.raises(CallFailed, match="call 3"):
            in_parallel(call, [(i,) for i in range(20)])
        assert (7 in started) == (cores > 1)

    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_no_call_starts_after_a_failure(self, monkeypatch, cores):
        # the calls after call 5 that are already running hold their
        # threads until well after call 5 has failed, so besides calls
        # 0..5 at most one call per other thread has started
        self.set_cores(monkeypatch, cores)
        call_5_failed = threading.Event()
        started = []

        def call(i):
            started.append(i)
            if i == 5:
                call_5_failed.set()
                raise CallFailed("call 5")
            if i > 5:
                call_5_failed.wait(timeout=30)
                time.sleep(0.1)
            return i

        with pytest.raises(CallFailed, match="call 5"):
            in_parallel(call, [(i,) for i in range(100)])
        assert sorted(started) == list(range(len(started)))
        assert 6 <= len(started) <= 5 + cores
        if cores == 1:
            assert started == list(range(6))

    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_no_thread_is_left_behind(self, monkeypatch, cores):
        self.set_cores(monkeypatch, cores)
        threads = threading.enumerate()
        assert in_parallel(abs, [(-i,) for i in range(10)]) == list(range(10))
        assert threading.enumerate() == threads
        with pytest.raises(ZeroDivisionError):
            in_parallel(divmod, [(1, i) for i in range(4, -4, -1)])
        assert threading.enumerate() == threads

    @pytest.mark.parametrize("cores, calls", [(1, 20), (8, 1), (8, 0)])
    def test_one_core_or_one_call_starts_no_thread(self, monkeypatch, cores, calls):
        self.set_cores(monkeypatch, cores)
        threads = threading.enumerate()
        seen = []

        def call(i):
            seen.append((threading.get_ident(), threading.enumerate()))
            return i

        assert in_parallel(call, [(i,) for i in range(calls)]) == list(range(calls))
        assert seen == [(threading.get_ident(), threads)] * calls


class TestPinnedEstimates:
    """Estimates at fixed seeds, recorded with the k-d tree in every
    dimension; equality of floats taken from repr is equality of bits."""

    @pytest.fixture(scope="class")
    def pair(self):
        rng = np.random.default_rng(2024)
        a = rng.normal(size=3000)
        return SampleSet(a, 0.8 * a + 0.6 * rng.normal(size=3000))

    def test_knn_1d(self, pair):
        assert knn_differential_entropy(pair.a) == EntropyEstimate(
            2.0349471239192187, 0.03138189037298379)

    def test_knn_2d(self, pair):
        assert knn_differential_entropy(
            np.column_stack([pair.a, pair.b]), k=3) == EntropyEstimate(
            3.347751635819053, 0.034626694857354166)

    def test_conditional(self, pair):
        assert conditional_entropy_estimate(pair) == EntropyEstimate(
            1.2958715612017606, 0.02973218192038169)


class TestConditionalEntropy:
    def test_bivariate_gaussian(self, correlated_gaussian):
        est = conditional_entropy_estimate(correlated_gaussian)
        truth = gaussian_conditional_entropy(Covariance2(2, 2, 1))
        assert est.value == pytest.approx(truth, abs=max(3 * est.std_error, 0.01))

    def test_independence_gives_marginal_entropy(self, rng):
        s = SampleSet(rng.normal(size=N), rng.normal(size=N))
        est = conditional_entropy_estimate(s)
        marginal = knn_differential_entropy(s.b)
        assert est.value == pytest.approx(
            marginal.value, abs=3 * (est.std_error + marginal.std_error) + 0.01)

    def test_exact_copy_degenerates(self, rng):
        x = rng.normal(size=1000)
        with pytest.raises(DegenerateDataError):
            conditional_entropy_estimate(SampleSet(x, x))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 60),
           scale=st.floats(1e-6, 1e6))
    @example(seed=0, size=20, scale=1.0)
    def test_spread_checked_before_k(self, seed, size, scale):
        # an exact copy B = A fails both checks and reports the zero spread, even where
        # its conditional variance v - v*v/v rounds above 0
        x = np.random.default_rng(seed).normal(0.0, scale, size)
        with pytest.raises(DegenerateDataError, match="conditional spread is zero"):
            conditional_entropy_estimate(SampleSet(x, x), k=0)

    def test_dominated_by_gaussian_conditional(self, rng):
        # non-Gaussian conditional noise: empirical H(B|A) below the
        # Gaussian value computed from the sample covariance
        a = rng.normal(0, 2, N)
        b = a + rng.choice([-3.0, 3.0], N)
        s = SampleSet(a, b)
        est = conditional_entropy_estimate(s)
        ceiling = gaussian_conditional_entropy(estimate_covariance(s))
        assert est.value < ceiling - 3 * est.std_error
