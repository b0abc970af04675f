import math
import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from cvqkd import (
    Covariance2,
    DegenerateDataError,
    DomainError,
    EntropyEstimate,
    InsufficientDataError,
    SampleSet,
    conditional_entropy_estimate,
    estimate_covariance,
    gaussian_conditional_entropy,
    gaussian_entropy,
    knn_differential_entropy,
    vacuum_entropy,
)
from cvqkd import estimators
from cvqkd.estimators import (
    FOLDS,
    MOMENT_CHUNK,
    _knn_estimate,
    _kth_neighbor_distance_1d,
    _kth_neighbor_distance_tree,
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

    def test_deterministic_for_fixed_seed(self, rng):
        x = rng.normal(size=5_000)
        assert (knn_differential_entropy(x, jitter_seed=7).value
                == knn_differential_entropy(x, jitter_seed=7).value)

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

    def test_exact_linear_relation_is_singular(self, rng):
        x = rng.normal(size=1000)
        with pytest.raises(DegenerateDataError, match="^sample covariance is singular"):
            knn_differential_entropy(np.column_stack([x, 2 * x]))

    def test_survives_some_duplicates(self, rng):
        x = np.round(rng.normal(size=50_000), 1)  # heavy ties, nonzero spread
        est = knn_differential_entropy(x)
        assert math.isfinite(est.value)

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
        # at 1e8 the jitter is below one ulp, so the duplicates stay exact
        x = 1e8 + np.repeat(np.arange(100.0), 10)
        y = x - x.mean()
        eps = _kth_neighbor_distance_1d(y, 4)
        assert np.array_equal(eps, self.tree(y, 4)) and not eps.any()
        with pytest.raises(DegenerateDataError, match="zero distance"):
            knn_differential_entropy(x)


class TestKthNeighborDistanceTree:
    """The leaf-order query of an unbalanced tree, keeping only the k-th
    distance, equals the default tree's full query bit for bit."""

    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_default_tree(self, rng, k):
        for n in (k + 1, 2 * k + 1, 3 * k, 2000):
            for y in (rng.normal(size=(n, 2)), rng.uniform(size=(n, 2)),
                      np.round(rng.normal(size=(n, 2)), 1)):  # ties, duplicates
                reference = cKDTree(y).query(y, k=k + 1)[0][:, k]
                assert np.array_equal(_kth_neighbor_distance_tree(y, k), reference)


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
        # with threads switching every microsecond, every (rows, seed,
        # term) entropy is still computed exactly once, by at most one
        # thread per core
        entropy_bits = estimators._knn_entropy_bits
        calls = []

        def tracked(x, k, seed):
            calls.append((threading.get_ident(), (seed, x.shape)))
            return entropy_bits(x, k, seed)

        monkeypatch.setattr(estimators, "_knn_entropy_bits", tracked)
        n = len(pair)
        estimates = {
            "knn-1d": (lambda: knn_differential_entropy(pair.a, jitter_seed=5), (1,)),
            "knn-2d": (lambda: knn_differential_entropy(
                np.column_stack([pair.a, pair.b]), k=3, jitter_seed=5), (2,)),
            "conditional": (lambda: conditional_entropy_estimate(pair, jitter_seed=5),
                            (2, 1)),
        }
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 2, 8):
                self.set_cores(monkeypatch, cores)
                for name, (estimate, dims) in estimates.items():
                    calls.clear()
                    results[name, cores] = estimate()
                    threads, terms = zip(*calls)
                    expected = [(5, (n, d)) for d in dims] + [
                        (6 + f, (len(range(f, n, FOLDS)), d))
                        for f in range(FOLDS) for d in dims]
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

        def failing(x, k, seed):
            fold = seed - 1
            if x.shape[1] == 1 and fold in (3, 7):
                if fold == 7:
                    fold_7_failed.set()
                elif cores > 1:
                    fold_7_failed.wait(timeout=30)
                raise TermFailed(f"fold {fold}")
            return entropy_bits(x, k, seed)

        monkeypatch.setattr(estimators, "_knn_entropy_bits", failing)
        threads = threading.enumerate()
        terms = [(1, np.column_stack([pair.a, pair.b])), (-1, pair.a[:, None])]
        with pytest.raises(TermFailed, match="fold 3"):
            _knn_estimate(terms, 4, 0)
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
        assert knn_differential_entropy(pair.a, jitter_seed=5) == EntropyEstimate(
            2.0349471239175863, 0.03138189037170705)

    def test_knn_1d_ties(self, pair):
        assert knn_differential_entropy(
            np.round(pair.a, 2), k=7, jitter_seed=1) == EntropyEstimate(
            -18.48991010657216, 0.026226901580768697)

    def test_knn_2d(self, pair):
        assert knn_differential_entropy(
            np.column_stack([pair.a, pair.b]), k=3, jitter_seed=5) == EntropyEstimate(
            3.347751635815775, 0.03462669485733536)

    def test_conditional(self, pair):
        assert conditional_entropy_estimate(pair, jitter_seed=5) == EntropyEstimate(
            1.2958715612020173, 0.02973218191997204)


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

    def test_spread_checked_before_k(self, rng):
        # an input failing both checks reports the zero spread
        x = rng.normal(size=20)
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
