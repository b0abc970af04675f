import dataclasses
import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqkd import (
    ATTACK_CATALOG,
    CATALOG_SOURCE,
    BlockRecord,
    ChannelModel,
    ConfigurationError,
    DiscreteDisplacement,
    EprSource,
    GaussianNoise,
    ProtocolKind,
    SampleSet,
    SiftingMode,
    TwoComponentMixture,
    UniformNoise,
    analytic_covariance,
    apply_attack,
    estimate_covariance,
    measure_alice,
    run_session,
    simulate_epr_pulse,
)
from cvqkd import simulator
from cvqkd.records import dumps
from cvqkd.simulator import P, Q

HOMODYNE = ProtocolKind.SQUEEZED_HOMODYNE
HETERODYNE = ProtocolKind.COHERENT_HETERODYNE


def five_sigma_var(var, n):
    return 5.0 * var * math.sqrt(2.0 / n)


class TestNoiseShapes:
    def test_mixture_matching(self):
        shape = TwoComponentMixture.matching(2.0)
        assert shape.declared_variance == pytest.approx(2.0)
        assert (shape.w1, shape.w2) == (0.5, 0.5)
        assert shape.v2 == pytest.approx(9.0 * shape.v1)

    def test_uniform_matching(self):
        assert UniformNoise.matching(2.0).declared_variance == pytest.approx(2.0)

    def test_displacement_matching(self):
        shape = DiscreteDisplacement.matching(2.0)
        assert shape.declared_variance == pytest.approx(2.0)
        assert shape.magnitude == pytest.approx(math.sqrt(2.0))
        assert shape.probability == 1.0

    def test_declared_variances_square_by_product(self):
        # glibc 2.36's pow(x, 2) rounds the square of this halfwidth one unit in the
        # last place low, and that unit survives the division by 3; a product is
        # the correctly rounded square
        x = 1.5261283972998259
        square = float(Fraction(x) ** 2)
        assert UniformNoise(x).declared_variance == square / 3.0
        assert DiscreteDisplacement(x, 0.5).declared_variance == 0.5 * square

    def test_bad_mixture_weights(self):
        with pytest.raises(ConfigurationError):
            TwoComponentMixture(0.7, 0.7, 1.0, 1.0)

    def test_draw_variances_match(self):
        rng = np.random.default_rng(0)
        n = 400_000
        for shape in (GaussianNoise(), TwoComponentMixture.matching(2.0),
                      UniformNoise.matching(2.0),
                      DiscreteDisplacement(2.0, 0.5)):
            draw = shape.draw(n, rng, 2.0)
            assert float(draw.mean()) == pytest.approx(0.0, abs=0.02)
            assert float(draw.var()) == pytest.approx(2.0, rel=0.02)


class TestSourceAndChannel:
    def test_source_below_vacuum_rejected(self):
        with pytest.raises(ConfigurationError):
            EprSource(0.5)

    def test_channel_validation(self):
        with pytest.raises(ConfigurationError):
            ChannelModel(0.0, 0.0)
        with pytest.raises(ConfigurationError):
            ChannelModel(0.5, -0.1)

    def test_shape_variance_mismatch_rejected(self):
        ch = ChannelModel(1.0, 2.0, UniformNoise.matching(1.0))
        with pytest.raises(ConfigurationError):
            ch.validate_shape()

    def test_largest_source_keeps_its_cross_correlation(self):
        # sqrt(max float) is the largest v whose square is finite, and its
        # cross_correlation is the same expression as for any smaller v
        v = math.sqrt(sys.float_info.max)
        assert EprSource(v).cross_correlation == math.sqrt(v ** 2 - 1.0)
        with pytest.raises(ConfigurationError, match="too large"):
            EprSource(math.nextafter(v, math.inf))

    def test_shape_must_be_a_shape_object(self):
        with pytest.raises(ConfigurationError, match="^unknown noise shape 'gaussian'$"):
            ChannelModel(0.5, 0.0, "gaussian")

    def test_rho_block_needs_gaussian(self):
        with pytest.raises(ConfigurationError):
            ChannelModel(1.0, 2.0, UniformNoise.matching(2.0), rho_block=0.5)

    @pytest.mark.parametrize("make", [
        lambda: EprSource(math.nan),
        lambda: EprSource(4.0, math.nan),
        lambda: ChannelModel(math.nan),
        lambda: ChannelModel(0.5, math.nan),
        lambda: ChannelModel(0.5, 0.0, rho_block=math.nan),
        lambda: TwoComponentMixture(math.nan, 0.5, 1.0, 1.0),
        lambda: TwoComponentMixture(0.5, 0.5, 1.0, math.nan),
        lambda: UniformNoise(math.nan),
        lambda: DiscreteDisplacement(math.nan, 1.0),
        lambda: DiscreteDisplacement(1.0, math.nan),
        lambda: ChannelModel(1.0, 2.0, UniformNoise(3.0)).validate_shape(math.nan),
        lambda: EprSource(math.inf),
        lambda: EprSource(math.inf, math.inf),
        lambda: EprSource(1e308),
        lambda: ChannelModel(0.5, math.inf),
        lambda: ChannelModel(1.0, 1e308).validate_shape(10.0),
    ], ids=["v", "n0", "t", "eps", "rho_block", "mixture-weight", "mixture-variance",
            "halfwidth", "magnitude", "probability", "validate-shape", "v-inf", "n0-inf",
            "v-square-overflows", "eps-inf", "noise-variance-overflows"])
    def test_nan_rejected(self, make):
        with pytest.raises(ConfigurationError):
            make()


class TestEprPulse:
    def test_vacuum_is_uncorrelated(self):
        rng = np.random.default_rng(1)
        qa, pa, qb0, pb0 = simulate_epr_pulse(EprSource(1.0), rng, size=200_000)
        n = len(qa)
        for arr in (qa, pa, qb0, pb0):
            assert float(arr.var()) == pytest.approx(1.0, abs=five_sigma_var(1, n))
        assert float(np.mean(qa * qb0)) == pytest.approx(0.0, abs=5 / math.sqrt(n))

    def test_cross_correlation(self):
        rng = np.random.default_rng(2)
        n = 500_000
        qa, pa, qb0, pb0 = simulate_epr_pulse(EprSource(20.0), rng, size=n)
        c = math.sqrt(399.0)
        se = 5 * 20.0 * math.sqrt(2.0 / n)
        assert float(np.mean(qa * qb0)) == pytest.approx(c, abs=se)
        assert float(np.mean(pa * pb0)) == pytest.approx(-c, abs=se)

    def test_qp_sign_symmetry(self):
        rng = np.random.default_rng(3)
        n = 500_000
        qa, pa, qb0, pb0 = simulate_epr_pulse(EprSource(5.0), rng, size=n)
        q_corr = float(np.mean(qa * qb0))
        p_corr = float(np.mean(pa * -pb0))
        assert q_corr == pytest.approx(p_corr, abs=5 * 5.0 * math.sqrt(2.0 / n))


class TestApplyAttack:
    def test_identity_channel(self):
        rng = np.random.default_rng(5)
        qb0 = rng.normal(size=1000)
        pb0 = rng.normal(size=1000)
        qb, pb = apply_attack(qb0, pb0, ChannelModel(1.0, 0.0), rng)
        assert np.array_equal(qb, qb0) and np.array_equal(pb, pb0)

    def test_half_transmission_variance(self):
        rng = np.random.default_rng(6)
        n = 400_000
        qb0 = rng.normal(0, math.sqrt(4.0), n)
        qb, _ = apply_attack(qb0, qb0, ChannelModel(0.5, 0.0), rng)
        expected = 0.5 * 4.0 + 0.5
        assert float(qb.var()) == pytest.approx(expected, abs=five_sigma_var(expected, n))

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(7)
        ch = ChannelModel(0.5, 1.0, DiscreteDisplacement(3.0, 1.0))
        with pytest.raises(ConfigurationError):
            apply_attack(np.zeros(4), np.zeros(4), ch, rng)


class TestMeasureAlice:
    def test_homodyne_is_exact(self):
        rng = np.random.default_rng(8)
        qa = np.array([1.0, 2.0, 3.0])
        pa = np.array([-1.0, -2.0, -3.0])
        state = rng.bit_generator.state
        qm, pm = measure_alice(qa, pa, HOMODYNE, rng)
        assert np.array_equal(qm, qa) and np.array_equal(pm, pa)
        assert qm.dtype == pm.dtype == float
        assert rng.bit_generator.state == state

    def test_heterodyne_vacuum_invariant(self):
        rng = np.random.default_rng(9)
        n = 400_000
        qa, pa, _, _ = simulate_epr_pulse(EprSource(1.0), rng, size=n)
        qm, pm = measure_alice(qa, pa, HETERODYNE, rng)
        assert float(qm.var()) == pytest.approx(1.0, abs=five_sigma_var(1, n))
        assert float(pm.var()) == pytest.approx(1.0, abs=five_sigma_var(1, n))

    def test_heterodyne_variance_halves_signal_plus_vacuum(self):
        rng = np.random.default_rng(10)
        n = 1_000_000
        qa, pa, _, _ = simulate_epr_pulse(EprSource(20.0), rng, size=n)
        qm, _ = measure_alice(qa, pa, HETERODYNE, rng)
        assert float(qm.var()) == pytest.approx(10.5, abs=five_sigma_var(10.5, n))


class TestRunSession:
    def test_identity_quantum_memory_reproduces_source(self):
        rec = run_session(EprSource(4.0), ChannelModel(1.0, 0.0), HOMODYNE,
                          n=1, l=200_000, sifting_mode=SiftingMode.QUANTUM_MEMORY,
                          rng_seed=11)
        assert rec.kept.mean() == 1.0
        k = estimate_covariance(rec.samples())
        n = rec.total_pulses
        assert k.var_a == pytest.approx(4.0, abs=five_sigma_var(4, n))
        assert k.var_b == pytest.approx(4.0, abs=five_sigma_var(4, n))
        assert k.cov_ab == pytest.approx(math.sqrt(15.0), abs=five_sigma_var(4, n))

    def test_random_basis_keeps_half(self):
        rec = run_session(EprSource(4.0), ChannelModel(0.9, 0.1), HOMODYNE,
                          n=4, l=50_000, rng_seed=12)
        n = rec.total_pulses
        assert rec.kept.mean() == pytest.approx(0.5, abs=5 * 0.5 / math.sqrt(n))

    def test_label_frequencies_balanced(self):
        rec = run_session(EprSource(4.0), ChannelModel(1.0, 0.0), HOMODYNE,
                          n=1, l=100_000, rng_seed=13)
        for labels in (rec.label_a, rec.label_b):
            frac = float(labels.mean())
            assert frac == pytest.approx(0.5, abs=5 * 0.5 / math.sqrt(len(labels)))

    def test_same_seed_identical_records(self):
        kwargs = dict(n=3, l=5_000, sifting_mode=SiftingMode.RANDOM_BASIS, rng_seed=14)
        r1 = run_session(EprSource(8.0), ChannelModel(0.7, 0.2), HOMODYNE, **kwargs)
        r2 = run_session(EprSource(8.0), ChannelModel(0.7, 0.2), HOMODYNE, **kwargs)
        assert np.array_equal(r1.a, r2.a) and np.array_equal(r1.b, r2.b)
        assert np.array_equal(r1.label_a, r2.label_a)
        assert np.array_equal(r1.kept, r2.kept)

    def test_different_seeds_differ(self):
        r1 = run_session(EprSource(8.0), ChannelModel(0.7, 0.2), HOMODYNE,
                         n=1, l=1000, rng_seed=1)
        r2 = run_session(EprSource(8.0), ChannelModel(0.7, 0.2), HOMODYNE,
                         n=1, l=1000, rng_seed=2)
        assert not np.array_equal(r1.a, r2.a)

    def test_chunking_invisible_in_statistics(self):
        # a session spanning several chunks still matches the analytic law
        rec = run_session(EprSource(6.0), ChannelModel(0.6, 0.3), HOMODYNE,
                          n=100, l=7_000, sifting_mode=SiftingMode.QUANTUM_MEMORY,
                          rng_seed=15)
        k = estimate_covariance(rec.samples())
        ka = analytic_covariance(EprSource(6.0), ChannelModel(0.6, 0.3), HOMODYNE)
        n = rec.total_pulses
        assert k.var_a == pytest.approx(ka.var_a, abs=five_sigma_var(ka.var_a, n))
        assert k.var_b == pytest.approx(ka.var_b, abs=five_sigma_var(ka.var_b, n))
        assert k.cov_ab == pytest.approx(ka.cov_ab, abs=five_sigma_var(ka.var_b, n))

    def test_per_label_covariance_signs(self):
        rec = run_session(EprSource(10.0), ChannelModel(1.0, 0.0), HOMODYNE,
                          n=1, l=200_000, sifting_mode=SiftingMode.QUANTUM_MEMORY,
                          rng_seed=16)

        def covariance(code):
            keep = rec.kept & (rec.label_b == code)
            return estimate_covariance(SampleSet(rec.a[keep], rec.b[keep]))

        kq, kp = covariance(Q), covariance(P)
        assert kq.cov_ab > 0 > kp.cov_ab
        assert kq.cov_ab == pytest.approx(-kp.cov_ab, rel=0.05)

    @pytest.mark.parametrize("protocol", [HOMODYNE, HETERODYNE])
    @pytest.mark.parametrize("sifting", list(SiftingMode))
    @pytest.mark.parametrize("n", [1, 3])
    def test_samples_negate_bobs_p_values(self, protocol, sifting, n):
        # bit for bit, across chunk boundaries and a partial last chunk
        rec = run_session(EprSource(8.0), ChannelModel(0.7, 0.2), protocol, n=n,
                          l=(2 * simulator.CHUNK_PULSES + 999) // n,
                          sifting_mode=sifting, rng_seed=17)
        samples = rec.samples()
        expected = np.where(rec.label_b == P, -rec.b, rec.b)[rec.kept]
        assert samples.b.tobytes() == expected.tobytes()
        assert samples.a.tobytes() == rec.a[rec.kept].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.sampled_from([Q, P])),
                    min_size=1, max_size=64))
    @example([(np.float64(x).view(np.uint64).item(), label)
              for x in (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan) for label in (Q, P)])
    def test_pooling_round_trips_every_bit_pattern(self, pulses):
        # pooling flips only the sign bit of Bob's p values, so measured ->
        # pooled -> measured is the identity, -0.0, infinities and NaN included
        bits = np.array([bit for bit, _ in pulses], np.uint64)
        labels = np.array([label for _, label in pulses], np.uint8)
        pooled = simulator.flip_p(bits.view(float).copy(), labels)
        assert np.array_equal(pooled.view(np.uint64), bits ^ (labels.astype(np.uint64) << 63))
        rec = BlockRecord(n=len(pulses), l=1, protocol=HOMODYNE,
                          sifting_mode=SiftingMode.RANDOM_BASIS, seed=0, source=EprSource(2.0),
                          channel=ChannelModel(1.0), a=np.zeros(len(pulses)), pooled_b=pooled,
                          label_a=labels, label_b=labels)
        assert rec.b.tobytes() == bits.tobytes()

    @pytest.mark.parametrize("sifting", list(SiftingMode))
    def test_all_kept_samples_view_alices_column(self, sifting):
        # with every pulse kept, Alice's column and Bob's pooled one are lent
        # read-only instead of copied; no samples() call changes the record
        rec = run_session(EprSource(8.0), ChannelModel(0.7, 0.2), HOMODYNE, n=1, l=5_000,
                          sifting_mode=sifting, rng_seed=19)
        before = [column.tobytes() for column in (rec.a, rec.pooled_b, rec.label_a, rec.label_b)]
        samples = rec.samples()
        assert samples.a.tobytes() == rec.a[rec.kept].tobytes()
        assert samples.b.tobytes() == rec.pooled_b[rec.kept].tobytes()
        assert rec.kept.all() == (sifting is SiftingMode.QUANTUM_MEMORY)
        for lent, column in ((samples.a, rec.a), (samples.b, rec.pooled_b)):
            if rec.kept.all():
                assert np.shares_memory(lent, column)
                assert not lent.flags.writeable
                with pytest.raises(ValueError):
                    lent[0] = 0.0
            else:
                assert not np.shares_memory(lent, column)
            assert column.flags.writeable
        assert not np.shares_memory(rec.b, rec.pooled_b)
        after = [column.tobytes() for column in (rec.a, rec.pooled_b, rec.label_a, rec.label_b)]
        assert after == before

    def test_all_kept_samples_allocate_no_column(self):
        # the traced peak of pooling a 10**6-pulse all-kept session and taking
        # its covariance stays below half of one float column
        rec = run_session(EprSource(8.0), ChannelModel(0.7, 0.2), HOMODYNE, n=1,
                          l=1_000_000, sifting_mode=SiftingMode.QUANTUM_MEMORY, rng_seed=20)
        tracemalloc.start()
        try:
            estimate_covariance(rec.samples())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10**6

    def test_kept_is_derived_from_the_labels(self):
        rec = run_session(EprSource(8.0), ChannelModel(0.7, 0.2), HOMODYNE,
                          n=2, l=500, rng_seed=18)
        assert "kept" not in {field.name for field in dataclasses.fields(BlockRecord)}
        assert np.array_equal(rec.kept, rec.label_a == rec.label_b)
        assert not rec.kept.all()
        # new labels bring their own flags: Bob's choices made equal to Alice's
        # keep every pulse, and the session's pooled values keep their signs
        agreed = dataclasses.replace(rec, label_b=rec.label_a.copy())
        assert agreed.kept.all() and agreed.kept.mean() == 1.0
        samples = agreed.samples()
        assert len(samples) == agreed.total_pulses
        assert samples.b.tobytes() == rec.pooled_b.tobytes()
        with pytest.raises(ConfigurationError, match="^record arrays must hold n\\*l entries$"):
            dataclasses.replace(rec, label_b=rec.label_b[1:])

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            run_session(EprSource(4.0), ChannelModel(1.0, 0.0), HOMODYNE,
                        n=0, l=10)
        with pytest.raises(ConfigurationError):
            run_session(EprSource(4.0), ChannelModel(1.0, 0.0), HOMODYNE,
                        n=1, l=10, sifting_mode="sometimes")

    def test_protocol_and_sifting_by_value(self):
        # values select the same session as the members; a bad value is rejected
        args = (EprSource(20.0), ChannelModel(1.0))
        by_value = run_session(*args, "squeezed_homodyne", 1, 1000, "quantum_memory", 5)
        by_member = run_session(*args, HOMODYNE, 1, 1000, SiftingMode.QUANTUM_MEMORY, 5)
        assert by_value.protocol is HOMODYNE
        assert dumps(by_value) == dumps(by_member)
        with pytest.raises(ConfigurationError, match="'homodyne' is not a valid ProtocolKind"):
            run_session(*args, "homodyne", 1, 1000)

    def test_block_correlated_noise_structure(self):
        n, l = 50, 4_000
        ch = ChannelModel(0.5, 0.5, rho_block=0.6)
        rec = run_session(EprSource(1.0), ch, HOMODYNE, n=n, l=l,
                          sifting_mode=SiftingMode.QUANTUM_MEMORY, rng_seed=17)
        noise_var = ch.noise_variance()
        total_var = 0.5 * 1.0 + noise_var
        blocks = rec.b.reshape(l, n)
        block_means = blocks.mean(axis=1)
        # two pulses of a block share the block noise component only when
        # they landed on the same quadrature (probability 1/2), so
        # Var(block mean) = total_var/n + rho/2 * noise_var * (n-1)/n
        expected = total_var / n + 0.6 / 2 * noise_var * (n - 1) / n
        observed = float(block_means.var())
        assert observed == pytest.approx(expected, rel=0.1)


class TestAnalyticCovariance:
    def test_lossless_identity(self):
        k = analytic_covariance(EprSource(2.0), ChannelModel(1.0, 0.0), HOMODYNE)
        assert (k.var_a, k.var_b) == (2.0, 2.0)
        assert k.cov_ab == pytest.approx(math.sqrt(3.0))

    def test_worked_example(self):
        k = analytic_covariance(EprSource(20.0), ChannelModel(0.5, 0.0), HOMODYNE)
        assert (k.var_a, k.var_b) == (20.0, 10.5)
        assert k.cov_ab == pytest.approx(math.sqrt(0.5) * math.sqrt(399.0))

    def test_vacuum_source_uncorrelated(self):
        for t in (0.3, 1.0):
            k = analytic_covariance(EprSource(1.0), ChannelModel(t, 0.1), HOMODYNE)
            assert k.cov_ab == 0.0

    def test_heterodyne_alice_transform(self):
        k = analytic_covariance(EprSource(20.0), ChannelModel(0.5, 0.0), HETERODYNE)
        assert k.var_a == pytest.approx(10.5)
        assert k.cov_ab == pytest.approx(math.sqrt(0.5 * 399.0 / 2.0))

    def test_monte_carlo_agreement_heterodyne(self):
        src, ch = EprSource(12.0), ChannelModel(0.8, 0.15)
        rec = run_session(src, ch, HETERODYNE, n=1, l=300_000,
                          sifting_mode=SiftingMode.QUANTUM_MEMORY, rng_seed=18)
        k = estimate_covariance(rec.samples())
        ka = analytic_covariance(src, ch, HETERODYNE)
        n = rec.total_pulses
        assert k.var_a == pytest.approx(ka.var_a, abs=five_sigma_var(ka.var_a, n))
        assert k.var_b == pytest.approx(ka.var_b, abs=five_sigma_var(ka.var_b, n))
        assert k.cov_ab == pytest.approx(ka.cov_ab, abs=five_sigma_var(ka.var_b, n))


class TestSecondMomentEquivalence:
    def test_all_shapes_agree(self):
        # every catalogued shape at the same channel produces the same
        # covariance within sampling error
        pulses = 200_000
        ks = {}
        for name in ("gaussian", "mixture", "uniform", "displacement"):
            rec = run_session(CATALOG_SOURCE, ATTACK_CATALOG[name], HOMODYNE, n=1, l=pulses,
                              sifting_mode=SiftingMode.QUANTUM_MEMORY, rng_seed=19)
            ks[name] = estimate_covariance(rec.samples())
        reference = analytic_covariance(CATALOG_SOURCE, ATTACK_CATALOG["gaussian"], HOMODYNE)
        for name, k in ks.items():
            assert k.var_a == pytest.approx(
                reference.var_a, abs=five_sigma_var(reference.var_a, pulses)), name
            assert k.var_b == pytest.approx(
                reference.var_b, abs=five_sigma_var(reference.var_b, pulses)), name
            assert k.cov_ab == pytest.approx(
                reference.cov_ab, abs=five_sigma_var(reference.var_b, pulses)), name

    def test_catalog_shapes_are_matched(self):
        # the statistical suite seeds its attacks in this order
        assert list(ATTACK_CATALOG) == ["gaussian", "mixture", "uniform", "displacement"]
        for channel in ATTACK_CATALOG.values():
            channel.validate_shape(CATALOG_SOURCE.n0)


class TestSessionPipeline:
    @pytest.mark.parametrize("protocol", [HOMODYNE, HETERODYNE])
    @pytest.mark.parametrize("rho_block", [0.0, 0.3])
    def test_session_is_the_public_pipeline(self, protocol, rho_block):
        # one chunk of a session is exactly the public operations on the
        # chunk's substream, in draw order: EPR pair, label_a, label_b, q
        # noise, p noise, then Alice's vacuum noise
        src, ch, n, l = EprSource(6.0), ChannelModel(0.7, 0.2, rho_block=rho_block), 4, 50
        rec = run_session(src, ch, protocol, n=n, l=l,
                          sifting_mode=SiftingMode.RANDOM_BASIS, rng_seed=23)
        rng = np.random.Generator(np.random.Philox(23).jumped(0))
        qa, pa, qb0, pb0 = simulate_epr_pulse(src, rng, size=n * l)
        label_a = rng.integers(0, 2, n * l).astype(np.uint8)
        label_b = rng.integers(0, 2, n * l).astype(np.uint8)
        qb, pb = apply_attack(qb0, pb0, ch, rng, src.n0, n)
        qa_m, pa_m = measure_alice(qa, pa, protocol, rng, src.n0)
        a = np.where(label_a == 0, qa_m, pa_m)
        assert np.array_equal(rec.a, a)
        assert np.array_equal(rec.b, np.where(label_b == 0, qb, pb))
        assert np.array_equal(rec.kept, label_a == label_b)

    def test_block_noise_needs_whole_blocks(self):
        rng = np.random.default_rng(24)
        with pytest.raises(ConfigurationError):
            apply_attack(np.zeros(10), np.zeros(10), ChannelModel(0.5, 0.0, rho_block=0.5),
                         rng, n=4)

    def test_sifting_mode_by_value(self):
        rec = run_session(EprSource(4.0), ChannelModel(1.0, 0.0), HOMODYNE,
                          n=1, l=10, sifting_mode="quantum_memory")
        assert rec.sifting_mode is SiftingMode.QUANTUM_MEMORY
        assert rec.kept.all()


class TestCores:
    """run_session runs its chunks on one thread per core the process may
    use; the core count must not reach the columns or hide an error."""

    # 12 chunks of 333 blocks and one of 4
    SESSION = dict(src=EprSource(12.0), ch=ChannelModel(0.7, 0.1, rho_block=0.3),
                   protocol=HETERODYNE, n=3, l=4_000, sifting_mode=SiftingMode.RANDOM_BASIS,
                   rng_seed=31)

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(simulator, "CHUNK_PULSES", 1_000)

    @staticmethod
    def set_cores(monkeypatch, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)

    def test_core_count_cannot_change_the_columns(self, monkeypatch):
        # with threads switching every microsecond, every chunk is still
        # generated exactly once, by at most one thread per core
        generate = simulator._generate_chunk
        calls = []

        def tracked(*args):
            counter = args[-2].bit_generator.state["state"]["counter"]
            calls.append((threading.get_ident(), counter.tobytes()))
            generate(*args)

        monkeypatch.setattr(simulator, "_generate_chunk", tracked)
        columns = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 2, 8):
                self.set_cores(monkeypatch, cores)
                calls.clear()
                rec = run_session(**self.SESSION)
                columns[cores] = (rec.a, rec.b, rec.label_a, rec.label_b, rec.kept)
                threads, chunks = zip(*calls)
                assert len(chunks) == len(set(chunks)) == 13
                assert len(set(threads)) <= cores
                if cores == 1:
                    assert set(threads) == {threading.get_ident()}
        finally:
            sys.setswitchinterval(interval)
        for cores in (2, 8):
            for ours, reference in zip(columns[cores], columns[1]):
                assert np.array_equal(ours, reference)

    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_chunk_error_reaches_the_caller(self, monkeypatch, cores):
        self.set_cores(monkeypatch, cores)
        chunk_1 = np.random.Philox(self.SESSION["rng_seed"]).jumped(1).state["state"]
        generate = simulator._generate_chunk

        class ChunkFailed(Exception):
            pass

        def failing(*args):
            state = args[-2].bit_generator.state["state"]
            if np.array_equal(state["counter"], chunk_1["counter"]):
                raise ChunkFailed("chunk 1")
            generate(*args)

        monkeypatch.setattr(simulator, "_generate_chunk", failing)
        threads = threading.enumerate()
        with pytest.raises(ChunkFailed, match="chunk 1"):
            run_session(**self.SESSION)
        assert threading.enumerate() == threads
