import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvqkd import (
    ATTACK_CATALOG,
    CATALOG_SOURCE,
    CapacityError,
    ConfigurationError,
    DiscreteJoint,
    DomainError,
    InequalityReport,
    ProtocolKind,
    SiftingMode,
    UnphysicalInputError,
    check_gaussian_dominance,
    check_mixture_lemma,
    check_pure_state_entropic_sum,
    check_subadditivity_chain,
    run_session,
)
from cvqkd.verify import (
    EXACT_TOL,
    STACK_LAWS,
    discrete_suite,
    heterodyne_transform_crosscheck,
    manifest,
    worst_of,
)

UNIFORM_BIT_PAIR = np.array([[0.25, 0.25], [0.25, 0.25]])
NOISY_COPY = np.array([[0.45, 0.05], [0.05, 0.45]])  # B = A with 10% flips


class TestDiscreteJoint:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            DiscreteJoint(1, np.array([[0.5, 0.2], [0.1, 0.1]]))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            DiscreteJoint(1, np.array([[1.1, -0.1], [0.0, 0.0]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ConfigurationError):
            DiscreteJoint(2, UNIFORM_BIT_PAIR)

    def test_rejects_no_pulses(self):
        with pytest.raises(ConfigurationError, match="^need at least one pulse component$"):
            DiscreteJoint(0, np.array(1.0))

    def test_random_is_valid(self):
        j = DiscreteJoint.random(2, 3, np.random.default_rng(0))
        assert j.table.shape == (3, 3, 3, 3)
        assert j.table.sum() == pytest.approx(1.0, abs=1e-12)

    def test_product_arrangement(self):
        j = DiscreteJoint.product([NOISY_COPY, UNIFORM_BIT_PAIR])
        # axes: A1, A2, B1, B2 — marginal of (A1, B1) recovers pulse 1
        pair1 = j.table.sum(axis=(1, 3))
        assert np.allclose(pair1, NOISY_COPY)


def _bits(p) -> float:
    """Shannon entropy in bits, enumerated by hand over the nonzero entries."""
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _h_b_given_a(table) -> float:
    """H(B | A) of a one-pulse table, read off the chain: its first report's
    lhs is H(B_vec | A_vec)."""
    return check_subadditivity_chain(DiscreteJoint(1, table))[0].lhs


class TestExactEntropies:
    def test_uniform_pair(self):
        assert _h_b_given_a(UNIFORM_BIT_PAIR) == pytest.approx(1.0)

    def test_joint_entropy_with_one_alice_symbol(self):
        # with a single symbol for A, H(B | A) is the joint entropy H(A, B)
        assert _h_b_given_a(UNIFORM_BIT_PAIR.reshape(1, 4)) == pytest.approx(2.0)

    def test_noisy_copy(self):
        h = -0.9 * math.log2(0.9) - 0.1 * math.log2(0.1)
        assert _h_b_given_a(NOISY_COPY) == pytest.approx(h)

    def test_zero_probabilities_add_nothing(self):
        assert _h_b_given_a(np.array([[0.5, 0.0], [0.0, 0.5]])) == 0.0
        assert _h_b_given_a(np.array([[0.5, 0.0], [0.25, 0.25]])) == pytest.approx(0.5)


class TestSubadditivityChain:
    def test_product_distribution_all_equalities(self):
        j = DiscreteJoint.product([NOISY_COPY, NOISY_COPY, UNIFORM_BIT_PAIR])
        reports = check_subadditivity_chain(j)
        assert len(reports) == 1 + 3 + 1
        for r in reports:
            assert r.holds and abs(r.slack) <= EXACT_TOL

    def test_random_tables_always_hold(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            j = DiscreteJoint.random(2, 2, rng)
            assert all(r.holds for r in check_subadditivity_chain(j))

    def test_redundant_copies_strict_slack(self):
        # B1 = B2 = A1 with a 10% flip, A2 independent: the combined
        # per-pulse bound overcounts the shared randomness
        flip = 0.1
        table = np.zeros((2, 2, 2, 2))
        for a1 in (0, 1):
            for a2 in (0, 1):
                for b in (0, 1):
                    table[a1, a2, b, b] = 0.25 * ((1 - flip) if b == a1 else flip)
        reports = check_subadditivity_chain(DiscreteJoint(2, table))
        combined = reports[-1]
        assert combined.identifier == "individual-attack-conditional-bound"
        h_flip = -(1 - flip) * math.log2(1 - flip) - flip * math.log2(flip)
        # H(B1|A1) + H(B2|A2) - H(B|A) = h_flip + 1 - h_flip = 1 bit
        assert combined.slack == pytest.approx(1.0)

    def test_exact_copies_zero_slack(self):
        table = np.zeros((2, 2, 2, 2))
        for a1 in (0, 1):
            for a2 in (0, 1):
                table[a1, a2, a1, a1] = 0.25
        reports = check_subadditivity_chain(DiscreteJoint(2, table))
        assert reports[0].slack == pytest.approx(0.0, abs=EXACT_TOL)
        assert reports[0].holds

    def test_capacity_limit(self):
        big = np.full((32, 32, 32, 32), 1.0 / 32 ** 4)
        with pytest.raises(CapacityError):
            check_subadditivity_chain(DiscreteJoint(2, big))


class TestMixtureLemma:
    def test_identical_pulses_equality(self):
        j = DiscreteJoint.product([NOISY_COPY, NOISY_COPY])
        report = check_mixture_lemma(j)
        assert report.holds and abs(report.slack) <= EXACT_TOL

    def test_different_pulses_strict_slack(self):
        skewed = np.array([[0.40, 0.10], [0.25, 0.25]])
        j = DiscreteJoint.product([NOISY_COPY, skewed])
        report = check_mixture_lemma(j)
        # oracle: mix the two pulse laws by hand and enumerate
        pair = (NOISY_COPY + skewed) / 2.0
        h_pair = _bits(pair) - _bits(pair.sum(axis=1))
        h_joint = sum(_bits(t) - _bits(t.sum(axis=1)) for t in (NOISY_COPY, skewed))
        assert report.rhs == pytest.approx(2.0 * h_pair)
        assert report.lhs == pytest.approx(h_joint)
        assert report.slack > 0.01

    def test_single_pulse_degenerates_to_equality(self):
        report = check_mixture_lemma(DiscreteJoint(1, NOISY_COPY))
        assert abs(report.slack) <= EXACT_TOL

    def test_mismatched_alphabets_rejected(self):
        table = np.full((2, 3, 2, 2), 1.0 / 24)
        with pytest.raises(ConfigurationError):
            check_mixture_lemma(DiscreteJoint(2, table))

    def test_random_tables_always_hold(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            assert check_mixture_lemma(DiscreteJoint.random(2, 3, rng)).holds


class TestPureStateEntropicSum:
    def test_vacuum_equality(self):
        report = check_pure_state_entropic_sum(1.0, 1.0)
        assert report.holds and report.slack == pytest.approx(0.0, abs=EXACT_TOL)

    def test_minimum_uncertainty_squeezed(self):
        report = check_pure_state_entropic_sum(0.5, 2.0)
        assert report.slack == pytest.approx(0.0, abs=EXACT_TOL)

    def test_thermal_slack_one_bit(self):
        assert check_pure_state_entropic_sum(2.0, 2.0).slack == pytest.approx(1.0)

    def test_unphysical_marginals_rejected(self):
        with pytest.raises(UnphysicalInputError):
            check_pure_state_entropic_sum(0.5, 0.5)

    def test_non_positive_variance_rejected(self):
        with pytest.raises(DomainError):
            check_pure_state_entropic_sum(0.0, 2.0)


@pytest.fixture(scope="module")
def attack_samples():
    def generate(name, pulses=60_000, seed=31):
        rec = run_session(CATALOG_SOURCE, ATTACK_CATALOG[name],
                          ProtocolKind.SQUEEZED_HOMODYNE, n=1, l=pulses,
                          sifting_mode=SiftingMode.QUANTUM_MEMORY,
                          rng_seed=seed)
        return rec.samples()
    return generate


class TestGaussianDominance:
    def test_gaussian_attack_near_equality(self, attack_samples):
        report = check_gaussian_dominance(attack_samples("gaussian"))
        assert report.holds
        assert abs(report.slack) < 0.05

    def test_uniform_attack_strict_slack(self, attack_samples):
        report = check_gaussian_dominance(attack_samples("uniform"))
        assert report.holds and report.slack > report.tolerance

    def test_displacement_attack_strict_slack(self, attack_samples):
        report = check_gaussian_dominance(attack_samples("displacement"))
        assert report.holds and report.slack > 1.0

    def test_sample_count_precondition(self, attack_samples):
        small = attack_samples("gaussian", pulses=500)
        with pytest.raises(DomainError):
            check_gaussian_dominance(small)

    def test_slack_non_negative_on_average_for_every_shape(self, attack_samples):
        # across seeds, the dominance slack averages to something
        # non-negative for each catalogued shape
        for name in ("gaussian", "mixture", "uniform", "displacement"):
            slacks, errors = [], []
            for seed in (61, 62):
                report = check_gaussian_dominance(
                    attack_samples(name, pulses=30_000, seed=seed))
                slacks.append(report.slack)
                errors.append(report.tolerance / 3.0)
            mean_slack = sum(slacks) / len(slacks)
            pooled_se = math.sqrt(sum(e * e for e in errors)) / len(errors)
            assert mean_slack >= -3.0 * pooled_se, name


class TestSuites:
    def test_discrete_suite_small_run(self):
        reports = discrete_suite(seed=1, trials=80)
        assert reports and all(r.holds for r in reports)

    def test_discrete_suite_deterministic(self):
        a = discrete_suite(seed=5, trials=40)
        b = discrete_suite(seed=5, trials=40)
        assert [(r.identifier, r.lhs, r.rhs) for r in a] == \
               [(r.identifier, r.lhs, r.rhs) for r in b]

    def test_heterodyne_crosscheck_small(self):
        reports = heterodyne_transform_crosscheck(seed=2, pulses=200_000)
        assert all(r.holds for r in reports)
        names = [r.identifier for r in reports]
        assert "presplit-variance-matches-beamsplitter-transform" in names
        assert "printed-transform-reconstructs-one-unit-below-physical" in names

    def test_manifest_shape(self):
        reports = discrete_suite(seed=1, trials=40)
        doc = manifest(reports, "discrete", 1)
        assert doc["all_hold"] is True
        assert len(doc["reports"]) == len(reports)
        assert {"identifier", "lhs", "rhs", "slack", "holds", "tolerance"} \
               <= set(doc["reports"][0])

    def test_identifiers(self):
        # each equality family is reported once, by its equality report
        assert [r.identifier for r in discrete_suite(seed=1, trials=40)] == [
            f"{family}[n={n},alphabet={alphabet},trials=10]"
            for n, alphabet in [(2, 2), (2, 3), (3, 2), (3, 3)]
            for family in ("subadditivity-chain", "mixture-bound")
        ] + ["independent-pulses-equality", "redundant-block-strict-slack",
             "entropic-sum-equality-on-minimum-uncertainty",
             "entropic-sum-above-minimum-uncertainty"]

    def test_worst_of_picks_min_slack(self):
        reports = discrete_suite(seed=1, trials=40)
        combined = worst_of(reports, "combined")
        assert combined.slack == min(r.slack for r in reports)

    @pytest.mark.parametrize("seed, trials", [(3, 4 * (2 * STACK_LAWS + 37)), (11, 3)],
                             ids=["over-two-stacks", "below-one-per-family"])
    def test_stacked_families_match_one_law_checks(self, seed, trials):
        # the suite draws its laws in stacks and keeps each stack's tightest
        # law; the reference draws one table at a time and checks each alone
        reports = {r.identifier: r for r in discrete_suite(seed, trials)}
        rng = np.random.default_rng(seed)
        per_combo = max(trials // 4, 1)
        for n, alphabet in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            laws = [DiscreteJoint.random(n, alphabet, rng) for _ in range(per_combo)]
            label = f"[n={n},alphabet={alphabet},trials={per_combo}]"
            chain = worst_of([r for j in laws for r in check_subadditivity_chain(j)],
                             f"subadditivity-chain{label}")
            mixture = worst_of([check_mixture_lemma(j) for j in laws], f"mixture-bound{label}")
            assert reports[chain.identifier] == chain
            assert reports[mixture.identifier] == mixture


FINITE = st.floats(-1e300, 1e300)


class TestInequalityReport:
    @pytest.mark.parametrize("derived", [
        {"slack": 1.0}, {"holds": True}, {"slack": 1.0, "holds": True},
    ], ids=["slack", "holds", "both"])
    def test_derived_fields_cannot_be_passed(self, derived):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            InequalityReport("x", 0.0, 1.0, tolerance=0.0, **derived)

    @given(FINITE, FINITE, st.floats(0.0, 1e300))
    def test_verdict_follows_from_the_sides(self, lhs, rhs, tolerance):
        report = InequalityReport("x", lhs, rhs, tolerance)
        assert report.slack == rhs - lhs
        assert report.holds == (report.slack >= -tolerance)

    @given(st.lists(st.tuples(FINITE, FINITE), min_size=1), st.floats(0.0, 1e300))
    def test_worst_of_holds_when_every_member_holds(self, sides, tolerance):
        reports = [InequalityReport(f"r{i}", lhs, rhs, tolerance)
                   for i, (lhs, rhs) in enumerate(sides)]
        worst = worst_of(reports, "family")
        assert worst.identifier == "family"
        assert worst.holds == all(r.holds for r in reports)
