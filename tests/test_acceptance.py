"""Acceptance suite: one test per criterion, at full size and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import math

import numpy as np
import pytest
from click.testing import CliRunner

from cvqkd import (
    ATTACK_CATALOG,
    CATALOG_SOURCE,
    Covariance2,
    DomainError,
    EprSource,
    ChannelModel,
    ProtocolKind,
    SiftingMode,
    check_pure_state_entropic_sum,
    conditional_entropy_estimate,
    conditional_variance,
    estimate_covariance,
    gaussian_conditional_entropy,
    heterodyne_covariance_transform,
    analytic_covariance,
    rate_bound,
    run_session,
    vacuum_entropy,
)
from cvqkd.cli import main as cli_main
from cvqkd.verify import (
    DiscreteJoint,
    check_mixture_lemma,
    check_subadditivity_chain,
    heterodyne_transform_crosscheck,
    manifest,
)

HOMODYNE = ProtocolKind.SQUEEZED_HOMODYNE
REL_TOL = 1e-12
ABS_FLOOR = 1e-12


def close_enough(x, y):
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y)) + ABS_FLOOR


@pytest.fixture(scope="module")
def attack_estimates():
    """Per-attack kept samples, conditional-entropy estimate, and sample
    covariance at one million pulses (shared by criteria 4 and 5)."""
    out = {}
    for offset, name in enumerate(("gaussian", "mixture", "uniform", "displacement")):
        record = run_session(CATALOG_SOURCE, ATTACK_CATALOG[name], HOMODYNE, n=1, l=1_000_000,
                             sifting_mode=SiftingMode.QUANTUM_MEMORY,
                             rng_seed=1000 + offset)
        samples = record.samples()
        out[name] = {
            "samples": samples,
            "estimate": conditional_entropy_estimate(samples),
            "covariance": estimate_covariance(samples),
            "n0": CATALOG_SOURCE.n0,
        }
    return out


def test_criterion_1_rate_bound_reproduction():
    """Analytic covariance reproduces the closed-form rate; the Monte
    Carlo pipeline at 1e7 pulses lands within 0.01 bits/pulse."""
    src, ch = EprSource(20.0), ChannelModel(0.5, 0.0)
    expected = math.log2(1.0 / 0.525)

    k = analytic_covariance(src, ch, HOMODYNE)
    analytic_rate = rate_bound(k, 1, HOMODYNE).delta_i_min_per_pulse
    assert close_enough(analytic_rate, expected)

    record = run_session(src, ch, HOMODYNE, n=1, l=10_000_000,
                         sifting_mode=SiftingMode.QUANTUM_MEMORY, rng_seed=2024)
    mc_rate = rate_bound(
        estimate_covariance(record.samples()), 1, HOMODYNE).delta_i_min_per_pulse
    assert abs(mc_rate - expected) <= 0.01
    print(f"\nACCEPTANCE 1 PASS: analytic {analytic_rate:.6f} == log2(1/0.525), "
          f"Monte Carlo {mc_rate:.6f} within 0.01")


def test_criterion_2_entropy_chain_equals_closed_form():
    """2*(H0 - H_G(B|A)) equals log2(N0/cond_var) to 1e-12 relative over
    1e4 random valid covariance matrices."""
    rng = np.random.default_rng(7)
    h0 = vacuum_entropy()
    worst = 0.0
    for _ in range(10_000):
        var_a = rng.uniform(0.05, 50.0)
        var_b = rng.uniform(0.05, 50.0)
        rho = rng.uniform(-0.999, 0.999)
        k = Covariance2(var_a, var_b, rho * math.sqrt(var_a * var_b))
        chain = 2.0 * (h0 - gaussian_conditional_entropy(k))
        closed = rate_bound(k, 1, HOMODYNE).delta_i_min_per_pulse
        assert close_enough(chain, closed)
        worst = max(worst, abs(chain - closed))
    print(f"\nACCEPTANCE 2 PASS: worst absolute discrepancy {worst:.3e} bits "
          f"over 10000 covariances")


def test_criterion_3_discrete_inequalities_exhaustive():
    """Exact subadditivity/mixture checks on 1e4 random joint laws across
    n in {2, 3} and binary/ternary alphabets: zero violations at 1e-9."""
    rng = np.random.default_rng(11)
    combos = [(2, 2), (2, 3), (3, 2), (3, 3)]
    violations = 0
    total_reports = 0
    for n, alphabet in combos:
        for _ in range(2_500):
            j = DiscreteJoint.random(n, alphabet, rng)
            reports = check_subadditivity_chain(j)
            reports.append(check_mixture_lemma(j))
            total_reports += len(reports)
            violations += sum(not r.holds for r in reports)
    assert violations == 0
    print(f"\nACCEPTANCE 3 PASS: {total_reports} inequality reports over "
          f"10000 joint laws, zero violations at 1e-9 bits")


def test_criterion_4_gaussian_attack_optimality(attack_estimates):
    """Every non-Gaussian shape at matched second moments keeps empirical
    H(B|A) at or below the Gaussian value (3 standard errors); the
    discrete-displacement attack shows strict slack."""
    slacks = {}
    for name in ("mixture", "uniform", "displacement"):
        data = attack_estimates[name]
        est = data["estimate"]
        ceiling = gaussian_conditional_entropy(data["covariance"])
        slack = ceiling - est.value
        assert slack >= -3.0 * est.std_error, name
        slacks[name] = (slack, est.std_error)
    slack, err = slacks["displacement"]
    assert slack > 3.0 * err
    summary = ", ".join(f"{n}: slack {s:.4f} (se {e:.4f})"
                        for n, (s, e) in slacks.items())
    print(f"\nACCEPTANCE 4 PASS: {summary}")


def test_criterion_5_conditional_vs_entropic_squeezing(attack_estimates):
    """The catalogued displacement attack destroys conditional squeezing
    (variance >= N0) while empirical H(B|A) stays below H0 beyond 3
    standard errors."""
    data = attack_estimates["displacement"]
    n0 = data["n0"]
    cond_var = conditional_variance(data["covariance"])
    est = data["estimate"]
    h0 = vacuum_entropy(n0)
    assert cond_var >= n0
    assert est.value + 3.0 * est.std_error < h0
    print(f"\nACCEPTANCE 5 PASS: cond var {cond_var:.3f} >= N0 while "
          f"H(B|A) = {est.value:.3f} < H0 = {h0:.3f} "
          f"(margin {(h0 - est.value) / est.std_error:.0f} standard errors)")


def test_criterion_6_heterodyne_chain_and_transform_crosscheck():
    """Coherent bound: chain and closed form agree to 1e-12 over 1e4
    random valid inputs; the simulated pre-beam-splitter variance
    identifies the physical transform, recorded in a manifest."""
    rng = np.random.default_rng(13)
    h0 = vacuum_entropy()
    checked = 0
    while checked < 10_000:
        var_a = rng.uniform(1.05, 30.0)
        var_b = rng.uniform(0.05, 30.0)
        rho = rng.uniform(-0.999, 0.999)
        k = Covariance2(var_a, var_b, rho * math.sqrt(var_a * var_b))
        try:
            closed = rate_bound(k, 1, ProtocolKind.COHERENT_HETERODYNE).delta_i_min_per_pulse
        except DomainError:
            continue
        chain = (2.0 * h0 - gaussian_conditional_entropy(k)
                 - gaussian_conditional_entropy(heterodyne_covariance_transform(k)))
        assert close_enough(chain, closed)
        checked += 1

    # reference low-loss channel, priced through the beam-splitter inversion
    src, ch = EprSource(20.0), ChannelModel(0.9, 0.05)
    k_het = analytic_covariance(src, ch, ProtocolKind.COHERENT_HETERODYNE)
    report = rate_bound(k_het, 1, ProtocolKind.COHERENT_HETERODYNE)
    chain = (2.0 * h0 - gaussian_conditional_entropy(k_het)
             - gaussian_conditional_entropy(heterodyne_covariance_transform(k_het)))
    assert close_enough(report.delta_i_min_per_pulse, chain)

    crosscheck = heterodyne_transform_crosscheck(seed=99, pulses=10_000_000)
    doc = manifest(crosscheck, "heterodyne-crosscheck", 99)
    assert doc["all_hold"]
    identifiers = [r["identifier"] for r in doc["reports"]]
    assert "presplit-variance-matches-beamsplitter-transform" in identifiers
    assert "printed-transform-reconstructs-one-unit-below-physical" in identifiers
    print(f"\nACCEPTANCE 6 PASS: 10000 two-path agreements; worked channel "
          f"rate {report.delta_i_min_per_pulse:.4f} bits/pulse via beam-splitter "
          f"transform; crosscheck manifest holds ({len(identifiers)} entries)")


def test_criterion_7_sifting_factor():
    """Random-basis sessions keep 50% +/- 0.5% of 1e6 pulses and report
    exactly half the quantum-memory-mode rate on the same channel."""
    src, ch = EprSource(20.0), ChannelModel(0.5, 0.0)
    record = run_session(src, ch, HOMODYNE, n=1, l=1_000_000,
                         sifting_mode=SiftingMode.RANDOM_BASIS, rng_seed=31)
    assert abs(record.kept_fraction - 0.5) <= 0.005

    k = estimate_covariance(record.samples())
    unsifted = rate_bound(k, 1, HOMODYNE)
    sifted = unsifted.with_sifting()
    assert sifted.delta_i_min_per_pulse == unsifted.delta_i_min_per_pulse / 2
    assert sifted.delta_i_min_block == unsifted.delta_i_min_block / 2
    assert sifted.i_ab == unsifted.i_ab / 2

    # cross-session sanity: a quantum-memory run on the identical channel
    # differs only by sampling noise before the exact factor 2
    qm = run_session(src, ch, HOMODYNE, n=1, l=1_000_000,
                     sifting_mode=SiftingMode.QUANTUM_MEMORY, rng_seed=32)
    qm_rate = rate_bound(estimate_covariance(qm.samples()), 1,
                         HOMODYNE).delta_i_min_per_pulse
    assert sifted.delta_i_min_per_pulse == pytest.approx(qm_rate / 2, abs=0.01)
    print(f"\nACCEPTANCE 7 PASS: kept fraction {record.kept_fraction:.4f}, "
          f"sifted rate exactly half ({sifted.delta_i_min_per_pulse:.6f} vs "
          f"{unsifted.delta_i_min_per_pulse:.6f})")


def test_criterion_8_pure_state_entropic_equality():
    """Zero slack (1e-9) on 1e3 minimum-uncertainty pairs, positive slack
    for anything above the uncertainty limit."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1_000):
        vq = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        report = check_pure_state_entropic_sum(vq, 1.0 / vq)
        assert report.holds and abs(report.slack) <= 1e-9
        worst = max(worst, abs(report.slack))
    for _ in range(1_000):
        vq = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        factor = rng.uniform(1.1, 10.0)
        report = check_pure_state_entropic_sum(vq, factor / vq)
        assert report.slack > 0
        assert report.slack == pytest.approx(0.5 * math.log2(factor), abs=1e-9)
    print(f"\nACCEPTANCE 8 PASS: worst equality slack {worst:.2e} bits over "
          f"1000 minimum-uncertainty pairs; positive slack above the limit")


def test_criterion_9_cli_determinism(tmp_path):
    """Every CLI command, rerun with the same config and seed, produces
    byte-identical machine-readable outputs."""
    runner = CliRunner()

    def run(args):
        result = runner.invoke(cli_main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result

    outputs = []
    for tag in ("x", "y"):
        rec_csv = tmp_path / f"rec-{tag}.csv"
        rec_jsonl = tmp_path / f"rec-{tag}.jsonl"
        rate_json = tmp_path / f"rate-{tag}.json"
        man_json = tmp_path / f"manifest-{tag}.json"
        sweep_csv = tmp_path / f"sweep-{tag}.csv"
        sweep_json = tmp_path / f"plot-{tag}.json"
        run(["simulate", "--v", "12", "--t", "0.7", "--eps", "0.1",
             "--l", "2000", "--seed", "41", "--out", str(rec_csv)])
        run(["simulate", "--v", "12", "--t", "0.7", "--eps", "0.1",
             "--l", "2000", "--seed", "41", "--format", "json-lines",
             "--out", str(rec_jsonl)])
        run(["rate", "--record", str(rec_csv), "--beta", "0.95",
             "--out", str(rate_json)])
        run(["verify", "--scope", "discrete", "--trials", "400",
             "--seed", "42", "--out", str(man_json)])
        run(["sweep", "--param", "t", "--start", "0.1", "--stop", "1.0",
             "--steps", "7", "--eps", "0.02", "--out", str(sweep_csv),
             "--plot-out", str(sweep_json)])
        outputs.append([p.read_bytes() for p in
                        (rec_csv, rec_jsonl, rate_json, man_json,
                         sweep_csv, sweep_json)])
    assert outputs[0] == outputs[1]
    print("\nACCEPTANCE 9 PASS: simulate/rate/verify/sweep outputs "
          "byte-identical across reruns")
