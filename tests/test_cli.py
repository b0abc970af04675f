import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import cvqkd
from cvqkd import simulator
from cvqkd.cli import CONFIG_FIELDS, _check_efficiency, _sweep_moments, main
from cvqkd import (
    CapacityError,
    ChannelModel,
    ConfigurationError,
    DomainError,
    EprSource,
    InequalityReport,
    ParseError,
    ProtocolKind,
    analytic_covariance,
    estimate_covariance,
    rate_bound,
    read_record,
)


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestSimulate:
    def test_writes_record_and_summary(self, runner, tmp_path):
        out = tmp_path / "session.csv"
        result = run_ok(runner, [
            "simulate", "--v", "20", "--t", "0.5", "--l", "2000",
            "--sifting", "quantum_memory", "--seed", "3", "--out", str(out)])
        assert out.exists()
        assert "sample covariance" in result.output
        assert "analytic covariance" in result.output
        record = read_record(out)
        assert record.total_pulses == 2000

    @pytest.mark.parametrize("l, kept", [(1, 0), (3, 1)])
    def test_fewer_than_two_kept_pulses_exits_0(self, runner, tmp_path, l, kept):
        # the record is valid; only its sample covariance is undefined
        out = tmp_path / "s.csv"
        result = runner.invoke(main, ["simulate", "--l", str(l), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = result.stdout.splitlines()
        assert lines[1].startswith(f"kept {kept} pulses ")
        assert lines[2] == f"sample covariance (pooled): needs at least 2 kept pulses, got {kept}"
        assert lines[3].startswith("analytic covariance: ")
        assert len(lines) == 4
        assert read_record(out).total_pulses == l
        rate = runner.invoke(main, ["rate", "--record", str(out)])
        assert rate.exit_code == 2
        assert rate.stderr == f"error: need at least 2 samples, got {kept}\n"

    def test_seed_repeat_is_byte_identical(self, runner, tmp_path):
        args = ["simulate", "--l", "500", "--seed", "9", "--format", "json-lines"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_ok(runner, args + ["--out", str(a)])
        run_ok(runner, args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_transmission_fails(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--t", "0", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"v": 8.0, "t": 0.5, "l": 400, "seed": 4,
                                   "sifting": "quantum_memory"}))
        out = tmp_path / "r.csv"
        run_ok(runner, ["simulate", "--config", str(cfg), "--t", "0.9",
                        "--out", str(out)])
        record = read_record(out)
        assert record.channel.t == 0.9      # flag wins
        assert record.source.v == 8.0       # file value survives

    def test_unknown_config_key(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speed": 11}))
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(tmp_path / "r.csv")])
        assert result.exit_code == 2

    def test_malformed_config_is_parse_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                      "--out", str(tmp_path / "r.csv")])
        assert result.exit_code == 3

    def test_out_dir_env(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("CVQKD_OUT_DIR", str(tmp_path))
        run_ok(runner, ["simulate", "--l", "100", "--out", "rel.csv"])
        assert (tmp_path / "rel.csv").exists()

    def test_output_path_from_config(self, runner, tmp_path):
        target = tmp_path / "from-config.jsonl"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"l": 200, "out": str(target),
                                   "format": "json-lines"}))
        run_ok(runner, ["simulate", "--config", str(cfg)])
        assert target.exists()

    def test_missing_output_path(self, runner):
        assert runner.invoke(main, ["simulate"]).exit_code == 2

    @pytest.mark.parametrize("config, code, message", [
        ({"n": "x"}, 2, "n must be a number, got 'x'"),
        ({"v": "x"}, 2, "v must be a number, got 'x'"),
        ({"t": "0.5"}, 2, "t must be a number, got '0.5'"),
        ({"rho_block": "x"}, 2, "rho_block must be a number, got 'x'"),
        ({"beta": "0.5"}, 2, "beta must be a number, got '0.5'"),
        ({"seed": True}, 2, "seed must be a number, got True"),
        ({"shape": 3}, 2, "shape must be a string, got 3"),
        ({"format": ["csv"]}, 2, "format must be a string, got ['csv']"),
        ([1, 2], 3, "must hold a JSON object, got list"),
        ({"format": "xml"}, 2, "unknown record format 'xml'"),
        ({"protocol": "bogus"}, 2, "unknown protocol 'bogus'"),
        ({"beta": 1.5}, 2, "reconciliation efficiency must be in [0, 1], got 1.5"),
        ({"n": 1.5}, 2, "n must be an integer, got 1.5"),
    ], ids=["n", "v", "t", "rho_block", "beta", "seed", "shape", "format", "array",
            "format-unknown", "protocol-unknown", "beta-above-1", "n-fractional"])
    def test_config_value_of_wrong_type(self, runner, tmp_path, config, code, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "r.csv"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == code
        assert message in result.output
        assert not out.exists()


    @pytest.mark.parametrize("n, l", [(1, 10 ** 13), (10 ** 10, 10 ** 10)],
                             ids=["unallocatable", "unrepresentable"])
    def test_session_too_large_exits_4(self, runner, tmp_path, monkeypatch, n, l):
        # numpy refuses 10^20 entries on every host, while 10^13 (73 TiB of
        # floats) fails only where memory is not overcommitted, so that
        # allocation is made to fail here; no chunk may run either way
        empty = np.empty

        def allocate(size, *args, **kwargs):
            if size == 10 ** 13:
                raise MemoryError(f"Unable to allocate {size} entries")
            return empty(size, *args, **kwargs)

        def generate(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(np, "empty", allocate)
        monkeypatch.setattr(simulator, "_generate_chunk", generate)
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["simulate", "--n", str(n), "--l", str(l),
                                      "--out", str(out)])
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)  # handled, no traceback
        assert result.stdout == ""
        assert result.stderr == f"error: cannot hold a session of n*l = {n * l} pulses\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n", "l"])
    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    def test_integer_beyond_the_float_range_exits_4(self, runner, tmp_path, key, from_config):
        # a 401-digit n or l is an integer; numpy refuses its n*l columns at once
        huge, out = 10 ** 400, tmp_path / "x.csv"
        result = runner.invoke(main, ["simulate", *self._huge(tmp_path, key, from_config),
                                      "--out", str(out)])
        n, l = (huge, 100_000) if key == "n" else (1, huge)
        assert result.exit_code == 4, result.output
        assert result.stderr == f"error: cannot hold a session of n*l = {n * l} pulses\n"
        assert not out.exists()

    @pytest.mark.parametrize("fmt, ext", [("csv", "csv"), ("json-lines", "jsonl")])
    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    def test_seed_beyond_the_float_range_is_accepted(self, runner, tmp_path, fmt, ext,
                                                      from_config):
        # as verify --seed takes it; the record keeps the seed through write and read
        out = tmp_path / f"r.{ext}"
        run_ok(runner, ["simulate", *self._huge(tmp_path, "seed", from_config), "--l", "100",
                        "--format", fmt, "--out", str(out)])
        assert read_record(out).seed == 10 ** 400

    @staticmethod
    def _huge(tmp_path, key, from_config):
        """Arguments that set key to 10**400, by flag or in a config file."""
        if not from_config:
            return [f"--{key}", str(10 ** 400)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": {10 ** 400}}}')
        return ["--config", str(cfg)]

    @pytest.mark.parametrize("key, message", [
        ("eps", "excess noise must be finite and >= 0, got inf"),
        ("v", "source variance inf is too large: its square overflows"),
        ("n0", "source variance 20.0 below the vacuum variance inf"),
        ("t", "transmission must be in (0, 1], got inf"),
    ])
    def test_config_number_beyond_the_float_range_is_infinite(self, runner, tmp_path, key,
                                                               message):
        # a JSON integer of 401 digits reads as the float 1e400 does, so the
        # channel's noise variance never converts it (which ended in exit 1)
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["simulate", *self._huge(tmp_path, key, True), "--l", "100",
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {message}\n"
        assert not out.exists()

    def test_shape_mismatch_exits_2_before_allocating(self, runner, tmp_path):
        # 10^20 pulses cannot be allocated (exit 4), but the shape is checked first
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["simulate", "--shape", "uniform:halfwidth=5",
                                      "--n", "10000000000", "--l", "10000000000",
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("error: noise shape variance 8.33333 does not match")
        assert not out.exists()


class TestShapeErrors:
    """Exit statuses of bad --shape values: a configuration error is 2, a
    spec that does not parse is 3. NaN, infinite and overflowing numbers
    are configuration errors too, raised before any file is written."""

    def simulate(self, runner, tmp_path, *args):
        return runner.invoke(main, ["simulate", *args, "--out", str(tmp_path / "x.csv")])

    def test_unknown_bare_name(self, runner, tmp_path):
        result = self.simulate(runner, tmp_path, "--shape", "pink")
        assert result.exit_code == 2
        assert "unknown noise shape 'pink'" in result.output

    def test_bare_name_on_noiseless_channel(self, runner, tmp_path):
        result = self.simulate(runner, tmp_path, "--shape", "mixture", "--eps", "0", "--t", "1")
        assert result.exit_code == 2
        assert "needs a positive channel noise variance" in result.output

    def test_parameterized_variance_mismatch(self, runner, tmp_path):
        result = self.simulate(runner, tmp_path, "--shape", "uniform:halfwidth=1",
                               "--t", "1", "--eps", "2")
        assert result.exit_code == 2

    def test_parameterized_missing_key(self, runner, tmp_path):
        result = self.simulate(runner, tmp_path, "--shape", "uniform:width=1")
        assert result.exit_code == 3

    def test_parameter_without_value(self, runner, tmp_path):
        result = self.simulate(runner, tmp_path, "--shape", "uniform:halfwidth")
        assert result.exit_code == 3
        assert result.stderr == "error: bad noise-shape parameters 'halfwidth'\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("spec", ["gaussian:foo=1", "uniform:halfwidth=1.0,bogus=7"])
    def test_parameterized_unknown_key(self, runner, tmp_path, spec):
        result = self.simulate(runner, tmp_path, "--shape", spec)
        assert result.exit_code == 3
        assert "has unknown key" in result.output
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    def test_parameterized_repeated_key(self, runner, tmp_path, from_config):
        # a repeated key is refused, as a repeated record-header key is
        spec = "uniform:halfwidth=9,halfwidth=1.224744871391589"
        args = ["--t", "0.5", "--sifting", "quantum_memory", "--l", "10"]
        if from_config:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"shape": spec}))
            args += ["--config", str(config)]
        else:
            args += ["--shape", spec]
        result = self.simulate(runner, tmp_path, *args)
        assert result.exit_code == 3
        assert result.stderr == f"error: noise shape {spec!r} repeats 'halfwidth'\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args", [
        ["--v", "nan"],
        ["--eps", "nan"],
        ["--shape", "uniform:halfwidth=nan"],
        ["--v", "inf"],
        ["--v", "1e308"],
        ["--n0", "inf"],
        ["--eps", "inf"],
        ["--eps", "1e308", "--n0", "10"],
    ], ids=["v", "eps", "halfwidth", "v-inf", "v-overflow", "n0-inf", "eps-inf",
            "noise-variance-overflow"])
    def test_nan_rejected_before_writing(self, runner, tmp_path, args):
        result = self.simulate(runner, tmp_path, *args)
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert not (tmp_path / "x.csv").exists()


class TestRate:
    def test_covariance_literal_worked_example(self, runner):
        result = run_ok(runner, [
            "rate", "--cov", "20,10.5,14.124446891825535",
            "--protocol", "squeezed_homodyne", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["delta_i_min_per_pulse"] == pytest.approx(
            math.log2(1 / 0.525), abs=1e-9)
        assert payload["verdict"] == "secure key obtainable"

    def test_coherent_text_report(self, runner):
        # both conditional variances, and Eve's bound and the block rate derived
        # from I_AB and the per-pulse rate
        lines = run_ok(runner, ["rate", "--cov", "10.5,10.5,9.0", "--protocol",
                                "coherent_heterodyne", "--n", "4"]).output.splitlines()
        assert lines[2] == "conditional variance B|A: 2.78571   B|A': 2.4"
        assert lines[4] == "I_AB: 0.957135 bits/pulse   I_BE bound: 2.327676 bits/pulse"
        assert lines[5] == "delta_I_min: -1.370541 bits/pulse, -5.482163 bits/block of n=4"

    def test_coherent_physical_channel_rate_below_i_ab(self, runner):
        # the analytic covariance of v = 4, t = 0.4, eps = 0.05; a bound from the
        # modulation variance would read 1.078 bits here, above the I_AB of 0.561
        lines = run_ok(runner, ["rate", "--cov", "2.5,2.22,1.7320508075688772", "--protocol",
                                "coherent_heterodyne"]).output.splitlines()
        assert lines[4] == "I_AB: 0.560995 bits/pulse   I_BE bound: 0.338314 bits/pulse"
        assert lines[5] == "delta_I_min: 0.222681 bits/pulse, 0.222681 bits/block of n=1"

    def test_beta_zero_no_key(self, runner):
        result = run_ok(runner, [
            "rate", "--cov", "20,10.5,14.124446891825535",
            "--protocol", "squeezed_homodyne", "--beta", "0", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["effective_rate_per_pulse"] <= 0
        assert payload["verdict"] == "no secure key"

    def test_record_random_basis_halves_rate(self, runner, tmp_path):
        out = tmp_path / "r.csv"
        run_ok(runner, ["simulate", "--v", "20", "--t", "0.5", "--l", "4000",
                        "--sifting", "random_basis", "--seed", "5",
                        "--out", str(out)])
        result = run_ok(runner, ["rate", "--record", str(out), "--format", "json"])
        payload = json.loads(result.output)
        assert payload["sifting_applied"] is True
        k = estimate_covariance(read_record(out).samples())
        unsifted = rate_bound(k, 1, ProtocolKind.SQUEEZED_HOMODYNE)
        assert payload["delta_i_min_per_pulse"] == \
            unsifted.delta_i_min_per_pulse / 2

    def test_quantum_memory_record_not_halved(self, runner, tmp_path):
        out = tmp_path / "r.csv"
        run_ok(runner, ["simulate", "--v", "20", "--t", "0.5", "--l", "4000",
                        "--sifting", "quantum_memory", "--seed", "5",
                        "--out", str(out)])
        payload = json.loads(run_ok(
            runner, ["rate", "--record", str(out), "--format", "json"]).output)
        assert payload["sifting_applied"] is False

    def test_heterodyne_low_loss_record_has_positive_rate(self, runner, tmp_path):
        out = tmp_path / "het.csv"
        run_ok(runner, ["simulate", "--protocol", "coherent_heterodyne",
                        "--v", "20", "--t", "0.9", "--eps", "0.05",
                        "--l", "50000", "--sifting", "quantum_memory",
                        "--seed", "6", "--out", str(out)])
        payload = json.loads(run_ok(runner, [
            "rate", "--record", str(out), "--format", "json"]).output)
        assert payload["delta_i_min_per_pulse"] > 0

    @pytest.mark.parametrize("flag, value", [
        ("--protocol", "coherent_heterodyne"), ("--n0", "2"),
    ], ids=["protocol", "n0"])
    def test_record_rejects_flags_it_holds(self, runner, tmp_path, flag, value):
        # rejected before the record is read (a missing file would exit 3)
        out = tmp_path / "r.json"
        result = runner.invoke(main, ["rate", "--record", str(tmp_path / "missing.csv"),
                                      flag, value, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == f"error: {flag} is read from the record\n"
        assert list(tmp_path.iterdir()) == []

    def test_requires_exactly_one_input(self, runner):
        assert runner.invoke(main, ["rate"]).exit_code == 2
        assert runner.invoke(main, [
            "rate", "--cov", "1,1,0", "--record", "x.csv"]).exit_code == 2

    def test_bad_literal_is_parse_error(self, runner):
        result = runner.invoke(main, [
            "rate", "--cov", "1,2", "--protocol", "squeezed_homodyne"])
        assert result.exit_code == 3

    def test_unphysical_literal_is_config_error(self, runner):
        result = runner.invoke(main, [
            "rate", "--cov", "1,1,5", "--protocol", "squeezed_homodyne"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("cov, protocol, extra, message", [
        ("1e200,1e200,1e199", "squeezed_homodyne", [],
         "cov_ab = 1e+199 is too large: its square overflows"),
        ("1e200,1e200,0", "coherent_heterodyne", [],
         "conditional variances 1e+200 and 1e+200 are out of range for a rate bound: "
         "n0/sqrt(cv1*cv2) = 0 is not finite and positive"),
        ("2,1e-200,0", "coherent_heterodyne", [],
         "conditional variances 1e-200 and 1e-200 are out of range for a rate bound: "
         "n0/sqrt(cv1*cv2) = inf is not finite and positive"),
        ("1,1e-310,0", "squeezed_homodyne", ["--format", "json"],
         "conditional variance 1e-310 is out of range for a rate bound: "
         "n0/cv = inf is not finite and positive"),
        ("1e300,1e300,0", "squeezed_homodyne", ["--n0", "1e-300"],
         "conditional variance 1e+300 is out of range for a rate bound: "
         "n0/cv = 0 is not finite and positive"),
        ("20,10.5,14.124446891825535", "squeezed_homodyne", ["--n", str(10 ** 309)],
         f"block size {10 ** 309} is too large: the block rate n * 0.929611 bits is not finite"),
        ("1000,1000,999.9995", "squeezed_homodyne", ["--n", str(10 ** 308), "--format", "json"],
         f"block size {10 ** 308} is too large: the block rate n * 9.96578 bits is not finite"),
        ("1e300,1e300,1.2e154", "coherent_heterodyne", [],
         "cov_ab = 1.2e+154 is too large for the heterodyne transform: "
         "the square of sqrt(2)*cov_ab overflows"),
        ("1e308,1e308,0", "coherent_heterodyne", [],
         "var_a = 1e+308 is too large for the heterodyne transform: "
         "the reconstructed variance overflows"),
        ("3,3,0", "squeezed_homodyne", ["--n0", "inf"], "shot-noise unit must be finite, got inf"),
        # the analytic covariance of v = 1e15 at t = 0.5, eps = 0.1
        ("1e15,500000000000000.56,707106781186547.6", "squeezed_homodyne", [],
         "conditional variance 0.4375 is ill-conditioned: rounding in var_b - cov_ab^2/var_a "
         "(var_b = 5e+14) may move it by 0.444, more than 1e-06 of its value"),
    ], ids=["cov-ab-square-overflow", "coherent-product-overflow",
            "coherent-product-underflow", "squeezed-quotient-overflow",
            "squeezed-quotient-underflow", "n-beyond-float", "block-rate-overflow",
            "transform-cov-ab-overflow", "transform-var-a-overflow", "n0-inf",
            "ill-conditioned"])
    def test_out_of_range_literal_exits_2(self, runner, cov, protocol, extra, message):
        # these used to end in an OverflowError or a math domain error (exit 1), print
        # an infinite rate (exit 0), name a transformed cov_ab the user never gave, call
        # finite entries infinite or blame the conditional variance for an infinite n0
        result = runner.invoke(main, ["rate", "--cov", cov, "--protocol", protocol, *extra])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {message}\n"

    def test_inconsistent_heterodyne_statistics_exit_2(self, runner):
        # the reconstructed pre-beam-splitter matrix is not positive semidefinite
        result = runner.invoke(main, ["rate", "--cov", "2,2,2", "--protocol",
                                      "coherent_heterodyne"])
        assert result.exit_code == 2, result.output
        assert result.stderr == "error: cov_ab^2 = 8 exceeds var_a*var_b = 6\n"

    def test_coherent_conditional_variance_zero_exits_2(self, runner):
        # Bob is an exact linear function of Alice's reconstructed mode
        result = runner.invoke(main, ["rate", "--cov", "2,3,2.1213203435596424",
                                      "--protocol", "coherent_heterodyne"])
        assert result.exit_code == 2, result.output
        assert result.stderr == ("error: both conditional variances must be positive "
                                 "(var_b = 3; rounding in var_b - cov_ab^2/var_a may move "
                                 "them by 2.66e-15)\n")

    def test_coherent_cancellation_names_the_rounding(self, runner):
        # one unit in the last place of cov_ab above the analytic heterodyne covariance
        # at v = 1.3e154: the conditional variances cancel to 0 in floating point, and
        # the error says how far rounding may have moved them
        result = runner.invoke(main, ["rate", "--cov", "6.5e153,1.3e154,9.192388155425117e153",
                                      "--protocol", "coherent_heterodyne"])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == ("error: both conditional variances must be positive "
                                 "(var_b = 1.3e+154; rounding in var_b - cov_ab^2/var_a may "
                                 "move them by 1.15e+139)\n")

    @pytest.mark.parametrize("args, code, message", [
        (["--cov", "1,1,0"], 2, "--cov needs --protocol"),
        (["--cov", "1,1,0", "--protocol", "squeezed_homodyne", "--beta", "1.5"], 2,
         "reconciliation efficiency must be in [0, 1], got 1.5"),
        (["--cov", "1,x,2", "--protocol", "squeezed_homodyne"], 3,
         "bad covariance literal '1,x,2': could not convert string to float: 'x'"),
    ], ids=["cov-without-protocol", "beta-above-1", "literal-not-a-number"])
    def test_bad_argument(self, runner, args, code, message):
        result = runner.invoke(main, ["rate", *args])
        assert result.exit_code == code, result.output
        assert result.stderr == f"error: {message}\n"

    def test_json_report_written(self, runner, tmp_path):
        out = tmp_path / "report.json"
        run_ok(runner, ["rate", "--cov", "2,2,1",
                        "--protocol", "squeezed_homodyne", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["cond_var_b_given_a"] == pytest.approx(1.5)

    def test_printed_literal_round_trips_exactly(self, runner, tmp_path):
        out = tmp_path / "r.csv"
        result = run_ok(runner, [
            "simulate", "--v", "15", "--t", "0.8", "--l", "3000",
            "--sifting", "quantum_memory", "--seed", "44", "--out", str(out)])
        literal = next(line.split(": ", 1)[1] for line in result.output.splitlines()
                       if line.startswith("covariance literal:"))
        from_literal = json.loads(run_ok(runner, [
            "rate", "--cov", literal, "--protocol", "squeezed_homodyne",
            "--format", "json"]).output)
        from_record = json.loads(run_ok(runner, [
            "rate", "--record", str(out), "--format", "json"]).output)
        assert (from_literal["delta_i_min_per_pulse"]
                == from_record["delta_i_min_per_pulse"])


class TestVerify:
    def test_discrete_scope_passes(self, runner, tmp_path):
        out = tmp_path / "manifest.json"
        result = run_ok(runner, ["verify", "--scope", "discrete",
                                 "--trials", "200", "--out", str(out)])
        assert "all" in result.output and "checks hold" in result.output
        doc = json.loads(out.read_text())
        assert doc["all_hold"] is True
        assert doc["scope"] == "discrete"

    def test_statistical_scope_small(self, runner, tmp_path):
        out = tmp_path / "manifest.json"
        run_ok(runner, ["verify", "--scope", "statistical",
                        "--pulses", "20000", "--out", str(out)])
        doc = json.loads(out.read_text())
        identifiers = [r["identifier"] for r in doc["reports"]]
        assert any("gaussian-conditional-dominance" in i for i in identifiers)
        assert any("presplit-variance" in i for i in identifiers)
        assert doc["all_hold"] is True

    @pytest.mark.parametrize("scope", ["statistical", "all"])
    def test_too_few_pulses_exit_2_before_any_suite(self, runner, tmp_path, monkeypatch,
                                                    scope):
        suites = []
        monkeypatch.setattr("cvqkd.cli.run_suites", lambda *args: suites.append(args))
        out = tmp_path / "manifest.json"
        result = runner.invoke(main, ["verify", "--scope", scope, "--pulses", "9999",
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == "error: --pulses must be at least 10000, got 9999\n"
        assert suites == []
        assert not out.exists()

    def test_discrete_scope_ignores_pulses(self, runner, tmp_path):
        out = tmp_path / "manifest.json"
        run_ok(runner, ["verify", "--scope", "discrete", "--trials", "20",
                        "--pulses", "5000", "--out", str(out)])
        assert json.loads(out.read_text())["all_hold"] is True

    def test_manifest_deterministic(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_ok(runner, ["verify", "--scope", "discrete", "--trials", "100",
                            "--seed", "8", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()


def per_point_sweep(param, start, stop, steps, point, n0):
    """The sweep table as a loop over its grid points computes it, one point at a
    time through analytic_covariance and rate_bound: (the error, or None; the CSV
    text; the plot data)."""
    if not math.isfinite(stop - start):
        return f"--start and --stop must span a finite range, got {start:g} to {stop:g}", None, None
    kinds = (ProtocolKind.SQUEEZED_HOMODYNE, ProtocolKind.COHERENT_HETERODYNE)
    point, rows = dict(point), []
    for i in range(steps):
        value = point[param] = start + (stop - start) * i / (steps - 1)
        try:
            _check_efficiency(point["beta"])
            source, channel = EprSource(point["v"], n0), ChannelModel(point["t"], point["eps"])
            cells = []
            for kind in kinds:
                k = analytic_covariance(source, channel, kind)
                try:
                    report = rate_bound(k, 1, kind, n0)
                except DomainError:
                    if not cells:
                        raise
                    cells.append((None,) * 4)
                else:
                    cells.append((report.effective_rate(point["beta"] * report.i_ab),
                                  report.i_ab, report.i_be_bound, report.cond_var_b_given_a))
        except (ConfigurationError, DomainError) as exc:
            return f"{param}={value:g}: {exc}", None, None
        rows.append([value, *(cell for pair in zip(*cells) for cell in pair)])
    names = ["delta_i_min_squeezed", "delta_i_min_coherent", "i_ab_squeezed", "i_ab_coherent",
             "i_be_bound_squeezed", "i_be_bound_coherent", "cond_var_squeezed",
             "cond_var_coherent"]
    table = "".join(",".join([param, *("" if x is None else repr(x) for x in row)]) + "\n"
                    for row in rows)
    columns = list(zip(*rows))
    doc = {"param": param, "values": list(columns[0]),
           "series": {name: list(column) for name, column in zip(names, columns[1:])}}
    return None, ",".join(["param", "value", *names]) + "\n" + table, doc


#: ends of sweep grids: inside each parameter's domain, at its edges (v = 1, t near
#: 0), out of it, and where the closed forms overflow or cancel
GRID_ENDS = {
    "t": st.one_of(st.floats(1e-9, 1.0), st.floats(0.0, 1e-6),
                   st.sampled_from([0.0, 1.0, 1.0000000000000002, -0.25])),
    "eps": st.one_of(st.floats(0.0, 1e3), st.floats(1e9, 1e308),
                     st.sampled_from([0.0, 1e3, 1e200, 1e308, -1e-3])),
    "v": st.one_of(st.floats(1.0, 1e3), st.floats(1.0, 1.3e154),
                   st.sampled_from([0.5, 1.0, 1.5, 1e9, 1e15, 1.3e154, 1e200])),
    "beta": st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, -0.1, 1.1])),
}


@st.composite
def sweep_grids(draw):
    """(param, start, stop, steps, the other parameters' values) of a sweep."""
    param = draw(st.sampled_from(sorted(GRID_ENDS)))
    start, stop = draw(GRID_ENDS[param]), draw(GRID_ENDS[param])
    point = {"v": draw(st.floats(1.0, 100.0)), "t": draw(st.floats(0.01, 1.0)),
             "eps": draw(st.floats(0.0, 2.0)), "beta": draw(st.floats(0.0, 1.0))}
    del point[param]
    return param, start, stop, draw(st.integers(2, 40)), point


#: shot-noise units of a sweep: valid ones, ones out of the domain, and extremes
SWEEP_N0 = st.sampled_from([1.0, 1.5, 0.25, 0.0, -1.0, math.nan, math.inf, 1e-320, 1e300])


class TestSweep:
    def test_bad_sifting_in_config_writes_nothing(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sifting": "bogus"}))
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, [
            "sweep", "--config", str(cfg), "--param", "t", "--start", "0.5",
            "--stop", "0.9", "--steps", "3", "--out", str(out)])
        assert result.exit_code == 2
        assert "unknown sifting mode 'bogus'" in result.output
        assert not out.exists()

    def test_eps_sweep_monotone(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        run_ok(runner, ["sweep", "--param", "eps", "--start", "0",
                        "--stop", "0.5", "--steps", "6", "--t", "1.0",
                        "--out", str(out)])
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        idx = header.index("delta_i_min_squeezed")
        rates = [float(line.split(",")[idx]) for line in lines[1:]]
        assert len(rates) == 6
        assert rates[0] == max(rates)
        assert all(hi >= lo for hi, lo in zip(rates, rates[1:]))

    def test_t_sweep_reverse_reconciliation_stays_positive(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        run_ok(runner, ["sweep", "--param", "t", "--start", "0.05",
                        "--stop", "1.0", "--steps", "8", "--eps", "0",
                        "--out", str(out)])
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        for column in ("delta_i_min_squeezed", "delta_i_min_coherent"):
            idx = header.index(column)
            rates = [float(line.split(",")[idx]) for line in lines[1:]]
            assert all(r > 0 for r in rates), column

    def test_coherent_bound_out_of_range_leaves_cells_empty(self, runner, tmp_path):
        # at eps = 1e200 the coherent bound's cv1*cv2 overflows; like every
        # point where that bound is undefined, its cells stay empty
        out = tmp_path / "sweep.csv"
        run_ok(runner, ["sweep", "--param", "t", "--start", "0.5", "--stop", "1",
                        "--steps", "2", "--eps", "1e200", "--out", str(out)])
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            assert cells["delta_i_min_coherent"] == cells["cond_var_coherent"] == ""
            assert float(cells["delta_i_min_squeezed"]) < 0

    def test_two_step_sweep_has_endpoints_only(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        run_ok(runner, ["sweep", "--param", "v", "--start", "2",
                        "--stop", "10", "--steps", "2", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == [2.0, 10.0]

    @pytest.mark.parametrize("args, code, message", [
        (["--param", "t", "--start", "0", "--stop", "1"], 2,
         "error: t=0: transmission must be in (0, 1]"),
        (["--param", "v", "--start", "0.5", "--stop", "2"], 2,
         "error: v=0.5: source variance 0.5 below the vacuum variance"),
        (["--param", "v", "--start", "2", "--stop", "1e200"], 2,
         "error: v=2.5e+199: source variance 2.5e+199 is too large"),
        (["--param", "eps", "--start", "0", "--stop", "1", "--v", "0.5"], 2,
         "error: eps=0: source variance 0.5 below the vacuum variance"),
        (["--param", "v", "--start", "2", "--stop", "1.3e154"], 2,
         "error: v=3.25e+153: conditional variance must be positive for a rate bound "
         "(var_b = 3.25e+153; rounding in var_b - cov_ab^2/var_a may move it by 2.89e+138)"),
        (["--param", "v", "--start", "2", "--stop", "1e15", "--t", "0.5", "--eps", "0.1"], 2,
         "error: v=2.5e+14: conditional variance 0.515625 is ill-conditioned"),
        (["--param", "eps", "--start", "0", "--stop", "inf"], 2,
         "error: --start and --stop must span a finite range, got 0 to inf"),
        (["--param", "eps", "--start", "-inf", "--stop", "1"], 2,
         "error: --start and --stop must span a finite range, got -inf to 1"),
        (["--param", "eps", "--start", "0", "--stop", "nan"], 2,
         "error: --start and --stop must span a finite range, got 0 to nan"),
        (["--param", "eps", "--start", "-1e308", "--stop", "1e308"], 2,
         "error: --start and --stop must span a finite range, got -1e+308 to 1e+308"),
        (["--param", "eps", "--start", "0", "--stop", "1", "--n0", "0"], 2,
         "error: eps=0: shot-noise unit must be positive, got 0.0"),
        (["--param", "eps", "--start", "0", "--stop", "1", "--n0", "nan"], 2,
         "error: eps=0: shot-noise unit must be positive, got nan"),
        (["--param", "beta", "--start", "0.5", "--stop", "1.5"], 2,
         "error: beta=1.25: reconciliation efficiency must be in [0, 1], got 1.25"),
        (["--param", "v", "--start", "2", "--stop", "0"], 2,
         "error: v=0.5: source variance 0.5 below the vacuum variance 1.0"),
        (["--param", "eps", "--start", "1", "--stop", "-1"], 2,
         "error: eps=-0.5: excess noise must be finite and >= 0, got -0.5"),
    ], ids=["transmission", "source", "source-overflow", "fixed-source",
            "conditional-variance", "ill-conditioned", "stop-inf", "start-inf", "stop-nan",
            "range-overflow", "n0-zero", "n0-nan", "beta-interior", "v-interior",
            "eps-interior"])
    def test_bad_grid_point(self, runner, tmp_path, args, code, message):
        out = tmp_path / "s.csv"
        result = runner.invoke(main, ["sweep", *args, "--steps", "5", "--out", str(out)])
        assert result.exit_code == code
        assert message in result.output
        assert not out.exists()

    @settings(max_examples=150, deadline=None)
    @given(grid=sweep_grids(), n0=SWEEP_N0, plot=st.booleans())
    def test_matches_the_per_point_loop(self, tmp_path_factory, grid, n0, plot):
        # the whole-column sweep against the per-point loop it replaced: the same exit
        # status, stdout, stderr, table bytes and plot data, and no numpy warning
        param, start, stop, steps, point = grid
        directory = tmp_path_factory.getbasetemp()
        out, plot_out = directory / "oracle.csv", directory / "oracle.json"
        for path in (out, plot_out):
            path.unlink(missing_ok=True)
        args = ["sweep", "--param", param, "--start", repr(start), "--stop", repr(stop),
                "--steps", str(steps), "--n0", repr(n0), "--out", str(out),
                *(arg for name, value in point.items() for arg in (f"--{name}", repr(value)))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, [*args, *(["--plot-out", str(plot_out)]
                                                        if plot else [])])
        assert caught == []
        error, table, doc = per_point_sweep(param, start, stop, steps, point, n0)
        if error is not None:
            assert (result.exit_code, result.stdout) == (2, "")
            assert result.stderr == f"error: {error}\n"
            assert not out.exists() and not plot_out.exists()
            return
        assert (result.exit_code, result.stderr) == (0, ""), result.output
        assert result.stdout == (f"wrote {out} ({steps} grid points)\n"
                                 + (f"wrote {plot_out}\n" if plot else ""))
        assert out.read_text() == table
        if plot:
            assert plot_out.read_text() == json.dumps(doc, indent=2) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(grid=sweep_grids(), n0=SWEEP_N0)
    def test_grid_mask_is_false_exactly_where_its_point_raises(self, grid, n0):
        # the one set of checks a sweep runs on its grid, against the same checks
        # on each point's floats
        param, start, stop, steps, point = grid
        point = {**point, "n0": n0}
        with np.errstate(all="ignore"):
            values = start + (stop - start) * np.arange(steps) / (steps - 1)
            columns = {name: np.full(steps, value) for name, value in point.items()}
            holds = _sweep_moments(**{**columns, param: values})[0]
        raises = []
        for value in values.tolist():
            try:
                _sweep_moments(**{**point, param: value})
            except (ConfigurationError, DomainError):
                raises.append(True)
            else:
                raises.append(False)
        assert holds.dtype == bool and (~holds).tolist() == raises

    def test_large_grid_holds_no_row_objects(self, tmp_path):
        # a 10^5-point sweep keeps its columns and one chunk of rows, never a Python
        # object per row of the table (the per-point loop peaked at 71.5 MiB on this sweep)
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            run_ok(CliRunner(), ["sweep", "--param", "eps", "--start", "0", "--stop", "0.5",
                                 "--steps", "100000", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.read_text().splitlines()) == 100_001
        assert peak < 32 * 2**20, peak

    @pytest.mark.parametrize("steps", [10**15, 10**20])
    def test_grid_too_large_to_hold_exits_4(self, runner, tmp_path, steps):
        # numpy refuses the grid's column at once, on every host
        out = tmp_path / "s.csv"
        result = runner.invoke(main, ["sweep", "--param", "eps", "--start", "0", "--stop", "1",
                                      "--steps", str(steps), "--out", str(out)])
        assert result.exit_code == 4, result.output
        assert result.stderr == f"error: cannot hold a sweep of {steps} grid points\n"
        assert not out.exists()

    def test_single_step_rejected(self, runner, tmp_path):
        result = runner.invoke(main, [
            "sweep", "--param", "t", "--start", "0.5", "--stop", "1",
            "--steps", "1", "--out", str(tmp_path / "s.csv")])
        assert result.exit_code == 2

    def test_plot_data_written(self, runner, tmp_path):
        csv_out = tmp_path / "sweep.csv"
        plot_out = tmp_path / "sweep.json"
        run_ok(runner, ["sweep", "--param", "beta", "--start", "0",
                        "--stop", "1", "--steps", "3", "--t", "0.8",
                        "--out", str(csv_out), "--plot-out", str(plot_out)])
        doc = json.loads(plot_out.read_text())
        assert doc["param"] == "beta"
        assert len(doc["values"]) == 3
        assert "delta_i_min_squeezed" in doc["series"]

    def test_sweep_deterministic(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_ok(runner, ["sweep", "--param", "t", "--start", "0.2",
                            "--stop", "0.9", "--steps", "5", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args", [
    ["rate", "--record", "{missing}/r.csv"],
    ["simulate", "--l", "100", "--out", "{missing}/r.csv"],
    ["verify", "--scope", "discrete", "--trials", "20", "--out", "{missing}/m.json"],
    ["sweep", "--param", "eps", "--start", "0", "--stop", "1", "--steps", "2",
     "--out", "{missing}/s.csv"],
    ["sweep", "--param", "eps", "--start", "0", "--stop", "1", "--steps", "2",
     "--out", "{tmp}/s.csv", "--plot-out", "{missing}/s.json"],
    ["rate", "--cov", "20,10.5,14.124446891825535", "--protocol", "squeezed_homodyne",
     "--out", "{missing}/r.json"],
    ["rate", "--record", "{tmp}/unread.csv", "--out", "{missing}/r.json"],
], ids=["rate-record", "simulate-out", "verify-out", "sweep-out", "sweep-plot-out",
        "rate-out", "rate-record-out"])
def test_file_system_error_exits_3(runner, tmp_path, args):
    # an output path is checked before any work, so nothing is printed or written
    missing = tmp_path / "no-such-dir"
    result = runner.invoke(main, [arg.format(missing=missing, tmp=tmp_path)
                                  for arg in args])
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and str(missing) in result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["simulate", "--l", "100"],
    ["verify", "--scope", "discrete", "--trials", "20"],
    ["sweep", "--param", "eps", "--start", "0", "--stop", "1", "--steps", "2"],
    ["rate", "--cov", "20,10.5,14.124446891825535", "--protocol", "squeezed_homodyne"],
], ids=["simulate", "verify", "sweep", "rate"])
def test_output_path_that_is_a_directory_exits_3(runner, tmp_path, args):
    # checked before any work, so nothing is printed or written
    result = runner.invoke(main, [*args, "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert result.stderr == f"error: cannot write {tmp_path}: it is a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, data, line", [
    (["rate", "--record", "{binary}"], b"\xff\xfe not utf-8\n", 1),
    (["rate", "--record", "{binary}"],
     b"#cvqkd-record protocol=squeezed_homodyne n=1 l=1\n0,0,1.5\xff,2.0,q,q,1\n", 2),
    (["simulate", "--config", "{binary}", "--out", "{tmp}/x.csv"], b"\xff\xfe not utf-8\n", 1),
], ids=["rate-record", "rate-record-line-2", "simulate-config"])
def test_non_utf8_input_exits_3(runner, tmp_path, args, data, line):
    binary = tmp_path / "bin.dat"
    binary.write_bytes(data)
    result = runner.invoke(main, [arg.format(binary=binary, tmp=tmp_path) for arg in args])
    assert result.exit_code == 3, result.output
    assert result.stderr == f"error: {binary}: line {line}: not UTF-8 text\n"
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "--protocol", "coherent_heterodyne"),
    ("sweep", "--n", "4"),
    ("sweep", "--l", "10"),
    ("sweep", "--sifting", "quantum_memory"),
    ("sweep", "--seed", "3"),
    ("sweep", "--shape", "uniform"),
    ("sweep", "--rho-block", "0.5"),
    ("simulate", "--beta", "0.9"),
], ids=["sweep-protocol", "sweep-n", "sweep-l", "sweep-sifting", "sweep-seed",
        "sweep-shape", "sweep-rho-block", "simulate-beta"])
def test_flag_the_command_does_not_read_is_rejected(runner, tmp_path, command, flag, value):
    args = {"sweep": ["--param", "eps", "--start", "0", "--stop", "1", "--steps", "2"],
            "simulate": ["--l", "100"]}[command]
    out = tmp_path / "out.csv"
    result = runner.invoke(main, [command, *args, flag, value, "--out", str(out)])
    assert result.exit_code == 2
    assert "No such option" in result.output and flag in result.output
    assert not out.exists()


def test_sweep_config_may_hold_every_key(runner, tmp_path):
    # one config file serves both commands; sweep reads none of the session keys
    channel = {"v": 12.0, "t": 0.7, "eps": 0.1, "shape": "uniform", "rho_block": 0.0,
               "n0": 1.0, "beta": 0.95}
    session = {"protocol": "coherent_heterodyne", "n": 3, "l": 100,
               "sifting": "quantum_memory", "seed": 7, "out": "never.csv",
               "format": "json-lines"}
    assert set(channel) | set(session) == CONFIG_FIELDS
    tables = []
    for name, config in (("all", {**channel, **session}), ("channel", channel)):
        cfg, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        cfg.write_text(json.dumps(config))
        run_ok(runner, ["sweep", "--config", str(cfg), "--param", "t", "--start", "0.3",
                        "--stop", "0.9", "--steps", "4", "--out", str(out)])
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("key, message", [
    ("n", None), ("l", None), ("seed", None),
    ("v", "error: t=0.5: source variance inf is too large: its square overflows\n"),
    ("eps", "error: t=0.5: excess noise must be finite and >= 0, got inf\n"),
    ("n0", "error: t=0.5: source variance 20.0 below the vacuum variance inf\n"),
])
def test_sweep_config_integer_beyond_the_float_range(runner, tmp_path, key, message):
    # sweep reads no session key, so a 401-digit one passes; a 401-digit channel
    # value reads as infinite, and its first grid point names it
    cfg, out = tmp_path / "cfg.json", tmp_path / "s.csv"
    cfg.write_text(f'{{"{key}": {10 ** 400}}}')
    result = runner.invoke(main, ["sweep", "--config", str(cfg), "--param", "t", "--start",
                                  "0.5", "--stop", "1", "--steps", "3", "--out", str(out)])
    if message is None:
        assert (result.exit_code, result.stderr) == (0, ""), result.output
        assert len(out.read_text().splitlines()) == 4
    else:
        assert (result.exit_code, result.stdout, result.stderr) == (2, "", message)
        assert not out.exists()


@pytest.mark.parametrize("args, config, message", [
    (["simulate", "--l", "100", "--seed", "-1"], None, "error: seed must be non-negative, got -1"),
    (["simulate"], {"l": 100, "seed": -3}, "error: seed must be non-negative, got -3"),
    (["verify", "--scope", "discrete", "--seed", "-1"], None, "Invalid value for '--seed'"),
    (["verify", "--scope", "discrete", "--trials", "0"], None, "Invalid value for '--trials'"),
    (["verify", "--scope", "discrete", "--trials", "-5"], None, "Invalid value for '--trials'"),
], ids=["simulate-seed", "config-seed", "verify-seed", "verify-trials-0", "verify-trials-5"])
def test_negative_seed_or_no_trials_exits_2(runner, tmp_path, args, config, message):
    # rejected before any work, so nothing is printed or written
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = [*args, "--config", str(cfg)]
    out = tmp_path / "out"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert message in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("outcome, code, message", [
    (ConfigurationError("bad scope"), 2, "error: bad scope"),
    (DomainError("bad law"), 2, "error: bad law"),
    (ParseError("bad text"), 3, "error: bad text"),
    (FileNotFoundError("no file"), 3, "error: no file"),
    (CapacityError("too big"), 4, "error: too big"),
    ([InequalityReport("holds", 0.0, 1.0), InequalityReport("fails", 1.0, 0.0)],
     5, "verification failed: fails"),
], ids=["configuration", "domain", "parse", "file-not-found", "capacity", "failed-report"])
def test_exit_status_map(runner, monkeypatch, outcome, code, message):
    def run_suites(scope, seed, trials, pulses):
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr("cvqkd.cli.run_suites", run_suites)
    result = runner.invoke(main, ["verify", "--scope", "discrete"])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert result.stderr == message + "\n"


SCIPY_FREE_SCRIPT = """
import sys
import cvqkd, cvqkd.cli
from click.testing import CliRunner

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), ("import", scipy_modules())
for args in (["rate", "--cov", "20,10.5,14.124446891825535",
              "--protocol", "squeezed_homodyne"],
             ["verify", "--scope", "discrete", "--trials", "20"]):
    result = CliRunner().invoke(cvqkd.cli.main, args)
    assert result.exit_code == 0, (args, result.output)
    assert not scipy_modules(), (args, scipy_modules())
"""


def test_scipy_loads_only_for_entropy_estimates():
    # scipy's import costs about 0.5 s, and only the k-NN entropy
    # estimator uses it: a fresh interpreter must not load it for the
    # package, the CLI, or commands that estimate no entropy
    src = str(Path(cvqkd.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", SCIPY_FREE_SCRIPT],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr


def test_thread_pools_load_only_when_they_run():
    # the package spreads work over cores with plain threads, so neither
    # the package nor the CLI loads concurrent.futures
    src = str(Path(cvqkd.__file__).resolve().parents[1])
    script = ("import sys, cvqkd, cvqkd.cli\n"
              "assert 'concurrent.futures' not in sys.modules")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
