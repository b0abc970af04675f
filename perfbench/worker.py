"""One repetition of one workload, run in a fresh interpreter.

Usage: python3 worker.py WORKLOAD SEED TRACE CHECK RESULT_PATH

run.py starts this with the checkout's ``src`` on PYTHONPATH and a work
directory as working directory. It imports cvqkd and its CLI, notes the
clock (the end of set-up), runs the workload's operations under one wall
clock, and writes a JSON result to RESULT_PATH: the times, the digests of
every stdout and output file, and, with CHECK=1, the failures of the
output checks and of their self-check.

With TRACE=1 the public functions of each cvqkd module are wrapped, at the
name their caller looks up, by a tracer that keeps spans in memory; the
spans are written to ``spans.json`` after the clock stops and summed into
per-layer metrics.
"""

import time

import cvqkd
import cvqkd.cli
from click.testing import CliRunner

READY = time.perf_counter()

# everything below is the benchmark's own set-up, outside setup_s
import contextlib
import hashlib
import json
import resource
import sys
from pathlib import Path

import numpy as np
from cvqkd import records, simulator, verify

import checks

# Workload sizes. A repetition takes a few seconds on a 2-core machine, so
# a run can take the median of several.
STATISTICAL_PULSES = 100_000
ROUNDTRIP_BLOCKS = 100_000
MONTE_CARLO_PULSES = 10_000_000
DISCRETE_TRIALS = 10_000
SWEEP_STEPS = 20_000

LAYERS = ("simulator", "estimators", "records", "verify", "rates", "cli")
CLI = cvqkd.cli.main
MIB = 1024.0 * 1024.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Clock:
    """Wall clock of the timed operations, and the ops attempted and failed.
    The tracer is installed only while the clock runs, so the checks that
    follow the operations leave no spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def timed(self):
        self.tracer.install()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - start
            self.tracer.restore()


class NoTracer:
    def span(self, name):
        return contextlib.nullcontext()

    def install(self):
        pass

    def restore(self):
        pass


class Tracer:
    """Spans kept in memory as [id, parent, name, start, end, count]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.patches = []

    def _open(self, name):
        record = [len(self.spans), self.stack[-1] if self.stack else -1, name,
                  time.perf_counter(), 0.0, 0]
        self.spans.append(record)
        self.stack.append(record[0])
        return record

    def _close(self, record):
        self.stack.pop()
        record[4] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a function that records a span around it;
        `count(args, result)` gives the span's work count."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                record[5] = count(args, result)
            return result

        setattr(owner, attr, traced)
        self.patches.append((owner, attr, original))

    def install(self):
        """Wrap every public cvqkd function the workloads reach. The
        benchmark's own library calls go through the ``cvqkd`` namespace."""
        cli = cvqkd.cli
        pulses = lambda args, rec: rec.total_pulses
        for owner in (cli, verify, cvqkd):
            self.wrap(owner, "run_session", "simulator.run_session", pulses)
        self.wrap(simulator.BlockRecord, "samples", "simulator.samples")
        self.wrap(cli, "analytic_covariance", "simulator.analytic_covariance")
        self.wrap(verify, "conditional_entropy_estimate", "estimators.conditional_entropy",
                  lambda args, est: len(args[0]))
        for owner in (cli, verify, cvqkd):
            self.wrap(owner, "estimate_covariance", "estimators.estimate_covariance")
        self.wrap(records, "write_record", "records.write",
                  lambda args, path: Path(path).stat().st_size)
        self.wrap(records, "read_record", "records.read",
                  lambda args, rec: Path(args[0]).stat().st_size)
        self.wrap(cli, "run_suites", "verify.run_suites", lambda args, reps: len(reps))
        self.wrap(verify, "discrete_suite", "verify.discrete_suite")
        self.wrap(verify, "statistical_suite", "verify.statistical_suite")
        self.wrap(verify, "check_mixture_lemma", "verify.check_mixture_lemma")
        for owner, attr in ((cli, "rate_bound"), (verify, "squeezed_rate_bound"),
                            (cvqkd, "rate_bound")):
            self.wrap(owner, attr, "rates.rate_bound")

    def restore(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def metrics(self, wall: float) -> dict:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, parent, _, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total, own, calls, counts = {}, {}, {}, {}
        for (_, _, name, start, end, count), inner in zip(spans, child_time):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + count
        t = lambda name: total.get(name, 0.0)
        rate = lambda work, seconds: work / seconds if seconds > 0 else 0.0
        pulses = counts.get("simulator.run_session", 0)
        written = counts.get("records.write", 0)
        read = counts.get("records.read", 0)
        m = {
            "simulator.run_session_s": (t("simulator.run_session"), "s"),
            "simulator.samples_s": (t("simulator.samples"), "s"),
            "simulator.pulses": (pulses, "count"),
            "simulator.mpulses_per_s": (rate(pulses / 1e6, t("simulator.run_session")),
                                        "Mpulse/s"),
            "estimators.conditional_entropy_s": (t("estimators.conditional_entropy"), "s"),
            "estimators.conditional_entropy_calls": (
                calls.get("estimators.conditional_entropy", 0), "count"),
            "estimators.entropy_samples": (counts.get("estimators.conditional_entropy", 0),
                                           "count"),
            "estimators.estimate_covariance_s": (t("estimators.estimate_covariance"), "s"),
            "records.write_s": (t("records.write"), "s"),
            "records.read_s": (t("records.read"), "s"),
            "records.bytes_written": (written, "B"),
            "records.bytes_read": (read, "B"),
            "records.encode_mib_per_s": (rate(written / MIB, t("records.write")), "MiB/s"),
            "records.decode_mib_per_s": (rate(read / MIB, t("records.read")), "MiB/s"),
            "verify.discrete_suite_s": (t("verify.discrete_suite"), "s"),
            "verify.joint_laws": (calls.get("verify.check_mixture_lemma", 0), "count"),
            "verify.reports": (counts.get("verify.run_suites", 0), "count"),
            "verify.statistical_suite_self_s": (own.get("verify.statistical_suite", 0.0), "s"),
            "rates.rate_bound_s": (t("rates.rate_bound"), "s"),
            "rates.rate_bound_calls": (calls.get("rates.rate_bound", 0), "count"),
        }
        for command in ("simulate", "rate", "verify", "sweep"):
            m[f"cli.{command}_self_s"] = (own.get(f"cli.{command}", 0.0), "s")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (sum(v for k, v in own.items()
                                        if k.split(".", 1)[0] == layer), "s")
        roots = sum(end - start for _, parent, _, start, end, _ in spans if parent < 0)
        m["trace.wall_s"] = (wall, "s")
        m["trace.unattributed_s"] = (wall - roots, "s")
        return m

    def dump(self, path: Path) -> None:
        """Write the spans with start and end in ns from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        ns = lambda t: round((t - origin) * 1e9)
        path.write_text(json.dumps({
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "count"],
            "spans": [[i, p, name, ns(s), ns(e), c] for i, p, name, s, e, c in self.spans]},
            separators=(",", ":")))


def invoke(clock, command, args):
    """Run one CLI command; returns its exit status and stdout bytes."""
    clock.attempted += 1
    with clock.tracer.span(f"cli.{command}"):
        result = CliRunner().invoke(CLI, [command, *args])
    if result.exit_code != 0:
        clock.failed += 1
        sys.stderr.write(f"{command} {' '.join(args)}: exit {result.exit_code}\n"
                         f"{result.output}{result.exception!r}\n")
    return result.exit_code, result.stdout_bytes


def _manifest(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return {"all_hold": False, "reports": []}


# ---------------------------------------------------------------------------
# workloads: each runs its timed operations, then returns the digests of
# their stdout and files, and a function that gathers the outputs its check
# reads (run only in the repetitions that check)

def statistical_certify(seed, clock):
    # The suite runs at the CLI's default seed whatever the benchmark seed:
    # its 3-sigma Gaussian-saturation check fails on about 1 seed in 80, so
    # seed-dependent inputs would make the run fail now and then.
    with clock.timed():
        code, stdout = invoke(clock, "verify", [
            "--scope", "statistical", "--pulses", str(STATISTICAL_PULSES),
            "--out", "manifest.json"])

    def outputs():
        doc = _manifest("manifest.json")
        return {"exit": code, "all_hold": doc["all_hold"], "reports": doc["reports"]}

    return {"stdout": _sha(stdout), "manifest.json": _sha(Path("manifest.json").read_bytes())}, outputs


def record_roundtrip(seed, clock):
    v, t = 20.0, 0.5
    session_seed = int(np.random.default_rng(seed).integers(0, 2**31))
    files = {"csv": "session.csv", "json-lines": "session.jsonl"}
    runs = {}
    with clock.timed():
        for fmt, path in files.items():
            sim = invoke(clock, "simulate", [
                "--v", repr(v), "--t", repr(t), "--l", str(ROUNDTRIP_BLOCKS),
                "--sifting", "random_basis", "--seed", str(session_seed),
                "--out", path, "--format", fmt])
            rate = invoke(clock, "rate", ["--record", path, "--format", "json"])
            runs[fmt] = sim, rate
    digests = {}
    for fmt, ((_, sim_out), (_, rate_out)) in runs.items():
        digests.update({f"simulate {fmt} stdout": _sha(sim_out),
                        f"rate {fmt} stdout": _sha(rate_out),
                        files[fmt]: _sha(Path(files[fmt]).read_bytes())})

    def outputs():
        direct = simulator.run_session(
            simulator.EprSource(v), simulator.ChannelModel(t),
            cvqkd.ProtocolKind.SQUEEZED_HOMODYNE, 1, ROUNDTRIP_BLOCKS,
            simulator.SiftingMode.RANDOM_BASIS, session_seed)
        columns = ("a", "b", "label_a", "label_b", "kept")
        out = {"v": v, "t": t, "direct": {c: getattr(direct, c) for c in columns},
               "formats": {}}
        for fmt, ((sim_code, _), (rate_code, rate_out)) in runs.items():
            decoded = records.read_record(files[fmt])
            report = json.loads(rate_out) if rate_code == 0 else {}
            out["formats"][fmt] = {
                "simulate_exit": sim_code, "rate_exit": rate_code,
                "decoded": {c: getattr(decoded, c) for c in columns},
                "rate": report.get("delta_i_min_per_pulse", float("nan")),
                "kept": report.get("sample_count", 1),
                "sifting_applied": report.get("sifting_applied", False),
            }
        return out

    return digests, outputs


def monte_carlo_rate(seed, clock):
    v, t = 20.0, 0.5
    base = int(np.random.default_rng(seed).integers(0, 2**31))
    out = {"v": v, "t": t, "protocols": {}}
    for offset, kind in enumerate(cvqkd.ProtocolKind):
        clock.attempted += 1
        with clock.timed():
            record = cvqkd.run_session(
                cvqkd.EprSource(v), cvqkd.ChannelModel(t), kind, n=1, l=MONTE_CARLO_PULSES,
                sifting_mode=cvqkd.SiftingMode.QUANTUM_MEMORY, rng_seed=base + offset)
            samples = record.samples()
            k = cvqkd.estimate_covariance(samples)
            report = cvqkd.rate_bound(k, 1, kind, 1.0, cvqkd.HeterodyneTransform.BEAMSPLITTER)
        out["protocols"][kind.value] = {
            "covariance": [k.var_a, k.var_b, k.cov_ab], "kept": len(samples),
            "pulses": record.total_pulses, "rate": report.delta_i_min_per_pulse}
        del record, samples
    return {"results": _sha(repr(out).encode())}, lambda: out


def exact_certify(seed, clock):
    rng = np.random.default_rng(seed)
    verify_seed = int(rng.integers(0, 2**31))
    # v >= 5 and eps <= 0.5 keep every squeezed rate on the grid above 0.1 bit,
    # so the relative comparison with the closed form is well conditioned
    v, t = float(rng.uniform(5.0, 40.0)), float(rng.uniform(0.3, 0.95))
    with clock.timed():
        verify_code, verify_out = invoke(clock, "verify", [
            "--scope", "discrete", "--seed", str(verify_seed),
            "--trials", str(DISCRETE_TRIALS), "--out", "manifest.json"])
        sweep_code, sweep_out = invoke(clock, "sweep", [
            "--param", "eps", "--start", "0", "--stop", "0.5", "--steps", str(SWEEP_STEPS),
            "--v", repr(v), "--t", repr(t), "--beta", "1", "--out", "sweep.csv"])

    def outputs():
        doc = _manifest("manifest.json")
        table = Path("sweep.csv").read_text().splitlines()
        header = table[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in table[1:]]
        cell = lambda text: float(text) if text else None
        return {"verify_exit": verify_code, "sweep_exit": sweep_code,
                "all_hold": doc["all_hold"], "reports": doc["reports"],
                "v": v, "t": t, "steps": SWEEP_STEPS,
                "eps": [float(r["value"]) for r in rows],
                "delta_i_min_squeezed": [cell(r["delta_i_min_squeezed"]) for r in rows],
                "delta_i_min_coherent": [cell(r["delta_i_min_coherent"]) for r in rows]}

    return {"verify stdout": _sha(verify_out), "sweep stdout": _sha(sweep_out),
            "manifest.json": _sha(Path("manifest.json").read_bytes()),
            "sweep.csv": _sha(Path("sweep.csv").read_bytes())}, outputs


WORKLOADS = {
    "statistical-certify": statistical_certify,
    "record-roundtrip": record_roundtrip,
    "monte-carlo-rate": monte_carlo_rate,
    "exact-certify": exact_certify,
}


def main(workload: str, seed: int, trace: bool, check: bool, result_path: str) -> None:
    tracer = Tracer() if trace else NoTracer()
    clock = Clock(tracer)
    digests, outputs = WORKLOADS[workload](seed, clock)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "ready": READY, "wall_s": clock.wall, "peak_rss_mib": peak_kib / 1024.0,
        "attempted": clock.attempted, "failed": clock.failed, "digests": digests,
        "failures": [], "unrejected_perturbations": [],
    }
    if check:
        out = outputs()
        result["failures"] = checks.CHECKS[workload](out)
        result["unrejected_perturbations"] = checks.self_check(workload, out)
    if trace:
        result["layers"] = tracer.metrics(clock.wall)
        tracer.dump(Path("spans.json"))
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1", sys.argv[5])
