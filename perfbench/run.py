"""Benchmark of cvqkd's user paths, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repetition of a workload is a fresh interpreter (worker.py) that
imports cvqkd from the checkout's ``src`` and runs the workload's
operations at inputs made from the seed. Repetitions run one after another
at the same seed until S seconds have passed, and at least MIN_REPS times.
The first repetition checks the outputs against closed forms and shows
that its checks reject perturbed outputs; every later one must reproduce
its stdout and output files byte for byte.

The exit status is 0 when every output is correct and no operation
failed, 1 otherwise, and 2 when the checkout has no cvqkd sources.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics (medians over repetitions). With --trace 1 the run
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones, plus trace.overhead_s, the traced wall time
minus the untraced one. The spans of the last traced repetition are kept
in .perfbench/trace-WORKLOAD.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("statistical-certify", "record-roundtrip", "monte-carlo-rate", "exact-certify")
MIN_REPS = 3
REP_TIMEOUT_S = 120


class BenchmarkError(Exception):
    pass


def run_rep(workload: str, seed: int, trace: bool, check: bool, work: Path) -> dict:
    """One repetition in a fresh interpreter; its result plus setup_s."""
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed),
             str(int(trace)), str(int(check)), str(result_path)],
            cwd=work, env=env, stdout=sys.stderr, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} repetition exceeded {REP_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchmarkError(f"{workload} worker exited with status {proc.returncode}")
    result = json.loads(result_path.read_text())
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # worker's reading and ours share an origin
    result["setup_s"] = result["ready"] - start
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{os.getpid()}"
    work.mkdir()
    plain, traced = [], []
    try:
        deadline = time.perf_counter() + seconds
        while len(plain) < MIN_REPS or time.perf_counter() < deadline:
            if not trace:
                kinds = (False,)
            else:  # traced and untraced repetitions take turns at running first
                kinds = (False, True) if len(plain) % 2 == 0 else (True, False)
            for tracing in kinds:
                # the first repetition checks the outputs; the others must
                # reproduce its stdout and files byte for byte
                result = run_rep(workload, seed, tracing, not (plain or tracing), work)
                (traced if tracing else plain).append(result)
                if tracing:
                    shutil.copyfile(work / "spans.json", OUT / f"trace-{workload}.json")
            print(f"{workload} rep {len(plain)}: wall {plain[-1]['wall_s']:.3f} s, "
                  f"setup {plain[-1]['setup_s']:.3f} s, "
                  f"peak {plain[-1]['peak_rss_mib']:.1f} MiB", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = plain + traced
    problems = [f for r in reps for f in r["failures"]]
    problems += [f"check accepted perturbation: {name}"
                 for r in reps for name in r["unrejected_perturbations"]]
    problems += checks.check_identical([r["digests"] for r in reps])
    for problem in dict.fromkeys(problems):
        print(f"{workload}: {problem}", file=sys.stderr)

    median = lambda key, rs: statistics.median(r[key] for r in rs)
    if trace:
        metrics = {name: {"value": statistics.median(r["layers"][name][0] for r in traced),
                          "unit": unit} for name, (_, unit) in traced[0]["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": median("wall_s", traced) - median("wall_s", plain), "unit": "s"}
    else:
        metrics = {"wall_s": {"value": median("wall_s", plain), "unit": "s"},
                   "setup_s": {"value": median("setup_s", plain), "unit": "s"},
                   "peak_rss_mib": {"value": median("peak_rss_mib", plain), "unit": "MiB"}}
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in reps),
            "failed": sum(r["failed"] for r in reps),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cvqkd" / "__init__.py").is_file():
        print(f"error: no cvqkd sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"] and not result["failed"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
