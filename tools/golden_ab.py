"""Fixed-seed A/B of the cvqkd command line.

Runs a fixed list of CLI commands in-process, through click's CliRunner,
inside a fresh temporary working directory with relative paths, and
prints one line per command: its exit status (and the exception type if
it ended in an uncaught exception), the sha256 of stdout and of stderr,
and the sha256 of every file the command wrote or changed.

To compare two checkouts, run it once against each and compare the outputs:

    PYTHONPATH=parent/src python3 tools/golden_ab.py > parent.txt
    PYTHONPATH=src python3 tools/golden_ab.py > change.txt
    python3 tools/golden_compare.py parent.txt change.txt tools/golden_moved.txt

which passes when the parent's lines print unchanged, new lines are only
appended, and exactly the lines tools/golden_moved.txt lists change. Then
rerun the change on one BLAS thread and on OpenBLAS's Nehalem kernels,
whose outputs must not differ from the default run, so that no output
depends on the BLAS kernel or its thread count:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/golden_ab.py > change-1.txt
    OPENBLAS_CORETYPE=Nehalem PYTHONPATH=src python3 tools/golden_ab.py > change-nehalem.txt
    diff change.txt change-1.txt && diff change.txt change-nehalem.txt

It takes no options. The whole list of 198 commands runs in about 13 s on
a 2-core machine, most of it writing the four multi-chunk records of about
5*10^5 pulses each.
"""

import hashlib
import json
import math
import os
from pathlib import Path

from click.testing import CliRunner

from cvqkd.cli import main
from cvqkd.records import ROW_KEYS

PROTOCOLS = ("squeezed_homodyne", "coherent_heterodyne")
SIFTINGS = ("random_basis", "quantum_memory")
FORMATS = {"csv": "csv", "json-lines": "jsonl"}

#: channel of the shape sessions; its noise variance is (1 - t) + t * eps
T, EPS = 0.6, 0.1
NOISE_VAR = (1.0 - T) + T * EPS
SHAPES = (
    "gaussian", "mixture", "uniform", "displacement", "gaussian:",
    f"mixture:w1=0.25,w2=0.75,v1={NOISE_VAR / 2.5!r},v2={3 * NOISE_VAR / 2.5!r}",
    f"uniform:halfwidth={math.sqrt(3.0 * NOISE_VAR)!r}",
    f"displacement:magnitude={math.sqrt(NOISE_VAR / 0.5)!r},probability=0.5",
)

#: a uniform noise shape whose halfwidth fits t = 0.5, eps = 0, after a first value
REPEATED_SHAPE = f"uniform:halfwidth=9,halfwidth={math.sqrt(1.5)!r}"

SQUEEZED_COV = ["--cov", "20,10.5,14.124446891825535", "--protocol", "squeezed_homodyne"]

#: header fields and pulse rows of a small valid record, for the header cases
HEADER = {"protocol": "squeezed_homodyne", "sifting": "quantum_memory", "n": 1, "l": 4,
          "seed": 0, "v": 20.0, "n0": 1.0, "t": 1.0, "eps": 0.0, "shape": "gaussian",
          "rho_block": 0.0}
ROWS = [(0, 0, 1.5, 1.25, "q", "q", 1), (1, 0, -2.0, -1.5, "p", "p", 1),
        (2, 0, 0.5, 0.75, "q", "q", 1), (3, 0, -0.25, 0.5, "p", "p", 1)]

#: header fields out of the ranges run_session writes, and rows that follow them
RANGE_HEADERS = {
    "n-l-negative": ({"n": -1, "l": -3}, [(-i, 0, *ROWS[i][2:]) for i in range(3)]),
    "n-zero": ({"n": 0, "l": 5}, []),
    "seed-negative": ({"seed": -1}, ROWS),
}

#: header fields whose noise shape contradicts the channel, or whose channel
#: noise variance (1-t)*n0 + t*eps*n0 overflows, with rows that follow them
CHANNEL_HEADERS = {
    "shape-mismatch": ({"shape": "uniform:halfwidth=5.0"}, ROWS),
    "noise-variance-overflow": ({"eps": 1e308, "n0": 10.0}, ROWS),
}

#: simulate arguments of sessions of three chunks, the last one partial
MULTI_CHUNK = {
    "homodyne-random-basis": ["--protocol", "squeezed_homodyne", "--sifting", "random_basis",
                              "--t", "0.5", "--eps", "0.05", "--n", "1", "--l", "530000",
                              "--seed", "101"],
    "homodyne-memory-n3-mixture": ["--protocol", "squeezed_homodyne",
                                   "--sifting", "quantum_memory", "--t", "0.6", "--eps", "0.1",
                                   "--shape", "mixture", "--n", "3", "--l", "180000",
                                   "--seed", "102"],
    "heterodyne-random-basis-n3-rho": ["--protocol", "coherent_heterodyne",
                                       "--sifting", "random_basis", "--t", "0.7",
                                       "--eps", "0.1", "--rho-block", "0.4", "--n", "3",
                                       "--l", "180000", "--seed", "103"],
    "heterodyne-memory-displacement": ["--protocol", "coherent_heterodyne",
                                       "--sifting", "quantum_memory", "--t", "0.6",
                                       "--eps", "0.1", "--shape", "displacement", "--n", "1",
                                       "--l", "530000", "--seed", "104"],
}


def commands():
    """(label, argv) pairs, in run order; later commands read earlier outputs."""
    session = ["--v", "20", "--t", "0.5", "--eps", "0.05", "--n", "2", "--l", "300"]
    records = []
    for protocol in PROTOCOLS:
        for sifting in SIFTINGS:
            for fmt, ext in FORMATS.items():
                out = f"sim-{protocol}-{sifting}.{ext}"
                records.append(out)
                yield out, ["simulate", *session, "--protocol", protocol,
                            "--sifting", sifting, "--format", fmt,
                            "--seed", str(len(records)), "--out", out]
    for i, shape in enumerate(SHAPES):
        for protocol in PROTOCOLS:
            out = f"shape-{i}-{protocol}.csv"
            records.append(out)
            yield out, ["simulate", "--protocol", protocol, "--t", str(T),
                        "--eps", str(EPS), "--shape", shape, "--l", "400",
                        "--seed", str(20 + i), "--out", out]
    records.append("rho-block.csv")
    yield "rho-block", ["simulate", "--t", "0.7", "--eps", "0.1", "--rho-block", "0.4",
                        "--n", "5", "--l", "80", "--seed", "40", "--out", "rho-block.csv"]
    yield "config", ["simulate", "--config", "config.json", "--seed", "41",
                     "--out", "config.csv"]

    for record in records:
        for fmt in ("text", "json"):
            yield (f"rate-{record}-{fmt}",
                   ["rate", "--record", record, "--format", fmt, "--beta", "0.95"])
    yield "rate-record-n-out", ["rate", "--record", records[0], "--n", "8",
                                "--out", "rate-record.json"]
    yield "rate-cov-squeezed", ["rate", *SQUEEZED_COV, "--beta", "0.9",
                                "--out", "rate-cov.json"]
    yield "rate-cov-coherent", ["rate", "--cov", "10.5,10.5,9.0",
                                "--protocol", "coherent_heterodyne", "--n", "4"]
    yield "rate-cov-coherent-bs", ["rate", "--cov", "10.5,10.5,9.987492177719089",
                                   "--protocol", "coherent_heterodyne", "--format", "json"]

    sweeps = {
        "t": ["--start", "0.05", "--stop", "1.0", "--steps", "12", "--eps", "0.05"],
        "eps": ["--start", "0", "--stop", "0.6", "--steps", "13", "--t", "0.8"],
        "v": ["--start", "2", "--stop", "40", "--steps", "9", "--t", "0.7"],
        "beta": ["--start", "0.8", "--stop", "1", "--steps", "5", "--t", "0.6"],
    }
    for param, args in sweeps.items():
        yield f"sweep-{param}", ["sweep", "--param", param, *args,
                                 "--out", f"sweep-{param}.csv",
                                 "--plot-out", f"sweep-{param}.json"]
    yield "sweep-displacement", ["sweep", "--param", "t", "--start", "0.3", "--stop", "0.9",
                                 "--steps", "7", "--eps", "0.1", "--shape", "displacement",
                                 "--out", "sweep-disp.csv"]

    yield "verify-discrete", ["verify", "--scope", "discrete", "--trials", "200",
                              "--out", "verify-discrete.json"]
    yield "verify-statistical", ["verify", "--scope", "statistical", "--pulses", "20000",
                                 "--out", "verify-statistical.json"]

    # error cases: input that is not UTF-8 text, output into a missing directory
    # or onto a directory, and a flag the command does not take
    yield "error-rate-binary-record", ["rate", "--record", "binary.dat"]
    yield "error-rate-binary-record-line-2", ["rate", "--record", "binary-line-2.csv"]
    yield "error-simulate-binary-config", ["simulate", "--config", "binary.dat",
                                           "--out", "never.csv"]
    yield "error-simulate-out", ["simulate", "--l", "100", "--out", "nodir/r.csv"]
    yield "error-verify-out", ["verify", "--scope", "statistical", "--pulses", "20000",
                               "--out", "nodir/m.json"]
    yield "error-sweep-out", ["sweep", "--param", "eps", "--start", "0", "--stop", "1",
                              "--steps", "2", "--out", "nodir/s.csv"]
    yield "error-sweep-plot-out", ["sweep", "--param", "eps", "--start", "0", "--stop", "1",
                                   "--steps", "2", "--out", "never.csv",
                                   "--plot-out", "nodir/s.json"]
    yield "error-rate-record-out", ["rate", "--record", records[0],
                                    "--out", "nodir/r.json"]
    yield "error-rate-cov-out", ["rate", *SQUEEZED_COV, "--out", "nodir/r.json"]
    yield "error-simulate-out-dir", ["simulate", "--l", "100", "--out", "."]
    yield "error-verify-out-dir", ["verify", "--scope", "discrete", "--trials", "200",
                                   "--out", "."]
    yield "error-sweep-out-dir", ["sweep", "--param", "eps", "--start", "0", "--stop", "1",
                                  "--steps", "2", "--out", "."]
    yield "error-rate-out-dir", ["rate", *SQUEEZED_COV, "--out", "."]
    yield "error-simulate-beta", ["simulate", "--l", "100", "--beta", "0.9",
                                  "--out", "simulate-beta.csv"]
    yield "error-sweep-seed", ["sweep", "--param", "eps", "--start", "0", "--stop", "1",
                               "--steps", "2", "--seed", "3", "--out", "sweep-seed.csv"]

    # a negative seed and no trials, rejected before any work
    yield "error-simulate-seed-negative", ["simulate", "--l", "100", "--seed", "-1",
                                           "--out", "seed-negative.csv"]
    yield "error-simulate-config-seed-negative", ["simulate", "--config", "config-seed.json",
                                                  "--out", "config-seed.csv"]
    yield "error-verify-seed-negative", ["verify", "--scope", "discrete", "--trials", "200",
                                         "--seed", "-1", "--out", "verify-seed.json"]
    yield "error-verify-trials-0", ["verify", "--scope", "discrete", "--trials", "0",
                                    "--out", "verify-trials.json"]

    # a session of 10^20 pulses, whose columns numpy refuses on every host
    yield "error-simulate-unrepresentable", ["simulate", "--n", "10000000000",
                                             "--l", "10000000000", "--out", "huge.csv"]

    # record headers: a valid one, then a key dumps never writes, a repeated
    # key, and a json-lines value of the wrong type
    yield "rate-header-valid", ["rate", "--record", "header-valid.csv"]
    yield "error-rate-header-unknown-key", ["rate", "--record", "header-unknown.csv"]
    yield "error-rate-header-repeated-key", ["rate", "--record", "header-repeated.csv"]
    yield "error-rate-header-float-n", ["rate", "--record", "header-float-n.jsonl"]

    # exact checks within one stack of laws and across several stacks
    yield "verify-discrete-trials-3", ["verify", "--scope", "discrete", "--trials", "3",
                                       "--out", "verify-discrete-3.json"]
    yield "verify-discrete-trials-2070", ["verify", "--scope", "discrete", "--trials", "2070",
                                          "--out", "verify-discrete-2070.json"]

    # record headers outside the ranges run_session writes, in both formats
    for name in RANGE_HEADERS:
        for ext in FORMATS.values():
            yield (f"error-rate-header-{name}-{ext}",
                   ["rate", "--record", f"header-{name}.{ext}"])

    # sessions whose chunks run on every core the process may use
    for name, args in MULTI_CHUNK.items():
        yield f"simulate-multi-chunk-{name}", ["simulate", "--v", "20", *args,
                                               "--out", f"multi-chunk-{name}.csv"]

    # record headers that contradict their channel, in both formats
    for name in CHANNEL_HEADERS:
        for ext in FORMATS.values():
            yield (f"error-rate-header-{name}-{ext}",
                   ["rate", "--record", f"header-{name}.{ext}"])

    # a noise shape that contradicts the channel, on a session too large to
    # allocate, and non-finite or overflowing numbers, all rejected before any
    # file is written
    yield "error-simulate-shape-unallocatable", ["simulate", "--shape", "uniform:halfwidth=5",
                                                 "--n", "10000000000", "--l", "10000000000",
                                                 "--out", "huge-shape.csv"]
    for label, args in (("v-inf", ["--v", "inf"]), ("v-overflow", ["--v", "1e308"]),
                        ("eps-inf", ["--eps", "inf"]),
                        ("noise-variance-overflow", ["--eps", "1e308", "--n0", "10"])):
        yield f"error-simulate-{label}", ["simulate", *args, "--l", "100",
                                          "--out", f"{label}.csv"]
    yield "error-sweep-stop-inf", ["sweep", "--param", "eps", "--start", "0", "--stop", "inf",
                                   "--steps", "3", "--out", "sweep-stop-inf.csv"]

    # flags that sweep and rate --record do not take
    for flag, value in (("--shape", "uniform"), ("--rho-block", "0.5")):
        yield f"error-sweep-{flag[2:]}", ["sweep", "--param", "eps", "--start", "0",
                                          "--stop", "1", "--steps", "2", flag, value,
                                          "--out", "sweep-flag.csv"]
    for flag, value in (("--protocol", "coherent_heterodyne"), ("--n0", "2")):
        yield f"error-rate-record-{flag[2:]}", ["rate", "--record", records[0], flag, value,
                                                "--out", "rate-record-flag.json"]

    # covariances whose products overflow: cov_ab squared, and the coherent
    # bound's cv1*cv2, whose sweep cells stay empty as wherever that bound is undefined
    yield "error-rate-cov-square-overflow", ["rate", "--cov", "1e200,1e200,1e199",
                                             "--protocol", "squeezed_homodyne"]
    yield "error-rate-cov-coherent-overflow", ["rate", "--cov", "1e200,1e200,0",
                                               "--protocol", "coherent_heterodyne"]
    yield "sweep-coherent-overflow", ["sweep", "--param", "t", "--start", "0.5", "--stop", "1",
                                      "--steps", "2", "--eps", "1e200",
                                      "--out", "sweep-coherent-overflow.csv"]

    # records in forms dumps never writes, each refused at its first such line
    for name in LENIENT_RECORDS:
        yield f"rate-record-lenient-{name}", ["rate", "--record", name, "--format", "json"]

    # rate bounds out of the float range: the squeezed quotient n0/cv, the block
    # rate n * delta_i_min, and the heterodyne transform's sqrt(2)*cov_ab squared
    for label, cov, args in (
            ("squeezed-quotient-overflow", "1,1e-310,0", ["--format", "json"]),
            ("squeezed-quotient-underflow", "1e300,1e300,0", ["--n0", "1e-300"]),
            ("n-beyond-float", "20,10.5,14.124446891825535", ["--n", str(10 ** 309)]),
            ("block-rate-overflow", "1000,1000,999.9995",
             ["--n", str(10 ** 308), "--format", "json"])):
        yield f"error-rate-{label}", ["rate", "--cov", cov, "--protocol", "squeezed_homodyne",
                                      *args]
    yield "error-rate-transform-cov-ab-overflow", ["rate", "--cov", "1e300,1e300,1.2e154",
                                                   "--protocol", "coherent_heterodyne"]

    # the heterodyne transform's reconstructed variance, an infinite shot-noise
    # unit, and a sweep point whose conditional variance cancels to 0, each named
    yield "error-rate-transform-var-a-overflow", ["rate", "--cov", "1e308,1e308,0",
                                                  "--protocol", "coherent_heterodyne"]
    yield "error-rate-n0-inf", ["rate", "--cov", "3,3,0", "--protocol", "squeezed_homodyne",
                                "--n0", "inf"]
    yield "error-sweep-conditional-variance", ["sweep", "--param", "v", "--start", "2",
                                               "--stop", "1.3e154", "--steps", "2",
                                               "--out", "sweep-conditional-variance.csv"]

    # a coherent bound whose conditional variance is 0, a shape parameter with no
    # value, and statistics the heterodyne transform rejects
    yield "error-rate-coherent-conditional-variance", [
        "rate", "--cov", "2,3,2.1213203435596424", "--protocol", "coherent_heterodyne"]
    yield "error-simulate-shape-parameter-without-value", [
        "simulate", "--shape", "uniform:halfwidth", "--out", "shape-no-value.csv"]
    yield "error-rate-beamsplitter-inconsistent", [
        "rate", "--cov", "2,2,2", "--protocol", "coherent_heterodyne"]

    # a conditional variance that rounding may have moved (the analytic covariance
    # of v = 1e15 at t = 0.5, eps = 0.1), by literal and by sweep, a json-lines
    # row with a repeated key, and --beta under the config file's efficiency rule
    yield "error-rate-ill-conditioned", [
        "rate", "--cov", "1e15,500000000000000.56,707106781186547.6",
        "--protocol", "squeezed_homodyne"]
    yield "error-sweep-ill-conditioned", ["sweep", "--param", "v", "--start", "2",
                                          "--stop", "1e15", "--steps", "2", "--t", "0.5",
                                          "--eps", "0.1", "--out", "sweep-ill-conditioned.csv"]
    yield "error-rate-row-repeated-key", ["rate", "--record", "row-repeated-key.jsonl"]
    yield "error-rate-beta-above-1", ["rate", "--cov", "1,1,0", "--protocol",
                                      "squeezed_homodyne", "--beta", "1.5"]

    # the conditional variance that cancels to 0 at the sweep point v = 1.3e154
    # above, as a literal: the error names var_b and how far rounding may move it
    yield "error-rate-conditional-variance-rounding", [
        "rate", "--cov", "1.3e154,1.3e154,1.3e154", "--protocol", "squeezed_homodyne"]

    # sweeps over wide ranges of v and t, which the table evaluates as whole columns:
    # v from 1 (where the coherent cells are empty) to 1e8, t from 1e-9 to 1, and v
    # with n0 = 1.5 and plot data; then the coherent bound's conditional variances
    # cancelling to 0 at one unit in the last place of cov_ab above the analytic
    # heterodyne covariance at v = 1.3e154, whose error names var_b and the rounding
    yield "sweep-v-wide", ["sweep", "--param", "v", "--start", "1", "--stop", "1e8",
                           "--steps", "401", "--t", "0.4", "--eps", "0.05",
                           "--out", "sweep-v-wide.csv"]
    yield "sweep-t-wide", ["sweep", "--param", "t", "--start", "1e-9", "--stop", "1",
                           "--steps", "401", "--v", "30", "--eps", "0.2",
                           "--out", "sweep-t-wide.csv"]
    yield "sweep-v-n0", ["sweep", "--param", "v", "--start", "1.5", "--stop", "1e6",
                         "--steps", "301", "--n0", "1.5", "--t", "0.7", "--eps", "0.1",
                         "--beta", "0.95", "--out", "sweep-v-n0.csv",
                         "--plot-out", "sweep-v-n0.json"]
    yield "error-rate-coherent-conditional-variance-rounding", [
        "rate", "--cov", "6.5e153,1.3e154,9.192388155425117e153",
        "--protocol", "coherent_heterodyne"]

    # sweeps whose first failing point lies inside the grid: t leaves its domain at
    # t = 1.25, the squeezed bound is ill-conditioned from v = 2.5e14, and its
    # conditional variance cancels to 0 from v = 3.25e153
    yield "error-sweep-t-interior", ["sweep", "--param", "t", "--start", "0.5", "--stop", "1.5",
                                     "--steps", "5", "--out", "sweep-t-interior.csv"]
    yield "error-sweep-ill-conditioned-interior", [
        "sweep", "--param", "v", "--start", "2", "--stop", "1e15", "--steps", "5", "--t", "0.5",
        "--eps", "0.1", "--out", "sweep-ill-conditioned-interior.csv"]
    yield "error-sweep-conditional-variance-interior", [
        "sweep", "--param", "v", "--start", "2", "--stop", "1.3e154", "--steps", "5",
        "--out", "sweep-conditional-variance-interior.csv"]

    # the other domains' first failing points inside the grid: beta at 1.25, v at
    # 0.5 and eps at -0.5; and a shot-noise unit of 0 or NaN, which fails at every
    # point and is named at the first
    for param, start, stop in (("beta", "0.5", "1.5"), ("v", "2", "0"), ("eps", "1", "-1")):
        yield f"error-sweep-{param}-interior", [
            "sweep", "--param", param, "--start", start, "--stop", stop, "--steps", "5",
            "--out", f"sweep-{param}-interior.csv"]
    for n0 in ("0", "nan"):
        yield f"error-sweep-n0-{n0}", ["sweep", "--param", "eps", "--start", "0", "--stop",
                                       "1", "--steps", "3", "--n0", n0,
                                       "--out", f"sweep-n0-{n0}.csv"]

    # a noise-shape key given twice, by flag and in a record header; sessions that
    # keep fewer than the 2 pulses a sample covariance needs; and a lossless
    # channel whose Eve's bound rounds to -2.75e-7 bits in both protocols
    yield "error-simulate-shape-repeated-key", [
        "simulate", "--t", "0.5", "--sifting", "quantum_memory", "--l", "10",
        "--shape", REPEATED_SHAPE, "--out", "shape-repeated-key.csv"]
    yield "error-rate-header-shape-repeated-key", ["rate", "--record",
                                                   "header-shape-repeated.csv"]
    for l in ("1", "3"):
        yield f"simulate-l-{l}", ["simulate", "--l", l, "--out", f"simulate-l-{l}.csv"]
    yield "sweep-lossless-large-v", [
        "sweep", "--param", "v", "--start", "1084302.1843712206", "--stop",
        "1084302.1843712206", "--steps", "2", "--t", "1", "--eps", "0",
        "--n0", "32.571426414094596", "--out", "sweep-lossless-large-v.csv"]

    # records with a row label other than q or p, a key missing from a
    # json-lines row, or a key missing from the header, in both formats
    for name in MALFORMED_RECORDS:
        yield f"error-rate-record-{name}", ["rate", "--record", name]

    # record values that do not convert, each named with its key and what it must be
    for name in UNCONVERTED_RECORDS:
        yield f"error-rate-record-{name}", ["rate", "--record", name]

    # config files that a json-lines header's rules refuse: an integer of more
    # digits than Python converts, and a repeated key
    for name in CONFIGS:
        yield f"error-simulate-config-{name}", ["simulate", "--config", f"config-{name}.json",
                                                "--out", f"config-{name}.csv"]

    # a quantum_memory record whose third row's labels disagree, with its kept flag 0
    yield "error-rate-record-memory-labels-disagree", [
        "rate", "--record", "memory-labels-disagree.csv"]

    # CSV headers whose items are separated by two spaces or by a tab
    for name in SPACED_HEADERS:
        yield f"error-rate-record-{name}", ["rate", "--record", name]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): sha256(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def csv_record(extra: str = "", header=HEADER, rows=ROWS) -> str:
    header = " ".join(["#cvqkd-record", *(f"{key}={value}" for key, value in header.items())])
    return "\n".join([header + extra, *(",".join(map(str, row)) for row in rows)]) + "\n"


def json_record(header=HEADER, rows=ROWS, keys=ROW_KEYS) -> str:
    rows = (dict(zip(ROW_KEYS, row)) for row in rows)
    return "\n".join([json.dumps({"record": "cvqkd", **header}),
                      *(json.dumps({key: row[key] for key in keys}) for row in rows)]) + "\n"


#: records that are not as dumps writes them: a leading blank line, a CSV a
#: with a plus sign, json-lines rows with b before a
LENIENT_RECORDS = {
    "blank-line.csv": lambda: "\n" + csv_record(),
    "blank-line.jsonl": lambda: "\n" + json_record(),
    "plus-sign.csv": lambda: csv_record(rows=[(0, 0, "+1.5", *ROWS[0][3:]), *ROWS[1:]]),
    "b-before-a.jsonl": lambda: json_record(
        keys=("block", "pulse", "b", "a", "label_a", "label_b", "kept")),
}


def third_row(label_a, label_b, kept=ROWS[2][6]) -> list:
    """ROWS with the labels of its third row, file line 4, replaced, and its kept flag."""
    return [*ROWS[:2], (*ROWS[2][:4], label_a, label_b, kept), *ROWS[3:]]


#: the header fields of the valid record, without seed
HEADER_WITHOUT_SEED = {key: value for key, value in HEADER.items() if key != "seed"}

#: records that do not parse: row labels other than q and p (file line 4), a
#: json-lines row without kept (file line 3), and headers without seed
MALFORMED_RECORDS = {
    "label-a-upper.csv": lambda: csv_record(rows=third_row("Q", "q")),
    "label-b-x.csv": lambda: csv_record(rows=third_row("q", "x")),
    "label-a-0.jsonl": lambda: json_record(rows=third_row(0, "q")),
    "kept-missing.jsonl": lambda: json_record().replace(
        ', "kept": 1}\n{"block": 2', '}\n{"block": 2'),
    "seed-missing.csv": lambda: csv_record(header=HEADER_WITHOUT_SEED),
    "seed-missing.jsonl": lambda: json_record(header=HEADER_WITHOUT_SEED),
}


def second_row_a(a) -> list:
    """ROWS with the a value of its second row, file line 3, replaced."""
    return [ROWS[0], (*ROWS[1][:2], a, *ROWS[1][3:]), *ROWS[2:]]


#: records whose CSV header values do not convert, whose protocol is none of the
#: choices, in both formats, or whose json-lines values are out of the float range,
#: an integer of more digits than Python converts, or objects nested inside the
#: header or a row
UNCONVERTED_RECORDS = {
    "header-v-word.csv": lambda: csv_record(header={**HEADER, "v": "abc"}),
    "header-t-empty.csv": lambda: csv_record(header={**HEADER, "t": ""}),
    "header-n-exponent.csv": lambda: csv_record(header={**HEADER, "n": "1e3"}),
    "header-protocol-bb84.csv": lambda: csv_record(header={**HEADER, "protocol": "bb84"}),
    "header-protocol-bb84.jsonl": lambda: json_record(header={**HEADER, "protocol": "bb84"}),
    "header-v-beyond-float.jsonl": lambda: json_record(header={**HEADER, "v": 10 ** 400}),
    "header-seed-object.jsonl": lambda: json_record(header={**HEADER, "seed": {"n": 1}}),
    "header-seed-5001-digits.jsonl": lambda: json_record().replace(
        '"seed": 0', '"seed": 1' + "0" * 5000),
    "row-a-object.jsonl": lambda: json_record(rows=second_row_a({"x": 1})),
    "row-a-empty-object.jsonl": lambda: json_record(rows=second_row_a({})),
}


#: CSV records whose header separates two items as str.split() would, but dumps never does
SPACED_HEADERS = {
    "header-double-space.csv": lambda: csv_record().replace(" sifting=", "  sifting="),
    "header-tab.csv": lambda: csv_record().replace(" sifting=", "\tsifting="),
}


#: config files of the config cases: an integer of 5001 digits and a repeated key
CONFIGS = {
    "huge-integer": '{"l": 100, "seed": 1' + "0" * 5000 + "}\n",
    "repeated-key": '{"l": 100, "seed": 1, "seed": 2}\n',
}


def run():
    os.environ.pop("CVQKD_OUT_DIR", None)
    runner = CliRunner()
    with runner.isolated_filesystem() as tmp:
        root = Path(tmp)
        (root / "binary.dat").write_bytes(b"\xff\xfe\x00 not utf-8\n")
        (root / "binary-line-2.csv").write_bytes(
            b"#cvqkd-record protocol=squeezed_homodyne n=1 l=1\n0,0,1.5\xff,2.0,q,q,1\n")
        (root / "config.json").write_text(
            '{"protocol": "coherent_heterodyne", "v": 12, "t": 0.7, "eps": 0.1,'
            ' "shape": "uniform", "n": 3, "l": 100, "format": "json-lines"}\n')
        (root / "config-seed.json").write_text('{"l": 100, "seed": -1}\n')
        (root / "header-valid.csv").write_text(csv_record())
        (root / "header-unknown.csv").write_text(csv_record(" bogus=7"))
        (root / "header-repeated.csv").write_text(csv_record(" seed=1"))
        (root / "header-float-n.jsonl").write_text(json_record({**HEADER, "n": 1.5}))
        (root / "header-shape-repeated.csv").write_text(
            csv_record(header={**HEADER, "t": 0.5, "shape": REPEATED_SHAPE}))
        for name, (fields, rows) in {**RANGE_HEADERS, **CHANNEL_HEADERS}.items():
            for ext, write in (("csv", csv_record), ("jsonl", json_record)):
                (root / f"header-{name}.{ext}").write_text(
                    write(header={**HEADER, **fields}, rows=rows))
        for name, text in {**LENIENT_RECORDS, **MALFORMED_RECORDS, **UNCONVERTED_RECORDS,
                           **SPACED_HEADERS}.items():
            (root / name).write_text(text())
        for name, text in CONFIGS.items():
            (root / f"config-{name}.json").write_text(text)
        (root / "memory-labels-disagree.csv").write_text(csv_record(rows=third_row("q", "p", 0)))
        header, first, *rows = json_record().splitlines(keepends=True)
        (root / "row-repeated-key.jsonl").write_text(
            "".join([header, first.replace("}", ', "a": 1.5}'), *rows]))
        before = snapshot(root)
        for label, argv in commands():
            result = runner.invoke(main, argv)
            after = snapshot(root)
            written = [f"{name}={digest}" for name, digest in after.items()
                       if before.get(name) != digest]
            before = after
            exc = result.exception
            status = f"exit={result.exit_code}"
            if exc is not None and not isinstance(exc, SystemExit):
                status += f" {type(exc).__name__}"
            print(label, status, f"stdout={sha256(result.stdout_bytes)}",
                  f"stderr={sha256(result.stderr_bytes)}", *written)


if __name__ == "__main__":
    run()
