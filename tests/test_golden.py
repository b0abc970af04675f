"""Exact bytes of the closed-form CLI outputs and of serialized records.

`sweep` and `rate --cov` evaluate the bounds with Python float arithmetic
only, so their bytes do not depend on numpy's random streams. The digests
below pin them: regrouping a sum or reordering a division changes a last
bit that every tolerance-based test lets through. The record digests pin
both text formats of fixed-seed sessions, row codec and header alike, and
of one session whose discarded rows hold nan, inf and -inf.
The CLI digests pin `simulate` (stdout and record) for both protocols in
both sifting modes, `rate --record` on one of those records, and the
`verify --scope discrete` and `verify --scope statistical` manifests.
The column digests pin sessions of three chunks, whose chunks run on as
many cores as the process may use.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cvqkd import (
    ChannelModel,
    DiscreteDisplacement,
    EprSource,
    ProtocolKind,
    SiftingMode,
    TwoComponentMixture,
    run_session,
)
from cvqkd.cli import main
from cvqkd.records import dumps
from cvqkd.simulator import CHUNK_PULSES

#: sweep arguments, with the sha256 of the CSV table and of the plot JSON
SWEEPS = {
    "t": (["--param", "t", "--start", "0.05", "--stop", "1.0", "--steps", "12",
           "--eps", "0.05"],
          "b937fe090c6eabdf1cc6ec52b4ae51cde077e3b32d474c819430f15de21994c7",
          "d50d1e14245b21805264bc270d87389d5b9d36cf8ab5a566fa1a75d233c4fe5b"),
    "eps": (["--param", "eps", "--start", "0", "--stop", "0.6", "--steps", "13",
             "--t", "0.8", "--v", "12"],
            "70af6ed046879ac3c711eda191969c8548743d82b373517f39d30492b6f813f0",
            "f62f79b4308ebedf06607832e329b0373fe2b0d94a04fb2e28776454ab18fe1d"),
    "beta": (["--param", "beta", "--start", "0.8", "--stop", "1", "--steps", "5",
              "--t", "0.6", "--eps", "0.02"],
             "5555fb689f50fb86d779a929268b0d36c9ff86d4f1c4b11f7abe8ca04fae020c",
             "c5a98b3c04a5b860ec3769a4478e78eaa98a0de9c7107d747df3d820d581dad3"),
    "t-displacement": (["--param", "t", "--start", "0.3", "--stop", "0.9", "--steps", "7",
                        "--eps", "0.1"],
                       "ccab27375c5d91c366efde6aa9d353456762fed94d316975754d8c94258477a4",
                       "f6ff30ef2786fa8e2c4e58d99b01ef5db1eb880699a56a2c733a2a0e0f9e8817"),
    # the heterodyne transform is undefined at v = 1 only, so one row leaves its
    # coherent cells empty and the others fill them
    "v-printed": (["--param", "v", "--start", "1", "--stop", "40", "--steps", "14",
                   "--t", "0.4", "--eps", "0.05"],
                  "671023a3cf6953f16048e18921f43e3bb2f7f28c1d94236aa3dfc3287cbe4580",
                  "02235c08c1b18b8d7c4602208fae0af57145bed146be9082fe18b10f3ca0ac78"),
    "eps-1000": (["--param", "eps", "--start", "0", "--stop", "0.5", "--steps", "1000",
                  "--t", "0.7", "--v", "15", "--beta", "0.95"],
                 "549612fa9fba14e05aba645e4f8d99a41672378179c1873b2da22803828dee9d",
                 "27b4a8ccbbaa5bfc829c85119beea2d3244938bc7bdd897ae37cd7d7e38bfa7e"),
}

#: config files of the sweeps above that take one: a config may name a noise
#: shape, which a sweep does not read, since its table depends on second moments only
SWEEP_CONFIGS = {"t-displacement": {"shape": "displacement"}}

#: rate --cov arguments, with the sha256 of the JSON report on stdout
RATES = {
    "squeezed": (["--cov", "20,10.5,14.124446891825535",
                  "--protocol", "squeezed_homodyne", "--beta", "0.9"],
                 "0e99990aa476feabb4daf1fd9d51c4755aad57a8a84f60db4db05f3fa0252b42"),
    "coherent-printed": (["--cov", "10.5,10.5,9.0",
                          "--protocol", "coherent_heterodyne", "--beta", "0.95",
                          "--n", "4"],
                         "f58592f0c649ac45d3e6f4a17a6a297b2ecfa93e1d72b1045cabf3b00dbc6582"),
    "coherent-beamsplitter": (["--cov", "10.5,10.5,9.987492177719089",
                               "--protocol", "coherent_heterodyne", "--beta", "0.93"],
                              "3b4c6f7cc1c1debce852f84c5f6de54d55f39953c8eafda85e5b544eada98211"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_bytes(name, tmp_path):
    args, csv_digest, json_digest = SWEEPS[name]
    if name in SWEEP_CONFIGS:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SWEEP_CONFIGS[name]))
        args = [*args, "--config", str(config)]
    csv_out, json_out = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    result = CliRunner().invoke(main, ["sweep", *args, "--out", str(csv_out),
                                       "--plot-out", str(json_out)])
    assert result.exit_code == 0, result.output
    assert sha256(csv_out.read_bytes()) == csv_digest
    assert sha256(json_out.read_bytes()) == json_digest


@pytest.mark.parametrize("name", sorted(RATES))
def test_rate_json_bytes(name):
    args, digest = RATES[name]
    result = CliRunner().invoke(main, ["rate", *args, "--format", "json"])
    assert result.exit_code == 0, result.output
    assert sha256(result.stdout_bytes) == digest


#: run_session arguments, with the sha256 of the csv and json-lines records
RECORDS = {
    "squeezed-random-basis": (
        dict(src=EprSource(20.0), ch=ChannelModel(0.5, 0.05),
             protocol=ProtocolKind.SQUEEZED_HOMODYNE, n=1, l=300,
             sifting_mode=SiftingMode.RANDOM_BASIS, rng_seed=7),
        "2f0a0b867df9b38bc4ca3e07294e7d9ee8f438fa547390c73ee58ce3504750e5",
        "9f7805ad2038e4b3914be5fed142d448500d092413775c4c7f3b957b59195557"),
    "heterodyne-block-memory": (
        dict(src=EprSource(12.0), ch=ChannelModel(0.7, 0.1, rho_block=0.4),
             protocol=ProtocolKind.COHERENT_HETERODYNE, n=5, l=60,
             sifting_mode=SiftingMode.QUANTUM_MEMORY, rng_seed=8),
        "a2cdffe8f0a11851f9bc806208d96106496636dfe2544eded898c05f1ea04625",
        "9be47fb26d1d8ce7962fabb6ffedf5bb4302d34e0ca72c70e0ba8ac20c8b9e34"),
    "mixture-blocks": (
        dict(src=EprSource(9.0),
             ch=ChannelModel(0.6, 0.1, TwoComponentMixture.matching(0.46)),
             protocol=ProtocolKind.SQUEEZED_HOMODYNE, n=3, l=100, rng_seed=9),
        "241e0999e735524ce602cc684a31f6bf5e389e8504fe3ad35648ccb9b7d48321",
        "e16e0e19db936cb73cace215f97f37c7646103ea69a289ca5751c6a82770b38b"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_bytes(name):
    session, csv_digest, jsonl_digest = RECORDS[name]
    record = run_session(**session)
    assert sha256(dumps(record, "csv").encode()) == csv_digest
    assert sha256(dumps(record, "json-lines").encode()) == jsonl_digest


#: sha256 of the csv and json-lines records of the session below
NON_FINITE_DIGESTS = ("1710382f59cb96351222b1d4b43e8acde6e790d180fc6402e1f53cb18bb60685",
                      "63f122dee9621fa042e43ca4875e7b6be838f82340c6cc951348840205ae2657")


def test_non_finite_discarded_record_bytes():
    # a record may hold non-finite values in discarded rows; json-lines writes
    # them as NaN, Infinity and -Infinity. They all sit past row 2**14, after
    # a run of finite rows
    record = run_session(EprSource(20.0), ChannelModel(0.5, 0.05),
                         ProtocolKind.SQUEEZED_HOMODYNE, n=1, l=20_000,
                         sifting_mode=SiftingMode.RANDOM_BASIS, rng_seed=12)
    a, b = record.a.copy(), record.b.copy()
    discarded = np.flatnonzero(~record.kept)
    late = discarded[discarded >= 2**14][:6]
    a[late] = [np.nan, np.inf, -np.inf, np.nan, np.inf, -np.inf]
    b[late] = [-np.inf, np.nan, np.inf, 1.5, -np.inf, np.nan]
    record = dataclasses.replace(record, a=a, b=b)
    digests = tuple(sha256(dumps(record, fmt).encode()) for fmt in ("csv", "json-lines"))
    assert digests == NON_FINITE_DIGESTS


#: noise variance of the multi-chunk channels with a non-Gaussian shape
MULTI_CHUNK_NOISE = ChannelModel(0.6, 0.1).noise_variance()

#: run_session arguments of sessions of three chunks, the last one partial,
#: with the sha256 of the five columns' bytes in record order
MULTI_CHUNK = {
    "homodyne-random-basis": (
        dict(src=EprSource(20.0), ch=ChannelModel(0.5, 0.05),
             protocol=ProtocolKind.SQUEEZED_HOMODYNE, n=1, l=530_000,
             sifting_mode=SiftingMode.RANDOM_BASIS, rng_seed=101),
        "938eeb6d383f3c8ffe74f934615c08f2f9e6030f3a8925eade6f566330951a4d"),
    "homodyne-memory-n3-mixture": (
        dict(src=EprSource(20.0),
             ch=ChannelModel(0.6, 0.1, TwoComponentMixture.matching(MULTI_CHUNK_NOISE)),
             protocol=ProtocolKind.SQUEEZED_HOMODYNE, n=3, l=180_000,
             sifting_mode=SiftingMode.QUANTUM_MEMORY, rng_seed=102),
        "fcbbd2804a448010aafb544526344baceac2982f5ba93b2289d6de875b78e725"),
    "heterodyne-random-basis-n3-rho": (
        dict(src=EprSource(20.0), ch=ChannelModel(0.7, 0.1, rho_block=0.4),
             protocol=ProtocolKind.COHERENT_HETERODYNE, n=3, l=180_000,
             sifting_mode=SiftingMode.RANDOM_BASIS, rng_seed=103),
        "53f89a4cbf0ba4cdaa89e544413d832004dfa0f69ae6db953e8ee9cfe0ed1cf2"),
    "heterodyne-memory-displacement": (
        dict(src=EprSource(20.0),
             ch=ChannelModel(0.6, 0.1, DiscreteDisplacement.matching(MULTI_CHUNK_NOISE)),
             protocol=ProtocolKind.COHERENT_HETERODYNE, n=1, l=530_000,
             sifting_mode=SiftingMode.QUANTUM_MEMORY, rng_seed=104),
        "60e2d8ffce7a0b131db5f5cdc99d34459fea85927aa0e235d7f60d09eca2e772"),
}


@pytest.mark.parametrize("name", sorted(MULTI_CHUNK))
def test_multi_chunk_column_bytes(name):
    session, digest = MULTI_CHUNK[name]
    blocks_per_chunk = CHUNK_PULSES // session["n"]
    assert 2 * blocks_per_chunk < session["l"] < 3 * blocks_per_chunk
    record = run_session(**session)
    columns = (record.a, record.b, record.label_a, record.label_b, record.kept)
    assert sha256(b"".join(column.tobytes() for column in columns)) == digest


#: simulate arguments shared by every protocol and sifting mode pinned below
SIMULATE_ARGS = ["--v", "20", "--t", "0.5", "--eps", "0.05", "--n", "2", "--l", "150",
                 "--seed", "11", "--out", "rec.csv"]

#: (protocol, sifting), with the sha256 of simulate's stdout and of the record
SIMULATIONS = {
    ("squeezed_homodyne", "random_basis"): (
        "c78a7e17da126c17ea2ed1a409a07c8a120d742ff365c921f5b904786d69d106",
        "cc436ad8ed54a0961e3426486309ab36a48b31213d7ab3bec679b9007253e851"),
    ("squeezed_homodyne", "quantum_memory"): (
        "ea6ab2a82a625200a44e5213890f82878b18f58ab636a5e5bb40cf9b4ee411d7",
        "103169a18ae79a64083482cbd84a739fc54303a666d62454932dceaeb978f1a2"),
    ("coherent_heterodyne", "random_basis"): (
        "662738efc060577191ff41b9ff9ae90d99ea62ba4847b9647b19ccc806da2544",
        "4e1d3b87fc5c24337bb7b5d1bef62c8b24113019299516f2d205779c12ae4de9"),
    ("coherent_heterodyne", "quantum_memory"): (
        "1d0e93e15bde2fadf61d7220bec9c59d95f0cf58148e8163defd191640e42891",
        "eaddc82dc58f6df70f53393d952b2c3681bd08364305c3a88757e48de327b0ff"),
}

#: sha256 of `rate --record` text output on the squeezed random-basis record
RATE_RECORD_DIGEST = "67a501c10bb6221e1f1d95663fcd8f1d5dd149c8cb11179d93227d1afa7e201d"

#: sha256 of the `verify --scope discrete --trials 200` manifest
VERIFY_DISCRETE_DIGEST = "d1a2a3433433d858c0d85b7e45bc79e7603541f71e01db76d3f33cab0f5c7fa5"

#: sha256 of the `verify --scope statistical --pulses 20000` manifest
VERIFY_STATISTICAL_DIGEST = "e39503ec58597cdd1b9be3609e78599c6e4ace7c81c176b764b9c202e3c407e9"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A runner inside an empty directory, so output paths print relative."""
    monkeypatch.delenv("CVQKD_OUT_DIR", raising=False)
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path) as path:
        yield runner, Path(path)


@pytest.mark.parametrize("protocol, sifting", sorted(SIMULATIONS))
def test_simulate_bytes(workdir, protocol, sifting):
    runner, path = workdir
    result = runner.invoke(main, ["simulate", "--protocol", protocol,
                                  "--sifting", sifting, *SIMULATE_ARGS])
    assert result.exit_code == 0, result.output
    stdout_digest, record_digest = SIMULATIONS[protocol, sifting]
    assert sha256(result.stdout_bytes) == stdout_digest
    assert sha256((path / "rec.csv").read_bytes()) == record_digest
    if (protocol, sifting) == ("squeezed_homodyne", "random_basis"):
        rate = runner.invoke(main, ["rate", "--record", "rec.csv"])
        assert rate.exit_code == 0, rate.output
        assert sha256(rate.stdout_bytes) == RATE_RECORD_DIGEST


def test_verify_discrete_manifest_bytes(workdir):
    runner, path = workdir
    result = runner.invoke(main, ["verify", "--scope", "discrete", "--trials", "200",
                                  "--out", "manifest.json"])
    assert result.exit_code == 0, result.output
    assert sha256((path / "manifest.json").read_bytes()) == VERIFY_DISCRETE_DIGEST


def test_verify_statistical_manifest_bytes(workdir):
    runner, path = workdir
    result = runner.invoke(main, ["verify", "--scope", "statistical", "--pulses", "20000",
                                  "--out", "manifest.json"])
    assert result.exit_code == 0, result.output
    assert sha256((path / "manifest.json").read_bytes()) == VERIFY_STATISTICAL_DIGEST
