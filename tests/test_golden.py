"""Exact bytes of the closed-form CLI outputs.

`sweep` and `rate --cov` evaluate the bounds with Python float arithmetic
only, so their bytes do not depend on numpy's random streams. The digests
below pin them: regrouping a sum or reordering a division changes a last
bit that every tolerance-based test lets through.
"""

import hashlib

import pytest
from click.testing import CliRunner

from cvqkd.cli import main

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
                        "--eps", "0.1", "--shape", "displacement",
                        "--transform", "printed"],
                       "b0aca4545affa6b9ae966b95f24e2dbd966afc70a2aa34104d151f832262a795",
                       "bfe5b92b9bcc044f25e823e6ed8bb783cf2a891bf6b2661bf068c6f5e72c3c70"),
}

#: rate --cov arguments, with the sha256 of the JSON report on stdout
RATES = {
    "squeezed": (["--cov", "20,10.5,14.124446891825535",
                  "--protocol", "squeezed_homodyne", "--beta", "0.9"],
                 "0e99990aa476feabb4daf1fd9d51c4755aad57a8a84f60db4db05f3fa0252b42"),
    "coherent-printed": (["--cov", "10.5,10.5,9.0",
                          "--protocol", "coherent_heterodyne", "--beta", "0.95",
                          "--n", "4"],
                         "08c6957b0d1ebcf790fffe089b3bc8ea2183cadec826067ebcf31e26fe964b3c"),
    "coherent-beamsplitter": (["--cov", "10.5,10.5,9.987492177719089",
                               "--protocol", "coherent_heterodyne", "--beta", "0.93",
                               "--transform", "beamsplitter"],
                              "3b4c6f7cc1c1debce852f84c5f6de54d55f39953c8eafda85e5b544eada98211"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_bytes(name, tmp_path):
    args, csv_digest, json_digest = SWEEPS[name]
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
