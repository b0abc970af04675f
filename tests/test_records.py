import dataclasses
import json
import os
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkd import (
    ChannelModel,
    DiscreteDisplacement,
    EprSource,
    ParseError,
    ProtocolKind,
    SiftingMode,
    TwoComponentMixture,
    UniformNoise,
    read_record,
    run_session,
    write_record,
)
from cvqkd import records
from cvqkd.cli import main
from cvqkd.records import ROW_KEYS, dumps, loads, shape_from_string, shape_to_string
from cvqkd.simulator import SHAPE_KINDS


@pytest.fixture(scope="module")
def record():
    return run_session(
        EprSource(9.0), ChannelModel(0.6, 0.25), ProtocolKind.SQUEEZED_HOMODYNE,
        n=5, l=40, sifting_mode=SiftingMode.RANDOM_BASIS, rng_seed=21)


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
class TestRoundTrip:
    def test_preserves_data(self, record, fmt):
        back = loads(dumps(record, fmt))
        assert np.array_equal(back.a, record.a)
        assert np.array_equal(back.b, record.b)
        assert np.array_equal(back.label_a, record.label_a)
        assert np.array_equal(back.label_b, record.label_b)
        assert np.array_equal(back.kept, record.kept)

    def test_pooled_column_round_trips_bit_for_bit(self, record, fmt):
        # Bob's pooled values come back byte for byte, signed zeros and discarded
        # infinities included, with LF and with CRLF line ends
        pooled = record.pooled_b.copy()
        kept, discarded = np.flatnonzero(record.kept), np.flatnonzero(~record.kept)
        pooled[kept[:6]] = [0.0, -0.0] * 3
        pooled[discarded[:2]] = [np.inf, -np.inf]
        text = dumps(dataclasses.replace(record, pooled_b=pooled), fmt)
        for back in (loads(text), loads(text.replace("\n", "\r\n"))):
            assert back.pooled_b.tobytes() == pooled.tobytes()

    def test_replaced_labels_write_their_own_flags(self, record, fmt):
        # a record whose labels are replaced writes the flags of its new labels,
        # so the file loads and keeps every pulse whose labels agree
        agreed = dataclasses.replace(record, label_b=record.label_a.copy())
        back = loads(dumps(agreed, fmt))
        assert np.array_equal(back.kept, back.label_a == back.label_b)
        assert back.kept.all()
        assert len(back.samples()) == back.total_pulses

    def test_preserves_configuration(self, record, fmt):
        back = loads(dumps(record, fmt))
        assert back.n == record.n and back.l == record.l
        assert back.protocol == record.protocol
        assert back.sifting_mode == record.sifting_mode
        assert back.seed == record.seed
        assert back.source == record.source
        assert back.channel == record.channel

    def test_reserialization_is_byte_identical(self, record, fmt):
        text = dumps(record, fmt)
        assert dumps(loads(text), fmt) == text

    def test_leading_blank_line(self, record, fmt):
        # the header is the first line, so a blank line before it is not a record
        with pytest.raises(ParseError, match="^not a cvqkd record: unrecognized first line$"):
            loads("\n" + dumps(record, fmt))

    def test_file_round_trip(self, record, fmt, tmp_path):
        path = write_record(record, tmp_path / "rec.dat", fmt)
        back = read_record(path)
        assert np.array_equal(back.a, record.a)


class TestShapeStrings:
    @pytest.mark.parametrize("shape", [
        TwoComponentMixture(0.25, 0.75, 0.4, 1.2),
        UniformNoise(2.5),
        DiscreteDisplacement(1.25, 0.5),
    ])
    def test_round_trip(self, shape):
        assert shape_from_string(shape_to_string(shape)) == shape

    def test_gaussian(self):
        assert shape_to_string(shape_from_string("gaussian")) == "gaussian"

    def test_unknown_shape(self):
        with pytest.raises(ParseError):
            shape_from_string("pink")

    def test_missing_parameter(self):
        with pytest.raises(ParseError, match="is missing 'halfwidth'"):
            shape_from_string("uniform:width=1.0")

    @pytest.mark.parametrize("text, key", [
        ("gaussian:foo=1", "foo"),
        ("uniform:halfwidth=1.0,bogus=7", "bogus"),
    ])
    def test_unknown_parameter(self, text, key):
        with pytest.raises(ParseError, match=f"has unknown key '{key}'"):
            shape_from_string(text)


    def test_repeated_parameter(self):
        with pytest.raises(ParseError, match="^noise shape 'uniform:halfwidth=1.0,halfwidth=1.0' "
                                             "repeats 'halfwidth'$"):
            shape_from_string("uniform:halfwidth=1.0,halfwidth=1.0")


class TestParseErrors:
    def test_not_a_record(self):
        with pytest.raises(ParseError):
            loads("hello world\n1,2,3\n")

    def test_truncated_csv_line(self, record):
        text = dumps(record, "csv")
        lines = text.splitlines()
        lines[3] = "0,0,1.5"
        with pytest.raises(ParseError):
            loads("\n".join(lines))

    def test_bad_float(self, record):
        text = dumps(record, "csv")
        lines = text.splitlines()
        parts = lines[1].split(",")
        parts[2] = "not-a-number"
        lines[1] = ",".join(parts)
        with pytest.raises(ParseError):
            loads("\n".join(lines))

    def test_bad_header_value(self, record):
        text = dumps(record, "csv")
        lines = text.splitlines()
        lines[0] = lines[0].replace("t=0.6", "t=maybe")
        with pytest.raises(ParseError):
            loads("\n".join(lines))

    def test_nan_header_value(self, record):
        lines = dumps(record, "csv").splitlines()
        lines[0] = lines[0].replace("v=9.0", "v=nan")
        with pytest.raises(ParseError, match="below the vacuum"):
            loads("\n".join(lines))

    def test_foreign_json_lines(self):
        with pytest.raises(ParseError):
            loads(json.dumps({"record": "other"}) + "\n")

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_unknown_sifting_mode(self, record, fmt):
        lines = dumps(record, fmt).splitlines()
        lines[0] = lines[0].replace("random_basis", "bogus_mode")
        with pytest.raises(ParseError, match="bogus_mode"):
            loads("\n".join(lines))

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_kept_flags_contradicting_labels(self, record, fmt):
        lines = dumps(record, fmt).splitlines()
        lines[1:] = [_edit_row(line, fmt, kept=lambda k: 1 - k) for line in lines[1:]]
        with pytest.raises(ParseError, match="line 2: kept flag"):
            loads("\n".join(lines))

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("column", ["a", "b"])
    def test_non_finite_kept_value(self, record, fmt, column):
        row = int(np.flatnonzero(record.kept)[1])
        lines = dumps(record, fmt).splitlines()
        lines[row + 1] = _edit_row(lines[row + 1], fmt, **{column: lambda v: float("nan")})
        with pytest.raises(ParseError, match=f"line {row + 2}: kept pulse has a non-finite"):
            loads("\n".join(lines))

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("edit", [pytest.param({"a": lambda v: "x"}, id="bad-float"),
                                      pytest.param({"kept": lambda k: 1 - k}, id="bad-kept-flag")])
    def test_error_cites_file_line_after_blank_line(self, record, fmt, edit):
        # a blank line is not a row: it is the fault named, at its own file line,
        # before the fault of the row after it (now file line 7)
        lines = dumps(record, fmt).splitlines()
        lines[5] = _edit_row(lines[5], fmt, **edit)
        lines.insert(3, "")
        with pytest.raises(ParseError, match="^line 4: not a row as cvqkd writes it$"):
            loads("\n".join(lines))

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_quantum_memory_labels_disagree(self, fmt):
        # under quantum_memory sifting Bob measures Alice's quadrature, so every
        # pulse's labels agree; a row whose labels differ is refused, kept flag or not
        rows = [(0, 0, 1.5, 1.25, "q", "q", 1), (1, 0, -2.0, -1.5, "q", "p", 0)]
        with pytest.raises(ParseError,
                           match="^line 3: labels disagree under quantum_memory sifting$"):
            loads(_hand_record(fmt, rows))
        back = loads(_hand_record(fmt, rows, sifting="random_basis"))
        assert back.kept.tolist() == [True, False]

    @pytest.mark.parametrize("fmt, key, value, problem", [
        pytest.param(*case, id=f"{case[0]}-{case[1]}={case[2]!r:.12}") for case in [
            ("csv", "kept", "7", "kept must be 0 or 1, got '7'"),
            ("csv", "kept", "01", "kept must be 0 or 1, got '01'"),
            ("csv", "block", "zzz", "invalid literal for int() with base 10: 'zzz'"),
            ("csv", "block", "-5", "block and pulse do not follow the row's position"),
            ("csv", "pulse", "1", "block and pulse do not follow the row's position"),
            ("csv", "block", "9" * 20, "Python int too large to convert to C long"),
            ("json-lines", "kept", "0", "kept must be an integer, got '0'"),
            ("json-lines", "kept", True, "kept must be an integer, got True"),
            ("json-lines", "kept", 1.0, "kept must be an integer, got 1.0"),
            ("json-lines", "kept", 7, "kept must be 0 or 1, got 7"),
            ("json-lines", "a", "1.5", "a must be a number, got '1.5'"),
            ("json-lines", "b", False, "b must be a number, got False"),
            ("json-lines", "a", 10 ** 400, "int too large to convert to float"),
            ("json-lines", "block", "0", "block must be an integer, got '0'"),
            ("json-lines", "pulse", 3, "block and pulse do not follow the row's position"),
            ("csv", "label_a", "Q", "label_a must be 'q' or 'p', got 'Q'"),
            ("csv", "label_b", "x", "label_b must be 'q' or 'p', got 'x'"),
            ("json-lines", "label_a", 0, "label_a must be 'q' or 'p', got 0"),
            ("json-lines", "label_b", "Q", "label_b must be 'q' or 'p', got 'Q'"),
        ]])
    def test_strict_row_field(self, record, fmt, key, value, problem):
        # file line 6 holds block 0, pulse 4 (n = 5), whose kept flag and
        # values are otherwise valid
        lines = dumps(record, fmt).splitlines()
        if fmt == "csv":
            parts = lines[5].split(",")
            parts[CSV_COLUMNS.index(key)] = value
            lines[5] = ",".join(parts)
        else:
            lines[5] = json.dumps({**json.loads(lines[5]), key: value})
        with pytest.raises(ParseError, match=re.escape(f"line 6: {problem}")):
            loads("\n".join(lines))

    @pytest.mark.parametrize("row", ["[1, 2]", "3", '"x"', "null"])
    def test_json_row_not_an_object(self, record, row):
        lines = dumps(record, "json-lines").splitlines()
        lines[2] = row
        with pytest.raises(ParseError, match="line 3: expected a JSON object"):
            loads("\n".join(lines))

    @pytest.mark.parametrize("item, problem", [
        ('"a": 1.5', "repeated key 'a'"), ('"x": 5', "unknown key 'x'"),
    ], ids=["repeated", "unknown"])
    def test_json_row_keys(self, record, item, problem):
        # the rules of the header's keys hold for every row too
        lines = dumps(record, "json-lines").splitlines()
        lines[2] = lines[2].removesuffix("}") + f", {item}}}"
        with pytest.raises(ParseError, match=f"^{re.escape(f'line 3: {problem}')}$"):
            loads("\n".join(lines))

    @pytest.mark.parametrize("key, value, problem", [
        ("a", {"x": 1}, "a must be a number, got {'x': 1}"),
        ("a", {}, "a must be a number, got {}"),
        ("label_a", {"q": 1}, "label_a must be 'q' or 'p', got {'q': 1}"),
    ], ids=["a-object", "a-empty-object", "label-object"])
    def test_json_row_nested_object(self, record, key, value, problem):
        # the row-key rules hold for the row object, not for objects inside its values
        lines = dumps(record, "json-lines").splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), key: value})
        with pytest.raises(ParseError, match=f"^{re.escape(f'line 3: {problem}')}$"):
            loads("\n".join(lines))

    @pytest.mark.parametrize("key", ROW_KEYS)
    def test_json_row_missing_key(self, record, key):
        lines = dumps(record, "json-lines").splitlines()
        lines[2] = json.dumps({k: v for k, v in json.loads(lines[2]).items() if k != key})
        with pytest.raises(ParseError, match=f"^{re.escape(f'line 3: missing key {key!r}')}$"):
            loads("\n".join(lines))

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("rows", [0, 199], ids=["header-only", "last-row-dropped"])
    def test_truncated_record(self, record, fmt, rows):
        lines = dumps(record, fmt).splitlines()[:rows + 1]
        with pytest.raises(ParseError, match=rf"{rows} pulse rows, .* n\*l = 5\*40 = 200"):
            loads("\n".join(lines))

    def test_non_finite_discarded_value_loads(self, record):
        row = int(np.flatnonzero(~record.kept)[0])
        lines = dumps(record, "csv").splitlines()
        lines[row + 1] = _edit_row(lines[row + 1], "csv", a=lambda v: float("inf"))
        assert np.isinf(loads("\n".join(lines)).a[row])


def _with_header_item(text: str, fmt: str, key: str, value) -> str:
    """A record whose header gains one more item, as dumps would write it."""
    lines = text.splitlines()
    if fmt == "csv":
        lines[0] += f" {key}={value}"
    else:
        lines[0] = lines[0][:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}"
    return "\n".join(lines)


class TestHeaderRules:
    """A header holds exactly the keys dumps writes, each once; in
    json-lines each value has the JSON type dumps writes."""

    @pytest.mark.parametrize("fmt, key, value", [
        ("csv", "bogus", 7), ("json-lines", "bogus", 7), ("csv", "record", "cvqkd"),
    ], ids=["csv", "json-lines", "csv-record"])
    def test_unknown_key(self, record, fmt, key, value):
        with pytest.raises(ParseError, match=f"bad record header: unknown key '{key}'"):
            loads(_with_header_item(dumps(record, fmt), fmt, key, value))

    @pytest.mark.parametrize("fmt, key, value", [
        ("csv", "seed", 22), ("json-lines", "seed", 22), ("json-lines", "record", "cvqkd"),
    ], ids=["csv", "json-lines", "json-lines-record"])
    def test_repeated_key(self, record, fmt, key, value):
        # the later value used to win
        with pytest.raises(ParseError, match=f"bad record header: repeated key '{key}'"):
            loads(_with_header_item(dumps(record, fmt), fmt, key, value))

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("dropped, named", [
        (("seed",), "seed"), (("rho_block", "seed"), "seed"), (("seed", "n"), "n"),
        (("v", "protocol"), "protocol"),
    ])
    def test_missing_key(self, record, fmt, dropped, named):
        # the first missing key in the order dumps writes them is named
        lines = dumps(record, fmt).splitlines()
        if fmt == "csv":
            lines[0] = " ".join(item for item in lines[0].split()
                                if item.partition("=")[0] not in dropped)
        else:
            lines[0] = json.dumps({key: value for key, value in json.loads(lines[0]).items()
                                   if key not in dropped})
        with pytest.raises(ParseError, match=f"^bad record header: missing key '{named}'$"):
            loads("\n".join(lines))

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_repeated_shape_key(self, fmt):
        # refused as a repeated header key is, in both formats
        shape = UniformNoise.matching(0.5)
        session = run_session(EprSource(20.0), ChannelModel(0.5, 0.0, shape),
                              ProtocolKind.SQUEEZED_HOMODYNE, n=1, l=10,
                              sifting_mode=SiftingMode.QUANTUM_MEMORY, rng_seed=0)
        spec = shape_to_string(shape)
        repeated = spec.replace(":", ":halfwidth=9,")
        text = dumps(session, fmt)
        assert text.count(spec) == 1
        with pytest.raises(ParseError, match=re.escape(
                f"bad record header: noise shape {repeated!r} repeats 'halfwidth'")):
            loads(text.replace(spec, repeated))

    @pytest.mark.parametrize("key, value, problem", [
        ("n", 5.9, "n must be an integer, got 5.9"),
        ("l", 40.0, "l must be an integer, got 40.0"),
        ("seed", 21.5, "seed must be an integer, got 21.5"),
        ("n", True, "n must be an integer, got True"),
        ("v", "9.0", "v must be a number, got '9.0'"),
        ("eps", None, "eps must be a number, got None"),
        ("shape", ["gaussian"], "shape must be a string, got ['gaussian']"),
    ], ids=["n-float", "l-whole-float", "seed-float", "n-bool", "v-string", "eps-null",
            "shape-array"])
    def test_json_header_value_of_wrong_type(self, record, key, value, problem):
        lines = dumps(record, "json-lines").splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), key: value})
        with pytest.raises(ParseError, match=re.escape(f"bad record header: {problem}")):
            loads("\n".join(lines))

    @pytest.mark.parametrize("key, value, problem", [
        ("seed", {"n": 1}, "seed must be an integer, got {'n': 1}"),
        ("shape", {"kind": "gaussian"}, "shape must be a string, got {'kind': 'gaussian'}"),
        ("v", 10 ** 400, "v must be a number, got 1" + "0" * 400),
    ], ids=["seed-object", "shape-object", "v-beyond-float"])
    def test_json_header_value_that_does_not_convert(self, record, key, value, problem):
        lines = dumps(record, "json-lines").splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), key: value})
        with pytest.raises(ParseError, match=f"^{re.escape(f'bad record header: {problem}')}$"):
            loads("\n".join(lines))

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="json converts integers of any length")
    def test_json_header_integer_of_too_many_digits(self, record):
        # json refuses it with a ValueError that is not a JSONDecodeError
        lines = dumps(record, "json-lines").splitlines()
        digits = "1" + "0" * sys.get_int_max_str_digits()
        lines[0] = json.dumps({**json.loads(lines[0]), "seed": 0}).replace(
            '"seed": 0', f'"seed": {digits}')
        with pytest.raises(ParseError, match="^bad json-lines header: Exceeds the limit"):
            loads("\n".join(lines))

    @pytest.mark.parametrize("key, value, problem", [
        ("v", "abc", "v must be a number, got 'abc'"),
        ("t", "", "t must be a number, got ''"),
        ("n", "1e3", "n must be an integer, got '1e3'"),
        ("seed", "21.0", "seed must be an integer, got '21.0'"),
    ], ids=["v-word", "t-empty", "n-exponent", "seed-float"])
    def test_csv_header_value_that_does_not_convert(self, record, key, value, problem):
        # named as a json-lines value of the wrong type is
        lines = dumps(record, "csv").splitlines()
        lines[0] = " ".join(f"{key}={value}" if item.partition("=")[0] == key else item
                            for item in lines[0].split())
        with pytest.raises(ParseError, match=f"^{re.escape(f'bad record header: {problem}')}$"):
            loads("\n".join(lines))

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("key, value, choices", [
        ("protocol", "bb84", "squeezed_homodyne or coherent_heterodyne"),
        ("sifting", "sometimes", "random_basis or quantum_memory"),
    ])
    def test_header_choice_names_the_choices(self, record, fmt, key, value, choices):
        text = dumps(record, fmt)
        current = {"protocol": record.protocol, "sifting": record.sifting_mode}[key].value
        assert text.count(current) == 1
        problem = f"bad record header: {key} must be {choices}, got {value!r}"
        with pytest.raises(ParseError, match=f"^{re.escape(problem)}$"):
            loads(text.replace(current, value))

    def test_json_header_integer_numbers_load(self, record):
        # a config's "v": 12 is written as 12, so a whole number is a number
        lines = dumps(record, "json-lines").splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "v": 9, "n0": 1, "rho_block": 0})
        back = loads("\n".join(lines))
        assert back.source == record.source and back.channel == record.channel

    @pytest.mark.parametrize("spaced", [
        lambda h: h.replace(" sifting=", "  sifting="),
        lambda h: h.replace(" sifting=", "\tsifting="),
        lambda h: h.replace(" protocol=", "\tprotocol="),
        lambda h: h.replace(" protocol=", "  protocol="),
        lambda h: h.replace(" n=", "\x1cn="),
        lambda h: h.replace(" n=", "\u2028n="),
        lambda h: h + "\t",
        lambda h: h + " ",
    ], ids=["double-space", "tab", "tab-after-magic", "double-space-after-magic",
            "file-separator", "line-separator", "trailing-tab", "trailing-space"])
    def test_csv_header_is_read_as_written(self, record, spaced, tmp_path):
        # str.split() separates these items and strips the last value, but the
        # header is "#cvqkd-record" and one " key=value" per item, as dumps writes it
        header, rows = dumps(record).split("\n", 1)
        text = spaced(header) + "\n" + rows
        path = tmp_path / "rec.csv"
        path.write_bytes(text.encode())
        for read, source in ((loads, text), (read_record, path)):
            with pytest.raises(ParseError, match="^not a record header as cvqkd writes it: "
                                                 "one space before each item$"):
                read(source)
        result = CliRunner().invoke(main, ["rate", "--record", str(path)])
        assert result.exit_code == 3


#: header fields of a small hand-written record
HAND_HEADER = {"protocol": "squeezed_homodyne", "sifting": "quantum_memory", "n": 1, "l": 2,
               "seed": 0, "v": 20.0, "n0": 1.0, "t": 1.0, "eps": 0.0, "shape": "gaussian",
               "rho_block": 0.0}


def _hand_record(fmt: str, rows, **header) -> str:
    """A record with the given pulse rows, in the layout dumps writes."""
    fields = {**HAND_HEADER, **header}
    if fmt == "csv":
        lines = [" ".join(["#cvqkd-record", *(f"{k}={v}" for k, v in fields.items())]),
                 *(",".join(map(str, row)) for row in rows)]
    else:
        lines = [json.dumps({"record": "cvqkd", **fields}),
                 *(json.dumps(dict(zip(ROW_KEYS, row))) for row in rows)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
class TestHeaderRanges:
    """run_session writes n and l of at least 1 and a seed of at least 0;
    a header outside those ranges is a parse error naming the key, even
    when its rows follow the positions it declares. It checks the noise
    shape against the channel before it draws a pulse, so a header whose
    shape contradicts its channel, or whose channel noise variance is not
    finite, is a parse error too."""

    # labels that agree on every row, as quantum_memory sifting writes them
    ROWS = [(0, 0, 1.5, 1.25, "q", "q", 1), (1, 0, -2.0, -1.5, "p", "p", 1)]

    def test_valid_header_loads(self, fmt):
        back = loads(_hand_record(fmt, self.ROWS))
        assert (back.n, back.l, back.seed) == (1, 2, 0)

    @pytest.mark.parametrize("header, rows, problem", [
        ({"n": -1, "l": -3}, [(0, 0, 1.5, 1.25, "q", "q", 1), (-1, 0, 0.5, 0.5, "q", "q", 1),
                              (-2, 0, 0.25, 0.5, "p", "p", 1)], "n must be at least 1, got -1"),
        ({"n": 0, "l": 5}, [], "n must be at least 1, got 0"),
        ({"l": 0}, [], "l must be at least 1, got 0"),
        ({"seed": -1}, ROWS, "seed must be at least 0, got -1"),
        ({"shape": "uniform:halfwidth=5.0"}, ROWS,
         "noise shape variance 8.33333 does not match the channel's"),
        ({"eps": 1e308, "n0": 10.0}, ROWS,
         "the channel's noise variance (1-t)*n0 + t*eps*n0 = inf is not finite"),
    ], ids=["n-l-negative", "n-zero", "l-zero", "seed-negative", "shape-mismatch",
            "noise-variance-overflow"])
    def test_out_of_range(self, fmt, header, rows, problem):
        with pytest.raises(ParseError, match=re.escape(f"bad record header: {problem}")):
            loads(_hand_record(fmt, rows, **header))


#: values put into one experiment field of a config file and of a json-lines header
FIELD_VALUES = {"2.0": 2.0, "1.5": 1.5, "True": True, "x": "x", "10**400": 10 ** 400,
                "1e30": 1e30, "-1": -1, "0": 0, "object": {"n": 1}}


def _field_rule_accepts(key: str, value) -> bool:
    """The rule of a config's and a header's field values: n and l are integers of at
    least 1, seed one of at least 0, the other numbers floats (a JSON integer in the
    float range included), shape a string, protocol and sifting one of their names."""
    if key in ("n", "l", "seed"):
        return type(value) is int and value >= (key != "seed")
    if key in ("protocol", "sifting", "shape"):
        return key == "shape" and type(value) is str
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


#: what the field rule says a value must be; "rho_block must be in [0, 1)" is the
#: channel's own check, made after the rule
FIELD_RULE = r"(an integer|a number|a string|at least \d+|\w+ or \w+), got "


@pytest.mark.parametrize("name", FIELD_VALUES)
@pytest.mark.parametrize("key", HAND_HEADER)
def test_config_and_header_share_the_field_rule(tmp_path, key, name):
    # a value the field rule refuses is named with the same text by a config file
    # (exit 2) and a json-lines header (exit 3); one accepts what the other does
    value, runner = FIELD_VALUES[name], CliRunner()
    cfg, record = tmp_path / "cfg.json", tmp_path / "r.jsonl"
    cfg.write_text(json.dumps({"l": 4, key: value}))
    record.write_text(_hand_record("json-lines", TestHeaderRanges.ROWS, **{key: value}))
    problems = []
    for args, prefix, code in (
            (["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")], "error: ", 2),
            (["rate", "--record", str(record)], "error: bad record header: ", 3)):
        result = runner.invoke(main, args)
        problem = result.stderr.removeprefix(prefix)
        if re.match(f"{key} must be {FIELD_RULE}", problem):
            assert result.exit_code == code, result.output
            problems.append(problem)
    assert len(problems) in (0, 2) and len(set(problems)) <= 1, problems
    assert (not problems) == _field_rule_accepts(key, value)


CSV_COLUMNS = ("block", "pulse", "a", "b", "label_a", "label_b", "kept")


def _edit_row(line: str, fmt: str, **edits) -> str:
    """One pulse line of either format with some fields passed through a
    function; kept is handled as an int, a and b as floats."""
    if fmt == "csv":
        parts = line.split(",")
        for key, fn in edits.items():
            i = CSV_COLUMNS.index(key)
            parts[i] = repr(fn(int(parts[i]) if key == "kept" else float(parts[i])))
        return ",".join(parts)
    row = json.loads(line)
    for key, fn in edits.items():
        row[key] = fn(row[key])
    return json.dumps(row)


SHAPE_NAMES = ("gaussian", "mixture", "uniform", "displacement")


@st.composite
def sessions(draw):
    """Small sessions over every protocol, sifting mode and noise shape."""
    channel = ChannelModel(draw(st.floats(0.1, 0.95)), draw(st.floats(0.0, 0.5)))
    shape = SHAPE_KINDS[draw(st.sampled_from(SHAPE_NAMES))].matching(channel.noise_variance())
    return run_session(
        EprSource(draw(st.floats(1.0, 30.0))), ChannelModel(channel.t, channel.eps, shape),
        draw(st.sampled_from(ProtocolKind)), n=draw(st.integers(1, 4)),
        l=draw(st.integers(1, 12)), sifting_mode=draw(st.sampled_from(SiftingMode)),
        rng_seed=draw(st.integers(0, 2**32)))


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
@settings(max_examples=40, deadline=None)
@given(session=sessions())
def test_round_trip_property(fmt, session):
    text = dumps(session, fmt)
    back = loads(text)
    for column in ("a", "b", "label_a", "label_b", "kept"):
        assert np.array_equal(getattr(back, column), getattr(session, column))
    for field in ("n", "l", "protocol", "sifting_mode", "seed", "source", "channel"):
        assert getattr(back, field) == getattr(session, field)
    assert dumps(back, fmt) == text


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_numpy_scalar_configuration_round_trips(fmt, tmp_path):
    # numpy scalars in a session's configuration are written as the Python
    # numbers they equal, so the file is the one Python numbers give
    def session(real, integer):
        shape = UniformNoise(real(np.sqrt(1.5)))  # matches the channel's noise variance 0.5
        return run_session(EprSource(real(20.0)), ChannelModel(real(0.5), real(0.0), shape),
                           ProtocolKind.SQUEEZED_HOMODYNE, n=integer(3), l=integer(4),
                           rng_seed=integer(5))
    plain, scalars = session(float, int), session(np.float64, np.int64)
    path = write_record(scalars, tmp_path / "rec.dat", fmt)
    assert path.read_text() == dumps(plain, fmt)
    back = read_record(path)
    for field in ("n", "l", "seed", "source", "channel"):
        assert getattr(back, field) == getattr(plain, field)


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_integer_configuration_is_written_by_field_type(fmt):
    # a record built through the library with integer numbers writes each header
    # value converted by its field's type, as loads reads it, so its text is the
    # one float numbers give and re-serializes byte for byte
    def session(real):
        return run_session(EprSource(real(20)), ChannelModel(real(1), real(0)),
                           ProtocolKind.SQUEEZED_HOMODYNE, n=2, l=3,
                           sifting_mode=SiftingMode.QUANTUM_MEMORY, rng_seed=4)
    text = dumps(session(int), fmt)
    assert text == dumps(session(float), fmt)
    assert dumps(loads(text), fmt) == text


class TestFormats:
    def test_csv_header_carries_channel(self, record):
        header = dumps(record, "csv").splitlines()[0]
        assert header.startswith("#cvqkd-record")
        for token in ("protocol=squeezed_homodyne", "n=5", "l=40", "seed=21",
                      "t=0.6", "eps=0.25", "shape=gaussian"):
            assert token in header

    def test_json_lines_rows(self, record):
        lines = dumps(record, "json-lines").splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "cvqkd"
        row = json.loads(lines[1])
        assert set(row) == {"block", "pulse", "a", "b", "label_a", "label_b", "kept"}

    def test_unknown_format(self, record):
        with pytest.raises(ParseError):
            dumps(record, "xml")


#: a small record with non-finite values in two discarded rows, in both formats
DIFF_RECORD = run_session(
    EprSource(9.0), ChannelModel(0.6, 0.25), ProtocolKind.SQUEEZED_HOMODYNE,
    n=2, l=6, sifting_mode=SiftingMode.RANDOM_BASIS, rng_seed=3)
DIFF_RECORD.a[np.flatnonzero(~DIFF_RECORD.kept)[:2]] = [np.nan, -np.inf]
DIFF_TEXTS = {fmt: dumps(DIFF_RECORD, fmt) for fmt in ("csv", "json-lines")}

#: characters a single edit puts into a record: ASCII and Arabic-Indic digits,
#: number signs, separators, whitespace, line breaks that splitlines() honors
EDIT_CHARS = list("0123456789.eE+-_,: \t{}\"qpx#") + ["\n", "\r", "\x0b", "\x85", "\u2028",
                                                      "\u0663", "\u0665"]

#: values a single edit puts in place of one row field
FIELD_TOKENS = ["NaN", "Infinity", "-Infinity", "nan", "inf", "-inf", "-nan", "1e400", "-0.0",
                "1.5", "+1.5", " 1.5", "1.5 ", "1_0.5", "1_0", "\u0663.5", "15", "1.", ".5",
                "1E5", "1e+05", "01.5", "0", "1", "-0", "00", "9" * 19, '"q"', '"p"', "q",
                "1" + "0" * 400, "true", "null", '"1.5"', "1.0"]

#: lines a single edit inserts between two lines
EXTRA_LINES = ["", " ", "# comment", "\r", "{}", "0,0,1.5,1.5,q,q,1"]


def _json_fields(line: str) -> list:
    return json.loads(line, object_pairs_hook=list)


@st.composite
def edited_records(draw):
    """A record as dumps writes it, with one edit."""
    fmt = draw(st.sampled_from(sorted(DIFF_TEXTS)))
    text = DIFF_TEXTS[fmt]
    lines = text.split("\n")
    kind = draw(st.sampled_from(["replace", "insert", "delete", "field", "line", "keys"]))
    if kind in ("replace", "insert", "delete"):
        # a line first, so the header is edited as often as any row
        line = draw(st.integers(0, len(lines) - 2))
        i = sum(len(before) + 1 for before in lines[:line])
        i += draw(st.integers(0, len(lines[line])))
        char = "" if kind == "delete" else draw(st.sampled_from(EDIT_CHARS))
        return text[:i] + char + text[i + (kind != "insert"):]
    if kind == "line":
        i = draw(st.integers(0, len(lines) - 1))
        lines.insert(i, draw(st.sampled_from(EXTRA_LINES + [lines[1], lines[0]])))
        return "\n".join(lines)
    row = draw(st.integers(1, len(lines) - 2))
    if kind == "field":
        column, token = draw(st.integers(0, 6)), draw(st.sampled_from(FIELD_TOKENS))
        if fmt == "csv":
            parts = lines[row].split(",")
            parts[column] = token
            lines[row] = ",".join(parts)
        else:
            fields = [(key, token if i == column else json.dumps(value))
                      for i, (key, value) in enumerate(_json_fields(lines[row]))]
            lines[row] = "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields) + "}"
        return "\n".join(lines)
    # keys: json-lines rows with their keys reordered, repeated or extended
    lines = DIFF_TEXTS["json-lines"].split("\n")
    fields = _json_fields(lines[row])
    change = draw(st.sampled_from(["swap-a-b", "reverse", "repeat", "extra"]))
    if change == "swap-a-b":
        fields[2], fields[3] = fields[3], fields[2]
    elif change == "reverse":
        fields.reverse()
    elif change == "repeat":
        fields.append(draw(st.sampled_from(fields)))
    else:
        fields.insert(draw(st.integers(0, 7)), ("extra", 1))
    lines[row] = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in fields) + "}"
    return "\n".join(lines)


def _outcome(text, read=loads):
    """The columns and configuration read gives (of text, or a path), as bytes
    and values, or the message of the ParseError it raises."""
    try:
        record = read(text)
    except ParseError as exc:
        return str(exc)
    return ([getattr(record, c).tobytes() for c in ("a", "b", "label_a", "label_b", "kept")],
            record.n, record.l, record.protocol, record.sifting_mode, record.seed,
            record.source, record.channel)


@settings(max_examples=400, deadline=None)
@given(text=edited_records())
def test_edited_record_loads_or_names_its_fault(text):
    # a record with one edit either loads, as the columns and configuration that
    # its re-serialization loads to, or raises ParseError, citing a line it has
    try:
        record = loads(text)
    except ParseError as exc:
        if line := re.match(r"line (\d+): ", str(exc)):
            assert 2 <= int(line[1]) <= text.count("\n") + 1, exc
        return
    assert _outcome(dumps(record, "json-lines" if text.startswith("{") else "csv")) == \
        _outcome(text)


#: what each format reports of a character put into its header (line 0) or a row
#: (lines 1 and 12) at column 20, which is inside a CSV header item, a CSV row's a
#: and, in json-lines, before the header's second key and after a row's "pulse"
LINE_BREAK_FAULTS = {
    ("csv", True): lambda line, char: "malformed header item 'protoc'",
    ("json-lines", True): lambda line, char: None if char == "\r" else (
        "bad json-lines header: Expecting property name enclosed in double quotes: "
        "line 1 column 21 (char 20)"),
    ("csv", False): lambda line, char: "could not convert string to float: "
                                       f"{line.split(',')[2]!r}",
    ("json-lines", False): lambda line, char: "not a row as cvqkd writes it" if char == "\r"
    else "Expecting ':' delimiter: line 1 column 21 (char 20)",
}


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
@pytest.mark.parametrize("line", [0, 1, 12])
@pytest.mark.parametrize("char", ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_whole_column_reader_agrees_on_line_breaks(fmt, line, char, tmp_path):
    # lines break at "\n" alone, in a file as in a text: a character that splitlines()
    # also breaks at, in the header, a row or the last row, is part of its line, and a
    # fault is cited at the line number a "\n" split gives; JSON takes "\r" as whitespace
    lines = DIFF_TEXTS[fmt].split("\n")
    lines[line] = lines[line][:20] + char + lines[line][20:]
    problem = LINE_BREAK_FAULTS[fmt, line == 0](lines[line], char)
    path = tmp_path / "rec"
    path.write_bytes("\n".join(lines).encode())
    outcome = _outcome(path, read_record)
    assert outcome == _outcome("\n".join(lines))
    if problem is None:
        assert outcome == _outcome(DIFF_TEXTS[fmt])
    else:
        assert outcome == (problem if line == 0 else f"line {line + 1}: {problem}")


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_whole_column_reader_reads_canonical_text(fmt):
    back = loads(DIFF_TEXTS[fmt])
    for column in ("a", "b", "label_a", "label_b", "kept"):
        assert getattr(back, column).tobytes() == getattr(DIFF_RECORD, column).tobytes()


def _set_a(line: str, fmt: str, a: str) -> str:
    """One pulse line of either format with its a written as the text a."""
    if fmt == "csv":
        return ",".join(a if i == 2 else part for i, part in enumerate(line.split(",")))
    return re.sub(r'"a": [^,]*', f'"a": {a}', line)


@pytest.mark.parametrize("fmt, edit, problem", [
    ("csv", lambda lines: lines.insert(0, ""), "not a cvqkd record: unrecognized first line"),
    ("csv", lambda lines: lines.insert(4, ""), "line 5: not a row as cvqkd writes it"),
    ("csv", lambda lines: lines.__setitem__(2, lines[2].replace(",", ", ", 3)),
     "line 3: not a row as cvqkd writes it"),
    # a lone CR does not end a row; a CRLF line end does
    ("csv", lambda lines: lines.__setitem__(slice(2, 4), [lines[2] + "\r" + lines[3]]),
     "line 3: expected 7 fields, got 13"),
    ("json-lines", lambda lines: lines.__setitem__(
        3, json.dumps(dict(reversed(json.loads(lines[3]).items())))),
     "line 4: not a row as cvqkd writes it"),
    ("csv", lambda lines: lines.__setitem__(2, _set_a(lines[2], "csv", "+1.5")),
     "line 3: not a row as cvqkd writes it"),
    ("csv", lambda lines: lines.__setitem__(2, _set_a(lines[2], "csv", "1_0.5")),
     "line 3: not a row as cvqkd writes it"),
    ("csv", lambda lines: lines.__setitem__(2, _set_a(lines[2], "csv", "15")),
     "line 3: not a row as cvqkd writes it"),
    ("json-lines", lambda lines: lines.__setitem__(2, _set_a(lines[2], "json-lines", "15")),
     "line 3: not a row as cvqkd writes it"),
    ("json-lines", lambda lines: lines.__setitem__(2, lines[2].replace(": ", ":")),
     "line 3: not a row as cvqkd writes it"),
    ("csv", lambda lines: lines.insert(len(lines) - 1, ""),
     "line 14: not a row as cvqkd writes it"),
], ids=["leading-blank-line", "blank-line", "spaces", "carriage-return", "json-reordered",
        "plus-sign", "underscore", "integer-a", "json-integer-a", "json-no-space",
        "trailing-blank-line"])
def test_whole_column_reader_declines_lenient_text(fmt, edit, problem):
    # text the reader never takes, as dumps never writes it, each named at its line
    lines = DIFF_TEXTS[fmt].split("\n")
    edit(lines)
    assert _outcome("\n".join(lines)) == problem


def _set_fields(line: str, fmt: str, **values) -> str:
    """One pulse line of either format with some fields set, written as dumps writes them."""
    if fmt == "csv":
        parts = line.split(",")
        for key, value in values.items():
            parts[CSV_COLUMNS.index(key)] = repr(value) if isinstance(value, float) else str(value)
        return ",".join(parts)
    return json.dumps({**json.loads(line), **values})


#: how each fault kind edits the lines of DIFF_TEXTS at index i, the line of row i - 1
FAULTS = {
    "kept": lambda lines, i, fmt: lines.__setitem__(i, _edit_row(lines[i], fmt,
                                                                 kept=lambda k: 1 - k)),
    "non-finite": lambda lines, i, fmt: lines.__setitem__(i, _set_fields(
        lines[i], fmt, label_a="q", label_b="q", kept=1, a=float("nan"))),
    "position": lambda lines, i, fmt: lines.__setitem__(i, _set_fields(lines[i], fmt, block=99)),
    "too-few": lambda lines, i, fmt: lines.pop(i),
    "too-many": lambda lines, i, fmt: lines.insert(i, lines[i]),
    "blank": lambda lines, i, fmt: lines.insert(i, ""),
    "crlf": lambda lines, i, fmt: lines.__setitem__(i, lines[i] + "\r"),
    # a lone surrogate, which the surrogateescape encoding writes as the byte 0xff
    "non-utf8": lambda lines, i, fmt: lines.__setitem__(i, lines[i][:5] + "\udcff" + lines[i][5:]),
}

#: characters per piece: 24 is shorter than any line, so that every line is a piece of its
#: own and every line end a piece boundary; 96 puts one to three CSV rows in a piece; the
#: default puts the whole record in one
PIECE_SIZES = [24, 96, records.PARSE_CHUNK]

ROWS = DIFF_RECORD.total_pulses


def _faulted(fmt: str, faults) -> bytes:
    """DIFF_TEXTS[fmt] with each (kind, row) of faults put into its row, the last
    row first, so that a fault never moves the row of another."""
    lines = DIFF_TEXTS[fmt].split("\n")
    for kind, row in sorted(faults, key=lambda fault: -fault[1]):
        FAULTS[kind](lines, row + 1, fmt)
    return "\n".join(lines).encode("utf-8", "surrogateescape")


def _expected(faults, path) -> str:
    """The message of the first of some (kind, row) faults, in rising rows, that the
    rules report: a byte that is not UTF-8 first, then a line that is not a row,
    then a row count, then ROW_FAULTS in order, each at its first row, which is on
    file line row + 2 (a fault reported is never after a line another one adds)."""
    for kind in ("non-utf8", "blank", "too-few", "too-many", "kept", "non-finite", "position"):
        row = next((row for fault, row in faults if fault == kind), None)
        if row is None:
            continue
        if kind == "non-utf8":
            return f"{path}: line {row + 2}: not UTF-8 text"
        if kind == "blank":
            return f"line {row + 2}: not a row as cvqkd writes it"
        if kind.startswith("too"):
            rows = ROWS + (kind == "too-many") - (kind == "too-few")
            return f"record has {rows} pulse rows, but its header declares n*l = 2*6 = {ROWS}"
        fault = records.ROW_FAULTS[["kept", "non-finite", "position"].index(kind)]
        return f"line {row + 2}: {fault.format(n=2)}"
    raise AssertionError(faults)


@pytest.mark.parametrize("size", PIECE_SIZES)
@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
class TestPieces:
    """read_record reads a file PARSE_CHUNK characters at a time; with pieces of a
    few dozen characters it must give what loads gives, and name each fault at its
    line."""

    @pytest.mark.parametrize("end", ["\n", "", "\r\n"],
                             ids=["final-newline", "no-final-newline", "crlf"])
    def test_file_reads_as_its_text(self, fmt, size, end, tmp_path, monkeypatch):
        # in the crlf case "\r\n" ends every line, as in a file saved on Windows
        monkeypatch.setattr(records, "PARSE_CHUNK", size)
        text = DIFF_TEXTS[fmt].removesuffix("\n").replace("\n", end or "\n") + end
        path = tmp_path / "rec"
        path.write_bytes(text.encode())
        outcome = _outcome(path, read_record)
        assert isinstance(outcome, tuple) and outcome == _outcome(text)
        assert outcome[0] == [getattr(DIFF_RECORD, column).tobytes()
                              for column in ("a", "b", "label_a", "label_b", "kept")]

    @pytest.mark.parametrize("pair", [
        ("kept", "kept"), ("position", "kept"), ("non-finite", "position"),
        ("kept", "non-finite"), ("kept", "too-few"), ("position", "too-many"),
        ("too-many", "non-finite"), ("blank", "kept"), ("crlf", "position"),
        ("non-utf8", "kept"), ("kept", "non-utf8"),
    ], ids="-then-".join)
    def test_two_faults_in_any_two_rows(self, fmt, size, pair, tmp_path, monkeypatch):
        # each fault on either side of every piece boundary, the two in different pieces
        # (and, at 96 characters or more, in one piece too); a file and its text name
        # the same fault
        monkeypatch.setattr(records, "PARSE_CHUNK", size)
        path = tmp_path / "rec"
        for r in range(ROWS - 1):
            for s in range(r + 1, ROWS):
                faults = list(zip(pair, (r, s)))
                data = _faulted(fmt, faults)
                path.write_bytes(data)
                expected = _expected(faults, path)
                assert _outcome(path, read_record) == expected, faults
                if "non-utf8" not in pair:
                    assert _outcome(data.decode()) == expected, faults

    @pytest.mark.parametrize("kind", sorted(FAULTS))
    def test_one_fault_in_any_row(self, fmt, size, kind, tmp_path, monkeypatch):
        monkeypatch.setattr(records, "PARSE_CHUNK", size)
        path = tmp_path / "rec"
        for row in range(ROWS):
            data = _faulted(fmt, [(kind, row)])
            path.write_bytes(data)
            outcome = _outcome(path, read_record)
            if kind != "non-utf8":
                assert outcome == _outcome(data.decode()), row
            if kind == "crlf":  # one CRLF line end among LF ones is a line end
                assert outcome == _outcome(DIFF_TEXTS[fmt]), row
            else:
                assert outcome == _expected([(kind, row)], path), row

    @pytest.mark.parametrize("l", [7, 10**12, 10**20])
    def test_header_declaring_more_rows_than_the_file_holds(self, fmt, size, l, tmp_path,
                                                            monkeypatch):
        # today's row-count message, with no column allocated from n*l before the
        # file's size shows it could hold that many rows
        monkeypatch.setattr(records, "PARSE_CHUNK", size)
        text = DIFF_TEXTS[fmt].replace("l=6", f"l={l}").replace('"l": 6', f'"l": {l}')
        path = tmp_path / "rec"
        path.write_text(text)
        expected = f"record has {ROWS} pulse rows, but its header declares n*l = 2*{l} = {2 * l}"
        assert _outcome(path, read_record) == _outcome(text) == expected

    def test_header_declaring_more_rows_names_a_line_that_is_not_a_row(self, fmt, size,
                                                                       tmp_path, monkeypatch):
        # the rows of such a header are counted, not held, and still read as rows
        monkeypatch.setattr(records, "PARSE_CHUNK", size)
        text = DIFF_TEXTS[fmt].replace("l=6", f"l={10**20}").replace('"l": 6', f'"l": {10**20}')
        lines = text.split("\n")
        lines.insert(9, "")
        path = tmp_path / "rec"
        path.write_text("\n".join(lines))
        expected = "line 10: not a row as cvqkd writes it"
        assert _outcome(path, read_record) == _outcome("\n".join(lines)) == expected


@pytest.mark.parametrize("name", ["missing.csv", "."])
def test_unreadable_path_raises_as_before(tmp_path, name):
    # the OSError of reading the file whole, as read_record did before it read in pieces
    path = tmp_path / name
    with pytest.raises(OSError) as whole:
        path.read_bytes()
    with pytest.raises(type(whole.value), match=f"^{re.escape(str(whole.value))}$"):
        read_record(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_record_from_a_named_pipe_is_read_once(tmp_path):
    # a pipe reports no size, so it is read whole, from the one open: once its writer
    # has gone, a second open would wait for another writer
    fifo, text, outcomes = tmp_path / "rec", DIFF_TEXTS["csv"], []
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    reader = threading.Thread(target=lambda: outcomes.append(_outcome(fifo, read_record)),
                              daemon=True)
    fstat = os.fstat

    def fstat_once_the_writer_is_gone(fd):
        writer.join(10)
        return fstat(fd)

    with mock.patch.object(os, "fstat", fstat_once_the_writer_is_gone):
        reader.start()
        writer.start()
        reader.join(10)
    assert outcomes == [_outcome(text)]


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_read_record_holds_columns_not_text(tmp_path, end):
    # a 2*10^5-row CSV of 52 characters a row is read a piece at a time, with either
    # line end: the reader holds the record's columns (18 bytes a row) and one piece,
    # never the file's text
    session = run_session(EprSource(20.0), ChannelModel(0.5), ProtocolKind.SQUEEZED_HOMODYNE,
                          n=1, l=200_000, sifting_mode=SiftingMode.RANDOM_BASIS, rng_seed=1)
    path = write_record(session, tmp_path / "rec.csv")
    path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
    tracemalloc.start()
    try:
        back = read_record(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.pooled_b.tobytes() == session.pooled_b.tobytes()
    assert peak < path.stat().st_size / 2, (peak, path.stat().st_size)
