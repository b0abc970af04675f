import dataclasses
import json
import re
from unittest import mock

import numpy as np
import pytest
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
        back = loads("\n" + dumps(record, fmt))
        assert np.array_equal(back.a, record.a)

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
    @pytest.mark.parametrize("edit, problem", [
        pytest.param({"a": lambda v: "x"}, {"csv": "could not convert string to float",
                                            "json-lines": "a must be a number, got 'x'"},
                     id="bad-float"),
        pytest.param({"kept": lambda k: 1 - k},
                     dict.fromkeys(("csv", "json-lines"), "kept flag contradicts the labels"),
                     id="bad-kept-flag"),
    ])
    def test_error_cites_file_line_after_blank_line(self, record, fmt, edit, problem):
        lines = dumps(record, fmt).splitlines()
        lines[5] = _edit_row(lines[5], fmt, **edit)
        lines.insert(3, "")  # the edited row is now file line 7
        with pytest.raises(ParseError, match=f"line 7: .*{problem[fmt]}"):
            loads("\n".join(lines))

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

    def test_json_header_integer_numbers_load(self, record):
        # a config's "v": 12 is written as 12, so a whole number is a number
        lines = dumps(record, "json-lines").splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "v": 9, "n0": 1, "rho_block": 0})
        back = loads("\n".join(lines))
        assert back.source == record.source and back.channel == record.channel


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

    ROWS = [(0, 0, 1.5, 1.25, "q", "q", 1), (1, 0, -2.0, -1.5, "p", "q", 0)]

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


def _outcome(text: str):
    """The columns and configuration loads gives, as bytes and values, or
    the message of the ParseError it raises."""
    try:
        record = loads(text)
    except ParseError as exc:
        return str(exc)
    return ([getattr(record, c).tobytes() for c in ("a", "b", "label_a", "label_b", "kept")],
            record.n, record.l, record.protocol, record.sifting_mode, record.seed,
            record.source, record.channel)


def _per_line_outcome(text: str):
    """_outcome with the whole-column parser declining, so every row goes
    through the per-line loop."""
    with mock.patch.object(records, "_parse_columns", return_value=None):
        return _outcome(text)


@settings(max_examples=400, deadline=None)
@given(text=edited_records())
def test_whole_column_reader_agrees_with_per_line_loop(text):
    assert _outcome(text) == _per_line_outcome(text)


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
@pytest.mark.parametrize("line", [0, 1, 12])
@pytest.mark.parametrize("char", ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_whole_column_reader_agrees_on_line_breaks(fmt, line, char):
    # line breaks that splitlines() honors and a "\n" split does not, in the
    # header, a row and the last row
    lines = DIFF_TEXTS[fmt].split("\n")
    lines[line] = lines[line][:20] + char + lines[line][20:]
    text = "\n".join(lines)
    assert _outcome(text) == _per_line_outcome(text)


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_whole_column_reader_reads_canonical_text(fmt):
    # the per-line loop fails if it runs, so these loads take the fast path
    text = DIFF_TEXTS[fmt]
    with mock.patch.object(records, "_parse_lines", side_effect=AssertionError):
        back = loads(text)
    for column in ("a", "b", "label_a", "label_b", "kept"):
        assert getattr(back, column).tobytes() == getattr(DIFF_RECORD, column).tobytes()
    assert _outcome(text) == _per_line_outcome(text)


@pytest.mark.parametrize("fmt, edit", [
    ("csv", lambda lines: lines.insert(0, "")),
    ("csv", lambda lines: lines.insert(4, "")),
    ("csv", lambda lines: lines.__setitem__(2, lines[2].replace(",", ", ", 3))),
    ("csv", lambda lines: lines.__setitem__(2, lines[2] + "\r")),
    ("json-lines", lambda lines: lines.__setitem__(
        3, json.dumps(dict(reversed(json.loads(lines[3]).items()))))),
], ids=["leading-blank-line", "blank-line", "spaces", "carriage-return", "json-reordered"])
def test_whole_column_reader_declines_lenient_text(fmt, edit):
    # text the per-line loop reads and dumps never writes
    lines = DIFF_TEXTS[fmt].split("\n")
    edit(lines)
    text = "\n".join(lines)
    header_end = text.find("\n") + 1
    pattern = records.ROW_PATTERNS[fmt == "json-lines"]
    assert records._parse_columns(text, header_end, pattern) is None
    assert isinstance(_outcome(text), tuple)
