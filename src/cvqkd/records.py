"""Reading and writing session records.

Two on-disk formats carry the same fields:

* ``csv`` - one metadata header line starting with ``#cvqkd-record``,
  then one pulse per line:
  ``block,pulse,a,b,label_a,label_b,kept`` with labels ``q``/``p`` and
  kept ``0``/``1``.
* ``json-lines`` - a header object on the first line, then one object
  per pulse with keys block, pulse, a, b, label_a, label_b, kept; block,
  pulse and kept are JSON integers, a and b JSON numbers.

Floats are written with ``repr`` (shortest round-trip form), so a record
re-serialized from the same session is byte-identical.

Both formats are written by one row loop that formats the columns in
chunks of ``ROW_CHUNK`` rows, one format string per format;
``write_record`` streams the chunks to the file and ``dumps`` joins them.
``loads`` first parses whole columns: each chunk of about ``PARSE_CHUNK``
characters of whole lines goes through one ``findall`` of the format's
anchored row pattern, which accepts the rows as ``dumps`` writes them.
When the header is not on the first line, or a body line is blank or
does not match in full, it runs the per-line loop instead, which also
takes the lenient forms (whitespace around a CSV number, ``1_0``, JSON
keys in any order, blank lines) and gives every error message with its
line number. Both paths convert with ``int`` and ``float``, so a text
either gives the same columns or the fast path declines it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np

from .errors import ParseError
from .rates import ProtocolKind
from .simulator import (
    COLUMN_DTYPES,
    LABEL_CHARS,
    SHAPE_KINDS,
    BlockRecord,
    ChannelModel,
    EprSource,
    SiftingMode,
)

HEADER_MAGIC = "#cvqkd-record"

FORMATS = ("csv", "json-lines")

#: the fields of one pulse row, in file order, in both formats
ROW_KEYS = ("block", "pulse", "a", "b", "label_a", "label_b", "kept")

#: the Python types json may give the numeric fields of a row (not bool)
JSON_NUMBER_TYPES = {"block": (int,), "pulse": (int,), "a": (int, float),
                     "b": (int, float), "kept": (int,)}

#: the header fields dumps writes, each once, and the Python types json may give them
HEADER_TYPES = {"protocol": (str,), "sifting": (str,), "n": (int,), "l": (int,),
                "seed": (int,), "v": (int, float), "n0": (int, float), "t": (int, float),
                "eps": (int, float), "shape": (str,), "rho_block": (int, float)}
TYPE_NAMES = {(int,): "an integer", (int, float): "a number", (str,): "a string"}

#: pulse rows per chunk of the writer's row loop
ROW_CHUNK = 1 << 14

#: one pulse row in each format, as dumps writes it; json.dumps of the row's
#: dict gives the same text for finite a and b
CSV_ROW = "{},{},{!r},{!r},{},{},{}".format
JSON_ROW = ('{{"block": {}, "pulse": {}, "a": {!r}, "b": {!r}, '
            '"label_a": "{}", "label_b": "{}", "kept": {}}}').format

#: characters per findall of the fast reader, extended to the next line end
PARSE_CHUNK = 1 << 20

#: a float as repr writes it, and a float token of JSON's number grammar (a
#: fraction or an exponent, so json gives a float) or a constant json.dumps writes
_REPR_FLOAT = r"(-?(?:[0-9]+\.[0-9]+(?:e[+-][0-9]+)?|[0-9]+e[+-][0-9]+|inf|nan))"
_JSON_FLOAT = (r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)"
               r"|NaN|-?Infinity)")
#: at most 18 digits, so every block and pulse fits the int64 columns
_CSV_INT, _JSON_INT = r"([0-9]{1,18})", r"(-?(?:0|[1-9][0-9]{0,17}))"

#: one whole pulse line of each format, as the fast reader accepts it; the
#: key is whether the record is json-lines
ROW_PATTERNS = {
    False: re.compile(rf"^{_CSV_INT},{_CSV_INT},{_REPR_FLOAT},{_REPR_FLOAT},([qp]),([qp]),([01])$",
                      re.MULTILINE),
    True: re.compile(rf'^\{{"block": {_JSON_INT}, "pulse": {_JSON_INT}, "a": {_JSON_FLOAT}, '
                     rf'"b": {_JSON_FLOAT}, "label_a": "([qp])", "label_b": "([qp])", '
                     rf'"kept": ([01])\}}$', re.MULTILINE),
}


def _plain(value):
    """value, or the Python number that a numpy scalar value equals."""
    return value.item() if isinstance(value, np.generic) else value


def shape_to_string(shape) -> str:
    """``kind`` alone, or ``kind:key=value,...`` with shortest round-trip
    floats, e.g. ``uniform:halfwidth=1.5``."""
    params = ",".join(f"{key}={_plain(value)!r}"
                      for key, value in dataclasses.asdict(shape).items())
    return f"{shape.kind}:{params}" if params else shape.kind


def shape_from_string(text: str):
    """The noise shape a spec string names; its keys must be the shape's fields,
    each given once."""
    kind, _, params_text = text.partition(":")
    params = {}
    if params_text:
        try:
            items = [(key, float(value)) for key, value in
                     (item.split("=") for item in params_text.split(","))]
        except ValueError as exc:
            raise ParseError(f"bad noise-shape parameters {params_text!r}") from exc
        for key, value in items:
            if key in params:
                raise ParseError(f"noise shape {text!r} repeats {key!r}")
            params[key] = value
    if kind not in SHAPE_KINDS:
        raise ParseError(f"unknown noise shape {kind!r}")
    cls = SHAPE_KINDS[kind]
    keys = [f.name for f in dataclasses.fields(cls)]
    problems = [f"is missing {key!r}" for key in keys if key not in params]
    problems += [f"has unknown key {key!r}" for key in params if key not in keys]
    if problems:
        raise ParseError(f"noise shape {text!r} {problems[0]}")
    return cls(**params)


def _check_rows(line_numbers, n, block, pulse, a, b, label_a, label_b, kept) -> None:
    """Row invariants, checked on whole columns: a pulse is kept exactly
    when the labels agree, every kept pulse has finite values, and row i
    is pulse i % n of block i // n. The first offending row is reported
    by its file line, line_numbers[i]."""
    position_block, position_pulse = np.divmod(np.arange(len(a)), n)
    for bad, problem in (
            (kept != (label_a == label_b), "kept flag contradicts the labels"),
            (kept & ~(np.isfinite(a) & np.isfinite(b)), "kept pulse has a non-finite value"),
            ((block != position_block) | (pulse != position_pulse),
             f"block and pulse do not follow the row's position (n={n})")):
        if bad.any():
            raise ParseError(f"line {line_numbers[int(bad.argmax())]}: {problem}")


def _text_chunks(record: BlockRecord, fmt: str):
    """The text of a record in pieces: its header line, then its pulse rows
    ROW_CHUNK at a time. An unknown format raises before any piece is made."""
    fields = {
        "protocol": record.protocol.value,
        "sifting": record.sifting_mode.value,
        "n": record.n,
        "l": record.l,
        "seed": record.seed,
        "v": record.source.v,
        "n0": record.source.n0,
        "t": record.channel.t,
        "eps": record.channel.eps,
        "shape": shape_to_string(record.channel.shape),
        "rho_block": record.channel.rho_block,
    }
    fields = {key: _plain(value) for key, value in fields.items()}
    if fmt == "csv":
        header = HEADER_MAGIC + " " + " ".join(
            f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"
            for key, value in fields.items())
        format_row = CSV_ROW
    elif fmt == "json-lines":
        header = json.dumps({"record": "cvqkd", **fields})
        format_row = JSON_ROW
    else:
        raise ParseError(f"unknown record format {fmt!r}")
    return itertools.chain([header + "\n"], _row_chunks(record, format_row))


def _row_chunks(record: BlockRecord, format_row):
    """The pulse rows, each chunk's columns made Python lists with `.tolist()`
    and its kept flags compared from its own labels: a list copy or a
    comparison of a whole column would raise the peak memory."""
    n, total = record.n, record.total_pulses
    label = LABEL_CHARS.__getitem__
    for start in range(0, total, ROW_CHUNK):
        rows = slice(start, min(start + ROW_CHUNK, total))
        block, pulse = np.divmod(np.arange(rows.start, rows.stop), n)
        a, b = record.a[rows], record.b[rows]
        label_a, label_b = record.label_a[rows], record.label_b[rows]
        text = "\n".join(map(format_row, block.tolist(), pulse.tolist(), a.tolist(), b.tolist(),
                             map(label, label_a.tolist()), map(label, label_b.tolist()),
                             (label_a == label_b).view(np.uint8).tolist())) + "\n"
        if format_row is JSON_ROW and not (np.isfinite(a).all() and np.isfinite(b).all()):
            # json.dumps writes NaN, Infinity and -Infinity where repr writes nan,
            # inf and -inf; only a and b can hold these letters in a json-lines row
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        yield text


def dumps(record: BlockRecord, fmt: str = "csv") -> str:
    """Serialize a record to text in the requested format."""
    return "".join(_text_chunks(record, fmt))


def _parse_header_line(line: str) -> list:
    pairs = []
    for item in line[len(HEADER_MAGIC):].split():
        key, sep, value = item.partition("=")
        if not sep:
            raise ParseError(f"malformed header item {item!r}")
        pairs.append((key, value))
    return pairs


def _kept_flag(value, flags) -> bool:
    """The kept flag a row field holds, given the field values of 0 and 1."""
    if value not in flags:
        raise ValueError(f"kept must be 0 or 1, got {value!r}")
    return value == flags[1]


def _split_csv_row(line: str):
    parts = line.split(",")
    if len(parts) != 7:
        raise ValueError(f"expected 7 fields, got {len(parts)}")
    block, pulse, a, b, label_a, label_b, kept = parts
    return (int(block), int(pulse), float(a), float(b), label_a, label_b,
            _kept_flag(kept, ("0", "1")))


def _parse_json_header(line: str) -> list:
    try:
        pairs = json.loads(line, object_pairs_hook=list)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad json-lines header: {exc}") from exc
    if dict(pairs).get("record") != "cvqkd":
        raise ParseError("json-lines file is not a cvqkd record")
    return pairs


def _checked_fields(pairs: list, known) -> dict:
    """The (key, value) pairs as a dict; ValueError at the first key that is
    not known or that repeats."""
    keys = [key for key, _ in pairs]
    for key in keys:
        if key not in known:
            raise ValueError(f"unknown key {key!r}")
        if keys.count(key) > 1:
            raise ValueError(f"repeated key {key!r}")
    return dict(pairs)


def _split_json_row(line: str):
    row = json.loads(line, object_pairs_hook=lambda pairs: _checked_fields(pairs, ROW_KEYS))
    if not isinstance(row, dict):
        raise ValueError(f"expected a JSON object, got {type(row).__name__}")
    for key, types in JSON_NUMBER_TYPES.items():
        if type(row[key]) not in types:
            raise ValueError(f"{key} must be {TYPE_NAMES[types]}, got {row[key]!r}")
    return (row["block"], row["pulse"], row["a"], row["b"], row["label_a"],
            row["label_b"], _kept_flag(row["kept"], (0, 1)))


def _parse_header(first: str):
    """The header pairs of a record's first non-blank line, and whether the
    record is json-lines."""
    if first.startswith(HEADER_MAGIC):
        return _parse_header_line(first), False
    if first.startswith("{"):
        return _parse_json_header(first), True
    raise ParseError("not a cvqkd record: unrecognized first line")


def _is_char(chars, char: str) -> np.ndarray:
    """Whether each of some one-character ASCII strings is char."""
    return np.frombuffer("".join(chars).encode(), np.uint8) == ord(char)


def _parse_columns(text: str, start: int, pattern):
    """The block, pulse, a, b, label_a, label_b and kept columns of the pulse
    lines text[start:], or None unless every line matches pattern in full.
    Each chunk of about PARSE_CHUNK characters goes through one findall and
    is converted before the next."""
    total = text.count("\n", start) + (start < len(text) and text[-1] != "\n")
    block, pulse = np.empty((2, total), dtype=np.int64)
    a, b, label_a, label_b, kept = (np.empty(total, dtype) for dtype in (*COLUMN_DTYPES, bool))
    done = 0
    while start < len(text):
        end = text.find("\n", start + PARSE_CHUNK) + 1 or len(text)
        matches = pattern.findall(text, start, end)
        # a match is one whole line, so every line matched when the counts agree
        if len(matches) != text.count("\n", start, end) + (text[end - 1] != "\n"):
            return None
        count = len(matches)
        rows = slice(done, done + count)
        block_s, pulse_s, a_s, b_s, label_a_s, label_b_s, kept_s = zip(*matches)
        for column, strings, kind in ((block, block_s, int), (pulse, pulse_s, int),
                                      (a, a_s, float), (b, b_s, float)):
            column[rows] = np.fromiter(map(kind, strings), column.dtype, count)
        label_a[rows] = _is_char(label_a_s, LABEL_CHARS[1])
        label_b[rows] = _is_char(label_b_s, LABEL_CHARS[1])
        kept[rows] = _is_char(kept_s, "1")
        done, start = rows.stop, end
    return block, pulse, a, b, label_a, label_b, kept


def _parse_lines(lines: list, numbers: list, split_row):
    """The columns of the given non-blank lines, one line at a time; a line
    that does not parse raises ParseError citing its number."""
    block, pulse = np.empty((2, len(numbers)), dtype=np.int64)
    a, b, label_a, label_b, kept = (np.empty(len(numbers), dtype)
                                    for dtype in (*COLUMN_DTYPES, bool))
    for i, number in enumerate(numbers):
        try:
            (block[i], pulse[i], a[i], b[i], label_a_char, label_b_char,
             kept[i]) = split_row(lines[number - 1])
            label_a[i] = LABEL_CHARS.index(label_a_char)
            label_b[i] = LABEL_CHARS.index(label_b_char)
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ParseError(f"line {number}: {exc}") from exc
    return block, pulse, a, b, label_a, label_b, kept


def loads(text: str) -> BlockRecord:
    """Parse a record from text, detecting the format from its first
    non-blank line. Blank lines are skipped but counted, so errors cite
    the line a user sees. A record whose header is its first line and
    whose every other line is a row as dumps writes it is parsed a whole
    column at a time; any other text goes through the per-line loop."""
    header_end = text.find("\n") + 1 or len(text)
    first = text[:header_end].removesuffix("\n")
    columns = None
    if first.splitlines() == [first]:
        pairs, is_json = _parse_header(first)
        columns = _parse_columns(text, header_end, ROW_PATTERNS[is_json])
    if columns is not None:
        numbers = range(2, 2 + len(columns[0]))  # no blank line: row i is on line i + 2
    else:
        lines = text.splitlines()
        numbers = [number for number, line in enumerate(lines, 1) if line]
        pairs, is_json = _parse_header(lines[numbers[0] - 1] if numbers else "")
        numbers = numbers[1:]
        columns = _parse_lines(lines, numbers, _split_json_row if is_json else _split_csv_row)
    block, pulse, a, b, label_a, label_b, kept = columns
    try:
        fields = _checked_fields(pairs, {*HEADER_TYPES, *(["record"] if is_json else [])})
        for key, types in HEADER_TYPES.items():
            if is_json and type(fields[key]) not in types:
                raise ValueError(f"{key} must be {TYPE_NAMES[types]}, got {fields[key]!r}")
        source = EprSource(float(fields["v"]), float(fields["n0"]))
        channel = ChannelModel(float(fields["t"]), float(fields["eps"]),
                               shape_from_string(fields["shape"]),
                               float(fields["rho_block"]))
        channel.validate_shape(source.n0)
        n, l = int(fields["n"]), int(fields["l"])
        protocol = ProtocolKind(fields["protocol"])
        sifting_mode = SiftingMode(fields["sifting"])
        seed = int(fields["seed"])
        for key, value, low in (("n", n, 1), ("l", l, 1), ("seed", seed, 0)):
            if value < low:
                raise ValueError(f"{key} must be at least {low}, got {value}")
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad record header: {exc}") from exc
    if len(a) != n * l:
        raise ParseError(f"record has {len(a)} pulse rows, but its header "
                         f"declares n*l = {n}*{l} = {n * l}")
    _check_rows(numbers, n, block, pulse, a, b, label_a, label_b, kept)
    return BlockRecord(n=n, l=l, protocol=protocol, sifting_mode=sifting_mode,
                       seed=seed, source=source, channel=channel,
                       a=a, b=b, label_a=label_a, label_b=label_b)


def write_record(record: BlockRecord, path, fmt: str = "csv") -> Path:
    path = Path(path)
    chunks = _text_chunks(record, fmt)
    with path.open("w") as file:
        file.writelines(chunks)
    return path


def read_text(path) -> str:
    """A file's UTF-8 text; other bytes raise ParseError citing the file and line."""
    data = Path(path).read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {line}: not UTF-8 text") from None


def read_record(path) -> BlockRecord:
    return loads(read_text(path))
