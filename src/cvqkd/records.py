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

``FIELDS`` is the one table of a header's experiment fields: the attribute
each is written from, the type its value converts by and its least value.
``convert_field`` applies it to header and config values alike: a JSON value
must have the type (or be an integer, for a float), a CSV value converts from
text, and any other value raises ``<key> must be ...``. The writer converts
each number by its type too, so a record built with ``EprSource(20)`` writes
``v=20.0``, the value ``loads`` gives back.

Both formats are written by one row loop that formats the columns in
chunks of ``ROW_CHUNK`` rows, one format string per format;
``write_record`` streams the chunks to the file and ``dumps`` joins them.

A record is read along one path. Lines end at ``"\n"``, with an optional
``"\r"`` before it; no other character ends a line. The first line is the
header, whose faults are reported before any row is read; a CSV header must
be ``#cvqkd-record`` and one `` key=value`` per item, as ``dumps`` writes it.
The rows are then read ``PARSE_CHUNK`` characters at a time, cut at line
ends: each piece goes through one ``findall`` of the format's anchored row
pattern, which accepts the rows as ``dumps`` writes them, and is converted
and checked before the next is read, so a record is held as its columns,
never as its text. The first line that the pattern does not match is reported
at its line number, with the fault its row splitter names (a missing field, a
number that does not convert, a label other than ``q`` or ``p``), or, if it
names none (a blank line, whitespace around a number, ``1_0``, JSON keys in
another order), as not a row as cvqkd writes it. Then come the row count and
the row invariants of ``ROW_FAULTS``, each at its first row.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import re
from functools import partial
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .errors import ParseError
from .rates import ProtocolKind
from .simulator import (
    COLUMN_DTYPES,
    LABEL_CHARS,
    NOISE_SHAPES,
    SHAPE_KINDS,
    BlockRecord,
    ChannelModel,
    EprSource,
    SiftingMode,
    flip_p,
)

HEADER_MAGIC = "#cvqkd-record"

FORMATS = ("csv", "json-lines")

#: the fields of one pulse row, in file order, in both formats
ROW_KEYS = ("block", "pulse", "a", "b", "label_a", "label_b", "kept")

#: the experiment fields, in the order a record header holds them: the BlockRecord
#: attribute each is written from, the type its value converts by, and its least value
FIELDS = {"protocol": ("protocol.value", ProtocolKind, None),
          "sifting": ("sifting_mode.value", SiftingMode, None),
          "n": ("n", int, 1), "l": ("l", int, 1), "seed": ("seed", int, 0),
          "v": ("source.v", float, None), "n0": ("source.n0", float, None),
          "t": ("channel.t", float, None), "eps": ("channel.eps", float, None),
          "shape": ("channel.shape", str, None), "rho_block": ("channel.rho_block", float, None)}
#: what a value must be, by the type it converts by
TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
              **{kind: " or ".join(m.value for m in kind) for kind in (ProtocolKind, SiftingMode)}}
#: the Python types json may give a value, by the type it converts by (else str; never bool)
JSON_TYPES = {int: (int,), float: (int, float)}
#: the type each numeric field of a json-lines row must have
ROW_TYPES = {"block": int, "pulse": int, "a": float, "b": float, "kept": int}

#: pulse rows per chunk of the writer's row loop
ROW_CHUNK = 1 << 12

#: one pulse row in each format, as dumps writes it; json.dumps of the row's
#: dict gives the same text for finite a and b
CSV_ROW = "{},{},{!r},{!r},{},{},{}".format
JSON_ROW = ('{{"block": {}, "pulse": {}, "a": {!r}, "b": {!r}, '
            '"label_a": "{}", "label_b": "{}", "kept": {}}}').format

#: characters per piece of the reader, extended to the next line end
PARSE_CHUNK = 1 << 17

#: characters of the shortest row line either row pattern accepts, line end included;
#: no column is allocated for a header declaring more rows than a text of its size holds
MIN_ROW_CHARS = len("0,0,nan,nan,q,q,1\n")

#: a float as repr writes it, and a float token of JSON's number grammar (a
#: fraction or an exponent, so json gives a float) or a constant json.dumps writes
_REPR_FLOAT = r"(-?(?:[0-9]+\.[0-9]+(?:e[+-][0-9]+)?|[0-9]+e[+-][0-9]+|inf|nan))"
_JSON_FLOAT = (r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)"
               r"|NaN|-?Infinity)")
#: at most 18 digits, so every block and pulse fits the int64 columns; a signed one
#: is read, so that the position check names it
_CSV_INT, _JSON_INT = r"(-?[0-9]{1,18})", r"(-?(?:0|[1-9][0-9]{0,17}))"

#: one whole pulse line of each format, LF or CRLF ended, as the reader accepts it,
#: compiled when a record is read, not on import; the key is whether it is json-lines
ROW_PATTERNS = {
    False: rf"(?m)^{_CSV_INT},{_CSV_INT},{_REPR_FLOAT},{_REPR_FLOAT},([qp]),([qp]),([01])\r?$",
    True: (rf'(?m)^\{{"block": {_JSON_INT}, "pulse": {_JSON_INT}, "a": {_JSON_FLOAT}, '
           rf'"b": {_JSON_FLOAT}, "label_a": "([qp])", "label_b": "([qp])", '
           rf'"kept": ([01])\}}\r?$'),
}


def _plain(value):
    """value as a record writes it: a noise shape's spec, a numpy scalar's Python number."""
    if isinstance(value, NOISE_SHAPES):
        return shape_to_string(value)
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


#: the row invariants' faults, in the order they are reported
ROW_FAULTS = ("kept flag contradicts the labels", "kept pulse has a non-finite value",
              "block and pulse do not follow the row's position (n={n})",
              "labels disagree under quantum_memory sifting")


def _row_faults(start, n, memory, block, pulse, a, b, label_a, label_b, kept) -> list:
    """For each of ROW_FAULTS, the first of the rows start, start + 1, ... of
    these columns that breaks its invariant, or None: a pulse is kept exactly
    when the labels agree, every kept pulse has finite values, row i is
    pulse i % n of block i // n, and, if memory (quantum_memory sifting),
    every pulse's labels agree."""
    position_block, position_pulse = np.divmod(np.arange(start, start + len(a)), n)
    return [start + int(bad.argmax()) if bad.any() else None for bad in (
        kept != (label_a == label_b), kept & ~(np.isfinite(a) & np.isfinite(b)),
        (block != position_block) | (pulse != position_pulse), memory & (label_a != label_b))]


def _check_rows(faults, n) -> None:
    """ParseError at the first row of the first of ROW_FAULTS that some
    piece's _row_faults found, cited by its file line: row i is on line i + 2."""
    for k, fault in enumerate(ROW_FAULTS):
        if rows := [piece[k] for piece in faults if piece[k] is not None]:
            raise ParseError(f"line {rows[0] + 2}: {fault.format(n=n)}")


def _check_count(rows: int, experiment: dict) -> None:
    n, l = experiment["n"], experiment["l"]
    if rows != n * l:
        raise ParseError(f"record has {rows} pulse rows, but its header "
                         f"declares n*l = {n}*{l} = {n * l}")


def _text_chunks(record: BlockRecord, fmt: str):
    """The text of a record in pieces: its header line, then its pulse rows
    ROW_CHUNK at a time. An unknown format raises before any piece is made."""
    fields = {}
    for key, (attribute, kind, _) in FIELDS.items():
        value = attrgetter(attribute)(record)
        fields[key] = kind(value) if kind in JSON_TYPES else _plain(value)
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
    """The pulse rows, each chunk's columns made Python lists with `.tolist()`,
    its pooled Bob values flipped back to measured ones and its kept flags
    compared from its own labels: doing that to whole columns raises the peak."""
    n, total = record.n, record.total_pulses
    label = LABEL_CHARS.__getitem__
    for start in range(0, total, ROW_CHUNK):
        rows = slice(start, min(start + ROW_CHUNK, total))
        block, pulse = np.divmod(np.arange(rows.start, rows.stop), n)
        label_a, label_b = record.label_a[rows], record.label_b[rows]
        a, b = record.a[rows], flip_p(record.pooled_b[rows].copy(), label_b)
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


def _flag(key: str, value, flags, names: str = "0 or 1") -> bool:
    """The flag a row field holds, given the field values of False and True."""
    if value not in flags:
        raise ValueError(f"{key} must be {names}, got {value!r}")
    return value == flags[1]


def _split_csv_row(line: str):
    parts = line.split(",")
    if len(parts) != 7:
        raise ValueError(f"expected 7 fields, got {len(parts)}")
    block, pulse, a, b, label_a, label_b, kept = parts
    return (int(block), int(pulse), float(a), float(b), label_a, label_b,
            _flag("kept", kept, ("0", "1")))


class _Pairs(list):
    """The (key, value) pairs of a JSON object, in file order, shown as a dict."""

    def __repr__(self):
        return repr(dict(self))


def json_object(text: str, context: str) -> _Pairs:
    """The (key, value) pairs of the JSON object text holds (and of each object inside);
    ParseError after context if text is not JSON or holds no object."""
    try:
        pairs = json.loads(text, object_pairs_hook=_Pairs)
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ParseError(f"{context}: {exc}") from exc
    if not isinstance(pairs, _Pairs):
        raise ParseError(f"{context}: must hold a JSON object, got {type(pairs).__name__}")
    return pairs


def checked_fields(pairs: list, known, complete: bool = True) -> dict:
    """The (key, value) pairs as a dict; ValueError at the first key that is not known
    or that repeats, then, if complete, at the first known key that is missing."""
    keys = [key for key, _ in pairs]
    for key in keys:
        if key not in known:
            raise ValueError(f"unknown key {key!r}")
        if keys.count(key) > 1:
            raise ValueError(f"repeated key {key!r}")
    if missing := [key for key in known if complete and key not in keys]:
        raise ValueError(f"missing key {missing[0]!r}")
    return dict(pairs)


def convert_field(key: str, value, kind, least=None, text: bool = False):
    """value converted by kind, from a JSON value of one of kind's JSON_TYPES or, if text,
    from text; ValueError naming key and what it must be if it does not or is below least."""
    try:
        if not (text or type(value) in JSON_TYPES.get(kind, (str,))):
            raise TypeError
        converted = kind(value)
    except (OverflowError, TypeError, ValueError):
        raise ValueError(f"{key} must be {TYPE_NAMES[kind]}, got {value!r}") from None
    if least is not None and converted < least:
        raise ValueError(f"{key} must be at least {least}, got {converted}")
    return converted


def source_and_channel(fields, shape):
    """The EprSource and ChannelModel of the experiment fields, with the noise shape
    given; ConfigurationError unless the shape matches the channel."""
    source = EprSource(fields["v"], fields["n0"])
    channel = ChannelModel(fields["t"], fields["eps"], shape, fields["rho_block"])
    channel.validate_shape(source.n0)
    return source, channel


def _split_json_row(line: str):
    row = json.loads(line, object_pairs_hook=_Pairs)
    if not isinstance(row, _Pairs):
        raise ValueError(f"expected a JSON object, got {type(row).__name__}")
    row = checked_fields(row, ROW_KEYS)
    for key, kind in ROW_TYPES.items():
        if type(row[key]) not in JSON_TYPES[kind]:
            raise ValueError(f"{key} must be {TYPE_NAMES[kind]}, got {row[key]!r}")
    return (row["block"], row["pulse"], row["a"], row["b"], row["label_a"],
            row["label_b"], _flag("kept", row["kept"], (0, 1)))


def _parse_header(first: str):
    """The header pairs of a record's first line, and whether the record is
    json-lines."""
    if first.startswith(HEADER_MAGIC):
        items = [item.partition("=") for item in first[len(HEADER_MAGIC):].split()]
        if malformed := [key for key, sep, _ in items if not sep]:
            raise ParseError(f"malformed header item {malformed[0]!r}")
        if first != " ".join([HEADER_MAGIC, *("".join(item) for item in items)]):
            raise ParseError("not a record header as cvqkd writes it: one space before each item")
        return [(key, value) for key, _, value in items], False
    if first.startswith("{"):
        pairs = json_object(first, "bad json-lines header")
        if dict(pairs).get("record") != "cvqkd":
            raise ParseError("json-lines file is not a cvqkd record")
        return pairs, True
    raise ParseError("not a cvqkd record: unrecognized first line")


def _is_char(chars, char: str) -> np.ndarray:
    """Whether each of some one-character ASCII strings is char."""
    return np.frombuffer("".join(chars).encode(), np.uint8) == ord(char)


def _pieces(chunks):
    """The text of some chunks in pieces of whole lines, each cut after the
    last line end of a chunk."""
    rest = ""
    for chunk in chunks:
        cut = chunk.rfind("\n") + 1
        if cut:
            yield rest + chunk[:cut]
            rest = chunk[cut:]
        else:
            rest += chunk
    if rest:
        yield rest


def _parse_columns(pieces, is_json: bool):
    """For each whole-line piece of pulse lines, the first on file line 2, its
    block, pulse, a, b, label_a, label_b and kept columns. Each piece goes
    through one findall, whose strings are freed before the next piece is
    read; a piece with a line that is not a row as dumps writes it raises
    _unmatched's ParseError."""
    pattern = re.compile(ROW_PATTERNS[is_json])
    line = 2
    for piece in pieces:
        columns = _match_columns(pattern.findall(piece))
        lines = piece.count("\n") + (piece[-1] != "\n")
        # a match is one whole line, so every line matched when the counts agree
        if len(columns[0]) != lines:
            raise _unmatched(piece, line, pattern, is_json)
        line += lines
        yield columns


def _match_columns(matches: list):
    """The columns of one piece's row matches."""
    count = len(matches)
    block, pulse, a, b, label_a, label_b, kept = (map(itemgetter(group), matches)
                                                  for group in range(len(ROW_KEYS)))
    return (*(np.fromiter(map(int, strings), np.int64, count) for strings in (block, pulse)),
            *(np.fromiter(map(float, strings), float, count) for strings in (a, b)),
            _is_char(label_a, LABEL_CHARS[1]), _is_char(label_b, LABEL_CHARS[1]),
            _is_char(kept, "1"))


def _unmatched(piece: str, line: int, pattern, is_json: bool) -> ParseError:
    """The ParseError of the first line of piece that pattern does not match,
    cited by its file line, piece's first line being file line line: the fault
    its row splitter, the columns' conversions and the label flags name, or,
    where they name none, that it is not a row as cvqkd writes it."""
    number, text = next((number, text) for number, text in
                        enumerate(piece.removesuffix("\n").split("\n"), line)
                        if not pattern.fullmatch(text))
    text = text.removesuffix("\r")
    try:
        if text:  # a blank line is named as not a row
            block, pulse, a, b, label_a, label_b, _ = (
                _split_json_row if is_json else _split_csv_row)(text)
            np.int64(block), np.int64(pulse), float(a), float(b)  # as the columns convert
            _flag("label_a", label_a, LABEL_CHARS, "'q' or 'p'")
            _flag("label_b", label_b, LABEL_CHARS, "'q' or 'p'")
    except (OverflowError, TypeError, ValueError) as exc:
        return ParseError(f"line {number}: {exc}")
    return ParseError(f"line {number}: not a row as cvqkd writes it")


def _experiment(pairs: list, is_json: bool) -> dict:
    """The BlockRecord fields but the columns, from a header's (key, value)
    pairs; ParseError naming the first that breaks the header's rules."""
    try:
        fields = checked_fields(pairs, [*FIELDS, *(["record"] if is_json else [])])
        fields = {key: convert_field(key, fields[key], kind, least, text=not is_json)
                  for key, (_, kind, least) in FIELDS.items()}
        source, channel = source_and_channel(fields, shape_from_string(fields["shape"]))
    except ValueError as exc:
        raise ParseError(f"bad record header: {exc}") from exc
    return {"n": fields["n"], "l": fields["l"], "protocol": fields["protocol"],
            "sifting_mode": fields["sifting"], "seed": fields["seed"], "source": source,
            "channel": channel}


def _stream(first: str, pieces, size: int) -> BlockRecord:
    """The record whose text, of size characters or more, is its header line
    first and then the given whole-line pieces of the header's n*l pulse rows,
    parsed and checked a piece at a time into columns. A text too short to
    hold n*l rows gets no columns; its rows are only counted."""
    pairs, is_json = _parse_header(first.removesuffix("\n").removesuffix("\r"))
    experiment = _experiment(pairs, is_json)
    n, total = experiment["n"], experiment["n"] * experiment["l"]
    memory = experiment["sifting_mode"] is SiftingMode.QUANTUM_MEMORY
    held = total if total * MIN_ROW_CHARS <= size + 1 else 0  # the last row may lack its line end
    a, pooled_b, label_a, label_b = (np.empty(held, dtype) for dtype in COLUMN_DTYPES)
    done, faults = 0, []
    for columns in _parse_columns(pieces, is_json):
        rows = slice(done, done + len(columns[0]))
        done = rows.stop
        if done <= held:  # rows beyond the columns are only counted
            faults.append(_row_faults(rows.start, n, memory, *columns))
            _, _, a[rows], b, label_a[rows], label_b[rows], _ = columns
            pooled_b[rows] = flip_p(b, label_b[rows])
    _check_count(done, experiment)
    _check_rows(faults, n)
    return BlockRecord(**experiment, a=a, pooled_b=pooled_b, label_a=label_a, label_b=label_b)


def loads(text: str) -> BlockRecord:
    """Parse a record from text, as the module docstring sets out: its header
    line first, its format read from that line, then one pulse row per line,
    read a piece at a time."""
    header_end = text.find("\n") + 1 or len(text)
    chunks = (text[start:start + PARSE_CHUNK]
              for start in range(header_end, len(text), PARSE_CHUNK))
    return _stream(text[:header_end], _pieces(chunks), len(text))


def write_record(record: BlockRecord, path, fmt: str = "csv") -> Path:
    path = Path(path)
    chunks = _text_chunks(record, fmt)
    with path.open("w") as file:
        file.writelines(chunks)
    return path


def read_text(path) -> str:
    """A file's UTF-8 text; other bytes raise ParseError citing the file and line."""
    return _decoded(Path(path).read_bytes(), path)


def _decoded(data: bytes, path) -> str:
    """The UTF-8 text of the bytes of the file at path; ParseError citing its line if not."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {line}: not UTF-8 text") from None


def read_record(path) -> BlockRecord:
    """The record a file holds, as loads reads its text. The file is read
    PARSE_CHUNK characters at a time, as strict UTF-8 with its line ends kept,
    and never held whole; a file that reports no size (a pipe) is read whole,
    once, and so is one that is not UTF-8, to name the line of its first
    other byte."""
    with open(path, encoding="utf-8", newline="\n") as file:  # lines end at "\n" alone
        if size := os.fstat(file.fileno()).st_size:
            try:
                return _stream(file.readline(),
                               _pieces(iter(partial(file.read, PARSE_CHUNK), "")), size)
            except UnicodeDecodeError:
                file.buffer.seek(0)
        return loads(_decoded(file.buffer.read(), path))
