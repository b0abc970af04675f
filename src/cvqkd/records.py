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
"""

from __future__ import annotations

import dataclasses
import json
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


def shape_to_string(shape) -> str:
    """``kind`` alone, or ``kind:key=value,...`` with shortest round-trip
    floats, e.g. ``uniform:halfwidth=1.5``."""
    params = ",".join(f"{key}={value!r}" for key, value in dataclasses.asdict(shape).items())
    return f"{shape.kind}:{params}" if params else shape.kind


def shape_from_string(text: str):
    """The noise shape a spec string names; its keys must be the shape's fields."""
    kind, _, params_text = text.partition(":")
    params = {}
    if params_text:
        try:
            params = {key: float(value) for key, value in
                      (item.split("=") for item in params_text.split(","))}
        except ValueError as exc:
            raise ParseError(f"bad noise-shape parameters {params_text!r}") from exc
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


def dumps(record: BlockRecord, fmt: str = "csv") -> str:
    """Serialize a record to text in the requested format."""
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
    if fmt == "csv":
        header = HEADER_MAGIC + " " + " ".join(
            f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"
            for key, value in fields.items())
        format_row = "{},{},{!r},{!r},{},{},{}".format
    elif fmt == "json-lines":
        header = json.dumps({"record": "cvqkd", **fields})

        def format_row(*row):
            return json.dumps(dict(zip(ROW_KEYS, row)))
    else:
        raise ParseError(f"unknown record format {fmt!r}")
    # stream the columns: a list copy of each would raise the peak memory
    n, total = record.n, record.total_pulses
    label = LABEL_CHARS.__getitem__
    rows = map(format_row, (i // n for i in range(total)), (i % n for i in range(total)),
               map(float, record.a), map(float, record.b),
               map(label, record.label_a), map(label, record.label_b),
               map(int, record.kept))
    return "\n".join([header, *rows]) + "\n"


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


def _split_json_row(line: str):
    row = json.loads(line)
    if not isinstance(row, dict):
        raise ValueError(f"expected a JSON object, got {type(row).__name__}")
    for key, types in JSON_NUMBER_TYPES.items():
        if type(row[key]) not in types:
            raise ValueError(f"{key} must be {TYPE_NAMES[types]}, got {row[key]!r}")
    return (row["block"], row["pulse"], row["a"], row["b"], row["label_a"],
            row["label_b"], _kept_flag(row["kept"], (0, 1)))


def loads(text: str) -> BlockRecord:
    """Parse a record from text, detecting the format from its first
    non-blank line. Blank lines are skipped but counted, so errors cite
    the line a user sees."""
    lines = text.splitlines()
    numbers = [number for number, line in enumerate(lines, 1) if line]
    first = lines[numbers[0] - 1] if numbers else ""
    if first.startswith(HEADER_MAGIC):
        pairs, split_row = _parse_header_line(first), _split_csv_row
    elif first.startswith("{"):
        pairs, split_row = _parse_json_header(first), _split_json_row
    else:
        raise ParseError("not a cvqkd record: unrecognized first line")
    numbers = numbers[1:]
    block, pulse = np.empty((2, len(numbers)), dtype=np.int64)
    a, b, label_a, label_b, kept = (np.empty(len(numbers), dtype) for dtype in COLUMN_DTYPES)
    for i, number in enumerate(numbers):
        try:
            (block[i], pulse[i], a[i], b[i], label_a_char, label_b_char,
             kept[i]) = split_row(lines[number - 1])
            label_a[i] = LABEL_CHARS.index(label_a_char)
            label_b[i] = LABEL_CHARS.index(label_b_char)
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ParseError(f"line {number}: {exc}") from exc
    fields, keys = dict(pairs), [key for key, _ in pairs]
    is_json = split_row is _split_json_row
    try:
        for key in keys:
            if key not in HEADER_TYPES and not (is_json and key == "record"):
                raise ValueError(f"unknown key {key!r}")
            if keys.count(key) > 1:
                raise ValueError(f"repeated key {key!r}")
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
                       a=a, b=b, label_a=label_a, label_b=label_b, kept=kept)


def write_record(record: BlockRecord, path, fmt: str = "csv") -> Path:
    path = Path(path)
    path.write_text(dumps(record, fmt))
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
