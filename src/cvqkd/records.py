"""Reading and writing session records.

Two on-disk formats carry the same fields:

* ``csv`` - one metadata header line starting with ``#cvqkd-record``,
  then one pulse per line:
  ``block,pulse,a,b,label_a,label_b,kept`` with labels ``q``/``p`` and
  kept ``0``/``1``.
* ``json-lines`` - a header object on the first line, then one object
  per pulse with keys block, pulse, a, b, label_a, label_b, kept.

Floats are written with ``repr`` (shortest round-trip form), so a record
re-serialized from the same session is byte-identical.
"""

from __future__ import annotations

import json
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
)

HEADER_MAGIC = "#cvqkd-record"

FORMATS = ("csv", "json-lines")


def shape_to_string(shape) -> str:
    """``kind`` alone, or ``kind:key=value,...`` with shortest round-trip
    floats, e.g. ``uniform:halfwidth=1.5``."""
    if not isinstance(shape, NOISE_SHAPES):
        raise ParseError(f"cannot serialize noise shape {shape!r}")
    params = ",".join(f"{key}={value!r}" for key, value in shape.spec().items())
    return f"{shape.kind}:{params}" if params else shape.kind


def shape_from_string(text: str):
    """The noise shape a spec string names, taken literally."""
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
    try:
        return SHAPE_KINDS[kind].from_spec(params)
    except KeyError as exc:
        raise ParseError(f"noise shape {text!r} is missing {exc}") from exc


def _header_fields(record: BlockRecord) -> dict:
    return {
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


def _check_rows(line_numbers, a, b, label_a, label_b, kept) -> None:
    """Row invariants, checked on whole columns: a pulse is kept exactly
    when the labels agree, and every kept pulse has finite values. The
    first offending row is reported by its file line, line_numbers[i]."""
    for bad, problem in (
            (kept != (label_a == label_b), "kept flag contradicts the labels"),
            (kept & ~(np.isfinite(a) & np.isfinite(b)), "kept pulse has a non-finite value")):
        if bad.any():
            raise ParseError(f"line {line_numbers[int(bad.argmax())]}: {problem}")


def _record_from_header(fields: dict, line_numbers, a, b, label_a, label_b,
                        kept) -> BlockRecord:
    """The record both loaders decode: header fields plus checked rows."""
    _check_rows(line_numbers, a, b, label_a, label_b, kept)
    try:
        source = EprSource(float(fields["v"]), float(fields["n0"]))
        channel = ChannelModel(float(fields["t"]), float(fields["eps"]),
                               shape_from_string(str(fields["shape"])),
                               float(fields["rho_block"]))
        return BlockRecord(
            n=int(fields["n"]), l=int(fields["l"]),
            protocol=ProtocolKind(fields["protocol"]),
            sifting_mode=SiftingMode(fields["sifting"]),
            seed=int(fields["seed"]),
            source=source, channel=channel,
            a=a, b=b, label_a=label_a, label_b=label_b, kept=kept,
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad record header: {exc}") from exc


def dumps(record: BlockRecord, fmt: str = "csv") -> str:
    """Serialize a record to text in the requested format."""
    if fmt == "csv":
        return _dumps_csv(record)
    if fmt == "json-lines":
        return _dumps_jsonl(record)
    raise ParseError(f"unknown record format {fmt!r}")


def _dumps_csv(record: BlockRecord) -> str:
    fields = _header_fields(record)
    header = HEADER_MAGIC + " " + " ".join(
        f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"
        for key, value in fields.items())
    lines = [header]
    n = record.n
    for i in range(record.total_pulses):
        lines.append("{},{},{!r},{!r},{},{},{}".format(
            i // n, i % n, float(record.a[i]), float(record.b[i]),
            LABEL_CHARS[record.label_a[i]], LABEL_CHARS[record.label_b[i]],
            int(record.kept[i])))
    return "\n".join(lines) + "\n"


def _dumps_jsonl(record: BlockRecord) -> str:
    header = {"record": "cvqkd", **_header_fields(record)}
    lines = [json.dumps(header)]
    n = record.n
    for i in range(record.total_pulses):
        lines.append(json.dumps({
            "block": i // n, "pulse": i % n,
            "a": float(record.a[i]), "b": float(record.b[i]),
            "label_a": LABEL_CHARS[record.label_a[i]],
            "label_b": LABEL_CHARS[record.label_b[i]],
            "kept": int(record.kept[i]),
        }))
    return "\n".join(lines) + "\n"


def loads(text: str) -> BlockRecord:
    """Parse a record from text, auto-detecting the format."""
    stripped = text.lstrip()
    if stripped.startswith(HEADER_MAGIC):
        return _loads_csv(text)
    if stripped.startswith("{"):
        return _loads_jsonl(text)
    raise ParseError("not a cvqkd record: unrecognized first line")


def _parse_header_line(line: str) -> dict:
    fields = {}
    for item in line[len(HEADER_MAGIC):].split():
        key, sep, value = item.partition("=")
        if not sep:
            raise ParseError(f"malformed header item {item!r}")
        fields[key] = value
    return fields


def _numbered_lines(text: str) -> tuple[list[int], list[str]]:
    """The non-blank lines of a record and their file line numbers, so
    errors cite the line a user sees."""
    lines = text.splitlines()
    numbers = [number for number, line in enumerate(lines, 1) if line]
    return numbers, [line for line in lines if line]


def _loads_csv(text: str) -> BlockRecord:
    numbers, lines = _numbered_lines(text)
    fields = _parse_header_line(lines[0])
    numbers, rows = numbers[1:], lines[1:]
    a, b, label_a, label_b, kept = (np.empty(len(rows), dtype) for dtype in COLUMN_DTYPES)
    for i, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != 7:
            raise ParseError(f"line {numbers[i]}: expected 7 fields, got {len(parts)}")
        try:
            a[i] = float(parts[2])
            b[i] = float(parts[3])
            label_a[i] = LABEL_CHARS.index(parts[4])
            label_b[i] = LABEL_CHARS.index(parts[5])
            kept[i] = bool(int(parts[6]))
        except ValueError as exc:
            raise ParseError(f"line {numbers[i]}: {exc}") from exc
    return _record_from_header(fields, numbers, a, b, label_a, label_b, kept)


def _loads_jsonl(text: str) -> BlockRecord:
    numbers, lines = _numbered_lines(text)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad json-lines header: {exc}") from exc
    if header.get("record") != "cvqkd":
        raise ParseError("json-lines file is not a cvqkd record")
    numbers, rows = numbers[1:], lines[1:]
    a, b, label_a, label_b, kept = (np.empty(len(rows), dtype) for dtype in COLUMN_DTYPES)
    for i, line in enumerate(rows):
        try:
            row = json.loads(line)
            a[i] = row["a"]
            b[i] = row["b"]
            label_a[i] = LABEL_CHARS.index(row["label_a"])
            label_b[i] = LABEL_CHARS.index(row["label_b"])
            kept[i] = bool(row["kept"])
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ParseError(f"line {numbers[i]}: {exc}") from exc
    return _record_from_header(fields=header, line_numbers=numbers, a=a, b=b,
                               label_a=label_a, label_b=label_b, kept=kept)


def write_record(record: BlockRecord, path, fmt: str = "csv") -> Path:
    path = Path(path)
    path.write_text(dumps(record, fmt))
    return path


def read_record(path) -> BlockRecord:
    return loads(Path(path).read_text())


def read_samples(path, label: str | None = None):
    """Kept pulses of a record file as a SampleSet ready for the
    estimators (label None pools both quadratures)."""
    return read_record(path).samples(label)
