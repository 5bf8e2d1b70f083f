"""Scan serialization: CSV and JSON writers, the reader, and the
standalone plot-script emitter.

Numbers are written with 17 significant digits so every float round-trips
exactly and reruns can be compared byte for byte; nothing volatile (no
timestamps, no host or thread information) enters the output. The CSV
carries ``# key=value`` metadata lines above the header row; the JSON
variant mirrors rows and metadata, with ``null`` for undefined curvature.

A :class:`ScanTable` holds the metadata and its rows: :class:`ScanRow`
named tuples in column order, made on demand from a scan's float64
columns and int8 class codes and the axis samples of its spec. The
renderers yield the file text one block of :data:`BLOCK_ROWS` rows at a
time, and :func:`write_table` writes each block as it comes, so a scan
file is written in the memory of one block. A CSV row is one
``%``-template applied to the row, JSON float text comes from the C
encoder (``json.dumps`` of a column as a list), and the axis values are
formatted once per axis. The JSON text is the ``json.dumps(...,
indent=1)`` layout of ``{"metadata": ..., "records": [...]}``.

A scan file is a pure function of its metadata (flow, V, R0, bounds, n
and command), so the reader parses nothing else: it re-runs the scan of
the :class:`~powergeom.stability.ScanSpec` the metadata names, which
checks it, and compares the writer's text for it with the file block by
block. The first byte that differs is a :class:`SchemaMismatch` naming
its offset, row and column. Only this module knows the file format. A
file the reader accepts is byte for byte what ``scan``/``diagonal``
writes, the table it returns is the re-scan's, and reading takes the
memory of the scan's columns and one block, whatever the file holds.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .errors import BadDomain, SchemaMismatch
from .geometry import CLASS_LABELS
from .models import FlowKind, PowerModel
from .stability import DEFAULT_GUARD, Scan, ScanSpec, evaluate_scan

SCAN_COLUMNS = ("a1", "a2", "value", "g11", "g12", "g22",
                "det", "curvature", "class")
FORMAT_TAG = "powergeom-scan-v1"

#: ``n`` as the writers write it: >= 2, in at most 18 digits for ``int``.
_COUNT = re.compile("[2-9]|[1-9][0-9]{1,17}")
#: Bytes of a file the readers take its metadata from; a writer's
#: metadata head is a few hundred.
_HEAD_BYTES = 1 << 16
#: The shortest CSV row: eight 1-character numbers, eight commas, a
#: 5-character label and the line break. JSON records are longer, so no
#: scan file holds more rows than its size over this.
_MIN_ROW_BYTES = 22
#: The opening of a scan JSON object, up to its metadata object.
_JSON_KEY = re.compile(r'\{\s*"metadata"\s*:\s*')
#: What ends a JSON head and opens its records.
_RECORDS = '\n "records": [\n'

#: Rows per block the writers render and write at a time.
BLOCK_ROWS = 1024
#: One CSV data row: the a1 and a2 text, the six other floats with 17
#: significant digits, then the class label.
_CSV_ROW = "%s,%s," + "%.17g," * 6 + "%s\n"
#: One JSON record at its nesting depth in the ``indent=1`` layout.
_JSON_RECORD = ("  {\n"
                + ",\n".join(f'   "{name}": %s' for name in SCAN_COLUMNS)
                + "\n  }")


def format_float(x: float) -> str:
    """17 significant digits; round-trips every finite double."""
    return f"{x:.17g}"


class ScanRow(NamedTuple):
    """One scan point, its fields in :data:`SCAN_COLUMNS` order."""

    a1: float
    a2: float
    value: float
    g11: float
    g12: float
    g22: float
    det: float
    curvature: float  # nan when undefined
    label: str


@dataclass(frozen=True)
class ScanTable:
    """Neutral scan content: ordered metadata plus rows."""

    metadata: dict[str, str]
    rows: _ScanRows


class _ScanRows(Sequence):
    """A table's rows, made on demand from a scan's columns and spec."""

    def __init__(self, scan: Scan):
        self.columns, self.spec = scan.columns, scan.spec

    def __len__(self) -> int:
        return len(self.columns["codes"])

    def block(self, start: int, stop: int,
              names: Sequence[str] = SCAN_COLUMNS[:-1]) -> list[list]:
        """The float columns ``names`` of rows start..stop, then the
        labels."""
        cols = self.columns
        return [cols[name][start:stop].tolist() for name in names] + [
            list(map(CLASS_LABELS.__getitem__,
                     cols["codes"][start:stop].tolist()))]

    def __getitem__(self, index):
        span = range(len(self))[index]  # checks the index, resolves slices
        if isinstance(span, range):
            return tuple(map(self.__getitem__, span))
        return ScanRow(*(col[0] for col in self.block(span, span + 1)))

    def __iter__(self):
        for start in range(0, len(self), BLOCK_ROWS):
            yield from map(ScanRow, *self.block(start, start + BLOCK_ROWS))


def _scan_table(scan: Scan) -> ScanTable:
    spec = scan.spec
    metadata = {
        "format": FORMAT_TAG,
        "command": spec.command,
        "model": spec.model.kind.value,
        "v": format_float(spec.model.v),
        "r0": format_float(spec.model.r0),
        "a1_min": format_float(spec.a1_bounds[0]),
        "a1_max": format_float(spec.a1_bounds[1]),
        "a2_min": format_float(spec.a2_bounds[0]),
        "a2_max": format_float(spec.a2_bounds[1]),
        "n": str(spec.n),
        "guard": format_float(DEFAULT_GUARD),
        "unit": "rad",
    }
    return ScanTable(metadata, _ScanRows(scan))


# One name per verb, which perfbench traces as its own layer.
def grid_table(scan: Scan) -> ScanTable:
    return _scan_table(scan)


def diagonal_table(scan: Scan) -> ScanTable:
    return _scan_table(scan)


def _blocks(rows: _ScanRows, texts: Callable[..., list[str]]):
    """Per block of :data:`BLOCK_ROWS` rows: the a1 and a2 text as
    ``texts`` writes a float column, then the six other float columns and
    the labels. The axis values are written once, not per row."""
    spec = rows.spec
    n = spec.n
    ax1 = texts(spec.a1_axis.tolist())
    ax2 = None if spec.command == "diagonal" else texts(spec.a2_axis.tolist())
    for start in range(0, len(rows), BLOCK_ROWS):
        span = range(start, min(start + BLOCK_ROWS, len(rows)))
        a1 = [ax1[i % n] for i in span]  # a1 runs fastest
        a2 = a1 if ax2 is None else [ax2[i // n] for i in span]
        yield a1, a2, rows.block(span.start, span.stop,
                                 SCAN_COLUMNS[2:-1])


def _csv_texts(column: Sequence[float]) -> list[str]:
    return list(map("%.17g".__mod__, column))


def _json_texts(column: Sequence[float], nan: str = "NaN") -> list[str]:
    # Float text from the C encoder, with ``nan`` for a nan; no float repr
    # contains ", ", and "NaN" is only ever the whole token of a nan.
    return json.dumps(column)[1:-1].replace("NaN", nan).split(", ")


def render_csv(table: ScanTable) -> Iterator[str]:
    """The CSV text of ``table``: its head, then one piece per block."""
    yield ("".join(f"# {key}={value}\n"
                   for key, value in table.metadata.items())
           + ",".join(SCAN_COLUMNS) + "\n")
    for a1, a2, rest in _blocks(table.rows, _csv_texts):
        yield "".join(map(_CSV_ROW.__mod__, zip(a1, a2, *rest)))


def render_json(table: ScanTable) -> Iterator[str]:
    """The JSON text of ``table`` in pieces, one per block of records."""
    # json.dumps(indent=1) never puts a raw newline inside a value, so
    # indenting every line break nests the metadata object one level.
    metadata = json.dumps(table.metadata, indent=1).replace("\n", "\n ")
    join = '{\n "metadata": ' + metadata + "," + _RECORDS
    for a1, a2, (*floats, curvature, labels) in _blocks(table.rows,
                                                        _json_texts):
        # Undefined curvature is written as null.
        texts = [a1, a2, *map(_json_texts, floats),
                 _json_texts(curvature, "null")]
        encoded = {label: json.dumps(label) for label in set(labels)}
        texts.append(map(encoded.__getitem__, labels))
        yield join + ",\n".join(map(_JSON_RECORD.__mod__, zip(*texts)))
        join = ",\n"
    yield "\n ]\n}\n"


def write_table(table: ScanTable, path: str, fmt: str = "csv") -> None:
    """Write ``table`` to ``path`` block by block; a write that fails
    part way removes the file rather than leave it truncated."""
    if fmt == "csv":
        pieces = render_csv(table)
    elif fmt == "json":
        pieces = render_json(table)
    else:
        raise ValueError(f"unknown scan format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        try:
            for piece in pieces:
                fh.write(piece)
        except BaseException:
            fh.close()
            with contextlib.suppress(OSError):
                os.remove(path)
            raise


def _csv_metadata(head: str, where: str) -> dict[str, str]:
    """The ``# key=value`` lines above the header row of a CSV head."""
    metadata: dict[str, str] = {}
    for line in head.split("\n"):
        if line[:1] == "#":
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value
        elif line:
            if tuple(line.split(",")) != SCAN_COLUMNS:
                raise SchemaMismatch(
                    f"{where}: header {line!r} does not match "
                    f"{','.join(SCAN_COLUMNS)!r}")
            return metadata
    raise SchemaMismatch(f"{where}: no header row found")


def _json_metadata(head: str, where: str) -> dict:
    """The ``"metadata"`` object that opens a JSON head."""
    key = _JSON_KEY.match(head)
    if not key:
        raise SchemaMismatch(f"{where}: not a scan JSON object")
    try:
        metadata = json.JSONDecoder().raw_decode(head, key.end())[0]
    except ValueError as exc:
        raise SchemaMismatch(f"{where}: not JSON: {exc}") from None
    except RecursionError:  # the decoder's limit on nested values
        raise SchemaMismatch(f"{where}: JSON nested too deeply") from None
    if not isinstance(metadata, dict):
        raise SchemaMismatch(f"{where}: not a scan JSON object")
    return metadata


def _rescan(metadata: dict, size: int, where: str) -> ScanTable:
    """The table ``scan`` or ``diagonal`` writes for ``metadata``, if it
    names one: the format tag, command and n, numbers for bounds, a scan no
    larger than ``size`` bytes can hold, a model, and a valid spec."""
    tag = metadata.get("format")
    if tag != FORMAT_TAG:
        raise SchemaMismatch(
            f"{where}: missing or foreign format tag {tag!r}")
    command, n = metadata.get("command"), metadata.get("n")
    if command not in ("scan", "diagonal") or not (
            isinstance(n, str) and _COUNT.fullmatch(n)):
        raise SchemaMismatch(f"{where}: command={command!r}, n={n!r} is not "
                             "a scan or diagonal of n >= 2 points")
    bounds = []
    for name in ("a1", "a2"):
        ends = metadata.get(f"{name}_min"), metadata.get(f"{name}_max")
        try:
            bounds.append(tuple(map(float, ends)))
        except (TypeError, ValueError, OverflowError):
            raise SchemaMismatch(f"{where}: {name} bounds {ends} are not "
                                 "numbers") from None
    n = int(n)
    rows = n * n if command == "scan" else n
    if rows > size // _MIN_ROW_BYTES:
        raise SchemaMismatch(f"{where}: a {command} of n={n} has {rows} "
                             f"rows, more than {size} bytes can hold")
    fields = tuple(map(metadata.get, ("model", "v", "r0")))
    try:
        model = PowerModel(FlowKind(fields[0]), *map(float, fields[1:]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaMismatch(f"{where}: model, v, r0 = {fields} is not a "
                             f"power model: {exc}") from None
    try:
        spec = ScanSpec(model, command, *bounds, n)
    except BadDomain as exc:
        raise SchemaMismatch(f"{where}: {exc}") from None
    return _scan_table(evaluate_scan(spec))


def _position(piece: str, at: int, k: int, rows: int, is_json: bool) -> str:
    """Where character ``at`` of rendered piece ``k`` of a table of
    ``rows`` rows lies: the head, a row (from 1) and column, or after the
    last row."""
    if not is_json:
        if k == 0:
            return "head"
        row = (k - 1) * BLOCK_ROWS + piece.count("\n", 0, at)
        column = piece.count(",", piece.rfind("\n", 0, at) + 1, at)
    else:  # eleven lines a record: {, the nine fields, }
        if k == 0:
            start = piece.index(_RECORDS) + len(_RECORDS)
            if at < start:
                return "head"
            line = piece.count("\n", start, at)
        else:  # the piece opens with the line break after a }
            line = (min(k * BLOCK_ROWS, rows) * 11 - 1
                    + piece.count("\n", 0, at))
        row, field = divmod(line, 11)
        if row == rows:
            return "after the last row"
        column = min(max(field - 1, 0), len(SCAN_COLUMNS) - 1)
    return f"row {row + 1}, column {SCAN_COLUMNS[column]}"


def _read(path: str, is_json: bool) -> ScanTable:
    """The table of a scan file, re-scanned from its metadata head and
    compared with the file one rendered block at a time."""
    with open(path, "rb") as fh:
        head = fh.read(_HEAD_BYTES).decode("utf-8", "replace")
        metadata = (_json_metadata if is_json else _csv_metadata)(head, path)
        table = _rescan(metadata, os.fstat(fh.fileno()).st_size, path)
        fh.seek(0)
        offset = 0
        for k, piece in enumerate((render_json if is_json else render_csv)(
                table)):
            want = piece.encode()
            got = fh.read(len(want))
            if got != want:  # a difference, or the file ends early
                at = next((i for i, (a, b) in enumerate(zip(got, want))
                           if a != b), len(got))
                where = _position(piece, at, k, len(table.rows), is_json)
                break
            offset += len(want)
        else:
            if not fh.read(1):
                return table
            at, where = 0, "after the last row"
    raise SchemaMismatch(f"{path}: byte {offset + at} ({where}) differs from "
                         f"what {metadata['command']} writes for its metadata")


def read_scan_csv(path: str) -> ScanTable:
    return _read(path, False)


def read_scan_json(path: str) -> ScanTable:
    return _read(path, True)


def _is_json(path: str) -> bool:
    """Whether a scan file is JSON: its first byte is ``{``. CSV scans
    start with ``#``."""
    with open(path, "rb") as fh:
        return fh.read(1) == b"{"


def read_scan(path: str) -> ScanTable:
    """Dispatch on content, whatever the file's name: JSON when it starts
    with ``{``, else CSV."""
    return _read(path, _is_json(path))


_PLOT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Plot {field} from {csv_name} (generated by powergeom plot-script)."""

import math
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

CSV_PATH = Path(__file__).resolve().parent / {rel_path!r}
FIELD = {field!r}
COLUMN = {column_index}

meta = {{}}
values = []
a1s = []
with open(CSV_PATH, "r", encoding="utf-8") as fh:
    header_seen = False
    for line in fh:
        line = line.rstrip("\\n")
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val
            continue
        if not header_seen:
            header_seen = True
            continue
        parts = line.split(",")
        a1s.append(float(parts[0]))
        values.append(float(parts[COLUMN]))

fig, ax = plt.subplots(figsize=(7.0, 5.6))
title = "{{}} flow: {{}}".format(meta.get("model", "?"), FIELD)
if meta.get("command") == "scan":
    n = int(meta["n"])
    z = np.array(values).reshape(n, n)
    extent = (float(meta["a1_min"]), float(meta["a1_max"]),
              float(meta["a2_min"]), float(meta["a2_max"]))
    img = ax.imshow(z, origin="lower", extent=extent, aspect="auto",
                    cmap="viridis")
    fig.colorbar(img, ax=ax, label=FIELD)
    ax.set_xlabel("a1 (rad)")
    ax.set_ylabel("a2 (rad)")
else:
    ax.plot(a1s, values, lw=1.2)
    ax.set_xlabel("a = a1 = a2 (rad)")
    ax.set_ylabel(FIELD)
    ax.grid(True, alpha=0.3)
ax.set_title(title)
out = CSV_PATH.with_suffix("") .name + "_" + FIELD + ".png"
fig.tight_layout()
fig.savefig(out, dpi=150)
print("wrote", out)
'''

PLOT_FIELDS = {"value": 2, "det": 6, "curvature": 7}


def emit_plot_script(scan_path: str, field: str = "det",
                     out_path: str | None = None) -> str:
    """Write a standalone matplotlib script next to a scan CSV.

    Grid scans get a heatmap, diagonal scans a line plot. The script
    references the CSV by a path relative to its own location.
    """
    if field not in PLOT_FIELDS:
        raise ValueError(
            f"field must be one of {sorted(PLOT_FIELDS)}, got {field!r}")
    if _is_json(scan_path):
        raise SchemaMismatch(
            f"{scan_path}: is a JSON scan; plot-script needs a CSV scan")
    read_scan_csv(scan_path)  # validates schema and format tag
    if out_path is None:
        out_path = scan_path + f".plot_{field}.py"
    rel = os.path.relpath(os.path.abspath(scan_path),
                          os.path.dirname(os.path.abspath(out_path)) or ".")
    script = _PLOT_TEMPLATE.format(
        field=field, csv_name=os.path.basename(scan_path),
        rel_path=rel, column_index=PLOT_FIELDS[field])
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(script)
    return out_path
