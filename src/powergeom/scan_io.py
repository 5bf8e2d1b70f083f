"""Scan serialization: CSV and JSON writers, the matching re-reader, and
the standalone plot-script emitter.

Numbers are written with 17 significant digits so every float round-trips
exactly and reruns can be compared byte for byte; nothing volatile (no
timestamps, no host or thread information) enters the output. The CSV
carries ``# key=value`` metadata lines above the header row; the JSON
variant mirrors rows and metadata, with ``null`` for undefined curvature.

A :class:`ScanTable` holds the metadata and one :class:`ScanRow` named
tuple per point, in column order, so a row is the tuple its writers
format. Both writers and both readers work column-wise, so every
float-to-text and text-to-float conversion runs in C: a CSV row is one
``%``-template applied to the row, a JSON column's float text comes from
the C encoder (``json.dumps`` of the column as a list), and the readers
convert whole columns with ``map(float, ...)``. The JSON text is the
``json.dumps(..., indent=1)`` layout of
``{"metadata": ..., "records": [...]}``, assembled from those pieces.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

from .errors import SchemaMismatch
from .geometry import CLASS_LABELS
from .stability import DEFAULT_GUARD, Bounds, DiagonalScan, GridScan

SCAN_COLUMNS = ("a1", "a2", "value", "g11", "g12", "g22",
                "det", "curvature", "class")
FORMAT_TAG = "powergeom-scan-v1"

#: Class labels a scan file may carry.
_LABELS = frozenset(CLASS_LABELS)

#: Text ``float()`` reads but no writer produces: ``_`` digit separators,
#: whitespace and non-ASCII characters (such as other scripts' digits).
_ODD_NUMBER = re.compile(r"[_\s]|[^\x00-\x7f]")
_ODD_ASCII = "_" + "".join(c for c in map(chr, range(128)) if c.isspace())

#: One CSV data row: the eight floats with 17 significant digits, then
#: the class label.
_CSV_ROW = "%.17g," * 8 + "%s\n"
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
    rows: tuple[ScanRow, ...]


def _scan_table(scan: GridScan | DiagonalScan, command: str,
                a1_bounds: Bounds, a2_bounds: Bounds) -> ScanTable:
    model = scan.model
    metadata = {
        "format": FORMAT_TAG,
        "command": command,
        "model": model.kind.value,
        "v": format_float(model.v),
        "r0": format_float(model.r0),
        "a1_min": format_float(a1_bounds[0]),
        "a1_max": format_float(a1_bounds[1]),
        "a2_min": format_float(a2_bounds[0]),
        "a2_max": format_float(a2_bounds[1]),
        "n": str(scan.n),
        "guard": format_float(DEFAULT_GUARD),
        "unit": "rad",
    }
    cols = scan.columns
    return ScanTable(metadata=metadata, rows=tuple(map(
        ScanRow, *(cols[name].tolist() for name in SCAN_COLUMNS[:-1]),
        scan.class_labels())))


def grid_table(scan: GridScan) -> ScanTable:
    return _scan_table(scan, "scan", scan.a1_bounds, scan.a2_bounds)


def diagonal_table(scan: DiagonalScan) -> ScanTable:
    return _scan_table(scan, "diagonal", scan.bounds, scan.bounds)


def render_csv(table: ScanTable) -> str:
    head = "".join(f"# {key}={value}\n"
                   for key, value in table.metadata.items())
    body = "".join(map(_CSV_ROW.__mod__, table.rows))
    return head + ",".join(SCAN_COLUMNS) + "\n" + body


def render_json(table: ScanTable) -> str:
    # json.dumps(indent=1) never puts a raw newline inside a value, so
    # indenting every line break nests the metadata object one level.
    metadata = json.dumps(table.metadata, indent=1).replace("\n", "\n ")
    records = "[]"
    if table.rows:
        *floats, curvature, labels = zip(*table.rows)
        # Float text from the C encoder; no float repr contains ", ".
        texts = [json.dumps(col)[1:-1].split(", ") for col in floats]
        # Undefined curvature is written as null; "NaN" is only ever the
        # whole token of a nan.
        texts.append(json.dumps(curvature)[1:-1].replace("NaN", "null")
                     .split(", "))
        encoded = {label: json.dumps(label) for label in set(labels)}
        texts.append(map(encoded.__getitem__, labels))
        records = ("[\n"
                   + ",\n".join(map(_JSON_RECORD.__mod__, zip(*texts)))
                   + "\n ]")
    return ('{\n "metadata": ' + metadata + ',\n "records": ' + records
            + "\n}\n")


def write_table(table: ScanTable, path: str, fmt: str = "csv") -> None:
    if fmt == "csv":
        text = render_csv(table)
    elif fmt == "json":
        text = render_json(table)
    else:
        raise ValueError(f"unknown scan format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _check_format(metadata: dict[str, str], where: str) -> None:
    tag = metadata.get("format")
    if tag != FORMAT_TAG:
        raise SchemaMismatch(
            f"{where}: missing or foreign format tag {tag!r}")


def _table_from_columns(metadata: dict[str, str],
                        floats: Sequence[Sequence[float]],
                        labels: Sequence[str], where: str) -> ScanTable:
    """Rows from eight parsed float columns and the label column."""
    if not _LABELS.issuperset(labels):
        bad = next(label for label in labels if label not in _LABELS)
        raise SchemaMismatch(f"{where}: unknown class label {bad!r}")
    return ScanTable(metadata=metadata,
                     rows=tuple(map(ScanRow, *floats, labels)))


def read_scan_csv(path: str) -> ScanTable:
    """Parse a scan CSV written by :func:`write_table`; schema-checked."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise SchemaMismatch(f"{path}: not UTF-8 text: {exc}") from None
    metadata: dict[str, str] = {}
    for line in lines:
        if line[:1] == "#":
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value
    data = [line for line in lines if line and line[:1] != "#"]
    if not data:
        raise SchemaMismatch(f"{path}: no header row found")
    if tuple(data[0].split(",")) != SCAN_COLUMNS:
        raise SchemaMismatch(
            f"{path}: header {data[0]!r} does not match "
            f"{','.join(SCAN_COLUMNS)!r}")
    _check_format(metadata, path)
    rows = data[1:]
    width = len(SCAN_COLUMNS)
    if set(map(str.count, rows, repeat(","))) - {width - 1}:
        got = next(n + 1 for n in map(str.count, rows, repeat(","))
                   if n != width - 1)
        raise SchemaMismatch(f"{path}: expected {width} fields, got {got}")
    # Every row has `width` fields, so column i is every width-th cell
    # from cell i on.
    text = ",".join(rows)
    cells = text.split(",") if rows else []
    if not text.isascii() or any(c in text for c in _ODD_ASCII):
        _reject_odd_numbers(cells, width, path)
    floats = []
    for i, name in enumerate(SCAN_COLUMNS[:-1]):
        try:
            floats.append(list(map(float, cells[i::width])))
        except ValueError as exc:
            raise SchemaMismatch(f"{path}: column {name!r}: {exc}") from None
    return _table_from_columns(metadata, floats, cells[width - 1::width],
                               path)


def _reject_odd_numbers(cells: list[str], width: int, path: str) -> None:
    """Raise SchemaMismatch for the first number cell holding text that
    only ``float()`` accepts; labels are checked against the known set."""
    for i, cell in enumerate(cells):
        if i % width != width - 1 and _ODD_NUMBER.search(cell):
            raise SchemaMismatch(
                f"{path}: column {SCAN_COLUMNS[i % width]!r}: {cell!r} is "
                "not a number as written (underscore, whitespace or "
                "non-ASCII text)")


def read_scan_json(path: str) -> ScanTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise SchemaMismatch(f"{path}: not JSON: {exc}") from None
        except RecursionError:  # the decoder's limit on nested values
            raise SchemaMismatch(f"{path}: JSON nested too deeply") from None
    try:
        metadata = dict(data["metadata"])
        records = data["records"]
    except (KeyError, TypeError):
        raise SchemaMismatch(f"{path}: not a scan JSON object") from None
    _check_format(metadata, path)
    try:
        *columns, labels = [[rec[name] for rec in records]
                            for name in SCAN_COLUMNS]
        for name, col in zip(SCAN_COLUMNS, columns):
            wrong = set(map(type, col)) & {str, bool}
            if wrong:
                raise SchemaMismatch(
                    f"{path}: bad record: {name!r} holds a "
                    f"{wrong.pop().__name__}, not a number")
        if None in columns[7]:  # null curvature: undefined
            columns[7] = [math.nan if c is None else c for c in columns[7]]
        return _table_from_columns(
            metadata, [list(map(float, col)) for col in columns], labels,
            path)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaMismatch(f"{path}: bad record: {exc}") from None


def _is_json(path: str) -> bool:
    """Whether a scan file is JSON: its first byte is ``{``. CSV scans
    start with ``#``."""
    with open(path, "rb") as fh:
        return fh.read(1) == b"{"


def read_scan(path: str) -> ScanTable:
    """Dispatch on content, whatever the file's name: JSON when it starts
    with ``{``, else the CSV reader."""
    if _is_json(path):
        return read_scan_json(path)
    return read_scan_csv(path)


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
