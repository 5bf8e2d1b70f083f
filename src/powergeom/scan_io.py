"""Scan serialization: CSV and JSON writers, the matching re-reader, and
the standalone plot-script emitter.

Numbers are written with 17 significant digits so every float round-trips
exactly and reruns can be compared byte for byte; nothing volatile (no
timestamps, no host or thread information) enters the output. The CSV
carries ``# key=value`` metadata lines above the header row; the JSON
variant mirrors rows and metadata, with ``null`` for undefined curvature.

A :class:`ScanTable` holds the metadata and its rows: :class:`ScanRow`
named tuples in column order, made on demand from float64 columns and
int8 class codes (the scan's own in the tables of :func:`grid_table` and
:func:`diagonal_table`, the parsed ones in the readers' tables) and the
axis samples of the metadata bounds. The renderers yield the file text
one block of :data:`BLOCK_ROWS` rows at a time, and :func:`write_table`
writes each block as it comes, so a scan file is written in the memory of
one block. Every float-to-text and text-to-float conversion runs
column-wise in C: a CSV row is one ``%``-template applied to the row, JSON
float text comes from the C encoder (``json.dumps`` of a column as a
list), the axis values are formatted once per axis, and the readers
convert whole columns with ``map(float, ...)``. The JSON text is the
``json.dumps(..., indent=1)`` layout of ``{"metadata": ..., "records":
[...]}``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import BadDomain, SchemaMismatch
from .geometry import CLASS_LABELS
from .stability import (DEFAULT_GUARD, Bounds, DiagonalScan, GridScan,
                        _check_bounds, axis_samples)

SCAN_COLUMNS = ("a1", "a2", "value", "g11", "g12", "g22",
                "det", "curvature", "class")
FORMAT_TAG = "powergeom-scan-v1"

#: The class code of each label a scan file may carry.
_CODES = {label: code for code, label in enumerate(CLASS_LABELS)}

#: Text ``float()`` reads but no writer produces: ``_`` digit separators,
#: whitespace and non-ASCII characters (such as other scripts' digits).
_ODD_NUMBER = re.compile(r"[_\s]|[^\x00-\x7f]")
_ODD_ASCII = "_" + "".join(c for c in map(chr, range(128)) if c.isspace())
#: ``n`` as the writers write it: >= 2, in at most 18 digits for ``int``.
_COUNT = re.compile("[2-9]|[1-9][0-9]{1,17}")

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
    """A table's rows, made on demand from its columns. ``axes`` holds the
    axis samples: a1 and a2 of a grid, the one axis of a diagonal."""

    def __init__(self, columns: dict[str, np.ndarray],
                 axes: tuple[list[float], ...]):
        self.columns, self.axes = columns, axes

    def __len__(self) -> int:
        return len(self.columns["codes"])

    def block(self, start: int, stop: int) -> list[list]:
        """The eight float columns of rows start..stop, then the labels."""
        cols = self.columns
        return [cols[name][start:stop].tolist()
                for name in SCAN_COLUMNS[:-1]] + [
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
    return ScanTable(metadata,
                     _ScanRows(scan.columns, _axes(metadata, command)))


def grid_table(scan: GridScan) -> ScanTable:
    return _scan_table(scan, "scan", scan.a1_bounds, scan.a2_bounds)


def diagonal_table(scan: DiagonalScan) -> ScanTable:
    return _scan_table(scan, "diagonal", scan.bounds, scan.bounds)


def _axes(metadata: dict[str, str], where: str) -> tuple[list[float], ...]:
    """The axis samples of a table's metadata bounds: a1 and a2 of a scan,
    the one axis of a diagonal. Bounds no scan can have are a
    SchemaMismatch that names ``where`` and the axis; a scan's never are."""
    bounds = []
    for name in ("a1", "a2"):
        ends = metadata.get(f"{name}_min"), metadata.get(f"{name}_max")
        try:
            bounds.append(_check_bounds(tuple(map(float, ends)), name))
        except (TypeError, ValueError):
            raise SchemaMismatch(f"{where}: {name} bounds {ends} are not "
                                 "numbers") from None
        except BadDomain as exc:
            raise SchemaMismatch(f"{where}: {exc}") from None
    if metadata["command"] == "diagonal":
        if bounds[1] != bounds[0]:
            raise SchemaMismatch(f"{where}: diagonal a2 bounds {bounds[1]!r}"
                                 f" differ from its a1 bounds {bounds[0]!r}")
        del bounds[1]
    return tuple(axis_samples(axis, int(metadata["n"])) for axis in bounds)


def _blocks(rows: _ScanRows, texts: Callable[..., list[str]]):
    """Per block of :data:`BLOCK_ROWS` rows: the a1 and a2 text as
    ``texts`` writes a float column, then the six other float columns and
    the labels. The axis values are written once, not per row."""
    axes = [texts(axis) for axis in rows.axes]
    n = len(axes[0])
    for start in range(0, len(rows), BLOCK_ROWS):
        span = range(start, min(start + BLOCK_ROWS, len(rows)))
        a1 = [axes[0][i % n] for i in span]  # a1 runs fastest
        a2 = a1 if len(axes) == 1 else [axes[1][i // n] for i in span]
        yield a1, a2, rows.block(span.start, span.stop)[2:]


def _csv_texts(column: Sequence[float]) -> list[str]:
    return list(map("%.17g".__mod__, column))


def _json_texts(column: Sequence[float]) -> list[str]:
    # Float text from the C encoder; no float repr contains ", ".
    return json.dumps(column)[1:-1].split(", ")


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
    join = '{\n "metadata": ' + metadata + ',\n "records": [\n'
    for a1, a2, (*floats, curvature, labels) in _blocks(table.rows,
                                                        _json_texts):
        texts = [a1, a2, *map(_json_texts, floats)]
        # Undefined curvature is written as null; "NaN" is only ever the
        # whole token of a nan.
        texts.append(json.dumps(curvature)[1:-1].replace("NaN", "null")
                     .split(", "))
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


def _check_format(metadata: dict[str, str], where: str) -> None:
    tag = metadata.get("format")
    if tag != FORMAT_TAG:
        raise SchemaMismatch(
            f"{where}: missing or foreign format tag {tag!r}")


def _table_from_columns(metadata: dict[str, str],
                        floats: Sequence[np.ndarray],
                        labels: Sequence[str], where: str) -> ScanTable:
    """The table of eight parsed float columns and the label column, if
    they hold a scan: known labels, n or n**2 rows, and a1, a2 and det as
    a scan file's redundancy fixes them, bit for bit."""
    try:
        codes = np.fromiter(map(_CODES.__getitem__, labels), np.int8,
                            len(labels))
    except KeyError as exc:
        raise SchemaMismatch(
            f"{where}: unknown class label {exc.args[0]!r}") from None
    command, n = metadata.get("command"), metadata.get("n")
    if command not in ("scan", "diagonal") or not (
            isinstance(n, str) and _COUNT.fullmatch(n)):
        raise SchemaMismatch(f"{where}: command={command!r}, n={n!r} is not "
                             "a scan or diagonal of n >= 2 points")
    want = int(n) ** 2 if command == "scan" else int(n)
    if len(labels) != want:
        raise SchemaMismatch(f"{where}: {len(labels)} rows, but a "
                             f"{command} of n={n} has {want}")
    columns = dict(zip(SCAN_COLUMNS, floats), codes=codes)
    axes = _axes(metadata, where)
    runs = int(n) if command == "scan" else 1  # of each axis's n samples
    rules = []
    for name, axis, spread in (("a1", axes[0], np.tile),  # a1 runs fastest
                               ("a2", axes[-1], np.repeat)):
        want = spread(axis, runs).view(np.uint64)
        bounds = tuple(float(metadata[f"{name}_{end}"]) for end in ("min",
                                                                    "max"))
        rules.append((columns[name].view(np.uint64) == want, f"{name} is not "
                      f"the axis sample of the metadata bounds {bounds!r}"))
    g11, g12, g22, det = map(columns.get, ("g11", "g12", "g22", "det"))
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan compared
        product = g11 * g22 - g12 * g12
    rules.append(((product.view(np.uint64) == det.view(np.uint64))
                  | (np.isnan(product) & np.isnan(det)),
                  "det is not g11*g22 - g12*g12"))
    for ok, rule in rules:
        if not ok.all():
            row = int(np.argmin(ok.ravel())) + 1
            raise SchemaMismatch(f"{where}: row {row}: {rule}")
    return ScanTable(metadata, _ScanRows(columns, axes))


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
        for i, cell in enumerate(cells):  # text only float() accepts
            if i % width != width - 1 and _ODD_NUMBER.search(cell):
                raise SchemaMismatch(
                    f"{path}: column {SCAN_COLUMNS[i % width]!r}: {cell!r} "
                    "is not a number as written (underscore, whitespace or "
                    "non-ASCII text)")
    # Free the text before the columns are built: it keeps the peak down.
    del lines, data, rows, text
    floats = []
    for i, name in enumerate(SCAN_COLUMNS[:-1]):
        try:
            floats.append(np.fromiter(map(float, cells[i::width]), float))
        except ValueError as exc:
            raise SchemaMismatch(f"{path}: column {name!r}: {exc}") from None
    labels = cells[width - 1::width]
    del cells
    return _table_from_columns(metadata, floats, labels, path)


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
        del data, records  # as in read_scan_csv
        for name, col in zip(SCAN_COLUMNS, columns):
            wrong = set(map(type, col)) & {str, bool}
            if wrong:
                raise SchemaMismatch(
                    f"{path}: bad record: {name!r} holds a "
                    f"{wrong.pop().__name__}, not a number")
        if None in columns[7]:  # null curvature: undefined
            columns[7] = [math.nan if c is None else c for c in columns[7]]
        columns = [np.fromiter(map(float, col), float) for col in columns]
        return _table_from_columns(metadata, columns, labels, path)
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
