"""Scan serialization: CSV and JSON writers, the matching re-reader, and
the standalone plot-script emitter.

Numbers are written with 17 significant digits so every float round-trips
exactly and reruns can be compared byte for byte; nothing volatile (no
timestamps, no host or thread information) enters the output. The CSV
carries ``# key=value`` metadata lines above the header row; the JSON
variant mirrors rows and metadata, with ``null`` for undefined curvature.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import SchemaMismatch
from .stability import Bounds, DiagonalScan, GridScan

SCAN_COLUMNS = ("a1", "a2", "value", "g11", "g12", "g22",
                "det", "curvature", "class")
FORMAT_TAG = "powergeom-scan-v1"


def format_float(x: float) -> str:
    """17 significant digits; round-trips every finite double."""
    return f"{x:.17g}"


@dataclass(frozen=True)
class ScanRow:
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
        "guard": format_float(scan.guard),
        "unit": "rad",
    }
    cols = scan.columns
    rows = tuple(map(ScanRow, *(cols[name].tolist()
                                for name in SCAN_COLUMNS[:-1]),
                     scan.class_labels()))
    return ScanTable(metadata=metadata, rows=rows)


def grid_table(scan: GridScan) -> ScanTable:
    return _scan_table(scan, "scan", scan.a1_bounds, scan.a2_bounds)


def diagonal_table(scan: DiagonalScan) -> ScanTable:
    return _scan_table(scan, "diagonal", scan.bounds, scan.bounds)


def render_csv(table: ScanTable) -> str:
    out = io.StringIO()
    for key, value in table.metadata.items():
        out.write(f"# {key}={value}\n")
    out.write(",".join(SCAN_COLUMNS) + "\n")
    for r in table.rows:
        out.write(",".join((
            format_float(r.a1), format_float(r.a2), format_float(r.value),
            format_float(r.g11), format_float(r.g12), format_float(r.g22),
            format_float(r.det), format_float(r.curvature), r.label)) + "\n")
    return out.getvalue()


def render_json(table: ScanTable) -> str:
    records = [{
        "a1": r.a1, "a2": r.a2, "value": r.value,
        "g11": r.g11, "g12": r.g12, "g22": r.g22, "det": r.det,
        "curvature": None if math.isnan(r.curvature) else r.curvature,
        "class": r.label,
    } for r in table.rows]
    return json.dumps({"metadata": table.metadata, "records": records},
                      indent=1) + "\n"


def write_table(table: ScanTable, path: str, fmt: str = "csv") -> None:
    if fmt == "csv":
        text = render_csv(table)
    elif fmt == "json":
        text = render_json(table)
    else:
        raise ValueError(f"unknown scan format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _rows_from_iter(metadata: dict[str, str],
                    raw_rows: Iterable[Sequence[str]],
                    where: str) -> ScanTable:
    rows = []
    for parts in raw_rows:
        if len(parts) != len(SCAN_COLUMNS):
            raise SchemaMismatch(
                f"{where}: expected {len(SCAN_COLUMNS)} fields, "
                f"got {len(parts)}")
        rows.append(ScanRow(
            a1=float(parts[0]), a2=float(parts[1]), value=float(parts[2]),
            g11=float(parts[3]), g12=float(parts[4]), g22=float(parts[5]),
            det=float(parts[6]), curvature=float(parts[7]),
            label=parts[8]))
    return ScanTable(metadata=metadata, rows=tuple(rows))


def read_scan_csv(path: str) -> ScanTable:
    """Parse a scan CSV written by :func:`write_table`; schema-checked."""
    metadata: dict[str, str] = {}
    raw_rows: list[list[str]] = []
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value
                continue
            if not header_seen:
                if tuple(line.split(",")) != SCAN_COLUMNS:
                    raise SchemaMismatch(
                        f"{path}: header {line!r} does not match "
                        f"{','.join(SCAN_COLUMNS)!r}")
                header_seen = True
                continue
            raw_rows.append(line.split(","))
    if not header_seen:
        raise SchemaMismatch(f"{path}: no header row found")
    return _rows_from_iter(metadata, raw_rows, path)


def read_scan_json(path: str) -> ScanTable:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        metadata = dict(data["metadata"])
        records = data["records"]
    except (KeyError, TypeError):
        raise SchemaMismatch(f"{path}: not a scan JSON object") from None
    rows = []
    for rec in records:
        try:
            curvature = rec["curvature"]
            rows.append(ScanRow(
                a1=float(rec["a1"]), a2=float(rec["a2"]),
                value=float(rec["value"]), g11=float(rec["g11"]),
                g12=float(rec["g12"]), g22=float(rec["g22"]),
                det=float(rec["det"]),
                curvature=math.nan if curvature is None else float(curvature),
                label=str(rec["class"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaMismatch(f"{path}: bad record: {exc}") from None
    return ScanTable(metadata=metadata, rows=tuple(rows))


def read_scan(path: str) -> ScanTable:
    """Dispatch on extension: .json via the JSON reader, else CSV."""
    if path.endswith(".json"):
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
    table = read_scan_csv(scan_path)  # validates schema
    if table.metadata.get("format") != FORMAT_TAG:
        raise SchemaMismatch(
            f"{scan_path}: missing or foreign format tag "
            f"{table.metadata.get('format')!r}")
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
