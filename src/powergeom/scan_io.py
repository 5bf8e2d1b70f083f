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
file is written in the memory of one block. A CSV block is a matrix of
fixed-width cells, a row per CSV row: an integer kernel writes the
``%.17g`` text of each float column into its cells (see "CSV float text"
below), and deleting the pad bytes leaves the block's text. JSON float
text comes from the C encoder (``json.dumps`` of a column as a list).
The axis values are formatted once per axis. The JSON text is the
``json.dumps(..., indent=1)`` layout of ``{"metadata": ...,
"records": [...]}``.

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

import numpy as np

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


# CSV float text. A CSV row is rendered as a row of little-endian 64-bit
# words: one 48-byte cell per float, holding its ``%.17g`` text, pad bytes
# and a comma, then one 8-byte cell holding the class label, pad bytes and
# the line break. Deleting the pad byte from a block of such rows leaves
# the block's text. The pad is a space: no ``%.17g`` text and no label
# holds one.
#
# A normal double x = m*2**q whose 17-digit decimal exponent E lies in
# [-11, 16] takes the integer path below. With s = 16 - E (so 5**s < 2**63)
# its 17 digits are D = round-half-even(m * 5**s * 2**(q + s)), found with a
# 128-bit product and one shift (Gay 1990; Adams, OOPSLA 2019). np.log10
# only estimates E; E is corrected until 10**16 <= floor(m*5**s*2**(q+s))
# < 10**17. No double in this range rounds up to 10**17: 10**0 to 10**17
# are doubles, and the doubles just below 10**-10 to 10**-1 lie more than
# half a unit of the 17th digit below them. Every other value (zeros, nan,
# infinities, subnormals, |x| < 1e-11 and |x| >= 1e17) takes the padded
# ``%.17g`` template, which writes exactly ``%.17g``.
#
# The cell's bytes, before pads are deleted: the sign at 0, the "0.000"
# prefix of -4 <= E < 0 at 1-5, digit i at 6 + 2i with its gap byte after
# it (pad, or the point), the exponent of e-notation at 40-43, the comma
# at 47. Trailing zeros of the fraction, and a point with no fraction
# left, are turned into pads.

_CELL_WORDS = 6
_PAD = b" "
_CSV_FLOAT = f"%-{8 * _CELL_WORDS - 1}.17g,"
#: 5**s for s in [0, 27], in 32-bit halves.
_FIVES_LOW = np.array([5 ** s & 0xFFFFFFFF for s in range(28)], np.uint64)
_FIVES_HIGH = np.array([5 ** s >> 32 for s in range(28)], np.uint64)


def _words(text: str, rows: int | None = None) -> np.ndarray:
    """``text`` as native 64-bit words read little-endian, split into
    ``rows`` rows if given."""
    words = np.frombuffer(text.encode("latin-1"), "<u8").astype(np.uint64)
    return words if rows is None else words.reshape(rows, -1)


def _exponent_tables():
    """Per E in [-11, 17]: word 0 of a cell (sign pad, prefix, the lead
    digit's "0"), its gap bytes in words 0-4 (pads, and the point after
    the last integer digit), its word 5 (exponent, pads, comma) and the
    number of digits after the point."""
    heads, gaps, tails, fraction = [], [], [], []
    for e in range(-11, 18):
        fixed = -4 <= e < 17
        small = fixed and e < 0
        heads.append(" " + ("0." + "0" * (-e - 1) if small else "").ljust(5)
                     + "0\0")
        point = 0 if small else e + 1 if fixed else 1
        gaps.append("\0" * 7 + "\0".join(
            "." if i == point else " " for i in range(1, 18)))
        tails.append(("" if fixed else f"e{e:+03d}").ljust(7) + ",")
        fraction.append(17 if small else 17 - point)
    return (_words("".join(heads)), _words("".join(gaps), 29),
            _words("".join(tails)), np.array(fraction))


_HEADS, _GAPS, _TAILS, _FRACTION = _exponent_tables()
#: Words 0-4 of a cell kept up to byte c and pads from there, by c.
_STRIPS = _words("".join("\xff" * c + " " * (40 - c) for c in range(41)), 41)
# Built from bytes, so that importing allocates no large temporaries.
_QUAD_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
#: The digits of 0 to 9999 at the even bytes of a word, pads between.
_QUADS = np.full((10000, 8), ord(" "), np.uint8)
_QUADS[:, ::2] = _QUAD_DIGITS + ord("0")
_QUADS = _QUADS.view("<u8").astype(np.uint64).ravel()
#: Trailing zeros of 0 to 9999 written with four digits.
_QUAD_ZEROS = np.logical_and.accumulate(_QUAD_DIGITS[:, ::-1] == 0,
                                        axis=1).sum(axis=1)
del _QUAD_DIGITS
_LABELS = _words("".join(label.ljust(7) + "\n" for label in CLASS_LABELS))


def _decimal(x: np.ndarray):
    """Which floats of ``x`` take the integer path, and for those their
    17 digits D as an integer in [10**16, 10**17) and their exponent E."""
    bits = x.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    # 2**-37 <= |x| < 2**57: the binary exponents whose E can be in range.
    fast = biased - 986 < 94
    if not fast.any():
        return fast, None, None
    log = np.zeros(len(x))
    np.log10(np.abs(x), out=log, where=fast)
    e = np.floor(log, out=log).astype(np.int64)
    fast &= (e + 11).view(np.uint64) < 28  # -11 <= E <= 16
    q16 = biased.view(np.int64) - 1059  # q + 16
    m = (bits & ((1 << 52) - 1)) | (1 << 52)
    ml, mh = m & 0xFFFFFFFF, m >> 32
    while True:
        shift = q16 - e  # q + s: -63 to 5 where E is at most one off
        bounded = np.minimum(np.maximum(shift, -63), 7)
        fast &= shift == bounded
        # (hi:lo) = m * 5**s from 32-bit halves
        pl = np.take(_FIVES_LOW, 16 - e, mode="clip")
        ph = np.take(_FIVES_HIGH, 16 - e, mode="clip")
        ll = ml * pl
        mid = ml * ph + mh * pl + (ll >> 32)
        lo = (mid << 32) | (ll & 0xFFFFFFFF)
        hi = mh * ph + (mid >> 32)
        # d = floor((hi:lo) * 2**(q + s)), and whether it reaches 2**64
        right = np.maximum(-bounded, 0).astype(np.uint64)
        left = np.maximum(bounded, 0).astype(np.uint64)
        d = (hi << ((64 - right) & 63)) | (lo >> right)
        big = ((hi >> right) | (d >> (63 - left) >> 1)) != 0
        d <<= left
        off = fast & (big | (d - 10 ** 16 >= 9 * 10 ** 16))
        if not off.any():
            break
        e += off * np.where(big | (d > 10 ** 16), 1, -1)
        fast &= (e + 11).view(np.uint64) < 28
    # Round half to even: up when 2*remainder + (d odd) > 2**right.
    one = 1 << right
    d += ((lo & (one - 1)) << 1 | (d & 1)) > one
    return fast, d, e


def _write_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write the CSV cell of each float of ``x`` to the rows of ``out``, a
    ``(len(x), 6)`` array of ``<u8`` words. Callers pass at most
    :data:`BLOCK_ROWS` floats: the temporaries then stay under 64 KiB and
    are reused from the heap, not mapped and faulted in afresh."""
    x = np.ascontiguousarray(x, np.float64)
    fast, d, e = _decimal(x)
    some = fast.any()
    if some:  # every row is written; the slow ones again below
        lead = d // 10 ** 16
        rest = (d - lead * 10 ** 16).view(np.int64)
        quads = np.empty((len(x), 4), np.intp)
        high = rest // 10 ** 8
        low = rest - high * 10 ** 8
        quads[:, 0] = high // 10 ** 4
        quads[:, 1] = high - quads[:, 0] * 10 ** 4
        quads[:, 2] = low // 10 ** 4
        quads[:, 3] = low - quads[:, 2] * 10 ** 4
        zeros = np.take(_QUAD_ZEROS, quads)
        trailing = zeros[:, 3]
        for j in (2, 1, 0):  # four zeros reach into the quad before
            trailing = trailing + (trailing == 4 * (3 - j)) * zeros[:, j]
        i = e + 11
        cut = 39 - 2 * np.minimum(trailing,
                                  np.take(_FRACTION, i, mode="clip"))
        cells = np.empty((len(x), 5), np.uint64)
        sign = x.view(np.uint64) >> 63
        cells[:, 0] = (np.take(_HEADS, i, mode="clip") + (lead << 48)
                       + sign * (ord("-") - ord(" ")))
        cells[:, 1:] = np.take(_QUADS, quads)
        cells |= np.take(_GAPS, i, axis=0, mode="clip")
        # Every byte of words 0-4 has the pad's bit set, so masking a byte
        # with the pad leaves a pad.
        cells &= np.take(_STRIPS, cut, axis=0, mode="clip")
        out[:, :5] = cells
        out[:, 5] = np.take(_TAILS, i, mode="clip")
    # Where no float is fast, a slice costs less than a mask of every row.
    slow = ~fast if some else slice(None)
    if not some or slow.any():
        values = x[slow].tolist()
        out[slow] = np.frombuffer((_CSV_FLOAT * len(values) % tuple(values))
                                  .encode(), "<u8").reshape(-1, _CELL_WORDS)


def _blocks(rows: _ScanRows, texts: Callable[[np.ndarray], np.ndarray]):
    """Per block of :data:`BLOCK_ROWS` rows: its first row and the row
    after its last, then the a1 and a2 text of its rows, taken from what
    ``texts`` writes for each axis (an entry or a row per sample). An axis
    is written once, not per row."""
    spec = rows.spec
    n = spec.n
    ax1 = texts(spec.a1_axis)
    ax2 = None if spec.command == "diagonal" else texts(spec.a2_axis)
    for start in range(0, len(rows), BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, len(rows))
        if ax2 is None:
            yield start, stop, ax1[start:stop], ax1[start:stop]
        else:
            at = np.arange(start, stop)  # a1 runs fastest
            yield start, stop, ax1[at % n], ax2[at // n]


def _csv_cells(column: np.ndarray) -> np.ndarray:
    """The CSV cells of a float column, a row of words per float."""
    cells = np.empty((len(column), _CELL_WORDS), "<u8")
    for start in range(0, len(column), BLOCK_ROWS):
        _write_cells(column[start:start + BLOCK_ROWS],
                     cells[start:start + BLOCK_ROWS])
    return cells


def _csv_texts(column: Sequence[float]) -> list[str]:
    """The CSV text of each float of ``column``: its ``%.17g``."""
    return (_csv_cells(np.asarray(column, np.float64)).tobytes()
            .translate(None, _PAD).decode("ascii").split(",")[:-1])


def _json_texts(column: Sequence[float], nan: str = "NaN") -> list[str]:
    # Float text from the C encoder, with ``nan`` for a nan; no float repr
    # contains ", ", and "NaN" is only ever the whole token of a nan.
    return json.dumps(column)[1:-1].replace("NaN", nan).split(", ")


def _json_axis(axis: np.ndarray) -> np.ndarray:
    """The JSON text of an axis, an entry per sample."""
    return np.array(_json_texts(axis.tolist()), object)


def render_csv(table: ScanTable) -> Iterator[str]:
    """The CSV text of ``table``: its head, then one piece per block."""
    yield ("".join(f"# {key}={value}\n"
                   for key, value in table.metadata.items())
           + ",".join(SCAN_COLUMNS) + "\n")
    columns = table.rows.columns
    # One row of words per CSV row: a cell per float, then the label's.
    words = np.empty((BLOCK_ROWS, 8 * _CELL_WORDS + 1), "<u8")
    for start, stop, a1, a2 in _blocks(table.rows, _csv_cells):
        rows = words[:stop - start]
        rows[:, :_CELL_WORDS] = a1
        rows[:, _CELL_WORDS:2 * _CELL_WORDS] = a2
        for at, name in enumerate(SCAN_COLUMNS[2:-1], 2):
            _write_cells(columns[name][start:stop],
                         rows[:, at * _CELL_WORDS:(at + 1) * _CELL_WORDS])
        rows[:, -1] = np.take(_LABELS, columns["codes"][start:stop])
        yield rows.tobytes().translate(None, _PAD).decode("ascii")


def render_json(table: ScanTable) -> Iterator[str]:
    """The JSON text of ``table`` in pieces, one per block of records."""
    # json.dumps(indent=1) never puts a raw newline inside a value, so
    # indenting every line break nests the metadata object one level.
    metadata = json.dumps(table.metadata, indent=1).replace("\n", "\n ")
    join = '{\n "metadata": ' + metadata + "," + _RECORDS
    for start, stop, a1, a2 in _blocks(table.rows, _json_axis):
        *floats, curvature, labels = table.rows.block(start, stop,
                                                      SCAN_COLUMNS[2:-1])
        # Undefined curvature is written as null.
        texts = [a1.tolist(), a2.tolist(), *map(_json_texts, floats),
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
