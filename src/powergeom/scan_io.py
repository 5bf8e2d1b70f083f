"""Scan serialization: CSV and JSON writers, the reader, the
standalone plot-script emitter, and :func:`write_text`, the one writer of
every output file the package makes.

Numbers are written with 17 significant digits so every float round-trips
exactly and reruns can be compared byte for byte; nothing volatile (no
timestamps, no host or thread information) enters the output. The CSV
carries ``# key=value`` metadata lines above the header row; the JSON
variant mirrors rows and metadata, with ``null`` for undefined curvature.

A :class:`ScanTable` holds the metadata and its rows: :class:`ScanRow`
named tuples in column order, made on demand from a scan's float64
columns and int8 class codes and the axis samples of its spec. The
renderers yield the file text one block of :data:`BLOCK_ROWS` rows at a
time, and :func:`write_table` has :func:`write_text` write each block as
it comes, so a scan file is written in the memory of one block. A block
is a matrix of words, a row per CSV row or JSON record: one integer
kernel writes each float column into fixed-width cells, ``%.17g`` for
CSV and ``repr`` (the shortest text that reads back) for JSON, between
the row's fixed text (see "Float text" below), and deleting the pad
bytes leaves the block's text. Values off the kernel's integer path are
written by ``%.17g`` or ``repr`` itself. A grid's axis values are
formatted once per axis (at most 4,096 samples each), a diagonal's a
block at a time. The JSON text is the ``json.dumps(..., indent=1)``
layout of ``{"metadata": ..., "records": [...]}``.

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
import stat
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

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
#: Bytes of a file the reader takes its metadata from; a writer's
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

    def block(self, start: int, stop: int) -> list[list]:
        """The float columns of rows start..stop, then the labels."""
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


# Float text. A block of rows is rendered as a matrix of little-endian
# 64-bit words: per float its key's text (none in CSV, '\n   "a2": ' and
# the like in JSON) padded to whole words, then a 48-byte cell with the
# float's text, pad bytes and a comma; the label's words end the row.
# Deleting the pad byte leaves the block's text. The pad is a space: no
# float text or label holds one, and a key's spaces are written as
# _SPACE, which the same bytes.translate turns into spaces.
#
# A normal double x = m*2**q whose 17-digit decimal exponent E lies in
# [-11, 16] takes the integer path of _decimal. With s = 16 - E (so
# 5**s < 2**63), X = x*10**s = m*5**s*2**(q+s) and its 17 digits D =
# round-half-even(X) come from a 128-bit product and one shift (Gay 1990;
# Adams, OOPSLA 2019). np.log10 only estimates E; E is corrected until
# 10**16 <= floor(X) < 10**17. No double in this range rounds up to
# 10**17: 10**0 to 10**17 are doubles, and the doubles just below 10**-10
# to 10**-1 lie more than half a unit of the 17th digit below them.
#
# CSV writes D (``%.17g``), JSON repr's digits: the shortest decimal
# inside x's rounding interval, the closer of two (Steele & White 1990;
# Gay 1990; Adams, PLDI 2018). The interval reaches half a gap 2**q
# either side of x, a quarter below x where m = 2**52, and holds its ends
# where m is even. Only X's two n-digit neighbours can be the closest
# n-digit decimal inside it, and each is tested in exact integers: a
# 15-digit hit wins over a 16-digit one, and with neither D stands.
# Values with a 14-digit hit, or two equally close 16-digit hits, leave
# the path. Every value off it (zeros, nan, infinities, subnormals, |x| <
# 1e-11 or >= 1e17) takes the style's padded ``%.17g`` or ``repr``
# template, and nan and the infinities then the style's words for them.
#
# The cell's bytes, before pads are deleted: the sign at 0, the "0.000"
# prefix of -4 <= E < 0 at 1-5, digit i at 6 + 2i with its gap byte after
# it (pad, or the point), the exponent of e-notation at 40-43, the comma
# at 47. Trailing zeros of the fraction, and a point with no fraction
# left, are turned into pads; repr keeps one zero after the point of an
# integral value. ``%.17g`` takes e-notation from E = 17, repr from 16.

_CELL_WORDS = 6
_PAD = b" "
#: A space in a key's text; deleting the pads maps it to a space.
_SPACE = "\x01"
_UNPAD = bytes.maketrans(_SPACE.encode(), b" ")
#: 5**s for s in [0, 27], in 32-bit halves.
_FIVES_LOW = np.array([5 ** s & 0xFFFFFFFF for s in range(28)], np.uint64)
_FIVES_HIGH = np.array([5 ** s >> 32 for s in range(28)], np.uint64)


def _words(text: str, rows: int | None = None) -> np.ndarray:
    """``text`` as native 64-bit words read little-endian, split into
    ``rows`` rows if given."""
    words = np.frombuffer(text.encode("latin-1"), "<u8").astype(np.uint64)
    return words if rows is None else words.reshape(rows, -1)


class _Style(NamedTuple):
    """Cells of ``repr`` if ``shortest``, else of ``%.17g``. Per E in
    [-11, 17]: the gap bytes of words 0-4 (pads, and the point after the
    last integer digit), word 5 (exponent, pads, comma) and the trailing
    zeros that may go. Then the template off the integer path, and the
    cells of nan, inf and -inf."""

    shortest: bool
    gaps: np.ndarray
    tails: np.ndarray
    fraction: np.ndarray
    template: str
    specials: np.ndarray


def _style(shortest: bool, specials: tuple[str, str, str]) -> _Style:
    gaps, tails, fraction = [], [], []
    for e in range(-11, 18):
        fixed = -4 <= e < 17 - shortest
        small = fixed and e < 0
        point = 0 if small else e + 1 if fixed else 1
        gaps.append("\0" * 7 + "\0".join(
            "." if i == point else " " for i in range(1, 18)))
        tails.append(("" if fixed else f"e{e:+03d}").ljust(7) + ",")
        fraction.append(17 if small else 17 - point - (fixed and shortest))
    return _Style(shortest, _words("".join(gaps), 29),
                  _words("".join(tails)), np.array(fraction),
                  "%-47r," if shortest else "%-47.17g,",
                  _words("".join(f"{text:47}," for text in specials), 3))


_CSV = _style(False, ("nan", "inf", "-inf"))
_JSON = _style(True, ("NaN", "Infinity", "-Infinity"))
#: JSON's curvature, undefined (nan) where it is null.
_JSON_NULL = _style(True, ("null", "Infinity", "-Infinity"))
#: Per E, word 0 of a cell: sign pad, prefix, the lead digit's "0".
_HEADS = _words("".join(
    " " + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "").ljust(5) + "0\0"
    for e in range(-11, 18)))
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


def _decimal(x: np.ndarray, shortest: bool = False):
    """Which floats of ``x`` take the integer path, and for those their
    digits D as an integer in [10**16, 10**17) and their exponent E: the
    17 digits of ``%.17g``, or if ``shortest`` those of ``repr`` with
    zeros appended."""
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
    one = 1 << right
    low = lo & (one - 1)  # X = d + low / 2**right
    # Round half to even: up when 2*low + (d odd) > 2**right.
    rounded = d + (((low << 1) | (d & 1)) > one)
    if not shortest:
        return fast, rounded, e
    # Doubled distances from X, in units of D, as a whole part and a
    # fraction over w = 2**(right + 1), which compare exactly. Doubled,
    # the half gap is g / w with g = 5**s << left << 1, at most 23 units.
    mask = (one << 1) - 1
    wide = right + 1
    g = ((ph << 32) | pl) << left << 1
    even = (m & 1) == 0
    c, r = (low << 2) >> wide, (low << 2) & mask  # 2*(X - d)
    # L, X's n-digit neighbour below, is inside when 2*(X - L) = a + r/w
    # reaches at most a gap below x, half one where m = 2**52: when
    # a < below. Its neighbour above, L + 10**k, is inside when
    # 2*10**k - a - r/w reaches at most a gap: when a + above > 2*10**k.
    reach = g >> (m == 1 << 52)
    below = (reach >> wide) + (r < (reach & mask) + even)
    over = r + (g & mask)
    above = (g >> wide) + (over > mask) + (even | ((over & mask) != 0))

    def neighbours(ten):
        floor = d // ten * ten
        a = (d - floor) * 2 + c
        return floor, a, a < below, a + above > ten + ten

    # Both 16-digit neighbours can be inside (15-digit ones, 100 apart,
    # cannot). Then the closer is taken: the one above where a >= 10.
    # Where they are equally close, the choice is left to repr.
    ten, hundred = np.uint64(10), np.uint64(100)
    floor, a, down, up = neighbours(ten)
    fast &= ~(down & up & (a == 10) & (r == 0))
    digits = np.where(down | up, floor + (up & (~down | (a >= 10))) * ten,
                      rounded)
    floor, a, down, up = neighbours(hundred)
    digits = np.where(down | up, floor + up * hundred, digits)
    # A 14-digit neighbour inside: repr has 14 digits or fewer.
    _, _, down, up = neighbours(np.uint64(1000))
    fast &= ~(down | up)
    return fast, digits, e


def _write_cells(x: np.ndarray, out: np.ndarray, style: _Style) -> None:
    """Write the cell of each float of ``x`` in ``style`` to the rows of
    ``out``, a ``(len(x), 6)`` array of ``<u8`` words. Callers pass at most
    :data:`BLOCK_ROWS` floats: the temporaries then stay under 64 KiB and
    are reused from the heap, not mapped and faulted in afresh."""
    x = np.ascontiguousarray(x, np.float64)
    fast, d, e = _decimal(x, style.shortest)
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
                                  np.take(style.fraction, i, mode="clip"))
        cells = np.empty((len(x), 5), np.uint64)
        sign = x.view(np.uint64) >> 63
        cells[:, 0] = (np.take(_HEADS, i, mode="clip") + (lead << 48)
                       + sign * (ord("-") - ord(" ")))
        cells[:, 1:] = np.take(_QUADS, quads)
        cells |= np.take(style.gaps, i, axis=0, mode="clip")
        # Every byte of words 0-4 has the pad's bit set, so masking a byte
        # with the pad leaves a pad.
        cells &= np.take(_STRIPS, cut, axis=0, mode="clip")
        out[:, :5] = cells
        out[:, 5] = np.take(style.tails, i, mode="clip")
    # Where no float is fast, a slice costs less than a mask of every row.
    slow = ~fast if some else slice(None)
    if not some or slow.any():
        values = x[slow].tolist()
        out[slow] = np.frombuffer((style.template * len(values)
                                   % tuple(values)).encode(),
                                  "<u8").reshape(-1, _CELL_WORDS)
        special = ~np.isfinite(x)
        if special.any():
            odd = x[special]
            out[special] = np.take(style.specials, np.isinf(odd)
                                   * (1 + np.signbit(odd)), axis=0)


class _Layout(NamedTuple):
    """A file's rows as words: ``row`` holds a row's fixed text, float
    column i has its cell at word ``cells[i]`` in ``styles[i]``, and the
    words of ``labels``, by class code, end the row."""

    row: np.ndarray
    cells: tuple[int, ...]
    styles: tuple[_Style, ...]
    labels: np.ndarray


def _layout(keys: Sequence[str], labels: Sequence[str],
            styles: tuple[_Style, ...]) -> _Layout:
    """The layout with ``keys[i]`` before float column i's cell and the
    last key before the label, each padded to whole words."""
    def padded(text: str, size: int) -> str:
        return text.replace(" ", _SPACE).ljust(-(-size // 8) * 8)

    row, cells = "", []
    for key in keys[:-1]:
        row += padded(key, len(key))
        cells.append(len(row) // 8)
        row += "\0" * 8 * _CELL_WORDS
    size = max(map(len, labels))
    row += padded(keys[-1], len(keys[-1])) + padded("", size)
    return _Layout(_words(row), tuple(cells), styles, _words(
        "".join(padded(label, size) for label in labels), len(labels)))


_CSV_ROWS = _layout(("",) * 9, [label + "\n" for label in CLASS_LABELS],
                    (_CSV,) * 8)
#: A JSON record at its nesting depth in the ``indent=1`` layout, after
#: the ",\n" that joins it to the record before it.
_JSON_ROWS = _layout(
    [",\n  {" * (name == "a1") + f'\n   "{name}": ' for name in SCAN_COLUMNS],
    [json.dumps(label) + "\n  }" for label in CLASS_LABELS],
    (_JSON,) * 7 + (_JSON_NULL,))


def _rows(table: ScanTable, layout: _Layout) -> Iterator[str]:
    """The text of ``table``'s rows in ``layout``, one piece per block of
    :data:`BLOCK_ROWS` rows. Both axes are written in a1's style. A grid
    writes each axis once, a block of samples at a time, and gathers each
    block's a1 and a2 cells from them; a diagonal writes its block's slice
    of the axis to the a1 cells and copies them to the a2 cells."""
    spec, columns = table.rows.spec, table.rows.columns
    # Words over a bytearray, which translates without a copy to bytes.
    buffer = bytearray(8 * BLOCK_ROWS * len(layout.row))
    words = np.frombuffer(buffer, "<u8").reshape(BLOCK_ROWS, -1)
    words[:] = layout.row
    a1, a2, *spans = [slice(at, at + _CELL_WORDS) for at in layout.cells]
    labels = slice(-layout.labels.shape[1], None)
    axis_style, n = layout.styles[0], spec.n
    grid = spec.command == "scan"
    if grid:
        axes = np.empty((2, n, _CELL_WORDS), "<u8")
        for cells, axis in zip(axes, (spec.a1_axis, spec.a2_axis)):
            for start in range(0, n, BLOCK_ROWS):
                _write_cells(axis[start:start + BLOCK_ROWS],
                             cells[start:start + BLOCK_ROWS], axis_style)
    for start in range(0, len(table.rows), BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, len(table.rows))
        rows = words[:stop - start]
        if grid:
            at = np.arange(start, stop)  # a1 runs fastest
            rows[:, a1], rows[:, a2] = axes[0, at % n], axes[1, at // n]
        else:
            _write_cells(spec.a1_axis[start:stop], rows[:, a1], axis_style)
            rows[:, a2] = rows[:, a1]
        for span, name, style in zip(spans, SCAN_COLUMNS[2:-1],
                                     layout.styles[2:]):
            _write_cells(columns[name][start:stop], rows[:, span], style)
        rows[:, labels] = np.take(layout.labels, columns["codes"][start:stop],
                                  axis=0)
        text = buffer if len(rows) == BLOCK_ROWS else buffer[:rows.nbytes]
        yield text.translate(_UNPAD, _PAD).decode("ascii")


def render_csv(table: ScanTable) -> Iterator[str]:
    """The CSV text of ``table``: its head, then one piece per block."""
    yield ("".join(f"# {key}={value}\n"
                   for key, value in table.metadata.items())
           + ",".join(SCAN_COLUMNS) + "\n")
    yield from _rows(table, _CSV_ROWS)


def render_json(table: ScanTable) -> Iterator[str]:
    """The JSON text of ``table`` in pieces, one per block of records."""
    # json.dumps(indent=1) never puts a raw newline inside a value, so
    # indenting every line break nests the metadata object one level.
    metadata = json.dumps(table.metadata, indent=1).replace("\n", "\n ")
    head = '{\n "metadata": ' + metadata + "," + _RECORDS
    skip = len(",\n")  # the first record follows the head
    for piece in _rows(table, _JSON_ROWS):
        yield head + piece[skip:]
        head, skip = "", 0
    yield "\n ]\n}\n"


def write_text(path: str, pieces: Iterable[str],
               source: str | None = None) -> None:
    """Write ``pieces`` to ``path`` as they come: the one writer of every
    output file. A ``path`` that is the file ``source``, by any name, is
    refused before anything is written. A write that fails part way
    removes the file it wrote rather than leave it truncated, if that is
    a regular file: through a symlink the link's target, never the link;
    a pipe or a device stays."""
    if source and os.path.exists(path) and os.path.samefile(path, source):
        raise ValueError(f"--out {path} is the input file {source}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        try:
            for piece in pieces:
                fh.write(piece)
        except BaseException:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            fh.close()
            if regular:
                with contextlib.suppress(OSError):
                    os.remove(os.path.realpath(path))
            raise


def write_table(table: ScanTable, path: str, fmt: str = "csv") -> None:
    """Write ``table`` to ``path`` in format ``fmt`` ("csv" or "json")
    block by block, through :func:`write_text`."""
    render = {"csv": render_csv, "json": render_json}.get(fmt)
    if render is None:
        raise ValueError(f"unknown scan format {fmt!r}")
    write_text(path, render(table))


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
    references the CSV by a path relative to its own location. An
    ``out_path`` that is the scan itself is refused (``ValueError``).
    """
    if field not in PLOT_FIELDS:
        raise ValueError(
            f"field must be one of {sorted(PLOT_FIELDS)}, got {field!r}")
    if _is_json(scan_path):
        raise SchemaMismatch(
            f"{scan_path}: is a JSON scan; plot-script needs a CSV scan")
    _read(scan_path, False)  # validates schema and format tag
    if out_path is None:
        out_path = scan_path + f".plot_{field}.py"
    rel = os.path.relpath(os.path.abspath(scan_path),
                          os.path.dirname(os.path.abspath(out_path)) or ".")
    script = _PLOT_TEMPLATE.format(
        field=field, csv_name=os.path.basename(scan_path),
        rel_path=rel, column_index=PLOT_FIELDS[field])
    write_text(out_path, [script], scan_path)
    return out_path
