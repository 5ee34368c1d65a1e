"""Binary state snapshots and the CSV diagnostics time series.

Snapshot layout (little-endian): magic "OLDB2D01", format version u32,
n u32, L f64, time f64, field count u32, then per field a u8 name length,
the ASCII name, and n*n f64 row-major values.  A state is written as its
planes, in `fields.PLANES` order; the reader takes the fields in any order.
Field data round-trips bit-exactly.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .diagnostics import COLUMNS, DiagnosticsRecord
from .fields import PLANES, SimState
from .spectral import SpectralGrid

MAGIC = b"OLDB2D01"
VERSION = 1
_HEADER = struct.Struct("<8sIIddI")


class SnapshotFormatError(ValueError):
    pass


def write_snapshot(state: SimState, path) -> None:
    """Write the state's planes as field blocks named and ordered by
    `PLANES`, each straight from its plane's buffer."""
    grid = state.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, grid.n, grid.length,
                              state.time, len(PLANES)))
        for name, plane in zip(PLANES, state.planes):
            encoded = name.encode("ascii")
            fh.write(struct.pack("<B", len(encoded)))
            fh.write(encoded)
            fh.write(np.ascontiguousarray(plane, dtype="<f8"))


def read_snapshot(path, grid: SpectralGrid) -> SimState:
    """The state a snapshot holds, read field block by field block straight
    into its planes; the file's size, from `os.fstat`, bounds every read.
    A malformed file raises `SnapshotFormatError`."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise SnapshotFormatError("truncated snapshot: header incomplete")
        magic, version, n, length, time, field_count = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise SnapshotFormatError(f"unsupported format version {version}")
        # Negated, so that a nan L fails the comparison.
        if n != grid.n or not abs(length - grid.length) <= 1e-12 * max(1.0, grid.length):
            raise SnapshotFormatError(
                f"grid mismatch: snapshot has n={n}, L={length:.12g}, "
                f"expected n={grid.n}, L={grid.length:.12g}"
            )
        if not math.isfinite(time):
            raise SnapshotFormatError(f"non-finite time {time!r}")

        offset = _HEADER.size
        block = 8 * n * n
        planes = np.empty((len(PLANES), n, n), dtype="<f8")
        seen = set()
        for _ in range(field_count):
            if offset + 1 > size:
                raise SnapshotFormatError("truncated snapshot: missing field header")
            (name_len,) = fh.read(1)
            offset += 1
            if offset + name_len + block > size:
                raise SnapshotFormatError("truncated snapshot: incomplete field block")
            # A byte beyond ASCII stays escaped, so the name is unexpected.
            name = fh.read(name_len).decode("ascii", "backslashreplace")
            offset += name_len
            if name in seen:
                raise SnapshotFormatError(f"duplicate field {name!r}")
            if name not in PLANES:
                raise SnapshotFormatError(f"unexpected field {name!r}")
            seen.add(name)
            if fh.readinto(planes[PLANES.index(name)]) != block:
                raise SnapshotFormatError("truncated snapshot: incomplete field block")
            offset += block
    if offset != size:
        raise SnapshotFormatError("trailing bytes after the last field block")
    missing = [name for name in PLANES if name not in seen]
    if missing:
        raise SnapshotFormatError(f"missing fields: {missing}")
    return SimState(time, grid, planes.astype(float, copy=False))


def append_timeseries(record: DiagnosticsRecord, path) -> None:
    """Append the record's `diagnostics.COLUMNS` as one CSV row (17
    significant digits, which round-trip every double); the header is
    written exactly once, when the file is new or empty."""
    need_header = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if need_header:
            fh.write(",".join(COLUMNS) + "\n")
        fh.write(",".join(f"{v:.17g}" for v in record.row()) + "\n")


def _parse_row(line: str, lineno: int) -> list:
    fields = line.split(",")
    if len(fields) != len(COLUMNS):
        raise SnapshotFormatError(f"time-series line {lineno}: {len(fields)} columns, "
                                  f"expected {len(COLUMNS)}")
    try:
        row = [float(field) for field in fields]
    except ValueError:
        raise SnapshotFormatError(f"time-series line {lineno}: not a number") from None
    if not all(map(math.isfinite, row)):
        raise SnapshotFormatError(f"time-series line {lineno}: non-finite value")
    return row


def read_timeseries(path) -> dict:
    """Read a time-series CSV back into the `{column: array}` dict that
    `diagnostics.series` gives for its records.  A header other than
    `COLUMNS` (such as the 13-column file of earlier versions), a row of
    the wrong width, a value that is not a finite number, text that is not
    UTF-8, or times that do not strictly increase raise
    `SnapshotFormatError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header != list(COLUMNS):
                raise SnapshotFormatError(f"unexpected time-series header {header}")
            rows = [_parse_row(line.strip(), lineno)
                    for lineno, line in enumerate(fh, start=2) if line.strip()]
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(f"time series is not UTF-8 text: {exc.reason}") from None
    data = np.array(rows) if rows else np.empty((0, len(COLUMNS)))
    if np.any(np.diff(data[:, 0]) <= 0.0):
        raise SnapshotFormatError("time-series times do not strictly increase")
    return dict(zip(COLUMNS, data.T))
