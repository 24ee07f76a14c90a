"""The two artifact formats: binary bundles and line-delimited JSON.

A bundle is a JSON header (kind tag plus arbitrary metadata and the array
directory) followed by the raw C-order bytes of each array in directory
order.  Writes are byte-deterministic: the header is serialized with
sorted keys and arrays are stored in sorted name order, so saving the
same data twice produces identical files.  Floats round-trip bit-exactly
because the payload is the raw IEEE representation.  Learned numbers
live in the arrays, and a reader rejects any float64 array holding a NaN
or an infinity, naming the array.

A line-delimited artifact (datasets, ground truth, recommendations) is a
header line such as `{"format": "dataset", "version": 1}` followed by
one sorted-key JSON object per row.  Readers reject a missing or foreign
header and report a malformed row as a DataError naming its line.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import DataError

MAGIC = b"PMBNDL\n\x00"
VERSION = 1

_ALLOWED_DTYPES = ("float64", "int64")


class VersionMismatchError(DataError):
    """Bundle written by an incompatible format version."""

    def __init__(self, found: int, expected: int):
        super().__init__(f"bundle version {found}, expected {expected}")
        self.found = found
        self.expected = expected


class CorruptFileError(DataError):
    """Bundle bytes do not match the declared layout."""


def save_bundle(path: str | Path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write a bundle. Arrays are coerced to C-contiguous float64/int64."""
    directory = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype not in (np.float64, np.int64):
            if np.issubdtype(arr.dtype, np.floating):
                arr = arr.astype(np.float64)
            elif np.issubdtype(arr.dtype, np.integer):
                arr = arr.astype(np.int64)
            else:
                raise ValueError(f"unsupported array dtype {arr.dtype} for {name!r}")
        directory.append({"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)})
        blobs.append(arr.tobytes(order="C"))
    header = {"kind": kind, "meta": meta, "arrays": directory}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQ", VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def load_bundle(path: str | Path, expect_kind: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a bundle back as (header, arrays). Validates magic, version,
    declared sizes, finite floats and exact end-of-file."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read bundle {path}: {exc}") from exc
    if len(raw) < len(MAGIC) + 12 or raw[: len(MAGIC)] != MAGIC:
        raise CorruptFileError(f"{path}: not a bundle file")
    version, header_len = struct.unpack_from("<IQ", raw, len(MAGIC))
    if version != VERSION:
        raise VersionMismatchError(version, VERSION)
    offset = len(MAGIC) + 12
    if offset + header_len > len(raw):
        raise CorruptFileError(f"{path}: truncated header")
    try:
        header = json.loads(raw[offset : offset + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFileError(f"{path}: unreadable header") from exc
    offset += header_len
    if not isinstance(header, dict) or "arrays" not in header or "kind" not in header:
        raise CorruptFileError(f"{path}: header missing required keys")
    if expect_kind is not None and header["kind"] != expect_kind:
        raise CorruptFileError(
            f"{path}: bundle kind {header['kind']!r}, expected {expect_kind!r}"
        )
    if not isinstance(header["arrays"], list):
        raise CorruptFileError(f"{path}: array directory is not a list")
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        if not isinstance(entry, dict) or type(entry.get("name")) is not str:
            raise CorruptFileError(f"{path}: array entry {entry!r} has no string name")
        dtype = entry.get("dtype")
        if dtype not in _ALLOWED_DTYPES:
            raise CorruptFileError(f"{path}: illegal dtype {dtype!r}")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise CorruptFileError(f"{path}: array {entry['name']!r} has bad shape {shape!r}")
        count = math.prod(shape)
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(raw):
            raise CorruptFileError(f"{path}: truncated array {entry['name']!r}")
        flat = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
        if dtype == "float64" and not np.isfinite(flat).all():
            raise CorruptFileError(f"{path}: non-finite values in array {entry['name']!r}")
        arrays[entry["name"]] = flat.reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise CorruptFileError(f"{path}: {len(raw) - offset} trailing bytes")
    return header, arrays


def write_jsonl(path: str | Path, header: dict, rows: Iterable[dict]) -> None:
    """Write the header line, then one sorted-key JSON object per row."""
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(row, sort_keys=True) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def read_jsonl(path: str | Path, header: dict, parse_row: Callable[[dict], object]) -> list:
    """Parse every non-blank row after a header line equal to `header`.
    A KeyError, TypeError, ValueError or OverflowError from decoding or
    `parse_row` becomes a DataError naming the file and line."""
    lines = Path(path).read_text().splitlines() or [""]
    try:
        found = json.loads(lines[0])
    except json.JSONDecodeError:
        found = None
    if found != header:
        raise DataError(f"{path}:1: expected header {header!r}, found {lines[0][:80]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            rows.append(parse_row(json.loads(line)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}:{lineno}: {type(exc).__name__}: {exc}") from exc
    return rows
