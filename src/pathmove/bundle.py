"""The two artifact formats: binary bundles and line-delimited JSON.

A bundle is a JSON header (kind tag plus arbitrary metadata and the array
directory) followed by the raw C-order bytes of each array in directory
order.  Writes are byte-deterministic: the header is serialized with
sorted keys and arrays are stored in sorted name order, so saving the
same data twice produces identical files.  Floats round-trip bit-exactly
because the payload is the raw IEEE representation.  A float array is
stored as float32 when every element survives the cast to float32 (the
embedder's parameters and the code-vector pairs, which are float32) and
as float64 otherwise, and the reader returns every array at its stored
dtype.  Learned numbers live in the arrays, and a reader rejects any
float array holding a NaN or an infinity, naming the array.

A line-delimited artifact (ground truth, recommendations) is a header
line such as `{"format": "ground-truth", "version": 1}` followed by
one sorted-key JSON object per row.  Readers reject a missing or foreign
header and report a malformed row as a DataError naming its line.

Every reader here raises DataError for a file it cannot accept, and
decodes JSON through `decode_json`, so JSON nested too deeply to decode
is malformed input like any other.
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

# The dtypes a bundle stores an array in; the reader returns it as stored.
_DTYPES = {"float32", "float64", "int64"}


def decode_json(text: str):
    """`json.loads`, but a value nested too deeply to decode raises
    ValueError like any other malformed JSON, not RecursionError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply: {exc}") from exc


def save_bundle(path: str | Path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write a bundle. Integer arrays are stored as int64; a float array
    as float32 when it equals its float32 cast element for element (which
    keeps the sign of zero and never holds for a NaN), else as float64."""
    directory = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if np.issubdtype(arr.dtype, np.floating):
            with np.errstate(over="ignore"):  # a value beyond float32 becomes inf: unequal
                narrow = arr.astype(np.float32)
            arr = narrow if np.array_equal(narrow, arr) else arr.astype(np.float64, copy=False)
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


def load_bundle(path: str | Path, expect_kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a bundle of `expect_kind` as (header, arrays), each array a
    writable copy at its stored dtype. Validates magic, version, kind,
    distinct array names, declared sizes, finite floats and exact
    end-of-file."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read bundle {path}: {exc}") from exc
    if len(raw) < len(MAGIC) + 12 or raw[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a bundle file")
    version, header_len = struct.unpack_from("<IQ", raw, len(MAGIC))
    if version != VERSION:
        raise DataError(f"{path}: bundle version {version}, expected {VERSION}")
    offset = len(MAGIC) + 12
    if offset + header_len > len(raw):
        raise DataError(f"{path}: truncated header")
    try:
        header = decode_json(raw[offset : offset + header_len].decode())
    except ValueError as exc:  # also bad UTF-8, deep nesting, an int of too many digits
        raise DataError(f"{path}: unreadable header") from exc
    offset += header_len
    if not isinstance(header, dict) or "arrays" not in header or "kind" not in header:
        raise DataError(f"{path}: header missing required keys")
    if header["kind"] != expect_kind:
        raise DataError(
            f"{path}: bundle kind {header['kind']!r}, expected {expect_kind!r}"
        )
    if not isinstance(header["arrays"], list):
        raise DataError(f"{path}: array directory is not a list")
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        if not isinstance(entry, dict) or type(entry.get("name")) is not str:
            raise DataError(f"{path}: array entry {entry!r} has no string name")
        if entry["name"] in arrays:
            raise DataError(f"{path}: array {entry['name']!r} is named twice")
        dtype = entry.get("dtype")
        if dtype not in _DTYPES:
            raise DataError(f"{path}: illegal dtype {dtype!r}")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise DataError(f"{path}: array {entry['name']!r} has bad shape {shape!r}")
        count = math.prod(shape)
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(raw):
            raise DataError(f"{path}: truncated array {entry['name']!r}")
        flat = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
        if dtype != "int64" and not np.isfinite(flat).all():
            raise DataError(f"{path}: non-finite values in array {entry['name']!r}")
        arrays[entry["name"]] = flat.reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes")
    return header, arrays


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; a DataError naming the file when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8: {exc}") from exc


def write_jsonl(path: str | Path, header: dict, rows: Iterable[dict]) -> None:
    """Write the header line, then one sorted-key JSON object per row."""
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(row, sort_keys=True) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_jsonl(path: str | Path, header: dict, parse_row: Callable[[dict], object]) -> list:
    """Parse every non-blank row after a header line equal to `header`.
    A KeyError, TypeError, ValueError, OverflowError or DataError from
    decoding or `parse_row` becomes a DataError naming the file and line."""
    lines = read_utf8(path).splitlines() or [""]
    try:
        found = decode_json(lines[0])
    except ValueError:  # also deep nesting, or an int of more digits than Python parses
        found = None
    if found != header:
        raise DataError(f"{path}:1: expected header {header!r}, found {lines[0][:80]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            rows.append(parse_row(decode_json(line)))
        except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
            raise DataError(f"{path}:{lineno}: {type(exc).__name__}: {exc}") from exc
    return rows
