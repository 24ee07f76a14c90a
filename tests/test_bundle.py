"""Binary bundle container tests."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from pathmove.bundle import (
    MAGIC,
    VERSION,
    CorruptFileError,
    VersionMismatchError,
    load_bundle,
    save_bundle,
)


def sample_arrays():
    rng = np.random.default_rng(42)
    return {
        "weights": rng.normal(size=(7, 3)),
        "bias": rng.normal(size=5),
        "counts": np.arange(4, dtype=np.int64),
    }


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "model.pmb"
    arrays = sample_arrays()
    meta = {"d": 3, "label": "unit"}
    save_bundle(path, "test-kind", meta, arrays)
    header, loaded = load_bundle(path, expect_kind="test-kind")
    assert header["kind"] == "test-kind"
    assert header["meta"] == meta
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == arrays[name].dtype
        assert np.array_equal(loaded[name], arrays[name])


def test_writes_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.pmb", tmp_path / "b.pmb"
    save_bundle(a, "k", {"x": 1}, sample_arrays())
    save_bundle(b, "k", {"x": 1}, sample_arrays())
    assert a.read_bytes() == b.read_bytes()


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "model.pmb"
    save_bundle(path, "k", {}, sample_arrays())
    blob = path.read_bytes()
    for cut in (4, len(MAGIC) + 6, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(CorruptFileError):
            load_bundle(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.pmb"
    save_bundle(path, "k", {}, sample_arrays())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorruptFileError, match="trailing"):
        load_bundle(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.pmb"
    path.write_bytes(b"NOTMYFMT" + b"\x00" * 32)
    with pytest.raises(CorruptFileError, match="not a bundle"):
        load_bundle(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "model.pmb"
    save_bundle(path, "k", {}, sample_arrays())
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(MAGIC), VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError) as exc_info:
        load_bundle(path)
    assert exc_info.value.found == VERSION + 1


def test_kind_checked(tmp_path):
    path = tmp_path / "model.pmb"
    save_bundle(path, "embedder", {}, sample_arrays())
    with pytest.raises(CorruptFileError, match="kind"):
        load_bundle(path, expect_kind="classifier")


def test_missing_file():
    with pytest.raises(Exception):
        load_bundle("/nonexistent/model.pmb")


def test_float32_upcast_and_object_rejected(tmp_path):
    path = tmp_path / "model.pmb"
    save_bundle(path, "k", {}, {"w": np.ones(3, dtype=np.float32)})
    _, loaded = load_bundle(path)
    assert loaded["w"].dtype == np.float64
    with pytest.raises(ValueError):
        save_bundle(path, "k", {}, {"w": np.array(["a"], dtype=object)})


def test_non_finite_float_array_rejected_by_name(tmp_path):
    path = tmp_path / "model.pmb"
    arrays = sample_arrays()
    arrays["bias"][2] = np.nan
    save_bundle(path, "k", {}, arrays)
    with pytest.raises(CorruptFileError, match="non-finite values in array 'bias'"):
        load_bundle(path)
