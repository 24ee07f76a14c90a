"""Binary bundle container tests."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from pathmove.bundle import (
    MAGIC,
    VERSION,
    load_bundle,
    save_bundle,
)
from pathmove.errors import DataError


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
        assert loaded[name].flags.writeable


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
        with pytest.raises(DataError, match="not a bundle file|truncated"):
            load_bundle(path, "k")


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.pmb"
    save_bundle(path, "k", {}, sample_arrays())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="trailing"):
        load_bundle(path, "k")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.pmb"
    path.write_bytes(b"NOTMYFMT" + b"\x00" * 32)
    with pytest.raises(DataError, match="not a bundle"):
        load_bundle(path, "k")


def test_version_mismatch(tmp_path):
    path = tmp_path / "model.pmb"
    save_bundle(path, "k", {}, sample_arrays())
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(MAGIC), VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=f"bundle version {VERSION + 1}, expected") as exc_info:
        load_bundle(path, "k")
    assert str(path) in str(exc_info.value)


def test_kind_checked(tmp_path):
    path = tmp_path / "model.pmb"
    save_bundle(path, "embedder", {}, sample_arrays())
    with pytest.raises(DataError, match="kind"):
        load_bundle(path, expect_kind="classifier")


def test_missing_file():
    with pytest.raises(Exception):
        load_bundle("/nonexistent/model.pmb", "model")


def test_float32_read_as_float32_and_object_rejected(tmp_path):
    path = tmp_path / "model.pmb"
    save_bundle(path, "k", {}, {"w": np.ones(3, dtype=np.float32)})
    _, loaded = load_bundle(path, "k")
    assert loaded["w"].dtype == np.float32
    with pytest.raises(ValueError):
        save_bundle(path, "k", {}, {"w": np.array(["a"], dtype=object)})


def test_non_finite_float_array_rejected_by_name(tmp_path):
    path = tmp_path / "model.pmb"
    arrays = sample_arrays()
    arrays["bias"][2] = np.nan
    save_bundle(path, "k", {}, arrays)
    with pytest.raises(DataError, match="non-finite values in array 'bias'"):
        load_bundle(path, "k")


def stored_dtypes(path):
    header, _ = load_bundle(path, "k")
    return {entry["name"]: entry["dtype"] for entry in header["arrays"]}


def test_float32_exact_array_stored_as_float32_and_read_bit_equal(tmp_path):
    path = tmp_path / "model.pmb"
    exact = np.random.default_rng(3).normal(size=(4, 5)).astype(np.float32).astype(np.float64)
    save_bundle(path, "k", {}, {"exact": exact, "wide": exact + 1e-12})
    assert stored_dtypes(path) == {"exact": "float32", "wide": "float64"}
    _, loaded = load_bundle(path, "k")
    assert loaded["exact"].dtype == np.float32
    assert loaded["exact"].tobytes() == exact.astype(np.float32).tobytes()
    assert np.array_equal(loaded["exact"], exact)
    assert loaded["wide"].dtype == np.float64
    assert loaded["wide"].tobytes() == (exact + 1e-12).tobytes()


@pytest.mark.parametrize("value", [0.1, 1e39, -1e39, 1e-46])
def test_float_beyond_float32_stays_float64(tmp_path, value):
    path = tmp_path / "model.pmb"
    save_bundle(path, "k", {}, {"w": np.array([1.0, value])})
    assert stored_dtypes(path) == {"w": "float64"}
    _, loaded = load_bundle(path, "k")
    assert loaded["w"].tolist() == [1.0, value]


def test_negative_zero_keeps_its_sign(tmp_path):
    path = tmp_path / "model.pmb"
    save_bundle(path, "k", {}, {"w": np.array([-0.0, 0.0, 2.5])})
    assert stored_dtypes(path) == {"w": "float32"}
    _, loaded = load_bundle(path, "k")
    assert np.signbit(loaded["w"]).tolist() == [True, False, False]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_in_stored_float32_array_rejected_by_name(tmp_path, bad):
    """save_bundle never writes one (a NaN stays float64, an infinity is
    exact in float32), so the payload is edited by hand."""
    path = tmp_path / "model.pmb"
    save_bundle(path, "k", {}, {"good": np.ones(2), "tables": np.array([1.0, 2.0, 3.0])})
    assert stored_dtypes(path) == {"good": "float32", "tables": "float32"}
    blob = path.read_bytes()
    assert blob.count(struct.pack("<f", 3.0)) == 1
    path.write_bytes(blob.replace(struct.pack("<f", 3.0), struct.pack("<f", bad)))
    with pytest.raises(DataError, match="non-finite values in array 'tables'"):
        load_bundle(path, "k")


def test_array_named_twice_rejected(tmp_path):
    # the directory names "w" twice; each entry still has its own bytes
    path = tmp_path / "model.pmb"
    save_bundle(path, "k", {}, {"v": np.arange(3), "w": np.arange(3, 6)})
    blob = path.read_bytes()
    assert blob.count(b'"name":"v"') == 1
    path.write_bytes(blob.replace(b'"name":"v"', b'"name":"w"'))
    with pytest.raises(DataError, match=f"{path}: array 'w' is named twice"):
        load_bundle(path, "k")
