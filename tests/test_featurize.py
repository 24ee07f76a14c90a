"""Class averaging, pair concatenation and PCA tests."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from pathmove.embed import CodeVector
from pathmove.errors import DataError
from pathmove.featurize import (
    FeatureVector,
    NoMethodsError,
    PcaModel,
    apply_pca_matrix,
    class_embedding,
    fit_pca,
    make_pair_vector,
)
from pathmove.frontend import parse_unit


def class_with_methods(n: int):
    methods = " ".join(
        f"int m{i}(int x) {{ return x + {i}; }}" for i in range(n)
    )
    return parse_unit(f"class Box {{ {methods} }}", "Box.java").classes[0]


def vectors_for(cls, rng, d=6):
    return {
        m.id: CodeVector(rng.normal(size=d), source=m.id) for m in cls.methods
    }


def test_single_method_mean_is_identity():
    cls = class_with_methods(1)
    rng = np.random.default_rng(0)
    table = vectors_for(cls, rng)
    out = class_embedding(cls, table)
    assert np.array_equal(out.values, table[cls.methods[0].id].values)
    assert out.source == "Box"


def test_two_method_mean():
    cls = class_with_methods(2)
    u = np.array([2.0, 4.0, -6.0])
    v = np.array([0.0, 1.0, 3.0])
    table = {
        cls.methods[0].id: CodeVector(u, "a"),
        cls.methods[1].id: CodeVector(v, "b"),
    }
    out = class_embedding(cls, table)
    assert np.array_equal(out.values, np.array([1.0, 2.5, -1.5]))


def test_seven_methods_one_excluded_matches_direct_sum():
    cls = class_with_methods(7)
    rng = np.random.default_rng(3)
    table = vectors_for(cls, rng, d=10)
    excluded = cls.methods[4].id
    out = class_embedding(cls, table, exclude=excluded)
    total = [0.0] * 10
    for m in cls.methods:
        if m.id == excluded:
            continue
        for i, x in enumerate(table[m.id].values):
            total[i] += x
    expected = [t / 6 for t in total]
    assert np.allclose(out.values, expected, atol=1e-12, rtol=0)


def test_exclusion_can_empty_class():
    cls = class_with_methods(1)
    table = vectors_for(cls, np.random.default_rng(0))
    with pytest.raises(NoMethodsError):
        class_embedding(cls, table, exclude=cls.methods[0].id)
    with pytest.raises(NoMethodsError):
        class_embedding(cls, {})  # nothing embeddable at all


def test_unembeddable_methods_skipped():
    cls = class_with_methods(3)
    rng = np.random.default_rng(1)
    table = vectors_for(cls, rng)
    del table[cls.methods[2].id]
    out = class_embedding(cls, table)
    expected = (table[cls.methods[0].id].values + table[cls.methods[1].id].values) / 2
    assert np.allclose(out.values, expected, atol=1e-15)


def test_averaging_is_linear_in_scale():
    cls = class_with_methods(4)
    rng = np.random.default_rng(5)
    table = vectors_for(cls, rng)
    base = class_embedding(cls, table).values
    scaled_table = {
        mid: CodeVector(3.5 * cv.values, cv.source) for mid, cv in table.items()
    }
    scaled = class_embedding(cls, scaled_table).values
    assert np.allclose(scaled, 3.5 * base, atol=1e-12)


def test_pair_vector_concatenation():
    m = CodeVector(np.arange(384, dtype=float), "file::A::f/0")
    c = CodeVector(np.arange(384, dtype=float) + 1000, "B")
    pair = make_pair_vector(m, c)
    assert pair.values.shape == (768,)
    assert pair.stage == "raw"
    assert pair.method_id == "file::A::f/0" and pair.class_id == "B"
    assert np.array_equal(pair.values[:384], m.values)
    assert np.array_equal(pair.values[384:], c.values)


def test_pair_vector_order_and_zero():
    zero = make_pair_vector(CodeVector(np.zeros(4), "m"), CodeVector(np.zeros(4), "c"))
    assert np.array_equal(zero.values, np.zeros(8))
    u = CodeVector(np.array([1.0, 2.0]), "m")
    v = CodeVector(np.array([3.0, 4.0]), "c")
    assert not np.array_equal(
        make_pair_vector(u, v).values, make_pair_vector(v, u).values
    )
    with pytest.raises(DataError, match="method vector length 3 != class vector length 4"):
        make_pair_vector(CodeVector(np.zeros(3), "m"), CodeVector(np.zeros(4), "c"))


def raw_features(data: np.ndarray) -> list[FeatureVector]:
    return [FeatureVector(row, f"m{i}", "c", "raw") for i, row in enumerate(data)]


def test_planar_data_keeps_two_components():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=(200, 2))
    basis = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
    data = coeffs @ basis + np.array([5.0, -3.0, 0.5])
    model = fit_pca(raw_features(data), variance_threshold=0.999)
    assert model.k == 2
    full = fit_pca(raw_features(data), k=3)
    assert full.explained_variance_ratio[2] < 1e-10


def test_isotropic_data_matches_independent_eigen_solution():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(20_000, 4))
    model = fit_pca(raw_features(data), k=4)
    assert np.allclose(model.explained_variance_ratio, 0.25, atol=0.02)
    # independent covariance eigenvalues
    cov = np.cov(data, rowvar=False)
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    expected = eigvals / eigvals.sum()
    assert np.allclose(model.explained_variance_ratio, expected, atol=1e-10)


def test_projection_edge_cases():
    rng = np.random.default_rng(13)
    data = rng.normal(size=(50, 5))
    model = fit_pca(raw_features(data), k=3)
    assert np.allclose(apply_pca_matrix(model, model.mean[None, :]), 0.0, atol=1e-12)
    # row i sits one unit along component i from the mean
    shifted = model.mean + model.components
    assert np.allclose(apply_pca_matrix(model, shifted), np.eye(model.k), atol=1e-8)


def test_full_rank_reconstruction_is_exact():
    rng = np.random.default_rng(17)
    data = rng.normal(size=(60, 6))
    model = fit_pca(raw_features(data), k=6)
    projected = apply_pca_matrix(model, data)
    back = projected @ model.components + model.mean
    assert np.max(np.abs(back - data)) < 1e-8


def test_reconstruction_error_non_increasing_in_k():
    rng = np.random.default_rng(19)
    data = rng.normal(size=(80, 6)) @ np.diag([3.0, 2.5, 2.0, 1.0, 0.5, 0.1])
    errors = []
    for k in range(1, 7):
        model = fit_pca(raw_features(data), k=k)
        back = apply_pca_matrix(model, data) @ model.components + model.mean
        errors.append(float(np.sum((back - data) ** 2)))
    for small, big in zip(errors[1:], errors[:-1]):
        assert small <= big + 1e-9


def test_pca_invariants():
    rng = np.random.default_rng(23)
    data = rng.normal(size=(100, 8)) * np.linspace(3, 0.1, 8)
    model = fit_pca(raw_features(data), variance_threshold=0.9)
    ratios = model.explained_variance_ratio
    assert ratios.sum() <= 1 + 1e-8
    assert np.all(np.diff(ratios) <= 1e-12)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(model.k), atol=1e-8)
    projected = apply_pca_matrix(model, data)
    cov = np.cov(projected, rowvar=False)
    off_diagonal = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off_diagonal)) < 1e-8
    # dominant entry of every component is positive
    for row in model.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_refit_equality_and_independence_from_other_rows():
    rng = np.random.default_rng(29)
    train = raw_features(rng.normal(size=(40, 5)))
    model_a = fit_pca(train, k=3)
    rng.normal(size=(40, 5))  # unrelated draws in between
    model_b = fit_pca(train, k=3)
    assert np.array_equal(model_a.mean, model_b.mean)
    assert np.array_equal(model_a.components, model_b.components)


def two_copy_pca(data: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference: fit_pca's formula with a separate centred copy."""
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (data.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    components = eigvecs[:, order][:, :k].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return mean, components, (eigvals / eigvals.sum())[:k]


def traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_pca_leaves_input_and_matches_two_copy_formula():
    rng = np.random.default_rng(37)
    data = rng.normal(size=(400, 48)) * np.linspace(4, 0.2, 48) + 3.0
    kept = data.copy()
    features = raw_features(data)  # rows are views of data
    model = fit_pca(features, k=10)
    assert np.array_equal(data, kept)
    mean, components, ratios = two_copy_pca(kept, 10)
    assert model.mean.tobytes() == mean.tobytes()
    assert model.components.tobytes() == components.tobytes()
    assert model.explained_variance_ratio.tobytes() == ratios.tobytes()


def test_fit_pca_same_model_for_float32_rows_and_their_float64_widening():
    # the pipeline fits on float32 code vectors, train-clf on the same
    # values read back from dataset.pmb as float64
    rng = np.random.default_rng(43)
    data = (rng.normal(size=(200, 24)) * np.linspace(3, 0.1, 24) + 1.0).astype(np.float32)
    narrow = fit_pca(raw_features(data), k=6)
    wide = fit_pca(raw_features(data.astype(np.float64)), k=6)
    for a, b in ((narrow.mean, wide.mean), (narrow.components, wide.components),
                 (narrow.explained_variance_ratio, wide.explained_variance_ratio)):
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()


def test_fit_pca_holds_one_stacked_copy():
    data = np.random.default_rng(41).normal(size=(400, 48))
    features = raw_features(data)
    assert traced_peak(fit_pca, features, k=10) < 1.6 * data.nbytes


def test_projection_leaves_input_and_holds_one_copy():
    rng = np.random.default_rng(43)
    data = rng.normal(size=(2000, 40)) + 1.5
    model = fit_pca(raw_features(data), k=6)
    kept = data.copy()
    expected = (kept - model.mean) @ model.components.T
    assert apply_pca_matrix(model, data).tobytes() == expected.tobytes()
    assert apply_pca_matrix(model, list(data)).tobytes() == expected.tobytes()
    assert np.array_equal(data, kept)  # the input is never centred in place
    for rows in (data, list(data)):
        assert data.nbytes <= traced_peak(apply_pca_matrix, model, rows) < 1.5 * data.nbytes


def test_pca_error_cases():
    with pytest.raises(DataError):
        fit_pca(raw_features(np.zeros((1, 3))))
    with pytest.raises(DataError, match="covariance has no variance"):
        fit_pca(raw_features(np.full((10, 3), 2.0)))
    rng = np.random.default_rng(31)
    data = raw_features(rng.normal(size=(10, 3)))
    with pytest.raises(DataError):
        fit_pca(data, k=4)
    model = fit_pca(data, k=2)
    with pytest.raises(DataError, match="matrix width 5 != PCA input 3"):
        apply_pca_matrix(model, np.zeros((1, 5)))


def test_pca_model_validation():
    with pytest.raises(ValueError):
        PcaModel(np.zeros(3), np.array([[1.0, 1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        PcaModel(np.zeros(2), np.eye(2), np.array([0.3, 0.7]))  # increasing ratios
    with pytest.raises(ValueError):
        FeatureVector(np.zeros(2), "m", "c", "bogus")
