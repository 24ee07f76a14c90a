"""Class embeddings, pair features and PCA reduction.

A class is embedded as the element-wise mean of its methods' code
vectors, optionally excluding one method (the candidate being scored, so
its own contribution cannot vouch for its origin).  A candidate pair is
the method vector concatenated with the class vector; PCA fitted on
training pairs reduces that to the classifier's input space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import CodeVector
from .errors import DataError
from .frontend import ClassDecl


class NoMethodsError(DataError):
    """Class has no embeddable methods left after exclusion."""


class DimMismatchError(DataError):
    """Vector length does not match what the operation expects."""


class DegenerateDataError(DataError):
    """PCA input has zero variance in every direction."""


@dataclass(eq=False)
class FeatureVector:
    values: np.ndarray
    method_id: str
    class_id: str
    stage: str  # 'raw' (2d) or 'reduced' (k)

    def __post_init__(self):
        if self.stage not in ("raw", "reduced"):
            raise ValueError(f"bad stage {self.stage!r}")


@dataclass(eq=False)
class PcaModel:
    mean: np.ndarray  # (2d,)
    components: np.ndarray  # (k, 2d), rows orthonormal
    explained_variance_ratio: np.ndarray  # (k,), non-increasing

    def __post_init__(self):
        gram = self.components @ self.components.T
        if not np.allclose(gram, np.eye(self.k), atol=1e-8):
            raise ValueError("PCA components must be row-orthonormal")
        ratios = self.explained_variance_ratio
        if np.any(ratios < -1e-12) or np.any(ratios > 1 + 1e-12):
            raise ValueError("explained variance ratios must lie in [0, 1]")
        if np.any(np.diff(ratios) > 1e-12):
            raise ValueError("explained variance ratios must be non-increasing")

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def input_dim(self) -> int:
        return self.components.shape[1]


def class_embedding(
    cls: ClassDecl,
    method_vectors: dict[str, CodeVector],
    exclude: str | None = None,
) -> CodeVector:
    """Element-wise mean over the class's embeddable methods.

    Methods missing from method_vectors (for example, empty bodies that
    could not be embedded) do not participate. Excluding the last
    remaining method raises NoMethodsError; callers drop that pair.
    """
    rows = [
        method_vectors[m.id].values
        for m in cls.methods
        if m.id in method_vectors and m.id != exclude
    ]
    if not rows:
        raise NoMethodsError(
            f"class {cls.name} has no embeddable methods (exclude={exclude!r})"
        )
    return CodeVector(np.mean(rows, axis=0), source=cls.name)


def make_pair_vector(method_vec: CodeVector, class_vec: CodeVector) -> FeatureVector:
    """Concatenate method and class vectors, method half first."""
    if method_vec.values.shape != class_vec.values.shape:
        raise DimMismatchError(
            f"method vector length {method_vec.values.shape[0]} != "
            f"class vector length {class_vec.values.shape[0]}"
        )
    values = np.concatenate([method_vec.values, class_vec.values])
    return FeatureVector(values, method_vec.source, class_vec.source, "raw")


def fit_pca(
    raw_vectors: list[FeatureVector],
    variance_threshold: float = 0.95,
    k: int | None = None,
) -> PcaModel:
    """Mean-centered eigendecomposition of the sample covariance.

    Keeps the smallest k whose cumulative explained variance reaches the
    threshold, unless a fixed k overrides. Fit on training vectors only;
    the caller owns that discipline.
    """
    if len(raw_vectors) < 2:
        raise DataError(f"PCA needs at least 2 samples, got {len(raw_vectors)}")
    data = np.stack([fv.values for fv in raw_vectors])
    dim = data.shape[1]
    if k is not None and not 1 <= k <= dim:
        raise DataError(f"fixed k={k} outside [1, {dim}]")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (data.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    total = eigvals.sum()
    if total <= 0.0:
        raise DegenerateDataError("covariance has no variance to explain")
    ratios = eigvals / total
    if k is None:
        cumulative = np.cumsum(ratios)
        k = int(np.searchsorted(cumulative, variance_threshold - 1e-12) + 1)
        k = min(k, dim)
    components = eigvecs[:, :k].T.copy()
    # sign convention: dominant entry of each component is positive
    for row in components:
        peak = np.argmax(np.abs(row))
        if row[peak] < 0:
            row *= -1.0
    return PcaModel(mean, components, ratios[:k])


def apply_pca_matrix(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """Bulk projection of an (n, 2d) matrix."""
    if data.shape[1] != model.input_dim:
        raise DimMismatchError(
            f"matrix width {data.shape[1]} != PCA input {model.input_dim}"
        )
    return (data - model.mean) @ model.components.T
