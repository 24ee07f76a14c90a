"""Margin classifier with probability calibration.

The classifier is a linear SVM with C fixed at 10, fitted exactly on the
regularized squared-hinge objective, followed by Platt scaling on
held-out scores.  Both fits run the same damped Newton routine with
Armijo backtracking, and one stable vectorised sigmoid serves both the
Platt fit and the probabilities it calibrates.  A random Fourier feature
map approximates an RBF kernel while keeping the trainer linear; the
pipeline always applies it ahead of the SVM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .featurize import FeatureVector

C = 10.0  # the SVM's regularization constant; README "Configuration" says why 10
EPOCHS = 200  # train_svm's default cap on Newton steps; config key svm.epochs defaults to it


@dataclass(eq=False)
class SvmModel:
    weights: np.ndarray
    bias: float

    def decision(self, x: np.ndarray) -> float:
        return float(self.decision_matrix(x[None, :])[0])

    def decision_matrix(self, data: np.ndarray) -> np.ndarray:
        if data.shape[1] != self.weights.shape[0]:
            raise DataError(
                f"matrix width {data.shape[1]} != weight length {self.weights.shape[0]}"
            )
        return data @ self.weights + self.bias


@dataclass
class PlattParams:
    A: float
    B: float
    converged: bool = True


def _as_matrix(pairs: list[tuple[FeatureVector, int]]) -> tuple[np.ndarray, np.ndarray]:
    data = np.stack([fv.values for fv, _ in pairs])
    labels = np.array([label for _, label in pairs], dtype=np.int64)
    if set(labels.tolist()) != {0, 1}:
        raise DataError("need both labels 0 and 1")
    return data, labels


def _newton(
    x: np.ndarray, objective, gradient, tol: float, max_iter: int
) -> tuple[np.ndarray, bool]:
    """Damped Newton descent from `x`; returns the last point and whether
    the gradient fell below `tol`.

    `objective(x)` is a float.  `gradient(x)` gives the gradient and a
    function that builds the Hessian, called only when the gradient test
    has not stopped the descent.  Each step solves the Newton system,
    then halves the step from 1 down to 1e-10 until the Armijo condition
    (constant 1e-4) holds.  The descent stops when the line search makes
    no progress or after `max_iter` steps.
    """
    value = objective(x)
    for _ in range(max_iter):
        grad, hessian = gradient(x)
        if np.abs(grad).max() < tol:
            return x, True
        step = np.linalg.solve(hessian(), -grad)
        descent = float(grad @ step)
        stepsize = 1.0
        while stepsize >= 1e-10:
            trial = x + stepsize * step
            trial_value = objective(trial)
            if trial_value <= value + 1e-4 * stepsize * descent:
                x, value = trial, trial_value
                break
            stepsize /= 2.0
        else:
            break  # line search made no progress
    return x, False


def train_svm(train_set: list[tuple[FeatureVector, int]], epochs: int = EPOCHS) -> SvmModel:
    """Newton's method on lam/2 ||w||^2 + mean max(0, 1 - y f(x))^2.

    lam = 1/(C*n); the bias is not regularized.  The objective is a
    convex piecewise quadratic: each step solves one (dim+1)-square
    system over the rows with margin below 1, then backtracks (Keerthi &
    DeCoste, JMLR 2005; Chapelle, Neural Computation 2007).  The fit
    stops when the gradient vanishes, when the line search makes no
    progress, or after `epochs` steps.  A tiny ridge on the bias keeps
    the system regular when every margin is at least 1.  Starting from
    zero makes the fit exactly antisymmetric under label flips.
    """
    data, labels = _as_matrix(train_set)
    signs = 2.0 * labels - 1.0
    n, dim = data.shape
    lam = 1.0 / (C * n)

    def slack(x: np.ndarray) -> np.ndarray:  # x is the weights, then the bias
        return np.maximum(0.0, 1.0 - signs * (data @ x[:dim] + x[dim]))

    def objective(x: np.ndarray) -> float:
        w, s = x[:dim], slack(x)
        return float(0.5 * lam * w @ w + s @ s / n)

    def gradient(x: np.ndarray):
        s = slack(x)
        active = s > 0.0
        rows = data[active]
        residual = -signs[active] * s[active]  # f(x) - y on those rows
        grad = (2.0 / n) * np.append(rows.T @ residual, residual.sum())
        grad[:dim] += lam * x[:dim]

        def hessian() -> np.ndarray:
            column, corner = rows.sum(axis=0)[:, None], np.full((1, 1), float(len(rows)))
            matrix = (2.0 / n) * np.block([[rows.T @ rows, column], [column.T, corner]])
            matrix[np.diag_indices(dim + 1)] += np.append(np.full(dim, lam), 1e-10)
            return matrix

        return grad, hessian

    x, _ = _newton(np.zeros(dim + 1), objective, gradient, 1e-10, epochs)
    return SvmModel(x[:dim], float(x[dim]))


# ---------------------------------------------------------------------------
# Platt scaling


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """1/(1+exp(-t)) elementwise; exp only sees -|t|, so no finite t overflows."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def fit_platt(model: SvmModel, calib_set: list[tuple[FeatureVector, int]]) -> PlattParams:
    """Fit Pr(y=1|x) = 1/(1+exp(A f(x)+B)) by damped Newton descent.

    Targets are smoothed per Platt: (N+ + 1)/(N+ + 2) for positives,
    1/(N- + 2) for negatives.  The fit stops when the gradient falls
    below 1e-5 or after 100 steps; if the line search stalls first, the
    best parameters so far are returned with converged=False (Lin, Lin &
    Weng, Machine Learning 2007).
    """
    data, labels = _as_matrix(calib_set)
    scores = model.decision_matrix(data)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    targets = np.where(labels == 1, hi, lo)

    def objective(x: np.ndarray) -> float:  # x is (A, B)
        z = x[0] * scores + x[1]
        # t*z + log(1+exp(-z)) evaluated stably on both tails
        return float(np.sum(targets * z + np.logaddexp(0.0, -z)))

    def gradient(x: np.ndarray):
        p = _sigmoid(-(x[0] * scores + x[1]))  # Pr(y=1) at (A, B)
        residual = targets - p

        def hessian() -> np.ndarray:
            pq = np.maximum(p * (1.0 - p), 1e-12)
            h_ab = pq @ scores
            return np.array([[pq @ (scores * scores) + 1e-12, h_ab], [h_ab, pq.sum() + 1e-12]])

        return np.array([residual @ scores, residual.sum()]), hessian

    start = np.array([0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))])
    x, converged = _newton(start, objective, gradient, 1e-5, 100)
    return PlattParams(A=float(x[0]), B=float(x[1]), converged=converged)


def platt_probability(platt: PlattParams, score: float | np.ndarray) -> float | np.ndarray:
    """Calibrated probability of a raw decision value, or of each value in
    an array, clamped into the open interval (0, 1).  A scalar score
    gives a float."""
    p = np.clip(_sigmoid(-(platt.A * np.asarray(score) + platt.B)), 1e-15, 1.0 - 1e-15)
    return float(p) if p.ndim == 0 else p


# ---------------------------------------------------------------------------
# Random Fourier feature map (RBF kernel approximation)


@dataclass(eq=False)
class RffMap:
    omega: np.ndarray  # (in_dim, d_out)
    phases: np.ndarray  # (d_out,)

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Map the rows of a 2-D matrix."""
        if data.shape[1] != self.omega.shape[0]:
            raise DataError(
                f"input width {data.shape[1]} != map input {self.omega.shape[0]}"
            )
        return np.sqrt(2.0 / self.omega.shape[1]) * np.cos(data @ self.omega + self.phases)


def fit_rff(data: np.ndarray, d_out: int, seed: int) -> RffMap:
    """Draw the random projection for z(x)·z(y) ≈ exp(-gamma ||x-y||²).

    gamma is 1/(dim · var(data)), the common 'scale' heuristic, or 1.0
    when every entry of `data` is the same.  Deterministic for a fixed
    seed.
    """
    if data.ndim != 2 or data.shape[0] < 1:
        raise DataError("feature map needs a non-empty 2-D sample matrix")
    dim = data.shape[1]
    var = float(data.var())
    gamma = 1.0 / (dim * var) if var > 0 else 1.0
    rng = np.random.default_rng(seed)
    omega = rng.normal(0.0, math.sqrt(2.0 * gamma), size=(dim, d_out))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=d_out)
    return RffMap(omega, phases)
