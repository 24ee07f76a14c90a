"""Margin classifier with probability calibration.

The classifier is a linear SVM fitted exactly by Newton's method on the
regularized squared-hinge objective, followed by Platt scaling fitted
with damped Newton iterations on held-out scores.  A random Fourier feature
map approximates an RBF kernel while keeping the trainer linear; the
pipeline always applies it ahead of the SVM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .featurize import FeatureVector


@dataclass
class SvmHyperparams:
    C: float = 10.0
    epochs: int = 200

    def __post_init__(self):
        if self.C <= 0 or self.epochs <= 0:
            raise ValueError("C and epochs must be positive")


@dataclass(eq=False)
class SvmModel:
    weights: np.ndarray
    bias: float

    def decision(self, x: np.ndarray) -> float:
        if x.shape != self.weights.shape:
            raise DataError(
                f"input length {x.shape} != weight length {self.weights.shape}"
            )
        return float(self.weights @ x + self.bias)

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


def train_svm(
    train_set: list[tuple[FeatureVector, int]], hyperparams: SvmHyperparams | None = None
) -> SvmModel:
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
    hp = hyperparams or SvmHyperparams()
    data, labels = _as_matrix(train_set)
    signs = 2.0 * labels - 1.0
    n, dim = data.shape
    lam = 1.0 / (hp.C * n)

    def objective(w: np.ndarray, b: float) -> tuple[float, np.ndarray]:
        slack = np.maximum(0.0, 1.0 - signs * (data @ w + b))
        return float(0.5 * lam * w @ w + slack @ slack / n), slack

    weights, bias = np.zeros(dim), 0.0
    value, slack = objective(weights, bias)
    for _ in range(hp.epochs):
        active = slack > 0.0
        rows = data[active]
        residual = -signs[active] * slack[active]  # f(x) - y on those rows
        grad = (2.0 / n) * np.append(rows.T @ residual, residual.sum())
        grad[:dim] += lam * weights
        if np.abs(grad).max() < 1e-10:
            break
        column, corner = rows.sum(axis=0)[:, None], np.full((1, 1), float(len(rows)))
        hessian = (2.0 / n) * np.block([[rows.T @ rows, column], [column.T, corner]])
        hessian[np.diag_indices(dim + 1)] += np.append(np.full(dim, lam), 1e-10)
        step = np.linalg.solve(hessian, -grad)
        descent = float(grad @ step)
        stepsize = 1.0
        while stepsize >= 1e-10:
            trial_w, trial_b = weights + stepsize * step[:dim], bias + stepsize * step[dim]
            trial, trial_slack = objective(trial_w, trial_b)
            if trial <= value + 1e-4 * stepsize * descent:
                weights, bias, value, slack = trial_w, float(trial_b), trial, trial_slack
                break
            stepsize /= 2.0
        else:
            break  # line search made no progress
    return SvmModel(weights, bias)


# ---------------------------------------------------------------------------
# Platt scaling

_PLATT_MAX_ITER = 100


def _sigmoid_nll(scores: np.ndarray, targets: np.ndarray, a: float, b: float) -> float:
    z = a * scores + b
    # t*z + log(1+exp(-z)) evaluated stably on both tails
    return float(np.sum(targets * z + np.logaddexp(0.0, -z)))


def fit_platt(model: SvmModel, calib_set: list[tuple[FeatureVector, int]]) -> PlattParams:
    """Fit Pr(y=1|x) = 1/(1+exp(A f(x)+B)) by damped Newton descent.

    Targets are smoothed per Platt: (N+ + 1)/(N+ + 2) for positives,
    1/(N- + 2) for negatives.  If the line search stalls before the
    gradient is small, the best parameters so far are returned with
    converged=False.
    """
    data, labels = _as_matrix(calib_set)
    scores = model.decision_matrix(data)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    targets = np.where(labels == 1, hi, lo)

    a = 0.0
    b = math.log((n_neg + 1.0) / (n_pos + 1.0))
    value = _sigmoid_nll(scores, targets, a, b)
    converged = False
    for _ in range(_PLATT_MAX_ITER):
        z = a * scores + b
        # p = Pr(y=1) under the current parameters, stable on both tails
        p = np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))
        grad_z = targets - p
        g_a = float(grad_z @ scores)
        g_b = float(grad_z.sum())
        if max(abs(g_a), abs(g_b)) < 1e-5:
            converged = True
            break
        pq = np.maximum(p * (1.0 - p), 1e-12)
        h_aa = float(pq @ (scores * scores)) + 1e-12
        h_ab = float(pq @ scores)
        h_bb = float(pq.sum()) + 1e-12
        det = h_aa * h_bb - h_ab * h_ab
        step_a = -(h_bb * g_a - h_ab * g_b) / det
        step_b = -(-h_ab * g_a + h_aa * g_b) / det
        descent = g_a * step_a + g_b * step_b
        stepsize = 1.0
        while stepsize >= 1e-10:
            candidate = _sigmoid_nll(scores, targets, a + stepsize * step_a, b + stepsize * step_b)
            if candidate < value + 1e-4 * stepsize * descent:
                a += stepsize * step_a
                b += stepsize * step_b
                value = candidate
                break
            stepsize /= 2.0
        else:
            break  # line search failed; keep best so far
    return PlattParams(A=a, B=b, converged=converged)


def platt_probability(platt: PlattParams, score: float) -> float:
    """Calibrated probability for one raw decision value, clamped into
    the open interval (0, 1)."""
    z = platt.A * score + platt.B
    if z >= 0:
        e = math.exp(-z)
        p = e / (1.0 + e)
    else:
        p = 1.0 / (1.0 + math.exp(z))
    return min(max(p, 1e-15), 1.0 - 1e-15)


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


def fit_rff(data: np.ndarray, d_out: int = 256, seed: int = 0) -> RffMap:
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
