"""Margin classifier with probability calibration.

The classifier is a linear SVM trained by stochastic subgradient descent
on the regularized hinge objective, followed by Platt scaling fitted with
damped Newton iterations on held-out scores.  An optional random Fourier
feature map approximates an RBF kernel while keeping the trainer linear;
the pipeline applies it ahead of the SVM when configured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .featurize import DimMismatchError, FeatureVector


class SingleClassError(DataError):
    """Training or calibration data contains only one label."""


@dataclass
class SvmHyperparams:
    C: float = 1.0
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.C <= 0 or self.epochs <= 0:
            raise ValueError("C and epochs must be positive")


@dataclass(eq=False)
class SvmModel:
    weights: np.ndarray
    bias: float
    hyperparams: SvmHyperparams
    objective_history: list[float] = field(default_factory=list, compare=False)

    def decision(self, x: np.ndarray) -> float:
        if x.shape != self.weights.shape:
            raise DimMismatchError(
                f"input length {x.shape} != weight length {self.weights.shape}"
            )
        return float(self.weights @ x + self.bias)

    def decision_matrix(self, data: np.ndarray) -> np.ndarray:
        if data.shape[1] != self.weights.shape[0]:
            raise DimMismatchError(
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
        raise SingleClassError("need both labels 0 and 1")
    return data, labels


def hinge_objective(weights: np.ndarray, bias: float, data: np.ndarray, signs: np.ndarray, lam: float) -> float:
    """Regularized hinge loss: lam/2 ||w||^2 + mean max(0, 1 - y f(x))."""
    margins = signs * (data @ weights + bias)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(0.5 * lam * weights @ weights + hinge.mean())


def train_svm(
    train_set: list[tuple[FeatureVector, int]], hyperparams: SvmHyperparams | None = None
) -> SvmModel:
    """Stochastic subgradient descent on the hinge objective.

    Regularization lam = 1/(C*n), step size 1/(lam*(t+n)). The schedule
    offset keeps the first steps near C; without it the unregularized
    bias takes a one-time kick of magnitude C*n that separable data
    never corrects.  The returned weights are the end-of-epoch snapshot
    with the lowest objective, so a late noisy step cannot degrade the
    final model.  Zero initialization makes training exactly
    antisymmetric under label flips.
    """
    hp = hyperparams or SvmHyperparams()
    data, labels = _as_matrix(train_set)
    signs = 2.0 * labels - 1.0
    n, dim = data.shape
    lam = 1.0 / (hp.C * n)
    rng = np.random.default_rng(hp.seed)

    weights = np.zeros(dim)
    bias = 0.0
    best: tuple[float, np.ndarray, float] | None = None
    history: list[float] = []
    step = 0
    order = np.arange(n)
    for _ in range(hp.epochs):
        rng.shuffle(order)
        for i in order:
            step += 1
            eta = 1.0 / (lam * (step + n))
            margin = signs[i] * (data[i] @ weights + bias)
            weights *= 1.0 - eta * lam
            if margin < 1.0:
                weights += eta * signs[i] * data[i]
                bias += eta * signs[i]
        objective = hinge_objective(weights, bias, data, signs, lam)
        history.append(objective)
        if best is None or objective < best[0]:
            best = (objective, weights.copy(), bias)
    assert best is not None
    return SvmModel(best[1], best[2], hp, objective_history=history)


# ---------------------------------------------------------------------------
# Platt scaling


def _sigmoid_nll(scores: np.ndarray, targets: np.ndarray, a: float, b: float) -> float:
    z = a * scores + b
    # t*z + log(1+exp(-z)) evaluated stably on both tails
    return float(np.sum(targets * z + np.logaddexp(0.0, -z)))


def fit_platt(
    model: SvmModel,
    calib_set: list[tuple[FeatureVector, int]],
    max_iter: int = 100,
) -> PlattParams:
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
    for _ in range(max_iter):
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
    gamma: float

    def transform(self, data: np.ndarray) -> np.ndarray:
        if data.ndim == 1:
            data = data[None, :]
            squeeze = True
        else:
            squeeze = False
        if data.shape[1] != self.omega.shape[0]:
            raise DimMismatchError(
                f"input width {data.shape[1]} != map input {self.omega.shape[0]}"
            )
        out = np.sqrt(2.0 / self.omega.shape[1]) * np.cos(data @ self.omega + self.phases)
        return out[0] if squeeze else out


def fit_rff(
    data: np.ndarray, d_out: int = 256, gamma: float | None = None, seed: int = 0
) -> RffMap:
    """Draw the random projection for z(x)·z(y) ≈ exp(-gamma ||x-y||²).

    gamma defaults to 1/(dim · var(data)), matching the common 'scale'
    heuristic.  Deterministic for a fixed seed.
    """
    if data.ndim != 2 or data.shape[0] < 1:
        raise DataError("feature map needs a non-empty 2-D sample matrix")
    dim = data.shape[1]
    if gamma is None:
        var = float(data.var())
        gamma = 1.0 / (dim * var) if var > 0 else 1.0
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    rng = np.random.default_rng(seed)
    omega = rng.normal(0.0, math.sqrt(2.0 * gamma), size=(dim, d_out))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=d_out)
    return RffMap(omega, phases, gamma)
