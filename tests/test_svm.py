"""Margin classifier, Platt scaling and feature-map tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pathmove.errors import DataError
from pathmove.featurize import FeatureVector
from pathmove.svm import (
    C,
    PlattParams,
    RffMap,
    SvmModel,
    _newton,
    fit_platt,
    fit_rff,
    platt_probability,
    train_svm,
)


def as_pairs(data: np.ndarray, labels: np.ndarray):
    return [
        (FeatureVector(row, f"m{i}", "c", "reduced"), int(label))
        for i, (row, label) in enumerate(zip(data, labels))
    ]


def blob_set(n_per_side=40, seed=0, spread=0.4):
    rng = np.random.default_rng(seed)
    pos = rng.normal(loc=(1.0, 1.0), scale=spread, size=(n_per_side, 2))
    neg = rng.normal(loc=(-1.0, -1.0), scale=spread, size=(n_per_side, 2))
    data = np.vstack([pos, neg])
    labels = np.array([1] * n_per_side + [0] * n_per_side)
    return data, labels


def xor_set(seed=47):
    # XOR layout: no linear margin separates it
    rng = np.random.default_rng(seed)
    centers = np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]], dtype=float)
    labels_by_center = [1, 1, 0, 0]
    data, labels = [], []
    for center, label in zip(centers, labels_by_center):
        data.append(center + rng.normal(scale=0.2, size=(30, 2)))
        labels += [label] * 30
    return np.vstack(data), np.array(labels)


def squared_hinge(weights, bias, data, labels, lam):
    """lam/2 ||w||^2 + mean max(0, 1 - y f(x))^2, and its gradient in (w, b)."""
    signs = 2 * labels - 1
    slack = np.maximum(0.0, 1.0 - signs * (data @ weights + bias))
    value = 0.5 * lam * weights @ weights + np.mean(slack**2)
    grad_w = lam * weights - 2.0 * (signs * slack) @ data / len(data)
    grad_b = -2.0 * np.sum(signs * slack) / len(data)
    return float(value), np.append(grad_w, grad_b)


def test_separable_blobs_fully_learned():
    data, labels = blob_set()
    model = train_svm(as_pairs(data, labels))
    decisions = model.decision_matrix(data)
    signs = 2 * labels - 1
    margins = signs * decisions
    assert np.all(margins >= 0)  # training accuracy 1.0
    accuracy = np.mean((decisions > 0).astype(int) == labels)
    assert accuracy == 1.0


def test_label_flip_negates_model_exactly():
    data, labels = blob_set(seed=3)
    model = train_svm(as_pairs(data, labels), epochs=50)
    flipped = train_svm(as_pairs(data, 1 - labels), epochs=50)
    assert np.array_equal(flipped.weights, -model.weights)
    assert flipped.bias == -model.bias
    for row in data:
        assert flipped.decision(row) == -model.decision(row)


def test_objective_close_to_grid_search_optimum():
    # Six fixed points; exhaustive lattice over (w1, w2, b).
    data = np.array(
        [[1.0, 0.5], [2.0, 1.0], [1.5, 2.0], [-1.0, -0.5], [-2.0, -1.0], [-0.5, -1.5]]
    )
    labels = np.array([1, 1, 1, 0, 0, 0])
    signs = 2 * labels - 1
    lam = 1.0 / (C * len(data))

    w1 = np.arange(-3.0, 3.0001, 0.05)[:, None, None]
    w2 = np.arange(-3.0, 3.0001, 0.05)[None, :, None]
    b = np.arange(-2.0, 2.0001, 0.05)[None, None, :]
    slack_sq = np.zeros((w1.shape[0], w2.shape[1], b.shape[2]))
    for point, sign in zip(data, signs):
        margin = sign * (w1 * point[0] + w2 * point[1] + b)
        slack_sq += np.maximum(0.0, 1.0 - margin) ** 2
    grid_objective = 0.5 * lam * (w1**2 + w2**2) + slack_sq / len(data)
    grid_best = float(grid_objective.min())

    model = train_svm(as_pairs(data, labels), epochs=400)
    trained, _ = squared_hinge(model.weights, model.bias, data, labels, lam)
    assert abs(trained - grid_best) <= 0.02 * grid_best


@pytest.mark.parametrize("lifted", [False, True], ids=["blobs", "xor-lifted"])
def test_fit_is_stationary(lifted):
    data, labels = blob_set(seed=5)
    if lifted:
        xor_data, labels = xor_set()
        data = fit_rff(xor_data, d_out=512, seed=3).transform(xor_data)
    model = train_svm(as_pairs(data, labels))
    _, grad = squared_hinge(model.weights, model.bias, data, labels, 1.0 / (C * len(data)))
    assert np.abs(grad).max() < 1e-6


def test_epochs_cap_the_newton_iterations():
    data, labels = xor_set()
    data = fit_rff(data, d_out=512, seed=3).transform(data)
    lam = 1.0 / (C * len(data))
    one = train_svm(as_pairs(data, labels), epochs=1)
    full = train_svm(as_pairs(data, labels))
    capped, _ = squared_hinge(one.weights, one.bias, data, labels, lam)
    converged, _ = squared_hinge(full.weights, full.bias, data, labels, lam)
    assert capped > converged


def test_newton_stops_when_the_line_search_stalls():
    """An objective that no step lowers: the descent ends at its start after
    one gradient, not at the step cap, and reports no convergence."""
    starts = []

    def gradient(x):
        starts.append(x)
        return np.ones(2), lambda: np.eye(2)

    x, converged = _newton(np.zeros(2), lambda x: 0.0, gradient, 1e-10, 50)
    assert converged is False
    assert np.array_equal(x, np.zeros(2)) and len(starts) == 1


def test_training_determinism():
    data, labels = blob_set(seed=8)
    a = train_svm(as_pairs(data, labels), epochs=30)
    b = train_svm(as_pairs(data, labels), epochs=30)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def test_single_class_rejected():
    data = np.ones((4, 2))
    with pytest.raises(DataError, match="need both labels 0 and 1"):
        train_svm(as_pairs(data, np.ones(4, dtype=int)))
    model = SvmModel(np.ones(2), 0.0)
    with pytest.raises(DataError, match="need both labels 0 and 1"):
        fit_platt(model, as_pairs(data, np.zeros(4, dtype=int)))


def score_model():
    # identity model over 1-D features: decision value == feature value
    return SvmModel(np.array([1.0]), 0.0)


def test_platt_orientation_on_separated_scores():
    scores = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
    labels = np.array([0, 0, 0, 1, 1, 1])
    platt = fit_platt(score_model(), as_pairs(scores[:, None], labels))
    assert platt.A < 0
    assert platt.converged


def test_platt_symmetric_scores_give_half_at_zero():
    rng = np.random.default_rng(21)
    pos = rng.normal(1.0, 1.0, size=200)
    neg = -pos  # exactly mirrored scores
    scores = np.concatenate([pos, neg])[:, None]
    labels = np.array([1] * 200 + [0] * 200)
    platt = fit_platt(score_model(), as_pairs(scores, labels))
    assert abs(platt_probability(platt, 0.0) - 0.5) < 0.05


def test_platt_beats_constant_baseline():
    rng = np.random.default_rng(33)
    scores = np.concatenate([rng.normal(1.2, 1.0, 150), rng.normal(-1.2, 1.0, 50)])
    labels = np.array([1] * 150 + [0] * 50)
    platt = fit_platt(score_model(), as_pairs(scores[:, None], labels))
    probs = np.array([platt_probability(platt, s) for s in scores])
    nll_platt = -np.sum(labels * np.log(probs) + (1 - labels) * np.log(1 - probs))
    base = labels.mean()
    nll_const = -np.sum(labels * np.log(base) + (1 - labels) * np.log(1 - base))
    assert nll_platt <= nll_const


def test_platt_closed_form_value():
    assert abs(platt_probability(PlattParams(-2.0, 0.0), 0.5) - 1 / (1 + math.exp(-1))) < 1e-12
    assert abs(platt_probability(PlattParams(-2.0, 0.0), 0.5) - 0.7311) < 1e-4


def test_probability_bounds_and_monotonicity():
    platt = PlattParams(-1.5, 0.2)
    scores = (-1e6, -10.0, 0.0, 10.0, 1e6)
    values = [platt_probability(platt, f) for f in scores]
    for p in values:
        assert type(p) is float and 0.0 < p < 1.0
    # one array call gives the scalar values bit for bit, and neither warns
    assert platt_probability(platt, np.array(scores)).tolist() == values
    assert values == sorted(values)  # A<0: increasing f, increasing p
    assert values[-1] > 0.999 and values[0] < 0.001


def test_predict_proba_end_to_end():
    data, labels = blob_set(seed=12)
    model = train_svm(as_pairs(data, labels), epochs=80)
    platt = fit_platt(model, as_pairs(data, labels))
    hot = platt_probability(platt, model.decision(np.array([1.2, 1.1])))
    cold = platt_probability(platt, model.decision(np.array([-1.2, -1.1])))
    assert hot > 0.5 > cold
    with pytest.raises(DataError, match="matrix width 5 != weight length 2"):
        model.decision(np.zeros(5))


def test_rff_approximates_rbf_kernel():
    rng = np.random.default_rng(41)
    data = rng.normal(size=(12, 5))
    gamma = 1.0 / (5 * float(data.var()))  # the width fit_rff derives
    feature_map = fit_rff(data, d_out=4096, seed=7)
    transformed = feature_map.transform(data)
    for i in range(0, 12, 3):
        for j in range(i + 1, 12, 3):
            exact = math.exp(-gamma * float(np.sum((data[i] - data[j]) ** 2)))
            approx = float(transformed[i] @ transformed[j])
            assert abs(exact - approx) < 0.05, (i, j)


def test_rff_determinism_and_shapes():
    rng = np.random.default_rng(43)
    data = rng.normal(size=(6, 4))
    a = fit_rff(data, d_out=64, seed=5)
    b = fit_rff(data, d_out=64, seed=5)
    assert np.array_equal(a.omega, b.omega) and np.array_equal(a.phases, b.phases)
    assert a.transform(data).shape == (6, 64)
    assert a.transform(data[:1]).shape == (1, 64)
    with pytest.raises(DataError, match="input width 9 != map input 4"):
        a.transform(np.zeros((2, 9)))
    # data without variance falls back to gamma 1, omega ~ N(0, 2)
    flat = fit_rff(np.ones((3, 2)), d_out=8, seed=5)
    expected = np.random.default_rng(5).normal(0.0, math.sqrt(2.0), size=(2, 8))
    assert np.array_equal(flat.omega, expected)


def test_rff_enables_nonlinear_separation():
    # XOR layout defeats a linear margin; the feature map recovers it.
    data, labels = xor_set()

    linear = train_svm(as_pairs(data, labels), epochs=100)
    linear_acc = np.mean((linear.decision_matrix(data) > 0).astype(int) == labels)

    feature_map = fit_rff(data, d_out=512, seed=3)
    lifted = feature_map.transform(data)
    mapped = train_svm(as_pairs(lifted, labels), epochs=100)
    mapped_acc = np.mean((mapped.decision_matrix(lifted) > 0).astype(int) == labels)

    assert linear_acc < 0.7  # genuinely not linearly separable
    assert mapped_acc >= 0.95
    assert mapped_acc > linear_acc
