"""Margin classifier, Platt scaling and feature-map tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pathmove.featurize import DimMismatchError, FeatureVector
from pathmove.svm import (
    PlattParams,
    RffMap,
    SingleClassError,
    SvmHyperparams,
    SvmModel,
    fit_platt,
    fit_rff,
    hinge_objective,
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
    hp = SvmHyperparams(C=1.0, epochs=50, seed=9)
    model = train_svm(as_pairs(data, labels), hp)
    flipped = train_svm(as_pairs(data, 1 - labels), hp)
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
    lam = 1.0 / (1.0 * len(data))

    w1 = np.arange(-3.0, 3.0001, 0.05)[:, None, None]
    w2 = np.arange(-3.0, 3.0001, 0.05)[None, :, None]
    b = np.arange(-2.0, 2.0001, 0.05)[None, None, :]
    hinge_sum = np.zeros((w1.shape[0], w2.shape[1], b.shape[2]))
    for point, sign in zip(data, signs):
        margin = sign * (w1 * point[0] + w2 * point[1] + b)
        hinge_sum += np.maximum(0.0, 1.0 - margin)
    grid_objective = 0.5 * lam * (w1**2 + w2**2) + hinge_sum / len(data)
    grid_best = float(grid_objective.min())

    model = train_svm(as_pairs(data, labels), SvmHyperparams(C=1.0, epochs=400, seed=1))
    trained = hinge_objective(model.weights, model.bias, data, signs, lam)
    assert abs(trained - grid_best) <= 0.02 * grid_best


def test_returned_model_is_best_epoch_snapshot():
    data, labels = blob_set(seed=5)
    model = train_svm(as_pairs(data, labels), SvmHyperparams(epochs=60, seed=2))
    signs = 2 * labels - 1
    lam = 1.0 / len(data)
    final = hinge_objective(model.weights, model.bias, data, signs, lam)
    history = model.objective_history
    assert len(history) == 60
    assert final == min(history)
    # optimization made progress on the epoch averages
    assert np.mean(history[-6:]) <= np.mean(history[:6])


def test_training_determinism():
    data, labels = blob_set(seed=8)
    hp = SvmHyperparams(epochs=30, seed=4)
    a = train_svm(as_pairs(data, labels), hp)
    b = train_svm(as_pairs(data, labels), hp)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
    c = train_svm(as_pairs(data, labels), SvmHyperparams(epochs=30, seed=5))
    assert not np.array_equal(a.weights, c.weights)


def test_single_class_rejected():
    data = np.ones((4, 2))
    with pytest.raises(SingleClassError):
        train_svm(as_pairs(data, np.ones(4, dtype=int)))
    model = SvmModel(np.ones(2), 0.0, SvmHyperparams())
    with pytest.raises(SingleClassError):
        fit_platt(model, as_pairs(data, np.zeros(4, dtype=int)))


def score_model():
    # identity model over 1-D features: decision value == feature value
    return SvmModel(np.array([1.0]), 0.0, SvmHyperparams())


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
    values = [platt_probability(platt, f) for f in (-1e6, -10.0, 0.0, 10.0, 1e6)]
    for p in values:
        assert 0.0 < p < 1.0
    assert values == sorted(values)  # A<0: increasing f, increasing p
    assert values[-1] > 0.999 and values[0] < 0.001


def test_predict_proba_end_to_end():
    data, labels = blob_set(seed=12)
    model = train_svm(as_pairs(data, labels), SvmHyperparams(epochs=80, seed=0))
    platt = fit_platt(model, as_pairs(data, labels))
    hot = platt_probability(platt, model.decision(np.array([1.2, 1.1])))
    cold = platt_probability(platt, model.decision(np.array([-1.2, -1.1])))
    assert hot > 0.5 > cold
    with pytest.raises(DimMismatchError):
        model.decision(np.zeros(5))


def test_rff_approximates_rbf_kernel():
    rng = np.random.default_rng(41)
    data = rng.normal(size=(12, 5))
    gamma = 0.3
    feature_map = fit_rff(data, d_out=4096, gamma=gamma, seed=7)
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
    assert a.gamma == b.gamma and a.gamma > 0
    assert a.transform(data).shape == (6, 64)
    assert a.transform(data[0]).shape == (64,)
    with pytest.raises(DimMismatchError):
        a.transform(np.zeros((2, 9)))


def test_rff_enables_nonlinear_separation():
    # XOR layout defeats a linear margin; the feature map recovers it.
    rng = np.random.default_rng(47)
    centers = np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]], dtype=float)
    labels_by_center = [1, 1, 0, 0]
    data, labels = [], []
    for center, label in zip(centers, labels_by_center):
        data.append(center + rng.normal(scale=0.2, size=(30, 2)))
        labels += [label] * 30
    data = np.vstack(data)
    labels = np.array(labels)

    linear = train_svm(as_pairs(data, labels), SvmHyperparams(epochs=100, seed=3))
    linear_acc = np.mean((linear.decision_matrix(data) > 0).astype(int) == labels)

    feature_map = fit_rff(data, d_out=512, gamma=1.0, seed=3)
    lifted = feature_map.transform(data)
    mapped = train_svm(as_pairs(lifted, labels), SvmHyperparams(epochs=100, seed=3))
    mapped_acc = np.mean((mapped.decision_matrix(lifted) > 0).astype(int) == labels)

    assert linear_acc < 0.7  # genuinely not linearly separable
    assert mapped_acc >= 0.95
    assert mapped_acc > linear_acc


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        SvmHyperparams(C=0.0)
    with pytest.raises(ValueError):
        SvmHyperparams(epochs=-1)
    with pytest.raises(ValueError):
        fit_rff(np.ones((3, 2)), gamma=-0.5)
