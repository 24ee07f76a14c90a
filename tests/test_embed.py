"""Embedder tests: forward formula, gradients, training, persistence."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pathmove.embed import (
    UNK,
    EmbedderParams,
    TrainConfig,
    Vocabularies,
    VocabTooSmallError,
    _Adam,
    _batch_loss_and_grads,
    _Indexed,
    build_vocabularies,
    embed_bag,
    init_params,
    load_model,
    save_model,
    train_embedder,
    training_accuracy,
)
from pathmove.pathctx import ContextBag, EmptyBagError, PathContext


def simple_context(start: str, marker: str, end: str) -> PathContext:
    return PathContext(start, f"Name↑{marker}↓Name", end)


def toy_vocabs(tokens, markers, names) -> Vocabularies:
    token_index = {UNK: 0}
    for t in tokens:
        token_index[t] = len(token_index)
    path_index = {UNK: 0}
    for m in markers:
        path_index[simple_context("x", m, "y").path] = len(path_index)
    return Vocabularies(token_index, path_index, {n: i for i, n in enumerate(sorted(names))})


def seeded_params(vocabs: Vocabularies, d_t=4, d_p=4, d=6, seed=1) -> EmbedderParams:
    config = TrainConfig(d_t=d_t, d_p=d_p, d=d, min_count=1)
    return init_params(vocabs, config, np.random.default_rng(seed))


def test_forward_matches_straight_line_recomputation():
    # Independent scalar-loop recomputation of the pooled vector.
    vocabs = toy_vocabs(["a", "b", "c"], ["M1", "M2"], ["f", "g"])
    params = seeded_params(vocabs)
    contexts = [
        simple_context("a", "M1", "b"),
        simple_context("b", "M2", "c"),
        simple_context("c", "M1", "a"),
        simple_context("a", "M2", "a"),
        simple_context("zzz", "M1", "b"),  # unseen start token
    ]
    bag = ContextBag("m1", contexts)
    got = embed_bag(bag, params, vocabs).values

    tilde_rows = []
    scores = []
    for ctx in contexts:
        s = vocabs.token_index.get(ctx.start_token, 0)
        p = vocabs.path_index.get(ctx.path, 0)
        e = vocabs.token_index.get(ctx.end_token, 0)
        c = list(params.token_matrix[s]) + list(params.path_matrix[p]) + list(
            params.token_matrix[e]
        )
        row = []
        for k in range(params.d):
            acc = params.fc_bias[k]
            for i, ci in enumerate(c):
                acc += ci * params.fc_matrix[i, k]
            row.append(math.tanh(acc))
        tilde_rows.append(row)
        scores.append(sum(r * a for r, a in zip(row, params.attention_vector)))
    peak = max(scores)
    exps = [math.exp(s - peak) for s in scores]
    total = sum(exps)
    weights = [e / total for e in exps]
    expected = [
        sum(weights[i] * tilde_rows[i][k] for i in range(len(contexts)))
        for k in range(params.d)
    ]
    assert np.allclose(got, expected, atol=1e-10, rtol=0)


def test_singleton_bag_returns_transformed_context():
    vocabs = toy_vocabs(["a"], ["M1"], ["f", "g"])
    params = seeded_params(vocabs)
    bag = ContextBag("m", [simple_context("a", "M1", "a")])
    got = embed_bag(bag, params, vocabs).values
    idx = vocabs.token_index["a"]
    pidx = 1
    c = np.hstack(
        [params.token_matrix[idx], params.path_matrix[pidx], params.token_matrix[idx]]
    )
    expected = np.tanh(c @ params.fc_matrix + params.fc_bias)
    assert np.array_equal(got, expected)


def test_duplicate_contexts_change_nothing():
    vocabs = toy_vocabs(["a", "b"], ["M1"], ["f", "g"])
    params = seeded_params(vocabs)
    one = ContextBag("m", [simple_context("a", "M1", "b")])
    two = ContextBag("m", [simple_context("a", "M1", "b")] * 2)
    va = embed_bag(one, params, vocabs).values
    vb = embed_bag(two, params, vocabs).values
    assert np.allclose(va, vb, atol=1e-15, rtol=0)


def test_permutation_invariance():
    vocabs = toy_vocabs(["a", "b", "c"], ["M1", "M2"], ["f", "g"])
    params = seeded_params(vocabs)
    contexts = [
        simple_context(s, m, e)
        for s in ("a", "b", "c")
        for m in ("M1", "M2")
        for e in ("a", "b")
    ]
    forward = embed_bag(ContextBag("m", contexts), params, vocabs).values
    backward = embed_bag(ContextBag("m", contexts[::-1]), params, vocabs).values
    assert np.allclose(forward, backward, atol=1e-12, rtol=0)


def test_attention_weights_normalized_and_dim():
    vocabs = toy_vocabs(["a", "b"], ["M1"], ["f", "g"])
    params = seeded_params(vocabs, d=9)
    bag = ContextBag("m", [simple_context("a", "M1", "b")] * 7)
    vec = embed_bag(bag, params, vocabs)
    assert vec.values.shape == (9,)
    assert np.all(np.isfinite(vec.values))


def test_oov_maps_to_unk_row():
    vocabs = toy_vocabs(["a", "b"], ["M1"], ["f", "g"])
    params = seeded_params(vocabs)
    unseen = ContextBag("m", [simple_context("qqq", "ZZZ", "www")])
    explicit = ContextBag("m", [simple_context(UNK, "ZZZ", UNK)])
    assert np.array_equal(
        embed_bag(unseen, params, vocabs).values,
        embed_bag(explicit, params, vocabs).values,
    )


def test_empty_bag_raises():
    vocabs = toy_vocabs(["a"], ["M1"], ["f", "g"])
    params = seeded_params(vocabs)
    with pytest.raises(EmptyBagError):
        embed_bag(ContextBag("m", []), params, vocabs)


def test_default_output_dimension_is_384():
    vocabs = toy_vocabs(["a"], ["M1"], ["f", "g"])
    config = TrainConfig()
    assert config.d == 384
    params = init_params(vocabs, config, np.random.default_rng(0))
    bag = ContextBag("m", [simple_context("a", "M1", "a")])
    assert embed_bag(bag, params, vocabs).values.shape == (384,)


def test_gradients_match_finite_differences():
    # Central differences over every scalar parameter on a micro-model.
    vocabs = toy_vocabs(["a", "b"], ["M1", "M2"], ["f", "g"])
    params = seeded_params(vocabs, d_t=3, d_p=3, d=4, seed=7)
    batch = [
        _Indexed(np.array([1, 2, 0]), np.array([1, 2, 1]), np.array([2, 1, 1]), 0),
        _Indexed(np.array([2, 1]), np.array([2, 0]), np.array([1, 2]), 1),
    ]
    _, grads = _batch_loss_and_grads(params, batch)
    arrays = params.grouped()
    eps = 1e-5
    for group, arr in arrays.items():
        numeric = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            saved = arr[idx]
            arr[idx] = saved + eps
            up, _ = _batch_loss_and_grads(params, batch)
            arr[idx] = saved - eps
            down, _ = _batch_loss_and_grads(params, batch)
            arr[idx] = saved
            numeric[idx] = (up - down) / (2 * eps)
        scale = max(np.linalg.norm(grads[group]), np.linalg.norm(numeric), 1e-12)
        rel = np.linalg.norm(grads[group] - numeric) / scale
        assert rel < 1e-4, f"{group}: relative gradient error {rel}"


def dense_batch_loss_and_grads(params: EmbedderParams, batch: list[_Indexed]):
    """Reference step: concatenate every context's three rows into one
    matrix, multiply it by fc_matrix, and scatter the row gradients back
    with np.add.at. Same maths as the training step, another summation
    order."""
    lengths = np.array([len(s.starts) for s in batch])
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    seg = np.repeat(np.arange(len(batch)), lengths)
    starts = np.concatenate([s.starts for s in batch])
    paths = np.concatenate([s.paths for s in batch])
    ends = np.concatenate([s.ends for s in batch])
    labels = np.array([s.label for s in batch])

    d_t = params.d_t
    d_p = params.d_p
    combined = np.hstack(
        [params.token_matrix[starts], params.path_matrix[paths], params.token_matrix[ends]]
    )
    transformed = np.tanh(combined @ params.fc_matrix + params.fc_bias)
    scores = transformed @ params.attention_vector
    score_max = np.maximum.reduceat(scores, offsets)
    exp_scores = np.exp(scores - score_max[seg])
    denom = np.add.reduceat(exp_scores, offsets)
    weights = exp_scores / denom[seg]
    vectors = np.add.reduceat(weights[:, None] * transformed, offsets, axis=0)

    logits = vectors @ params.output_matrix
    logits -= logits.max(axis=1, keepdims=True)
    exp_logits = np.exp(logits)
    probs = exp_logits / exp_logits.sum(axis=1, keepdims=True)
    batch_idx = np.arange(len(batch))
    loss = float(-np.log(probs[batch_idx, labels]).mean())

    d_logits = probs.copy()
    d_logits[batch_idx, labels] -= 1.0
    d_logits /= len(batch)
    d_output = vectors.T @ d_logits
    d_vectors = d_logits @ params.output_matrix.T

    d_vec_ctx = d_vectors[seg]
    d_weights = np.sum(transformed * d_vec_ctx, axis=1)
    d_transformed = weights[:, None] * d_vec_ctx
    inner = np.add.reduceat(weights * d_weights, offsets)
    d_scores = weights * (d_weights - inner[seg])
    d_attention = transformed.T @ d_scores
    d_transformed += d_scores[:, None] * params.attention_vector
    d_pre = (1.0 - transformed**2) * d_transformed
    d_combined = d_pre @ params.fc_matrix.T

    d_token = np.zeros_like(params.token_matrix)
    d_path = np.zeros_like(params.path_matrix)
    np.add.at(d_token, starts, d_combined[:, :d_t])
    np.add.at(d_path, paths, d_combined[:, d_t : d_t + d_p])
    np.add.at(d_token, ends, d_combined[:, d_t + d_p :])
    grads = {
        "token_matrix": d_token,
        "path_matrix": d_path,
        "fc_matrix": combined.T @ d_pre,
        "fc_bias": d_pre.sum(axis=0),
        "attention_vector": d_attention,
        "output_matrix": d_output,
    }
    return loss, grads


def random_batch(rng, n_bags, max_len, n_tokens, n_paths, n_names):
    """Bags over token rows [0, n_tokens) and path rows [0, n_paths), with
    UNK contexts, repeated contexts and one token as both start and end."""
    batch = []
    for _ in range(n_bags):
        n = int(rng.integers(1, max_len + 1))
        starts = rng.integers(0, n_tokens, n)
        paths = rng.integers(0, n_paths, n)
        ends = rng.integers(0, n_tokens, n)
        starts[0] = paths[0] = ends[0] = 0  # an UNK context
        if n > 1:
            ends[1] = starts[1]  # one token at both ends of a path
        if n > 2:  # a repeated context
            starts[2], paths[2], ends[2] = starts[1], paths[1], ends[1]
        batch.append(_Indexed(starts, paths, ends, int(rng.integers(0, n_names))))
    return batch


@pytest.mark.parametrize(
    "dims, n_bags, max_len, seed",
    [((3, 3, 4), 2, 4, 0), ((5, 4, 7), 6, 12, 1), ((16, 12, 24), 8, 60, 2)],
)
def test_step_matches_dense_reference(dims, n_bags, max_len, seed):
    d_t, d_p, d = dims
    tokens = [f"t{i}" for i in range(9)]
    markers = [f"M{i}" for i in range(7)]
    names = [f"n{i}" for i in range(5)]
    vocabs = toy_vocabs(tokens, markers, names)
    params = seeded_params(vocabs, d_t=d_t, d_p=d_p, d=d, seed=seed)
    params.fc_bias[:] = np.random.default_rng(seed).normal(scale=0.1, size=d)
    n_tokens = len(vocabs.token_index)
    n_paths = len(vocabs.path_index)
    rng = np.random.default_rng(100 + seed)
    for _ in range(5):
        # The last token row and the last path row are never used.
        batch = random_batch(rng, n_bags, max_len, n_tokens - 1, n_paths - 1, len(names))
        loss, grads = _batch_loss_and_grads(params, batch)
        ref_loss, ref_grads = dense_batch_loss_and_grads(params, batch)
        assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
        assert grads.keys() == ref_grads.keys()
        for group, ref in ref_grads.items():
            assert grads[group].shape == ref.shape, group
            diff = np.linalg.norm(grads[group] - ref)
            assert diff <= 1e-10 * np.linalg.norm(ref), f"{group}: difference {diff}"
        assert np.all(grads["token_matrix"][-1] == 0.0)
        assert np.all(grads["path_matrix"][-1] == 0.0)


def float32_copy(params: EmbedderParams) -> EmbedderParams:
    return EmbedderParams(**{k: a.astype(np.float32) for k, a in params.grouped().items()})


def test_float32_step_keeps_dtype_and_agrees_with_float64():
    tokens = [f"t{i}" for i in range(9)]
    markers = [f"M{i}" for i in range(7)]
    vocabs = toy_vocabs(tokens, markers, [f"n{i}" for i in range(5)])
    params = seeded_params(vocabs, d_t=16, d_p=12, d=24, seed=4)
    rng = np.random.default_rng(40)
    batch = random_batch(rng, 8, 60, len(vocabs.token_index), len(vocabs.path_index), 5)
    loss64, grads64 = _batch_loss_and_grads(params, batch)
    loss32, grads32 = _batch_loss_and_grads(float32_copy(params), batch)
    assert abs(loss32 - loss64) <= 1e-5 * loss64
    assert grads32.keys() == grads64.keys()
    for group, ref in grads64.items():
        assert grads32[group].dtype == np.float32, group
        rel = np.linalg.norm(grads32[group] - ref) / np.linalg.norm(ref)
        assert rel <= 1e-4, f"{group}: relative error {rel}"


def test_adam_update_matches_textbook():
    rng = np.random.default_rng(6)
    shapes = {"w": (5, 3), "b": (7,)}
    arrays = {k: rng.normal(size=s) for k, s in shapes.items()}
    expected = {k: a.copy() for k, a in arrays.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
    adam = _Adam(arrays, lr)
    for t in range(1, 6):
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        for k, g in grads.items():
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g**2
            m_hat = m[k] / (1 - beta1**t)
            v_hat = v[k] / (1 - beta2**t)
            expected[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        adam.update(arrays, grads)
        for k in shapes:
            np.testing.assert_allclose(adam.m[k], m[k], rtol=1e-12, atol=0)
            np.testing.assert_allclose(adam.v[k], v[k], rtol=1e-12, atol=0)
            np.testing.assert_allclose(arrays[k], expected[k], rtol=0, atol=1e-12)


def separable_corpus():
    """Five names, each tied to its own path marker: perfectly learnable."""
    samples = []
    names = ["load", "save", "init", "close", "reset"]
    tokens = ["alpha", "beta", "gamma", "delta", "omega"]
    for n_idx, name in enumerate(names):
        for rep in range(6):
            contexts = [
                simple_context(tokens[n_idx], f"P{n_idx}", tokens[(n_idx + k) % 5])
                for k in range(3)
            ]
            samples.append((ContextBag(f"m{n_idx}_{rep}", contexts), name))
    return samples


def test_training_reduces_loss():
    samples = separable_corpus()
    config = TrainConfig(d_t=8, d_p=8, d=16, epochs=50, seed=3, min_count=1)
    _, _, history = train_embedder(samples, config)
    assert len(history) == 50
    assert history[-1] < history[0]
    assert all(math.isfinite(h) for h in history)


def test_separable_corpus_reaches_full_accuracy():
    samples = separable_corpus()
    config = TrainConfig(
        d_t=8, d_p=8, d=16, epochs=80, seed=3, min_count=1, learning_rate=1e-2
    )
    vocabs, params, _ = train_embedder(samples, config)
    assert training_accuracy(samples, params, vocabs) == 1.0


def test_same_name_methods_embed_closer_than_random():
    samples = separable_corpus()
    config = TrainConfig(
        d_t=8, d_p=8, d=16, epochs=80, seed=3, min_count=1, learning_rate=1e-2
    )
    vocabs, params, _ = train_embedder(samples, config)
    vectors = []
    for bag, name in samples:
        v = embed_bag(bag, params, vocabs).values
        vectors.append((name, v / np.linalg.norm(v)))
    same, diff = [], []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            cos = float(vectors[i][1] @ vectors[j][1])
            (same if vectors[i][0] == vectors[j][0] else diff).append(cos)
    assert np.mean(same) > np.mean(diff)


def test_training_is_deterministic():
    samples = separable_corpus()
    config = TrainConfig(d_t=8, d_p=8, d=16, epochs=5, seed=11, min_count=1)
    _, params_a, hist_a = train_embedder(samples, config)
    _, params_b, hist_b = train_embedder(samples, config)
    assert hist_a == hist_b
    for key, arr in params_a.grouped().items():
        assert np.array_equal(arr, params_b.grouped()[key]), key


def test_vocab_cutoff_and_unk():
    c1 = simple_context("common", "M1", "common")
    c2 = simple_context("rare", "M2", "common")
    samples = [
        (ContextBag("m1", [c1, c2]), "f"),
        (ContextBag("m2", [c1]), "g"),
    ]
    vocabs = build_vocabularies(samples, min_count=2)
    assert "common" in vocabs.token_index
    assert "rare" not in vocabs.token_index  # occurs once, collapsed
    assert vocabs.token_index[UNK] == 0
    assert c1.path in vocabs.path_index
    assert c2.path not in vocabs.path_index


def test_vocab_too_small():
    samples = [(ContextBag("m", [simple_context("a", "M1", "b")]), "only")]
    with pytest.raises(VocabTooSmallError):
        build_vocabularies(samples)


def test_vocab_invariants_enforced():
    with pytest.raises(ValueError):
        Vocabularies({"x": 0}, {UNK: 0}, {})  # UNK missing from tokens
    with pytest.raises(ValueError):
        Vocabularies({UNK: 0, "a": 2}, {UNK: 0}, {})  # sparse indices


def test_save_load_round_trip(tmp_path):
    samples = separable_corpus()
    config = TrainConfig(d_t=8, d_p=8, d=16, epochs=3, seed=2, min_count=1)
    vocabs, params, _ = train_embedder(samples, config)
    path = str(tmp_path / "embedder.pmb")
    save_model(params, vocabs, path)
    loaded_params, loaded_vocabs = load_model(path)
    assert loaded_vocabs == vocabs
    for key, arr in params.grouped().items():
        assert arr.dtype == loaded_params.grouped()[key].dtype == np.float64, key
        assert np.array_equal(arr, loaded_params.grouped()[key]), key
    bag = samples[0][0]
    before = embed_bag(bag, params, vocabs).values
    after = embed_bag(bag, loaded_params, loaded_vocabs).values
    assert np.array_equal(before, after)


def test_load_rejects_nonfinite(tmp_path):
    vocabs = toy_vocabs(["a"], ["M1"], ["f", "g"])
    params = seeded_params(vocabs)
    params.fc_bias[0] = np.inf
    path = str(tmp_path / "bad.pmb")
    save_model(params, vocabs, path)
    from pathmove.bundle import CorruptFileError

    with pytest.raises(CorruptFileError, match="non-finite"):
        load_model(path)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(d=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
