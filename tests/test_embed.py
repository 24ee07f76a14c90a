"""Embedder tests: forward formula, batched forward, gradients, training,
persistence."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from pathmove.bundle import load_bundle, save_bundle
from pathmove.embed import (
    _CHUNK_BAGS,
    UNK,
    EmbedderParams,
    TrainConfig,
    Vocabularies,
    _Adam,
    _attend,
    _batch_loss_and_grads,
    _Indexed,
    build_vocabularies,
    embed_bag,
    embed_corpus,
    index_bag,
    init_params,
    load_model,
    save_model,
    train_embedder,
    training_accuracy,
)
from pathmove.errors import DataError
from pathmove.pathctx import ContextBag, PathContext


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


def float32_params(vocabs: Vocabularies) -> EmbedderParams:
    """`seeded_params` cast to float32, the one precision a bundle loads."""
    drawn = seeded_params(vocabs).grouped()
    return EmbedderParams(**{key: array.astype(np.float32) for key, array in drawn.items()})


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
    _, transformed, weights, _ = _attend(params, *index_bag(bag, vocabs))
    assert weights.tolist() == [1.0]
    assert np.array_equal(got, transformed[0])
    idx = vocabs.token_index["a"]
    c = np.hstack([params.token_matrix[idx], params.path_matrix[1], params.token_matrix[idx]])
    expected = np.tanh(c @ params.fc_matrix + params.fc_bias)
    assert np.allclose(got, expected, rtol=0, atol=1e-15)


def dense_vector(params: EmbedderParams, starts, paths, ends) -> np.ndarray:
    """Reference pooled vector of one bag: concatenate each context's
    three rows, multiply by fc_matrix, softmax and pool."""
    combined = np.hstack(
        [params.token_matrix[starts], params.path_matrix[paths], params.token_matrix[ends]]
    )
    transformed = np.tanh(combined @ params.fc_matrix + params.fc_bias)
    scores = transformed @ params.attention_vector
    exp_scores = np.exp(scores - scores.max())
    return (exp_scores / exp_scores.sum()) @ transformed


def random_bags(rng, n_bags, tokens, markers, names):
    """(bag, name) samples of 0 to 12 contexts, some tokens and names
    unknown to the vocabularies; about one bag in six is empty."""
    samples = []
    for i in range(n_bags):
        n = int(rng.integers(0, 13)) if i % 6 else 0
        contexts = [
            simple_context(rng.choice(tokens), rng.choice(markers), rng.choice(tokens))
            for _ in range(n)
        ]
        samples.append((ContextBag(f"m{i}", contexts), str(rng.choice(names))))
    return samples


def test_batched_vectors_match_dense_per_bag():
    vocabs = toy_vocabs([f"t{i}" for i in range(9)], [f"M{i}" for i in range(7)], ["f", "g"])
    params = seeded_params(vocabs, d_t=16, d_p=12, d=24, seed=5)
    params.fc_bias[:] = np.random.default_rng(5).normal(scale=0.1, size=24)
    rng = np.random.default_rng(50)
    tokens = [f"t{i}" for i in range(11)]  # t9 and t10 map to UNK
    samples = random_bags(rng, 3 * _CHUNK_BAGS + 7, tokens, ["M1", "M4", "Q"], ["f"])
    bags = [bag for bag, _ in samples]
    kept = [bag for bag in bags if bag.contexts]
    assert len(kept) > 2 * _CHUNK_BAGS and len(kept) < len(bags)

    vectors = embed_corpus(bags, params, vocabs)
    assert list(vectors) == [bag.method_id for bag in kept]
    for bag in kept:
        got = vectors[bag.method_id]
        assert got.source == bag.method_id
        ref = dense_vector(params, *index_bag(bag, vocabs))
        assert np.linalg.norm(got.values - ref) <= 1e-12 * np.linalg.norm(ref), bag.method_id
        single = embed_bag(bag, params, vocabs).values
        assert np.linalg.norm(single - ref) <= 1e-12 * np.linalg.norm(ref), bag.method_id


def test_training_accuracy_matches_per_bag_count():
    tokens = [f"t{i}" for i in range(9)]
    names = ["f", "g", "h", "k"]
    vocabs = toy_vocabs(tokens, [f"M{i}" for i in range(7)], names[:3])  # "k" is unknown
    params = seeded_params(vocabs, d_t=8, d_p=8, d=12, seed=8)
    samples = random_bags(np.random.default_rng(80), 2 * _CHUNK_BAGS + 5, tokens,
                          ["M0", "M3", "M6"], names)
    hits = total = 0
    for bag, name in samples:
        if bag.contexts:
            vector = embed_bag(bag, params, vocabs).values
            predicted = int(np.argmax(vector @ params.output_matrix))
            hits += predicted == vocabs.name_index.get(name, -1)
            total += 1
    assert 0 < hits < total
    assert training_accuracy(samples, params, vocabs) == hits / total
    assert training_accuracy([(ContextBag("m", []), "f")], params, vocabs) == 0.0


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
    with pytest.raises(DataError, match="method m has no path-contexts"):
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


def workspace_setup(dtype, seed):
    """Parameters, two batches (the first larger) and a workspace sized
    for the larger one, filled with garbage."""
    tokens = [f"t{i}" for i in range(9)]
    markers = [f"M{i}" for i in range(7)]
    vocabs = toy_vocabs(tokens, markers, [f"n{i}" for i in range(5)])
    params = seeded_params(vocabs, d_t=16, d_p=12, d=24, seed=seed)
    params = EmbedderParams(**{k: a.astype(dtype) for k, a in params.grouped().items()})
    rng = np.random.default_rng(seed)
    sizes = (len(vocabs.token_index), len(vocabs.path_index), 5)
    big, small = random_batch(rng, 8, 60, *sizes), random_batch(rng, 3, 20, *sizes)
    cap = sum(len(s.starts) for s in big)
    work = np.full((3, cap, params.d), np.nan, dtype=dtype)
    return params, big, small, work


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_step_with_workspace_equals_fresh_allocation(dtype):
    params, big, small, work = workspace_setup(dtype, seed=5)
    for batch in (big, small, big):  # small runs over what big left behind
        loss, grads = _batch_loss_and_grads(params, batch, work)
        ref_loss, ref_grads = _batch_loss_and_grads(params, batch)
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys()
        for group, ref in ref_grads.items():
            assert grads[group].dtype == ref.dtype, group
            assert grads[group].tobytes() == ref.tobytes(), group
            assert not np.shares_memory(grads[group], work), group


def test_step_with_workspace_allocates_no_context_matrix():
    # Peak traced allocation of one step, as a multiple of one
    # (contexts, d) array: without a workspace several such arrays are
    # live at once, with one none is.
    vocabs = toy_vocabs([f"t{i}" for i in range(9)], [f"M{i}" for i in range(7)], ["f", "g"])
    params = float32_copy(seeded_params(vocabs, d_t=16, d_p=16, d=128, seed=9))
    rng = np.random.default_rng(9)
    sizes = (len(vocabs.token_index), len(vocabs.path_index), 2)
    batch = random_batch(rng, 32, 120, *sizes)
    contexts = sum(len(s.starts) for s in batch)
    one_matrix = contexts * params.d * np.dtype(np.float32).itemsize
    work = np.empty((3, contexts, params.d), dtype=np.float32)

    def peak(*args):
        tracemalloc.start()
        try:
            _batch_loss_and_grads(params, batch, *args)
            return tracemalloc.get_traced_memory()[1] / one_matrix
        finally:
            tracemalloc.stop()

    assert peak(work) < 1.0
    assert peak() > 2.0


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
    config = TrainConfig(d_t=8, d_p=8, d=16, epochs=80, seed=3, min_count=1)
    vocabs, params, _ = train_embedder(samples, config)
    assert training_accuracy(samples, params, vocabs) == 1.0


def test_same_name_methods_embed_closer_than_random():
    samples = separable_corpus()
    config = TrainConfig(d_t=8, d_p=8, d=16, epochs=80, seed=3, min_count=1)
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


def test_training_workspace_fits_the_largest_batch_drawn():
    """Eight long bags among 56 short ones, eight bags a batch: a workspace
    for the eight longest bags at once (3 planes of cap x d float32) is
    more than twice what any batch a shuffle draws needs, and training
    peaks below it."""
    short = [simple_context("a", "M0", "b")] * 2
    long = [simple_context("a", f"M{k % 2}", "b") for k in range(1000)]
    samples = [(ContextBag(f"m{i}", long if i < 8 else short), f"name{i % 4}")
               for i in range(64)]
    config = TrainConfig(d_t=8, d_p=8, d=64, batch_size=8, epochs=2, seed=0, min_count=1)
    largest_possible = 3 * 8 * len(long) * config.d * 4
    tracemalloc.start()
    try:
        train_embedder(samples, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < largest_possible


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


def test_literal_unk_token_maps_to_unk():
    ctx = simple_context(UNK, "M1", "a")
    samples = [(ContextBag("m1", [ctx, ctx]), "f"), (ContextBag("m2", [ctx]), "g")]
    vocabs = build_vocabularies(samples, min_count=1)
    assert vocabs.token_index == {UNK: 0, "a": 1}


def test_vocab_too_small():
    samples = [(ContextBag("m", [simple_context("a", "M1", "b")]), "only")]
    with pytest.raises(DataError, match="need at least 2 distinct method names, got 1"):
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
    header, arrays = load_bundle(path, expect_kind="embedder")
    assert set(header["meta"]) == {"token_vocab", "path_vocab"}
    assert set(arrays) == {"token_matrix", "path_matrix", "fc_matrix", "fc_bias",
                           "attention_vector"}
    loaded_params, loaded_vocabs = load_model(path)
    assert loaded_vocabs.token_index == vocabs.token_index
    assert loaded_vocabs.path_index == vocabs.path_index
    assert loaded_vocabs.name_index == {}  # the name head is not stored
    for key, arr in params.grouped().items():
        loaded = loaded_params.grouped()[key]
        assert arr.dtype == loaded.dtype == np.float32, key
        if key == "output_matrix":
            assert loaded.shape == (params.d, 0)
        else:
            assert np.array_equal(arr, loaded), key
    bag = samples[0][0]
    before = embed_bag(bag, params, vocabs).values
    after = embed_bag(bag, loaded_params, loaded_vocabs).values
    assert np.array_equal(before, after)


def test_corpus_vectors_are_float32_and_survive_the_bundle(tmp_path):
    # the pipeline embeds with the trained params, the stage commands
    # with those read back from embedder.pmb: the vectors must be the same bits
    samples = separable_corpus()
    config = TrainConfig(d_t=8, d_p=8, d=16, epochs=3, seed=2, min_count=1)
    vocabs, params, _ = train_embedder(samples, config)
    path = str(tmp_path / "embedder.pmb")
    save_model(params, vocabs, path)
    loaded_params, loaded_vocabs = load_model(path)
    bags = [bag for bag, _ in samples]
    direct = embed_corpus(bags, params, vocabs)
    reloaded = embed_corpus(bags, loaded_params, loaded_vocabs)
    assert list(direct) == list(reloaded) == [bag.method_id for bag in bags]
    for method_id, vector in direct.items():
        assert vector.values.dtype == reloaded[method_id].values.dtype == np.float32
        assert vector.values.tobytes() == reloaded[method_id].values.tobytes(), method_id


def test_load_rejects_nonfinite(tmp_path):
    vocabs = toy_vocabs(["a"], ["M1"], ["f", "g"])
    params = seeded_params(vocabs)
    params.fc_bias[0] = np.inf
    path = str(tmp_path / "bad.pmb")
    save_model(params, vocabs, path)
    with pytest.raises(DataError, match="non-finite"):
        load_model(path)


@pytest.mark.parametrize("table", ["token_matrix", "path_matrix"])
def test_load_rejects_table_shorter_than_vocabulary(tmp_path, table):
    vocabs = toy_vocabs(["a", "b"], ["M1", "M2"], ["f", "g"])
    params = float32_params(vocabs)
    setattr(params, table, getattr(params, table)[:-1])
    path = str(tmp_path / "short.pmb")
    save_model(params, vocabs, path)
    with pytest.raises(DataError, match="differ in length"):
        load_model(path)


@pytest.mark.parametrize(
    "vocab, table", [("token_vocab", "token_matrix"), ("path_vocab", "path_matrix")]
)
def test_load_rejects_duplicated_vocabulary_entry(tmp_path, vocab, table):
    # [UNK, x, x] makes a 2-key dict that maps x to index 2, past a 2-row
    # table; the clipped gather would read row 1, so loading must refuse it
    vocabs = toy_vocabs(["a"], ["M1"], ["f", "g"])
    params = seeded_params(vocabs)
    path = str(tmp_path / "dup.pmb")
    save_model(params, vocabs, path)
    header, arrays = load_bundle(path, expect_kind="embedder")
    meta = header["meta"]
    assert len(getattr(params, table)) == len(meta[vocab]) == 2
    meta[vocab] = [*meta[vocab], meta[vocab][-1]]
    save_bundle(path, "embedder", meta, arrays)
    with pytest.raises(DataError, match="dense from 0"):
        load_model(path)


@pytest.mark.parametrize("vocab", ["token_vocab", "path_vocab"])
def test_load_rejects_non_string_vocabulary_entry(tmp_path, vocab):
    # [UNK, 1] would load, and every token or path would then embed as UNK
    vocabs = toy_vocabs(["a"], ["M1"], ["f", "g"])
    path = str(tmp_path / "ints.pmb")
    save_model(float32_params(vocabs), vocabs, path)
    header, arrays = load_bundle(path, expect_kind="embedder")
    meta = header["meta"]
    meta[vocab] = [UNK, *range(1, len(meta[vocab]))]
    save_bundle(path, "embedder", meta, arrays)
    with pytest.raises(DataError, match="vocabulary entries must be strings"):
        load_model(path)


def test_loads_bundle_with_removed_name_head(tmp_path):
    # older bundles also stored the name head and the name vocabulary
    samples = separable_corpus()
    config = TrainConfig(d_t=8, d_p=8, d=16, epochs=3, seed=2, min_count=1)
    vocabs, params, _ = train_embedder(samples, config)
    path = str(tmp_path / "embedder.pmb")
    save_model(params, vocabs, path)
    header, arrays = load_bundle(path, expect_kind="embedder")
    names = sorted(vocabs.name_index, key=vocabs.name_index.get)
    save_bundle(path, "embedder", {**header["meta"], "name_vocab": names},
                {**arrays, "output_matrix": params.output_matrix})
    loaded_params, loaded_vocabs = load_model(path)
    assert loaded_vocabs.name_index == {}
    assert loaded_params.output_matrix.shape == (params.d, 0)
    bags = [bag for bag, _ in samples]
    direct = embed_corpus(bags, params, vocabs)
    reloaded = embed_corpus(bags, loaded_params, loaded_vocabs)
    assert list(direct) == list(reloaded)
    for method_id, vector in direct.items():
        assert vector.values.tobytes() == reloaded[method_id].values.tobytes(), method_id


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(d=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
