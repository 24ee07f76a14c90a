"""Attention-pooled code embedding trained on method-name prediction.

Each path-context becomes a combined context vector (start-token
embedding, path embedding, end-token embedding concatenated), is passed
through a tanh layer, and the method vector is the attention-weighted sum
of those transformed contexts.  Training maximizes the likelihood of the
method's own name under a softmax over a name vocabulary; afterwards the
name head is discarded for downstream use and only the pooled vector
matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .bundle import CorruptFileError, load_bundle, save_bundle
from .errors import DataError
from .pathctx import ContextBag, EmptyBagError, path_to_string

UNK = "<UNK>"


class VocabTooSmallError(DataError):
    """Training corpus has fewer than two distinct method names."""


@dataclass
class Vocabularies:
    token_index: dict[str, int]
    path_index: dict[str, int]
    name_index: dict[str, int]

    def __post_init__(self):
        for vocab in (self.token_index, self.path_index):
            if vocab.get(UNK) != 0:
                raise ValueError("token and path vocabularies must map UNK to 0")
        for vocab in (self.token_index, self.path_index, self.name_index):
            if sorted(vocab.values()) != list(range(len(vocab))):
                raise ValueError("vocabulary indices must be dense from 0")


@dataclass(eq=False)
class EmbedderParams:
    token_matrix: np.ndarray  # (n_tokens, d_t)
    path_matrix: np.ndarray  # (n_paths, d_p)
    fc_matrix: np.ndarray  # (2*d_t + d_p, d)
    fc_bias: np.ndarray  # (d,)
    attention_vector: np.ndarray  # (d,)
    output_matrix: np.ndarray  # (d, n_names), training only

    @property
    def d_t(self) -> int:
        return self.token_matrix.shape[1]

    @property
    def d_p(self) -> int:
        return self.path_matrix.shape[1]

    @property
    def d(self) -> int:
        return self.fc_matrix.shape[1]

    def grouped(self) -> dict[str, np.ndarray]:
        return {
            "token_matrix": self.token_matrix,
            "path_matrix": self.path_matrix,
            "fc_matrix": self.fc_matrix,
            "fc_bias": self.fc_bias,
            "attention_vector": self.attention_vector,
            "output_matrix": self.output_matrix,
        }


@dataclass(eq=False)
class CodeVector:
    values: np.ndarray
    source: str

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"non-finite code vector for {self.source}")


@dataclass
class TrainConfig:
    d_t: int = 128
    d_p: int = 128
    d: int = 384
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0
    min_count: int = 2  # tokens and paths seen fewer times collapse to UNK

    def __post_init__(self):
        if min(self.d_t, self.d_p, self.d, self.batch_size, self.epochs, self.min_count) <= 0:
            raise ValueError("training dimensions and counts must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


def build_vocabularies(
    samples: list[tuple[ContextBag, str]], min_count: int = 2
) -> Vocabularies:
    """Count tokens/paths over the training bags; entries below min_count
    collapse to UNK. Name vocabulary keeps every distinct name."""
    token_counts: dict[str, int] = {}
    path_counts: dict[str, int] = {}
    names: set[str] = set()
    for bag, name in samples:
        names.add(name)
        for ctx in bag.contexts:
            token_counts[ctx.start_token] = token_counts.get(ctx.start_token, 0) + 1
            token_counts[ctx.end_token] = token_counts.get(ctx.end_token, 0) + 1
            key = path_to_string(ctx.path)
            path_counts[key] = path_counts.get(key, 0) + 1
    if len(names) < 2:
        raise VocabTooSmallError(
            f"need at least 2 distinct method names, got {len(names)}"
        )
    token_index = {UNK: 0}
    for token in sorted(t for t, c in token_counts.items() if c >= min_count):
        token_index[token] = len(token_index)
    path_index = {UNK: 0}
    for path in sorted(p for p, c in path_counts.items() if c >= min_count):
        path_index[path] = len(path_index)
    name_index = {name: i for i, name in enumerate(sorted(names))}
    return Vocabularies(token_index, path_index, name_index)


def init_params(vocabs: Vocabularies, config: TrainConfig, rng: np.random.Generator) -> EmbedderParams:
    """Uniform init scaled by fan-in for each parameter group."""

    def uniform(shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    in_dim = 2 * config.d_t + config.d_p
    return EmbedderParams(
        token_matrix=uniform((len(vocabs.token_index), config.d_t), config.d_t),
        path_matrix=uniform((len(vocabs.path_index), config.d_p), config.d_p),
        fc_matrix=uniform((in_dim, config.d), in_dim),
        fc_bias=np.zeros(config.d),
        attention_vector=uniform((config.d,), config.d),
        output_matrix=uniform((config.d, len(vocabs.name_index)), config.d),
    )


def index_bag(bag: ContextBag, vocabs: Vocabularies) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a bag to (start, path, end) index arrays, unknowns to UNK."""
    if not bag.contexts:
        raise EmptyBagError(f"method {bag.method_id} has no path-contexts")
    starts = np.array(
        [vocabs.token_index.get(c.start_token, 0) for c in bag.contexts], dtype=np.int64
    )
    paths = np.array(
        [vocabs.path_index.get(path_to_string(c.path), 0) for c in bag.contexts],
        dtype=np.int64,
    )
    ends = np.array(
        [vocabs.token_index.get(c.end_token, 0) for c in bag.contexts], dtype=np.int64
    )
    return starts, paths, ends


def _attend(
    params: EmbedderParams, starts: np.ndarray, paths: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Single-bag forward pass: (combined, transformed, weights, vector)."""
    combined = np.hstack(
        [params.token_matrix[starts], params.path_matrix[paths], params.token_matrix[ends]]
    )
    transformed = np.tanh(combined @ params.fc_matrix + params.fc_bias)
    scores = transformed @ params.attention_vector
    shifted = np.exp(scores - scores.max())
    weights = shifted / shifted.sum()
    vector = weights @ transformed
    return combined, transformed, weights, vector


def embed_bag(bag: ContextBag, params: EmbedderParams, vocabs: Vocabularies) -> CodeVector:
    """Pool one bag into a d-length vector."""
    starts, paths, ends = index_bag(bag, vocabs)
    vector = _attend(params, starts, paths, ends)[3]
    return CodeVector(vector, source=bag.method_id)


# ---------------------------------------------------------------------------
# Training


@dataclass
class _Indexed:
    starts: np.ndarray
    paths: np.ndarray
    ends: np.ndarray
    label: int


class _Adam:
    """Adaptive-moment optimizer over a dict of parameter arrays."""

    def __init__(self, shapes: dict[str, tuple[int, ...]], lr: float):
        self.lr = lr
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.step = 0
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}

    def update(self, arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step += 1
        correct1 = 1.0 - self.beta1**self.step
        correct2 = 1.0 - self.beta2**self.step
        for key, grad in grads.items():
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * grad
            self.v[key] = self.beta2 * self.v[key] + (1 - self.beta2) * grad**2
            m_hat = self.m[key] / correct1
            v_hat = self.v[key] / correct2
            arrays[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _sum_rows_by_index(rows: np.ndarray, index: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, d) matrix whose row r sums rows[index == r]; zero if unused."""
    order = np.argsort(index, kind="stable")
    sorted_index = index[order]
    firsts = np.flatnonzero(np.r_[True, sorted_index[1:] != sorted_index[:-1]])
    out = np.zeros((n_rows, rows.shape[1]))
    out[sorted_index[firsts]] = np.add.reduceat(rows[order], firsts, axis=0)
    return out


def _batch_loss_and_grads(
    params: EmbedderParams, batch: list[_Indexed]
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and gradients for every group.

    Contexts of all bags are flattened into one matrix; per-bag softmax
    and pooling run on segment boundaries. The first layer's gradients
    are summed per table row before any matmul with its weights.
    """
    lengths = np.array([len(s.starts) for s in batch])
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    seg = np.repeat(np.arange(len(batch)), lengths)
    starts = np.concatenate([s.starts for s in batch])
    paths = np.concatenate([s.paths for s in batch])
    ends = np.concatenate([s.ends for s in batch])
    labels = np.array([s.label for s in batch])

    # The first layer acts on the small tables, not on every context row:
    # combined @ fc_matrix == (tokens @ W_start)[starts]
    #                       + (paths @ W_path)[paths] + (tokens @ W_end)[ends].
    d_t = params.d_t
    w_start = params.fc_matrix[:d_t]
    w_path = params.fc_matrix[d_t : d_t + params.d_p]
    w_end = params.fc_matrix[d_t + params.d_p :]
    pre = (params.token_matrix @ w_start)[starts]
    pre += (params.path_matrix @ w_path)[paths]
    pre += (params.token_matrix @ w_end)[ends]
    pre += params.fc_bias
    transformed = np.tanh(pre, out=pre)
    scores = transformed @ params.attention_vector
    score_max = np.maximum.reduceat(scores, offsets)
    exp_scores = np.exp(scores - score_max[seg])
    denom = np.add.reduceat(exp_scores, offsets)
    weights = exp_scores / denom[seg]
    vectors = np.stack(
        [weights[lo:hi] @ transformed[lo:hi] for lo, hi in zip(offsets, offsets + lengths)]
    )

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

    d_transformed = d_vectors[seg]
    d_weights = np.einsum("ij,ij->i", transformed, d_transformed)
    d_transformed *= weights[:, None]
    inner = np.add.reduceat(weights * d_weights, offsets)
    d_scores = weights * (d_weights - inner[seg])
    d_attention = transformed.T @ d_scores
    d_transformed += np.outer(d_scores, params.attention_vector)
    # tanh' = 1 - tanh**2, computed in place: transformed is not read again.
    d_pre = d_transformed
    d_pre *= np.subtract(1.0, np.square(transformed, out=transformed), out=transformed)
    d_bias = d_pre.sum(axis=0)

    n_tokens = len(params.token_matrix)
    g_start = _sum_rows_by_index(d_pre, starts, n_tokens)
    g_path = _sum_rows_by_index(d_pre, paths, len(params.path_matrix))
    g_end = _sum_rows_by_index(d_pre, ends, n_tokens)
    d_fc = np.vstack(
        [
            params.token_matrix.T @ g_start,
            params.path_matrix.T @ g_path,
            params.token_matrix.T @ g_end,
        ]
    )
    d_token = g_start @ w_start.T + g_end @ w_end.T
    d_path = g_path @ w_path.T

    grads = {
        "token_matrix": d_token,
        "path_matrix": d_path,
        "fc_matrix": d_fc,
        "fc_bias": d_bias,
        "attention_vector": d_attention,
        "output_matrix": d_output,
    }
    return loss, grads


def train_embedder(
    samples: list[tuple[ContextBag, str]], config: TrainConfig
) -> tuple[Vocabularies, EmbedderParams, list[float]]:
    """Fit the embedder on (bag, method-name) pairs.

    Empty bags are skipped. Returns the vocabularies, trained parameters
    and per-epoch mean training loss. Deterministic for a fixed config.
    """
    usable = [(bag, name) for bag, name in samples if bag.contexts]
    vocabs = build_vocabularies(usable, config.min_count)
    rng = np.random.default_rng(config.seed)
    params = init_params(vocabs, config, rng)

    indexed = []
    for bag, name in usable:
        starts, paths, ends = index_bag(bag, vocabs)
        indexed.append(_Indexed(starts, paths, ends, vocabs.name_index[name]))

    arrays = params.grouped()
    adam = _Adam({k: v.shape for k, v in arrays.items()}, config.learning_rate)
    history: list[float] = []
    order = np.arange(len(indexed))
    for _ in range(config.epochs):
        rng.shuffle(order)
        total = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = [indexed[i] for i in order[lo : lo + config.batch_size]]
            loss, grads = _batch_loss_and_grads(params, batch)
            adam.update(arrays, grads)
            total += loss * len(batch)
        history.append(total / len(indexed))
    return vocabs, params, history


def training_accuracy(
    samples: list[tuple[ContextBag, str]], params: EmbedderParams, vocabs: Vocabularies
) -> float:
    """Fraction of non-empty bags whose name the model ranks first."""
    hits = 0
    total = 0
    for bag, name in samples:
        if not bag.contexts:
            continue
        vector = embed_bag(bag, params, vocabs).values
        predicted = int(np.argmax(vector @ params.output_matrix))
        hits += int(predicted == vocabs.name_index.get(name, -1))
        total += 1
    return hits / total if total else 0.0


# ---------------------------------------------------------------------------
# Persistence


def save_model(params: EmbedderParams, vocabs: Vocabularies, path: str) -> None:
    save_bundle(path, "embedder", vocab_meta(vocabs), params.grouped())


def vocab_meta(vocabs: Vocabularies) -> dict[str, list[str]]:
    """Bundle metadata holding each vocabulary as a list in index order."""
    return {
        "token_vocab": _ordered(vocabs.token_index),
        "path_vocab": _ordered(vocabs.path_index),
        "name_vocab": _ordered(vocabs.name_index),
    }


def load_model(path: str) -> tuple[EmbedderParams, Vocabularies]:
    header, arrays = load_bundle(path, expect_kind="embedder")
    try:
        return unpack_model(header["meta"], arrays)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path}: bad embedder bundle: {exc}") from exc


def unpack_model(
    meta: dict, arrays: dict[str, np.ndarray], prefix: str = ""
) -> tuple[EmbedderParams, Vocabularies]:
    """Embedder and vocabularies from a bundle's metadata and its arrays
    named `prefix` + field name.  Raises KeyError, IndexError, TypeError
    or ValueError when they are missing, malformed, non-finite or of
    inconsistent dimensions."""
    vocabs = Vocabularies(
        {t: i for i, t in enumerate(meta["token_vocab"])},
        {p: i for i, p in enumerate(meta["path_vocab"])},
        {n: i for i, n in enumerate(meta["name_vocab"])},
    )
    params = EmbedderParams(
        **{f.name: arrays[prefix + f.name] for f in fields(EmbedderParams)}
    )
    for name, arr in params.grouped().items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite values in {prefix}{name}")
    expected = 2 * params.d_t + params.d_p
    if params.fc_matrix.shape[0] != expected or params.fc_bias.shape != (params.d,):
        raise ValueError("inconsistent embedder dimensions")
    return params, vocabs


def _ordered(index: dict[str, int]) -> list[str]:
    ordered = [""] * len(index)
    for key, i in index.items():
        ordered[i] = key
    return ordered
