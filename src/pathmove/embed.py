"""Attention-pooled code embedding trained on method-name prediction.

Each path-context becomes a combined context vector (start-token
embedding, path embedding, end-token embedding concatenated), is passed
through a tanh layer, and the method vector is the attention-weighted sum
of those transformed contexts.  Training maximizes the likelihood of the
method's own name under a softmax over a name vocabulary; afterwards the
name head is discarded for downstream use and only the pooled vector
matters.  One forward pass serves training and inference, one bag or
many.  Training runs in float32; the stored parameters and every
forward pass outside training stay float64.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from .bundle import CorruptFileError, load_bundle, save_bundle
from .errors import DataError
from .pathctx import ContextBag, EmptyBagError

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


def build_vocabularies(samples: list[tuple[ContextBag, str]], min_count: int = 2) -> Vocabularies:
    """Count tokens/paths over the training bags; a literal UNK and entries
    below min_count collapse to UNK. Every distinct name is kept."""
    contexts = [ctx for bag, _ in samples for ctx in bag.contexts]
    token_counts = Counter(ctx.start_token for ctx in contexts)
    token_counts.update(ctx.end_token for ctx in contexts)
    path_counts = Counter(ctx.path for ctx in contexts)
    names = sorted({name for _, name in samples})
    if len(names) < 2:
        raise VocabTooSmallError(f"need at least 2 distinct method names, got {len(names)}")

    def frequent(counts: Counter) -> dict[str, int]:
        kept = sorted(key for key, count in counts.items() if count >= min_count and key != UNK)
        return {key: i for i, key in enumerate([UNK, *kept])}

    name_index = {name: i for i, name in enumerate(names)}
    return Vocabularies(frequent(token_counts), frequent(path_counts), name_index)


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
    paths = np.array([vocabs.path_index.get(c.path, 0) for c in bag.contexts], dtype=np.int64)
    ends = np.array(
        [vocabs.token_index.get(c.end_token, 0) for c in bag.contexts], dtype=np.int64
    )
    return starts, paths, ends


# Bags per forward call when embedding many: bounds the (contexts, d)
# intermediates, which would otherwise grow with the whole corpus.
_CHUNK_BAGS = 32


def _attend(
    params: EmbedderParams, starts: np.ndarray, paths: np.ndarray, ends: np.ndarray,
    lengths: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward pass over bags laid end to end, lengths[i] contexts in bag i
    (default: one bag), in the parameters' dtype: (bag of each context,
    transformed contexts, attention weights, one pooled vector per bag).
    The first layer acts on the small tables, not on every context row:
    combined @ fc_matrix == (tokens @ W_start)[starts]
                          + (paths @ W_path)[paths] + (tokens @ W_end)[ends].
    """
    if lengths is None:
        lengths = np.array([len(starts)])
    offsets = np.cumsum(lengths) - lengths
    seg = np.repeat(np.arange(len(lengths)), lengths)
    w_start, w_path, w_end = np.split(params.fc_matrix, [params.d_t, params.d_t + params.d_p])
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
    return seg, transformed, weights, vectors


def embed_bag(bag: ContextBag, params: EmbedderParams, vocabs: Vocabularies) -> CodeVector:
    """Pool one bag into a d-length vector."""
    vector = _attend(params, *index_bag(bag, vocabs))[3][0]
    return CodeVector(vector, source=bag.method_id)


def _pooled(bags: list[ContextBag], params: EmbedderParams, vocabs: Vocabularies) -> np.ndarray:
    """(len(bags), d) vectors of non-empty bags, _CHUNK_BAGS per forward call."""
    out = np.empty((len(bags), params.d), dtype=params.fc_matrix.dtype)
    for lo in range(0, len(bags), _CHUNK_BAGS):
        indexed = [index_bag(bag, vocabs) for bag in bags[lo : lo + _CHUNK_BAGS]]
        starts, paths, ends = (np.concatenate(column) for column in zip(*indexed))
        lengths = np.array([len(s) for s, _, _ in indexed])
        out[lo : lo + len(indexed)] = _attend(params, starts, paths, ends, lengths)[3]
    return out


def embed_corpus(
    bags: list[ContextBag], params: EmbedderParams, vocabs: Vocabularies
) -> dict[str, CodeVector]:
    """Vector per method id; methods with empty bags are left out."""
    kept = [bag for bag in bags if bag.contexts]
    vectors = _pooled(kept, params, vocabs)
    return {bag.method_id: CodeVector(v, bag.method_id) for bag, v in zip(kept, vectors)}


# ---------------------------------------------------------------------------
# Training


@dataclass
class _Indexed:
    starts: np.ndarray
    paths: np.ndarray
    ends: np.ndarray
    label: int


class _Adam:
    """Adaptive-moment optimizer over a dict of parameter arrays, in their dtype."""

    def __init__(self, arrays: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.step = 0
        self.m = {k: np.zeros_like(a) for k, a in arrays.items()}
        self.v = {k: np.zeros_like(a) for k, a in arrays.items()}

    def update(self, arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One step in place; each grad is overwritten as scratch."""
        self.step += 1
        correct1 = 1.0 - self.beta1**self.step
        correct2 = 1.0 - self.beta2**self.step
        for key, grad in grads.items():
            m, v = self.m[key], self.v[key]
            m *= self.beta1
            grad *= 1 - self.beta1
            m += grad
            v *= self.beta2
            grad *= grad
            grad *= (1 - self.beta2) / (1 - self.beta1) ** 2
            v += grad
            # lr/c1 * m / (sqrt(v)/sqrt(c2) + eps), both sides of the / times sqrt(c2)
            np.sqrt(v, out=grad)
            grad += self.eps * np.sqrt(correct2)
            np.divide(m, grad, out=grad)
            grad *= self.lr * np.sqrt(correct2) / correct1
            arrays[key] -= grad


def _sum_rows_by_index(rows: np.ndarray, index: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, d) matrix whose row r sums rows[index == r]; zero if unused."""
    order = np.argsort(index, kind="stable")
    sorted_index = index[order]
    firsts = np.flatnonzero(np.r_[True, sorted_index[1:] != sorted_index[:-1]])
    out = np.zeros((n_rows, rows.shape[1]), dtype=rows.dtype)
    out[sorted_index[firsts]] = np.add.reduceat(rows[order], firsts, axis=0)
    return out


def _batch_loss_and_grads(
    params: EmbedderParams, batch: list[_Indexed]
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and gradients for every group.

    The forward pass is `_attend` over the batch's bags laid end to end;
    this is its backward pass. The first layer's gradients are summed
    per table row before any matmul with its weights. Everything runs in
    the parameters' dtype.
    """
    lengths = np.array([len(s.starts) for s in batch])
    offsets = np.cumsum(lengths) - lengths
    starts = np.concatenate([s.starts for s in batch])
    paths = np.concatenate([s.paths for s in batch])
    ends = np.concatenate([s.ends for s in batch])
    labels = np.array([s.label for s in batch])
    seg, transformed, weights, vectors = _attend(params, starts, paths, ends, lengths)

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
    d_transformed += d_scores[:, None] * params.attention_vector
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
    w_start, w_path, w_end = np.split(params.fc_matrix, [params.d_t, params.d_t + params.d_p])
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

    Empty bags are skipped. Returns the vocabularies, float64 parameters
    trained in float32, and per-epoch mean training loss. Deterministic
    for a fixed config and BLAS thread count.
    """
    usable = [(bag, name) for bag, name in samples if bag.contexts]
    vocabs = build_vocabularies(usable, config.min_count)
    rng = np.random.default_rng(config.seed)
    drawn = init_params(vocabs, config, rng).grouped()
    params = EmbedderParams(**{k: a.astype(np.float32) for k, a in drawn.items()})

    indexed = [_Indexed(*index_bag(bag, vocabs), vocabs.name_index[name]) for bag, name in usable]

    arrays = params.grouped()
    adam = _Adam(arrays, config.learning_rate)
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
    trained = EmbedderParams(**{k: a.astype(np.float64) for k, a in arrays.items()})
    return vocabs, trained, history


def training_accuracy(
    samples: list[tuple[ContextBag, str]], params: EmbedderParams, vocabs: Vocabularies
) -> float:
    """Fraction of non-empty bags whose name the model ranks first."""
    kept = [(bag, name) for bag, name in samples if bag.contexts]
    if not kept:
        return 0.0
    vectors = _pooled([bag for bag, _ in kept], params, vocabs)
    predicted = np.argmax(vectors @ params.output_matrix, axis=1)
    labels = np.array([vocabs.name_index.get(name, -1) for _, name in kept])
    return float(np.mean(predicted == labels))


# ---------------------------------------------------------------------------
# Persistence


def save_model(params: EmbedderParams, vocabs: Vocabularies, path: str) -> None:
    save_bundle(path, "embedder", vocab_meta(vocabs), params.grouped())


def vocab_meta(vocabs: Vocabularies) -> dict[str, list[str]]:
    """Bundle metadata holding each vocabulary as a list in index order."""
    return {
        "token_vocab": sorted(vocabs.token_index, key=vocabs.token_index.get),
        "path_vocab": sorted(vocabs.path_index, key=vocabs.path_index.get),
        "name_vocab": sorted(vocabs.name_index, key=vocabs.name_index.get),
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
    or ValueError when they are missing, malformed or of inconsistent
    dimensions; `load_bundle` has already rejected non-finite arrays."""
    vocabs = Vocabularies(
        {t: i for i, t in enumerate(meta["token_vocab"])},
        {p: i for i, p in enumerate(meta["path_vocab"])},
        {n: i for i, n in enumerate(meta["name_vocab"])},
    )
    params = EmbedderParams(
        **{f.name: arrays[prefix + f.name] for f in fields(EmbedderParams)}
    )
    expected = 2 * params.d_t + params.d_p
    if params.fc_matrix.shape[0] != expected or params.fc_bias.shape != (params.d,):
        raise ValueError("inconsistent embedder dimensions")
    return params, vocabs

