"""Recommendation and evaluation on top of the trained components.

A trained model scores (method, class) pairs with the probability that
the method belongs in the class.  For every scoreable method the
recommender compares its current class against every parameter-type
class and recommends the argmax when it clears the decision threshold.
Evaluation checks recommended moves against the injected ground truth,
reporting per-project precision/recall/F1 with macro and micro averages.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .codegen import list_projects, load_project
from .config import RunConfig, config_from_dict, config_to_dict
from .embed import (
    CodeVector,
    EmbedderParams,
    Vocabularies,
    embed_corpus,
    train_embedder,
    unpack_model,
    vocab_meta,
)
from .bundle import CorruptFileError, load_bundle, read_jsonl, save_bundle, write_jsonl
from .errors import ConfigError, DataError
from .featurize import FeatureVector, PcaModel, apply_pca_matrix, fit_pca
from .frontend import SourceUnit, split_method_id
from .injector import (
    CandidateMove,
    GroundTruthEntry,
    LabeledExample,
    build_dataset,
    candidate_pairs,
    find_movable,
    find_scoreable,
    inject_feature_envy,
    split_dataset,
)
from .pathctx import ContextBag, ExtractionLimits, extract_contexts
from .svm import (
    PlattParams,
    RffMap,
    SvmModel,
    fit_platt,
    fit_rff,
    platt_probability,
    train_svm,
)

# Not called here (embed_corpus embeds many bags per forward pass), but
# kept bound: perfbench/spans.py wraps this name in this module by name.
from .embed import embed_bag  # noqa: F401

MOVE = "Move"
STAY = "Stay"
NO_RECOMMENDATION = "NoRecommendation"


class NoCandidatesError(DataError):
    """Corpus holds nothing the recommender could score."""


@dataclass
class Recommendation:
    method_id: str
    best_class_id: str
    probability: float
    decision: str

    def __post_init__(self):
        if not (isinstance(self.method_id, str) and isinstance(self.best_class_id, str)):
            raise TypeError(f"recommendation ids must be strings: {self!r}")
        if not 0.0 <= self.probability <= 1.0:  # NaN fails too
            raise ValueError(f"probability {self.probability!r} is not in [0, 1]")
        if self.decision not in (MOVE, STAY, NO_RECOMMENDATION):
            raise ValueError(f"bad decision {self.decision!r}")


# ---------------------------------------------------------------------------
# Corpus-level embedding


def corpus_bags(units: list[SourceUnit], limits: ExtractionLimits) -> list[ContextBag]:
    """One bag per method, in source order."""
    return [
        extract_contexts(method, limits)
        for unit in units
        for cls in unit.classes
        for method in cls.methods
    ]


def training_samples(bags: list[ContextBag]) -> list[tuple[ContextBag, str]]:
    """(bag, method name) pairs for embedder training."""
    return [(bag, split_method_id(bag.method_id)[2]) for bag in bags]


# ---------------------------------------------------------------------------
# Trained model bundle


@dataclass(eq=False)
class ModelBundle:
    embedder: EmbedderParams
    vocabs: Vocabularies
    pca: PcaModel
    svm_model: SvmModel
    platt: PlattParams
    rff: RffMap | None
    config: RunConfig  # the settings the model was trained with

    def pair_probabilities(self, raw: np.ndarray) -> np.ndarray:
        """Probability that each raw method-class pair row belongs together."""
        reduced = apply_pca_matrix(self.pca, raw)
        mapped = self.rff.transform(reduced) if self.rff is not None else reduced
        scores = self.svm_model.decision_matrix(mapped)
        return np.array([platt_probability(self.platt, float(s)) for s in scores])


def fit_classifier(
    train: list[LabeledExample],
    validate: list[LabeledExample],
    config: RunConfig,
) -> tuple[PcaModel, RffMap | None, SvmModel, PlattParams]:
    """Reduction and decision stages: PCA and the feature map come from
    the training split alone; the probability calibration is fit on the
    validation split so it never sees the decision boundary's own data."""
    pca = fit_pca(
        [e.feature for e in train],
        variance_threshold=config.pca_variance_threshold,
        k=config.pca_k,
    )

    def reduced(examples: list[LabeledExample]) -> np.ndarray:
        return apply_pca_matrix(pca, np.stack([e.feature.values for e in examples]))

    train_matrix = reduced(train)
    rff = None
    if config.rff_enabled:
        rff = fit_rff(train_matrix, d_out=config.rff_dim, gamma=config.rff_gamma, seed=config.seed)

    def labeled(examples: list[LabeledExample], matrix: np.ndarray):
        if rff is not None:
            matrix = rff.transform(matrix)
        return [
            (FeatureVector(row, e.feature.method_id, e.feature.class_id, "reduced"), e.label)
            for row, e in zip(matrix, examples)
        ]

    svm_model = train_svm(labeled(train, train_matrix), config.svm_hyperparams())
    platt = fit_platt(svm_model, labeled(validate, reduced(validate)))
    return pca, rff, svm_model, platt


def classifier_metrics(bundle: ModelBundle, examples: list[LabeledExample]) -> dict:
    """Held-out accuracy and mean negative log-likelihood."""
    if not examples:
        raise DataError("cannot score an empty example list")
    raw = np.stack([e.feature.values for e in examples])
    labels = np.array([e.label for e in examples])
    probs = bundle.pair_probabilities(raw)
    accuracy = float(np.mean((probs > 0.5).astype(int) == labels))
    nll = float(-np.mean(labels * np.log(probs) + (1 - labels) * np.log(1 - probs)))
    return {"accuracy": accuracy, "nll": nll, "count": len(examples)}


# ---------------------------------------------------------------------------
# Recommendation


def recommend(
    units: list[SourceUnit],
    embeddings: dict[str, CodeVector],
    bundle: ModelBundle,
    threshold: float,
) -> list[Recommendation]:
    """Score every structurally scoreable method against its candidate
    classes.  Decision order: a best probability at or below the
    threshold recommends nothing; otherwise the argmax class either
    confirms the current home (Stay) or names the move target (Move).
    Ties prefer the current class, then the lexicographically smallest.
    """
    candidates = find_scoreable(units)
    if not candidates:
        raise NoCandidatesError("no scoreable methods in corpus")
    out = []
    for cand, origin, targets in candidate_pairs(units, embeddings, candidates):
        pairs = ([origin] if origin is not None else []) + targets
        best, best_prob, decision = cand.origin_class_id, 0.0, NO_RECOMMENDATION
        if pairs:
            probs = bundle.pair_probabilities(np.stack([p.values for p in pairs]))
            best_prob = float(probs.max())
            tied = [p.class_id for p, prob in zip(pairs, probs) if prob == best_prob]
            best = cand.origin_class_id if cand.origin_class_id in tied else min(tied)
            if best_prob > threshold:
                decision = STAY if best == cand.origin_class_id else MOVE
        out.append(Recommendation(cand.method_id, best, best_prob, decision))
    return out


# ---------------------------------------------------------------------------
# Per-project stages, shared by run_pipeline and the stage commands


def project_examples(
    units: list[SourceUnit],
    bags: list[ContextBag],
    params: EmbedderParams,
    vocabs: Vocabularies,
) -> list[LabeledExample]:
    """Labeled method-class pairs of one training project, given its bags."""
    embeddings = embed_corpus(bags, params, vocabs)
    return build_dataset(units, embeddings, find_movable(units))


def score_project(
    units: list[SourceUnit], bundle: ModelBundle, threshold: float
) -> list[Recommendation]:
    """Recommendations for one project; none when nothing is scoreable."""
    bags = corpus_bags(units, bundle.config.limits())
    embeddings = embed_corpus(bags, bundle.embedder, bundle.vocabs)
    try:
        return recommend(units, embeddings, bundle, threshold)
    except NoCandidatesError:
        return []


# ---------------------------------------------------------------------------
# Evaluation


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class ProjectScore:
    project: str
    n_ground_truth: int
    n_recommended: int
    n_correct: int
    precision: float
    recall: float
    f1: float
    precision_undefined: bool


@dataclass
class EvalReport:
    projects: list[ProjectScore]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    micro_precision: float
    micro_recall: float
    micro_f1: float

    def to_dict(self) -> dict:
        return {
            "projects": [
                {
                    "project": p.project,
                    "ground_truth": p.n_ground_truth,
                    "recommended": p.n_recommended,
                    "correct": p.n_correct,
                    "precision": p.precision,
                    "recall": p.recall,
                    "f1": p.f1,
                    "precision_undefined": p.precision_undefined,
                }
                for p in self.projects
            ],
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
            "micro": {
                "precision": self.micro_precision,
                "recall": self.micro_recall,
                "f1": self.micro_f1,
            },
        }


def evaluate(
    recs_by_project: dict[str, list[Recommendation]],
    gt_by_project: dict[str, list[GroundTruthEntry]],
) -> EvalReport:
    """A recommendation counts as correct when it moves a ground-truth
    method back to the exact class it was taken from.  A project may name
    each method at most once in its recommendations and in its ground
    truth."""
    if set(recs_by_project) != set(gt_by_project):
        raise DataError(
            f"project sets differ: recommendations {sorted(recs_by_project)} "
            f"vs ground truth {sorted(gt_by_project)}"
        )
    scores = []
    total_correct = total_recommended = total_gt = 0
    for project in sorted(gt_by_project):
        entries = gt_by_project[project]
        if not entries:
            raise DataError(f"project {project} has no ground-truth entries")
        recs = recs_by_project[project]
        _require_unique(project, "ground truth", [e.moved_method_id for e in entries])
        _require_unique(project, "recommendations", [r.method_id for r in recs])
        home = {e.moved_method_id: e.original_class_id for e in entries}
        moves = [r for r in recs if r.decision == MOVE]
        correct = sum(1 for r in moves if home.get(r.method_id) == r.best_class_id)
        undefined = not moves
        precision = correct / len(moves) if moves else 0.0
        recall = correct / len(entries)
        scores.append(
            ProjectScore(
                project,
                len(entries),
                len(moves),
                correct,
                precision,
                recall,
                f1_score(precision, recall),
                undefined,
            )
        )
        total_correct += correct
        total_recommended += len(moves)
        total_gt += len(entries)
    n = len(scores)
    micro_precision = total_correct / total_recommended if total_recommended else 0.0
    micro_recall = total_correct / total_gt
    return EvalReport(
        scores,
        macro_precision=sum(s.precision for s in scores) / n,
        macro_recall=sum(s.recall for s in scores) / n,
        macro_f1=sum(s.f1 for s in scores) / n,
        micro_precision=micro_precision,
        micro_recall=micro_recall,
        micro_f1=f1_score(micro_precision, micro_recall),
    )


def _require_unique(project: str, source: str, method_ids: list[str]) -> None:
    repeated = sorted(m for m, n in Counter(method_ids).items() if n > 1)
    if repeated:
        raise DataError(f"project {project}: {source} name {repeated[0]!r} more than once")


def analytic_random_baseline(
    candidates_by_project: dict[str, list[CandidateMove]],
    gt_by_project: dict[str, list[GroundTruthEntry]],
) -> float:
    """Expected macro-F1 of recommending uniformly at random.

    For a ground-truth method with t candidate targets there are t + 1
    equally likely picks (stay or one target), so it is found with
    probability 1/(t+1) and some move is recommended with probability
    t/(t+1).  Methods the random recommender cannot even see count
    against recall only, exactly as they do for the real one.
    """
    f1s = []
    for project in sorted(gt_by_project):
        entries = gt_by_project[project]
        if not entries:
            raise DataError(f"project {project} has no ground-truth entries")
        cand_map = {c.method_id: c for c in candidates_by_project.get(project, [])}
        exp_correct = 0.0
        exp_recommended = 0.0
        for entry in entries:
            cand = cand_map.get(entry.moved_method_id)
            if cand is None:
                continue
            options = len(cand.target_class_ids) + 1
            if entry.original_class_id in cand.target_class_ids:
                exp_correct += 1.0 / options
            exp_recommended += (options - 1.0) / options
        precision = exp_correct / exp_recommended if exp_recommended else 0.0
        recall = exp_correct / len(entries)
        f1s.append(f1_score(precision, recall))
    if not f1s:
        raise DataError("no projects to evaluate")
    return sum(f1s) / len(f1s)


# ---------------------------------------------------------------------------
# Bundle persistence


# The RunConfig sections a model is trained with.  threshold, work_dir
# and injection are run-time settings and stay out of model.pmb.
MODEL_SETTINGS = ("seed", "limits", "embedder", "pca", "svm", "rff")


def _model_settings(config: RunConfig) -> dict:
    stored = config_to_dict(config)
    return {key: stored[key] for key in MODEL_SETTINGS}


def save_model_bundle(path: str | Path, bundle: ModelBundle) -> None:
    arrays = {f"emb_{k}": v for k, v in bundle.embedder.grouped().items()}
    arrays["pca_mean"] = bundle.pca.mean
    arrays["pca_components"] = bundle.pca.components
    arrays["pca_evr"] = bundle.pca.explained_variance_ratio
    arrays["svm_weights"] = bundle.svm_model.weights
    arrays["svm_bias"] = np.array([bundle.svm_model.bias])
    arrays["svm_objective"] = np.asarray(bundle.svm_model.objective_history, dtype=np.float64)
    arrays["platt"] = np.array([bundle.platt.A, bundle.platt.B])
    if bundle.rff is not None:
        arrays["rff_omega"] = bundle.rff.omega
        arrays["rff_phases"] = bundle.rff.phases
        arrays["rff_gamma"] = np.array([bundle.rff.gamma])
    meta = {
        **vocab_meta(bundle.vocabs),
        "settings": _model_settings(bundle.config),
        "platt_converged": bundle.platt.converged,
    }
    save_bundle(path, "model", meta, arrays)


def load_model_bundle(path: str | Path) -> ModelBundle:
    """Read a model bundle, or raise CorruptFileError.  Its `settings`
    must be exactly the MODEL_SETTINGS sections of a valid RunConfig, so
    a missing section never falls back to defaults; the returned config
    keeps the defaults of the run-time settings.  The learned numbers are
    arrays, which `load_bundle` has checked to be finite; what remains is
    a bool `platt_converged`, a positive RFF gamma and matching widths
    from embedder to SVM."""
    header, arrays = load_bundle(path, expect_kind="model")
    try:
        meta = header["meta"]
        config = config_from_dict(meta["settings"])
        if _model_settings(config) != meta["settings"]:
            raise ValueError(f"settings must hold exactly the sections {MODEL_SETTINGS}")
        embedder, vocabs = unpack_model(meta, arrays, prefix="emb_")
        pca = PcaModel(arrays["pca_mean"], arrays["pca_components"], arrays["pca_evr"])
        (bias,) = arrays["svm_bias"].tolist()
        svm_model = SvmModel(
            arrays["svm_weights"],
            float(bias),
            config.svm_hyperparams(),
            objective_history=arrays["svm_objective"].tolist(),
        )
        a, b = arrays["platt"].tolist()
        converged = meta["platt_converged"]
        if type(converged) is not bool:
            raise TypeError(f"platt_converged must be true or false, got {converged!r}")
        platt = PlattParams(float(a), float(b), converged)
        rff = None
        if config.rff_enabled:
            (gamma,) = arrays["rff_gamma"].tolist()
            rff = RffMap(arrays["rff_omega"], arrays["rff_phases"], float(gamma))
            if rff.gamma <= 0:
                raise ValueError(f"rff_gamma {rff.gamma} is not positive")
        _check_widths(embedder, pca, rff, svm_model)
    except (ConfigError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path}: bad model bundle: {exc}") from exc
    return ModelBundle(embedder, vocabs, pca, svm_model, platt, rff, config)


def _check_widths(
    embedder: EmbedderParams, pca: PcaModel, rff: RffMap | None, svm_model: SvmModel
) -> None:
    """Raise ValueError unless each stage's output width is the next
    stage's input width."""
    if pca.mean.shape != (pca.input_dim,) or pca.input_dim != 2 * embedder.d:
        raise ValueError(f"PCA input width {pca.input_dim} != twice the code width {embedder.d}")
    width = pca.k
    if rff is not None:
        width = rff.phases.size
        if rff.phases.shape != (width,) or rff.omega.shape != (pca.k, width):
            raise ValueError(f"RFF map {rff.omega.shape} does not fit PCA k {pca.k}")
    if svm_model.weights.shape != (width,):
        raise ValueError(f"SVM weights {svm_model.weights.shape} != feature width {width}")


# ---------------------------------------------------------------------------
# Recommendation serialization

RECOMMENDATIONS_FORMAT = {"format": "recommendations", "version": 1}


def write_recommendations(
    path: str | Path, recs_by_project: dict[str, list[Recommendation]]
) -> None:
    rows = (
        {"project": project, **asdict(rec)}
        for project in sorted(recs_by_project)
        for rec in recs_by_project[project]
    )
    write_jsonl(path, RECOMMENDATIONS_FORMAT, rows)


def _parse_recommendation(row: dict) -> tuple[str, Recommendation]:
    if not isinstance(row["project"], str):
        raise TypeError(f"project {row['project']!r} is not a string")
    rec = Recommendation(
        row["method_id"], row["best_class_id"], float(row["probability"]), row["decision"]
    )
    return row["project"], rec


def read_recommendations(path: str | Path) -> dict[str, list[Recommendation]]:
    out: dict[str, list[Recommendation]] = {}
    for project, rec in read_jsonl(path, RECOMMENDATIONS_FORMAT, _parse_recommendation):
        out.setdefault(project, []).append(rec)
    return out


def method_project(method_id: str) -> str:
    """Project directory (group/name) a method id's file path sits in."""
    file_path = method_id.split("::", 1)[0]
    parts = Path(file_path).parts
    if len(parts) < 3:
        raise DataError(
            f"method id {method_id!r} does not sit inside a project directory"
        )
    return f"{parts[0]}/{parts[1]}"


def group_ground_truth(
    entries: list[GroundTruthEntry],
) -> dict[str, list[GroundTruthEntry]]:
    out: dict[str, list[GroundTruthEntry]] = {}
    for entry in entries:
        out.setdefault(method_project(entry.moved_method_id), []).append(entry)
    return out


# ---------------------------------------------------------------------------
# End-to-end run


@dataclass(eq=False)
class PipelineResult:
    report: EvalReport
    baseline_f1: float
    model: ModelBundle
    recommendations: dict[str, list[Recommendation]]
    ground_truth: dict[str, list[GroundTruthEntry]]
    loss_history: list[float]
    test_metrics: dict
    split_sizes: tuple[int, int, int]


def run_pipeline(corpus_root: str | Path, config: RunConfig) -> PipelineResult:
    """Train everything on the train projects, then inject smells into
    the held-out projects and measure recovery."""
    limits = config.limits()
    train_projects, eval_projects = list_projects(corpus_root)
    if not train_projects or not eval_projects:
        raise DataError("corpus needs both train and eval projects")

    train_units = {p: load_project(corpus_root, p) for p in train_projects}
    train_bags = {p: corpus_bags(train_units[p], limits) for p in train_projects}

    samples = training_samples([b for p in train_projects for b in train_bags[p]])
    vocabs, params, losses = train_embedder(samples, config.train_config())

    examples: list[LabeledExample] = []
    for project in train_projects:
        examples.extend(
            project_examples(train_units[project], train_bags[project], params, vocabs)
        )
    train_ex, test_ex, validate_ex = split_dataset(examples, config.seed)

    pca, rff, svm_model, platt = fit_classifier(train_ex, validate_ex, config)
    bundle = ModelBundle(params, vocabs, pca, svm_model, platt, rff, config)
    test_metrics = classifier_metrics(bundle, test_ex)

    recs_by_project = {}
    gt_by_project = {}
    cands_by_project = {}
    for project in eval_projects:
        units = load_project(corpus_root, project)
        mutated, entries = inject_feature_envy(units, config.seed, config.max_moves)
        gt_by_project[project] = entries
        recs_by_project[project] = score_project(mutated, bundle, config.threshold)
        cands_by_project[project] = find_scoreable(mutated)

    report = evaluate(recs_by_project, gt_by_project)
    baseline = analytic_random_baseline(cands_by_project, gt_by_project)
    return PipelineResult(
        report,
        baseline,
        bundle,
        recs_by_project,
        gt_by_project,
        losses,
        test_metrics,
        (len(train_ex), len(test_ex), len(validate_ex)),
    )
