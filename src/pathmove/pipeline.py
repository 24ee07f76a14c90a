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
from .config import RunConfig, config_from_dict, config_to_dict, setting_key
from .embed import (
    CodeVector,
    EmbedderParams,
    Vocabularies,
    embed_corpus,
    embedder_record,
    train_embedder,
    unpack_model,
)
from .bundle import load_bundle, read_jsonl, save_bundle, write_jsonl
from .errors import ConfigError, DataError
from .featurize import FeatureVector, PcaModel, apply_pca_matrix, fit_pca
from .frontend import SourceUnit, method_project, split_method_id
from .injector import (
    GroundTruthEntry,
    LabeledExample,
    build_dataset,
    candidate_pairs,
    find_movable,
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


@dataclass
class Recommendation:
    method_id: str
    best_class_id: str
    probability: float
    decision: str
    target_class_ids: list[str]  # the candidate's move targets, sorted

    def __post_init__(self):
        if not (isinstance(self.method_id, str) and isinstance(self.best_class_id, str)):
            raise TypeError(f"recommendation ids must be strings: {self!r}")
        if not 0.0 <= self.probability <= 1.0:  # NaN fails too
            raise ValueError(f"probability {self.probability!r} is not in [0, 1]")
        if self.decision not in (MOVE, STAY, NO_RECOMMENDATION):
            raise ValueError(f"bad decision {self.decision!r}")
        targets = self.target_class_ids
        if not (isinstance(targets, list) and targets and all(isinstance(t, str) for t in targets)):
            raise TypeError(f"target_class_ids must be a non-empty list of strings: {targets!r}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"target_class_ids names a class more than once: {targets!r}")


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
    rff: RffMap
    config: RunConfig  # the settings the model was trained with

    def pair_probabilities(self, raw: np.ndarray) -> np.ndarray:
        """Probability that each raw method-class pair row belongs together."""
        mapped = self.rff.transform(apply_pca_matrix(self.pca, raw))
        return platt_probability(self.platt, self.svm_model.decision_matrix(mapped))


def fit_classifier(
    train: list[LabeledExample],
    validate: list[LabeledExample],
    config: RunConfig,
) -> tuple[PcaModel, RffMap, SvmModel, PlattParams]:
    """Reduction and decision stages: PCA and the feature map come from
    the training split alone; the probability calibration is fit on the
    validation split so it never sees the decision boundary's own data."""
    pca = fit_pca([e.feature for e in train])

    def reduced(examples: list[LabeledExample]) -> np.ndarray:
        return apply_pca_matrix(pca, [e.feature.values for e in examples])

    train_matrix = reduced(train)
    rff = fit_rff(train_matrix, d_out=config.rff_dim, seed=config.seed)

    def labeled(examples: list[LabeledExample], matrix: np.ndarray):
        return [
            (FeatureVector(row, e.feature.method_id, e.feature.class_id, "reduced"), e.label)
            for row, e in zip(rff.transform(matrix), examples)
        ]

    svm_model = train_svm(labeled(train, train_matrix), config.svm_epochs)
    platt = fit_platt(svm_model, labeled(validate, reduced(validate)))
    return pca, rff, svm_model, platt


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
    Every candidate gets one recommendation, naming its targets; a
    corpus with no candidates gets none.
    """
    out = []
    for cand, origin, targets in candidate_pairs(units, embeddings, find_movable(units)):
        pairs = ([origin] if origin is not None else []) + targets
        best, best_prob, decision = cand.origin_class_id, 0.0, NO_RECOMMENDATION
        if pairs:
            probs = bundle.pair_probabilities(np.stack([p.values for p in pairs]))
            best_prob = float(probs.max())
            tied = [p.class_id for p, prob in zip(pairs, probs) if prob == best_prob]
            best = cand.origin_class_id if cand.origin_class_id in tied else min(tied)
            if best_prob > threshold:
                decision = STAY if best == cand.origin_class_id else MOVE
        out.append(Recommendation(cand.method_id, best, best_prob, decision, cand.target_class_ids))
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
    return recommend(units, embeddings, bundle, threshold)


# ---------------------------------------------------------------------------
# Evaluation


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class ProjectScore:
    """One row of report.json.  The counts are ints for the model and
    expected values for the random baseline."""

    project: str
    ground_truth: int
    recommended: float
    correct: float
    precision: float
    recall: float
    f1: float
    precision_undefined: bool


def project_score(
    project: str, ground_truth: int, recommended: float, correct: float
) -> ProjectScore:
    """Precision (0.0 when nothing is recommended), recall and F1 of one
    project's counts."""
    if not ground_truth:
        raise DataError(f"project {project} has no ground-truth entries")
    precision = correct / recommended if recommended else 0.0
    recall = correct / ground_truth
    return ProjectScore(project, ground_truth, recommended, correct, precision, recall,
                        f1_score(precision, recall), not recommended)


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
        averages = {
            average: {k: getattr(self, f"{average}_{k}") for k in ("precision", "recall", "f1")}
            for average in ("macro", "micro")
        }
        return {"projects": [asdict(p) for p in self.projects], **averages}


def summarize(scores: list[ProjectScore]) -> EvalReport:
    """Macro averages are means over the projects; micro averages score
    the counts summed over them."""
    if not scores:
        raise DataError("no projects to evaluate")

    def total(key: str) -> float:
        return sum(getattr(s, key) for s in scores)

    n = len(scores)
    pooled = project_score("all projects", total("ground_truth"), total("recommended"),
                           total("correct"))
    return EvalReport(
        scores,
        macro_precision=total("precision") / n,
        macro_recall=total("recall") / n,
        macro_f1=total("f1") / n,
        micro_precision=pooled.precision,
        micro_recall=pooled.recall,
        micro_f1=pooled.f1,
    )


def evaluate(
    recs_by_project: dict[str, list[Recommendation]],
    gt_by_project: dict[str, list[GroundTruthEntry]],
) -> tuple[EvalReport, float]:
    """The model's report and the random baseline's expected macro-F1.

    A recommendation counts as correct when it moves a ground-truth
    method back to the exact class it was taken from.  A project may name
    each method at most once in its recommendations and in its ground
    truth.

    The baseline recommends uniformly at random among the candidates the
    recommendations record (one per scoreable method).  For a
    ground-truth method with t candidate targets there are t + 1 equally
    likely picks (stay or one target), so it is found with probability
    1/(t+1) and some move is recommended with probability t/(t+1).
    Methods the random recommender cannot even see count against recall
    only, exactly as they do for the real one.
    """
    if set(recs_by_project) != set(gt_by_project):
        raise DataError(
            f"project sets differ: recommendations {sorted(recs_by_project)} "
            f"vs ground truth {sorted(gt_by_project)}"
        )
    scores, baseline = [], []
    for project in sorted(gt_by_project):
        entries = gt_by_project[project]
        recs = recs_by_project[project]
        _require_unique(project, "ground truth", [e.moved_method_id for e in entries])
        _require_unique(project, "recommendations", [r.method_id for r in recs])
        home = {e.moved_method_id: e.original_class_id for e in entries}
        moves = [r for r in recs if r.decision == MOVE]
        correct = sum(1 for r in moves if home.get(r.method_id) == r.best_class_id)
        scores.append(project_score(project, len(entries), len(moves), correct))
        by_id = {r.method_id: r for r in recs}
        exp_correct = exp_recommended = 0.0
        for entry in entries:
            cand = by_id.get(entry.moved_method_id)
            if cand is None:
                continue
            options = len(cand.target_class_ids) + 1
            if entry.original_class_id in cand.target_class_ids:
                exp_correct += 1.0 / options
            exp_recommended += (options - 1.0) / options
        baseline.append(project_score(project, len(entries), exp_recommended, exp_correct))
    return summarize(scores), summarize(baseline).macro_f1


def _require_unique(project: str, source: str, method_ids: list[str]) -> None:
    repeated = sorted(m for m, n in Counter(method_ids).items() if n > 1)
    if repeated:
        raise DataError(f"project {project}: {source} name {repeated[0]!r} more than once")


# ---------------------------------------------------------------------------
# Bundle persistence


# The RunConfig sections a model is trained with.  threshold and
# work_dir are run-time settings and stay out of model.pmb.
MODEL_SETTINGS = ("seed", "embedder", "svm", "rff")


def _model_settings(config: RunConfig) -> dict:
    stored = config_to_dict(config)
    return {key: stored[key] for key in MODEL_SETTINGS}


def save_model_bundle(path: str | Path, bundle: ModelBundle) -> None:
    embedder_meta, arrays = embedder_record(bundle.embedder, bundle.vocabs, prefix="emb_")
    arrays["pca_mean"] = bundle.pca.mean
    arrays["pca_components"] = bundle.pca.components
    arrays["pca_evr"] = bundle.pca.explained_variance_ratio
    arrays["svm_weights"] = bundle.svm_model.weights
    arrays["svm_bias"] = np.array([bundle.svm_model.bias])
    arrays["platt"] = np.array([bundle.platt.A, bundle.platt.B])
    arrays["rff_omega"] = bundle.rff.omega
    arrays["rff_phases"] = bundle.rff.phases
    meta = {
        **embedder_meta,
        "settings": _model_settings(bundle.config),
        "platt_converged": bundle.platt.converged,
    }
    save_bundle(path, "model", meta, arrays)


def load_model_bundle(path: str | Path) -> ModelBundle:
    """Read a model bundle, or raise DataError.  Its `settings`
    must be exactly the MODEL_SETTINGS sections of a valid RunConfig, so
    a missing section never falls back to defaults; the returned config
    keeps the defaults of the run-time settings.  The learned numbers are
    arrays, which `load_bundle` has checked to be finite; what remains is
    a bool `platt_converged`, matching widths from embedder to SVM, and
    settings that state those widths."""
    header, arrays = load_bundle(path, expect_kind="model")
    try:
        meta = header["meta"]
        try:  # settings that fail the round trip were written by an older version
            if "settings" not in meta:
                raise ValueError("the file predates the settings layout")
            config = config_from_dict(meta["settings"])
            if _model_settings(config) != meta["settings"]:
                raise ValueError(f"settings must hold exactly the sections {MODEL_SETTINGS}")
        except (ConfigError, TypeError, ValueError) as exc:
            raise ValueError(f"{exc}; run 'train-clf' again") from exc
        embedder, vocabs = unpack_model(meta, arrays, prefix="emb_")
        pca = PcaModel(arrays["pca_mean"], arrays["pca_components"], arrays["pca_evr"])
        (bias,) = arrays["svm_bias"].tolist()
        svm_model = SvmModel(arrays["svm_weights"], float(bias))
        a, b = arrays["platt"].tolist()
        converged = meta["platt_converged"]
        if type(converged) is not bool:
            raise TypeError(f"platt_converged must be true or false, got {converged!r}")
        platt = PlattParams(float(a), float(b), converged)
        rff = RffMap(arrays["rff_omega"], arrays["rff_phases"])
        _check_widths(embedder, pca, rff, svm_model, config)
    except (ConfigError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad model bundle: {exc}") from exc
    return ModelBundle(embedder, vocabs, pca, svm_model, platt, rff, config)


def _check_widths(
    embedder: EmbedderParams, pca: PcaModel, rff: RffMap, svm: SvmModel, config: RunConfig
) -> None:
    """Raise ValueError unless each stage's output width is the next
    stage's input width and the settings state the widths the arrays have."""
    if pca.mean.shape != (pca.input_dim,) or pca.input_dim != 2 * embedder.d:
        raise ValueError(f"PCA input width {pca.input_dim} != twice the code width {embedder.d}")
    width = rff.phases.size
    if rff.phases.shape != (width,) or rff.omega.shape != (pca.k, width):
        raise ValueError(f"RFF map {rff.omega.shape} does not fit PCA k {pca.k}")
    if svm.weights.shape != (width,):
        raise ValueError(f"SVM weights {svm.weights.shape} != feature width {width}")
    stated = {"token_dim": embedder.d_t, "path_dim": embedder.d_p, "code_dim": embedder.d,
              "rff_dim": width}
    for name, actual in stated.items():
        if getattr(config, name) != actual:
            raise ValueError(f"settings {setting_key(name)} {getattr(config, name)} "
                             f"!= the arrays' {actual}")


# ---------------------------------------------------------------------------
# Recommendation serialization

RECOMMENDATIONS_FORMAT = {"format": "recommendations", "version": 2}


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
    probability = row["probability"]
    if type(probability) not in (int, float):  # a JSON number; a bool is not one
        raise TypeError(f"probability {probability!r} is not a number")
    rec = Recommendation(row["method_id"], row["best_class_id"], float(probability),
                         row["decision"], row["target_class_ids"])
    if row["project"] != method_project(rec.method_id):
        raise ValueError(f"project {row['project']!r} is not that of method {rec.method_id!r}")
    home = split_method_id(rec.method_id)[1]
    if home in rec.target_class_ids:
        raise ValueError(f"target_class_ids include the method's own class {home!r}")
    if rec.best_class_id != home and rec.best_class_id not in rec.target_class_ids:
        raise ValueError(f"best_class_id {rec.best_class_id!r} is neither the method's class "
                         f"{home!r} nor a target")
    if rec.decision == MOVE and rec.best_class_id == home:
        raise ValueError(f"a Move names the method's own class {home!r}")
    if rec.decision == STAY and rec.best_class_id != home:
        raise ValueError(f"a Stay names {rec.best_class_id!r}, not the method's class {home!r}")
    return row["project"], rec


def read_recommendations(path: str | Path) -> dict[str, list[Recommendation]]:
    out: dict[str, list[Recommendation]] = {}
    for project, rec in read_jsonl(path, RECOMMENDATIONS_FORMAT, _parse_recommendation):
        out.setdefault(project, []).append(rec)
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


def run_pipeline(corpus_root: str | Path, config: RunConfig) -> PipelineResult:
    """Train everything on the train projects, then inject smells into
    the held-out projects and measure recovery."""
    limits = config.limits()
    train_projects, eval_projects = list_projects(corpus_root)

    train_units = {p: load_project(corpus_root, p) for p in train_projects}
    train_bags = {p: corpus_bags(train_units[p], limits) for p in train_projects}

    samples = training_samples([b for p in train_projects for b in train_bags[p]])
    vocabs, params, _ = train_embedder(samples, config.train_config())

    examples: list[LabeledExample] = []
    for project in train_projects:
        examples.extend(
            project_examples(train_units[project], train_bags[project], params, vocabs)
        )
    train_ex, _, validate_ex = split_dataset(examples, config.seed)

    pca, rff, svm_model, platt = fit_classifier(train_ex, validate_ex, config)
    bundle = ModelBundle(params, vocabs, pca, svm_model, platt, rff, config)

    recs_by_project = {}
    gt_by_project = {}
    for project in eval_projects:
        units = load_project(corpus_root, project)
        mutated, entries = inject_feature_envy(units, config.seed)
        recs = score_project(mutated, bundle, config.threshold)
        # The artifacts hold no row for a project with neither, so the
        # stage path's evaluate never sees it; leave it out here too.
        if entries or recs:
            gt_by_project[project] = entries
            recs_by_project[project] = recs

    report, baseline = evaluate(recs_by_project, gt_by_project)
    return PipelineResult(report, baseline, bundle, recs_by_project, gt_by_project)
