"""Command line interface.

Each stage command reads the previous stage's artifacts from the work
directory and writes its own, so a run can be driven step by step or
all at once with the pipeline command.  Exit codes: 0 success, 2 bad
configuration, 3 bad or missing data, 4 internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .codegen import EVAL_DIR, GenConfig, list_projects, load_project, write_corpus
from .config import RunConfig, load_config
from .embed import load_model, save_model, train_embedder, training_accuracy
from .errors import ConfigError, DataError, MissingArtifactError
from .frontend import print_unit
from .injector import (
    inject_feature_envy,
    read_dataset,
    read_ground_truth,
    split_dataset,
    write_dataset,
    write_ground_truth,
)
from .pathctx import ContextBag, dump_bags, load_bags
from .pipeline import (
    EvalReport,
    ModelBundle,
    analytic_random_baseline,
    classifier_metrics,
    corpus_bags,
    evaluate,
    fit_classifier,
    group_ground_truth,
    load_model_bundle,
    method_project,
    project_examples,
    read_recommendations,
    run_pipeline,
    save_model_bundle,
    score_project,
    training_samples,
    write_recommendations,
)

# Called only through project_examples and score_project, but kept bound
# here: perfbench/spans.py wraps these names in this module by name.
from .injector import build_dataset  # noqa: F401
from .pipeline import embed_corpus, recommend  # noqa: F401

BAGS_FILE = "bags-train.tsv"
EMBEDDER_FILE = "embedder.pmb"
MODEL_FILE = "model.pmb"
DATASET_FILES = {
    "train": "dataset-train.jsonl",
    "test": "dataset-test.jsonl",
    "validate": "dataset-validate.jsonl",
}
GROUND_TRUTH_FILE = "ground-truth.jsonl"
RECOMMENDATIONS_FILE = "recommendations.jsonl"
REPORT_FILE = "report.json"

CONFIG_ENV = "PATHMOVE_CONFIG"


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """File config (flag, then environment), then flag overrides."""
    path = args.config or os.environ.get(CONFIG_ENV)
    config = load_config(path) if path else RunConfig()
    overrides = {
        key: value
        for key in ("seed", "threshold", "work_dir")
        if (value := getattr(args, key)) is not None
    }
    if overrides:
        try:
            config = replace(config, **overrides)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return config


def _work_dir(config: RunConfig) -> Path:
    work = Path(config.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    return work


def _require(path: Path, producer: str) -> Path:
    if not path.is_file():
        raise MissingArtifactError(str(path), producer)
    return path


def _eval_projects(root: str | Path) -> list[str]:
    base = Path(root) / EVAL_DIR
    if not base.is_dir():
        raise DataError(f"corpus at {root} has no {EVAL_DIR}/ directory")
    projects = sorted(f"{EVAL_DIR}/{p.name}" for p in base.iterdir() if p.is_dir())
    if not projects:
        raise DataError(f"no project directories under {base}")
    return projects


def _write_report(work: Path, report: EvalReport, baseline: float, **extra) -> None:
    """Write report.json, with `extra` as more top-level keys, and print its scores."""
    payload = {"baseline": {"macro_f1": baseline}, "report": report.to_dict(), **extra}
    (work / REPORT_FILE).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(
        f"{'project':<20} {'gt':>4} {'rec':>4} {'hit':>4} "
        f"{'prec':>7} {'recall':>7} {'f1':>7}"
    )
    for s in report.projects:
        print(
            f"{s.project:<20} {s.n_ground_truth:>4} {s.n_recommended:>4} "
            f"{s.n_correct:>4} {s.precision:>7.3f} {s.recall:>7.3f} {s.f1:>7.3f}"
        )
    for average in ("macro", "micro"):
        p, r, f = (getattr(report, f"{average}_{k}") for k in ("precision", "recall", "f1"))
        print(f"{average:<20} {'':>4} {'':>4} {'':>4} {p:>7.3f} {r:>7.3f} {f:>7.3f}")
    print(f"random baseline macro-F1 {baseline:.4f}")


# ---------------------------------------------------------------------------
# Stage commands


def cmd_gen_corpus(args: argparse.Namespace, config: RunConfig) -> None:
    gen = GenConfig(
        n_projects=args.projects,
        eval_projects=args.eval_projects,
        min_classes=args.min_classes,
        max_classes=args.max_classes,
        seed=config.seed,
    )
    files = write_corpus(args.out, gen)
    print(
        f"wrote {len(files)} files for {gen.n_projects} projects "
        f"({gen.eval_projects} held out) under {args.out}"
    )


def cmd_extract(args: argparse.Namespace, config: RunConfig) -> None:
    limits = config.limits()
    train_projects, _ = list_projects(args.corpus)
    bags = []
    for project in train_projects:
        units = load_project(args.corpus, project)
        bags.extend(corpus_bags(units, limits))
    work = _work_dir(config)
    (work / BAGS_FILE).write_text(dump_bags(bags))
    n_contexts = sum(len(bag.contexts) for bag in bags)
    print(
        f"extracted {n_contexts} contexts from {len(bags)} methods "
        f"in {len(train_projects)} training projects"
    )


def _read_bags(work: Path) -> list[ContextBag]:
    path = _require(work / BAGS_FILE, "extract")
    try:
        return load_bags(path.read_text())
    except DataError as exc:
        raise DataError(f"{path}:{exc}") from exc


def cmd_train_embed(args: argparse.Namespace, config: RunConfig) -> None:
    work = _work_dir(config)
    samples = training_samples(_read_bags(work))
    vocabs, params, losses = train_embedder(samples, config.train_config())
    save_model(params, vocabs, work / EMBEDDER_FILE)
    accuracy = training_accuracy(samples, params, vocabs)
    print(
        f"trained embedder for {len(losses)} epochs, final loss "
        f"{losses[-1]:.4f}, name accuracy {accuracy:.3f}"
    )


def cmd_build_dataset(args: argparse.Namespace, config: RunConfig) -> None:
    work = _work_dir(config)
    params, vocabs = load_model(_require(work / EMBEDDER_FILE, "train-embed"))
    by_project: dict[str, list[ContextBag]] = {}
    for bag in _read_bags(work):
        by_project.setdefault(method_project(bag.method_id), []).append(bag)
    train_projects, _ = list_projects(args.corpus)
    examples = []
    for project in train_projects:
        units = load_project(args.corpus, project)
        project_bags = by_project.pop(project, [])
        methods = [m.id for unit in units for cls in unit.classes for m in cls.methods]
        if [bag.method_id for bag in project_bags] != methods:
            raise DataError(f"{work / BAGS_FILE}: methods of {project} differ from the "
                            "corpus's; run the 'extract' stage again")
        examples.extend(project_examples(units, project_bags, params, vocabs))
    if by_project:
        raise DataError(f"{work / BAGS_FILE}: {min(by_project)} is not a training project "
                        "of the corpus; run the 'extract' stage again")
    splits = dict(zip(DATASET_FILES, split_dataset(examples, config.seed)))
    for name, rows in splits.items():
        write_dataset(work / DATASET_FILES[name], rows)
    sizes = ", ".join(f"{name} {len(rows)}" for name, rows in splits.items())
    print(f"built {len(examples)} labeled pairs: {sizes}")


def cmd_train_clf(args: argparse.Namespace, config: RunConfig) -> None:
    work = _work_dir(config)
    params, vocabs = load_model(_require(work / EMBEDDER_FILE, "train-embed"))
    splits = {
        name: read_dataset(_require(work / file, "build-dataset"))
        for name, file in DATASET_FILES.items()
    }
    pca, rff, svm_model, platt = fit_classifier(
        splits["train"], splits["validate"], config
    )
    bundle = ModelBundle(params, vocabs, pca, svm_model, platt, rff, config)
    save_model_bundle(work / MODEL_FILE, bundle)
    metrics = classifier_metrics(bundle, splits["test"])
    calibrated = "calibrated" if platt.converged else "calibration did not converge"
    print(
        f"trained classifier (PCA keeps {pca.k} of {pca.mean.shape[0]} dims, "
        f"{calibrated}); test accuracy {metrics['accuracy']:.3f}, "
        f"nll {metrics['nll']:.3f} on {metrics['count']} pairs"
    )


def cmd_inject(args: argparse.Namespace, config: RunConfig) -> None:
    _, eval_projects = list_projects(args.corpus)
    out_root = Path(args.out)
    all_entries = []
    for project in eval_projects:
        units = load_project(args.corpus, project)
        mutated, entries = inject_feature_envy(units, config.seed, config.max_moves)
        for unit in mutated:
            path = out_root / unit.file_path
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(print_unit(unit))
        all_entries.extend(entries)
    work = _work_dir(config)
    write_ground_truth(work / GROUND_TRUTH_FILE, all_entries)
    print(
        f"moved {len(all_entries)} methods across {len(eval_projects)} "
        f"projects into {out_root}"
    )


def cmd_recommend(args: argparse.Namespace, config: RunConfig) -> None:
    work = _work_dir(config)
    bundle = load_model_bundle(_require(work / MODEL_FILE, "train-clf"))
    projects = _eval_projects(args.corpus)
    results = {
        project: score_project(load_project(args.corpus, project), bundle, config.threshold)
        for project in projects
    }
    write_recommendations(work / RECOMMENDATIONS_FILE, results)
    counts = Counter(rec.decision for recs in results.values() for rec in recs)
    summary = ", ".join(f"{k} {v}" for k, v in sorted(counts.items())) or "nothing"
    print(f"scored {len(projects)} projects: {summary}")


def cmd_evaluate(args: argparse.Namespace, config: RunConfig) -> None:
    work = _work_dir(config)
    recs_by_project = read_recommendations(_require(work / RECOMMENDATIONS_FILE, "recommend"))
    gt_path = _require(work / GROUND_TRUTH_FILE, "inject")
    gt_by_project = group_ground_truth(read_ground_truth(gt_path))
    missing = sorted(set(gt_by_project) - set(_eval_projects(args.corpus)))
    if missing:
        raise DataError(f"{gt_path}: project {missing[0]} is not in the corpus {args.corpus}")
    report = evaluate(recs_by_project, gt_by_project)
    _write_report(work, report, analytic_random_baseline(recs_by_project, gt_by_project))


def cmd_pipeline(args: argparse.Namespace, config: RunConfig) -> None:
    result = run_pipeline(args.corpus, config)
    work = _work_dir(config)
    save_model_bundle(work / MODEL_FILE, result.model)
    write_recommendations(work / RECOMMENDATIONS_FILE, result.recommendations)
    entries = [e for project in sorted(result.ground_truth) for e in result.ground_truth[project]]
    write_ground_truth(work / GROUND_TRUTH_FILE, entries)
    n_train, n_test, n_validate = result.split_sizes
    print(
        f"classifier test accuracy {result.test_metrics['accuracy']:.3f} "
        f"on {result.test_metrics['count']} pairs "
        f"(split {n_train}/{n_test}/{n_validate})"
    )
    _write_report(work, result.report, result.baseline_f1, classifier=result.test_metrics,
                  split={"train": n_train, "test": n_test, "validate": n_validate})


# ---------------------------------------------------------------------------
# Parser and entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--work-dir", help="artifact directory (default: work)")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--threshold", type=float, help="decision threshold override")

    parser = argparse.ArgumentParser(
        prog="pathmove",
        description="Recommend Move Method refactorings with learned code embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen-corpus", parents=[common], help="generate a synthetic training corpus"
    )
    p.add_argument("--out", required=True, help="corpus output directory")
    p.add_argument("--projects", type=int, default=20, help="total projects")
    p.add_argument("--eval-projects", type=int, default=5, help="held-out projects")
    p.add_argument("--min-classes", type=int, default=5, help="classes per project, lower bound")
    p.add_argument("--max-classes", type=int, default=7, help="classes per project, upper bound")
    p.set_defaults(handler=cmd_gen_corpus)

    p = sub.add_parser(
        "extract", parents=[common], help="extract path contexts from training projects"
    )
    p.add_argument("--corpus", required=True, help="corpus root directory")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser(
        "train-embed", parents=[common], help="train the method embedder on extracted bags"
    )
    p.set_defaults(handler=cmd_train_embed)

    p = sub.add_parser(
        "build-dataset", parents=[common], help="build and split the labeled pair dataset"
    )
    p.add_argument("--corpus", required=True, help="corpus root directory")
    p.set_defaults(handler=cmd_build_dataset)

    p = sub.add_parser(
        "train-clf", parents=[common], help="train and calibrate the pair classifier"
    )
    p.set_defaults(handler=cmd_train_clf)

    p = sub.add_parser(
        "inject", parents=[common], help="move methods in held-out projects to plant smells"
    )
    p.add_argument("--corpus", required=True, help="corpus root directory")
    p.add_argument("--out", required=True, help="mutated corpus output directory")
    p.set_defaults(handler=cmd_inject)

    p = sub.add_parser(
        "recommend", parents=[common], help="score a mutated corpus with the trained model"
    )
    p.add_argument("--corpus", required=True, help="mutated corpus root directory")
    p.set_defaults(handler=cmd_recommend)

    p = sub.add_parser(
        "evaluate", parents=[common], help="compare recommendations against ground truth"
    )
    p.add_argument("--corpus", required=True, help="mutated corpus root directory")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser(
        "pipeline", parents=[common], help="run every stage end to end in one process"
    )
    p.add_argument("--corpus", required=True, help="corpus root directory")
    p.set_defaults(handler=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        args.handler(args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other failure: exit 4, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
