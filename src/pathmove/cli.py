"""Command line interface.

Each stage command reads the previous stage's artifacts from the work
directory and writes its own, so a run can be driven step by step or
all at once with the pipeline command.  Exit codes: 0 success, 2 bad
configuration, 3 bad or missing data, 4 internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .bundle import read_utf8
from .codegen import EVAL_DIR, GenConfig, list_group, list_projects, load_project, write_corpus
from .config import RunConfig, load_config
from .embed import load_model, save_model, train_embedder, training_accuracy
from .errors import ConfigError, DataError
from .frontend import method_project, print_unit, split_method_id
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
    corpus_bags,
    evaluate,
    fit_classifier,
    load_model_bundle,
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
DATASET_FILE = "dataset.pmb"
GROUND_TRUTH_FILE = "ground-truth.jsonl"
RECOMMENDATIONS_FILE = "recommendations.jsonl"
REPORT_FILE = "report.json"


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The --config file, or the defaults, then flag overrides."""
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {
        key: value
        for key in ("seed", "threshold", "work_dir")
        if (value := getattr(args, key)) is not None
    }
    return replace(config, **overrides)


def _work_dir(config: RunConfig) -> Path:
    work = Path(config.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    return work


def _fresh_out(out: str) -> Path:
    """An --out directory that is absent or empty, so no earlier tree mixes into it."""
    path = Path(out)
    if path.is_dir() and any(path.iterdir()):
        raise DataError(f"--out {path} exists and is not empty; choose a new directory")
    return path


def _require(path: Path, producer: str) -> Path:
    if not path.is_file():
        raise DataError(f"missing artifact {str(path)!r}: run the {producer!r} stage first")
    return path


def _write_report(work: Path, report: EvalReport, baseline: float) -> None:
    """Write report.json and print its scores."""
    payload = {"baseline": {"macro_f1": baseline}, "report": report.to_dict()}
    (work / REPORT_FILE).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                                    encoding="utf-8")
    print(
        f"{'project':<20} {'gt':>4} {'rec':>4} {'hit':>4} "
        f"{'prec':>7} {'recall':>7} {'f1':>7}"
    )
    for s in report.projects:
        print(
            f"{s.project:<20} {s.ground_truth:>4} {s.recommended:>4} "
            f"{s.correct:>4} {s.precision:>7.3f} {s.recall:>7.3f} {s.f1:>7.3f}"
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
    files = write_corpus(_fresh_out(args.out), gen)
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
    (work / BAGS_FILE).write_text(dump_bags(bags), encoding="utf-8")
    n_contexts = sum(len(bag.contexts) for bag in bags)
    print(
        f"extracted {n_contexts} contexts from {len(bags)} methods "
        f"in {len(train_projects)} training projects"
    )


def _read_bags(work: Path) -> list[ContextBag]:
    """The training bags; a malformed header or line, or a method id that
    does not parse or sits in no project directory, is a DataError naming
    the line."""
    path = _require(work / BAGS_FILE, "extract")
    try:
        bags = load_bags(read_utf8(path))
    except DataError as exc:
        raise DataError(f"{path}:{exc}") from exc
    for lineno, bag in enumerate(bags, 2):  # line 1 is the header
        try:
            split_method_id(bag.method_id)
            method_project(bag.method_id)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return bags


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
    train, _, validate = split_dataset(examples, config.seed)
    write_dataset(work / DATASET_FILE, (train, validate))
    print(f"stored train {len(train)} and validate {len(validate)} "
          f"of {len(examples)} labeled pairs")


def cmd_train_clf(args: argparse.Namespace, config: RunConfig) -> None:
    work = _work_dir(config)
    params, vocabs = load_model(_require(work / EMBEDDER_FILE, "train-embed"))
    dataset_path = _require(work / DATASET_FILE, "build-dataset")
    train, validate = read_dataset(dataset_path)
    width = train[0].feature.values.size
    if width != 2 * params.d:
        raise DataError(f"{dataset_path}: pairs are {width} wide, not twice the embedder's code "
                        f"width {params.d}; run the 'build-dataset' stage again")
    pca, rff, svm_model, platt = fit_classifier(train, validate, config)
    bundle = ModelBundle(params, vocabs, pca, svm_model, platt, rff, config)
    save_model_bundle(work / MODEL_FILE, bundle)
    calibrated = "calibrated" if platt.converged else "calibration did not converge"
    print(f"trained classifier (PCA keeps {pca.k} of {pca.mean.shape[0]} dims, {calibrated})")


def cmd_inject(args: argparse.Namespace, config: RunConfig) -> None:
    out_root = _fresh_out(args.out)
    _, eval_projects = list_projects(args.corpus)
    gt_by_project = {}
    for project in eval_projects:
        units = load_project(args.corpus, project)
        mutated, gt_by_project[project] = inject_feature_envy(units, config.seed)
        for unit in mutated:
            path = out_root / unit.file_path
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(print_unit(unit), encoding="utf-8")
    work = _work_dir(config)
    write_ground_truth(work / GROUND_TRUTH_FILE, gt_by_project)
    moved = sum(map(len, gt_by_project.values()))
    print(f"moved {moved} methods across {len(eval_projects)} projects into {out_root}")


def cmd_recommend(args: argparse.Namespace, config: RunConfig) -> None:
    work = _work_dir(config)
    bundle = load_model_bundle(_require(work / MODEL_FILE, "train-clf"))
    projects = list_group(args.corpus, EVAL_DIR)
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
    gt_by_project = read_ground_truth(gt_path)
    missing = sorted(set(gt_by_project) - set(list_group(args.corpus, EVAL_DIR)))
    if missing:
        raise DataError(f"{gt_path}: project {missing[0]} is not in the corpus {args.corpus}")
    _write_report(work, *evaluate(recs_by_project, gt_by_project))


def cmd_pipeline(args: argparse.Namespace, config: RunConfig) -> None:
    result = run_pipeline(args.corpus, config)
    work = _work_dir(config)
    save_model_bundle(work / MODEL_FILE, result.model)
    write_recommendations(work / RECOMMENDATIONS_FILE, result.recommendations)
    write_ground_truth(work / GROUND_TRUTH_FILE, result.ground_truth)
    _write_report(work, result.report, result.baseline_f1)


# ---------------------------------------------------------------------------
# Parser and entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--work-dir", help=f"artifact directory (default: {RunConfig.work_dir})")
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
    p.add_argument("--projects", type=int, default=GenConfig.n_projects, help="total projects")
    p.add_argument("--eval-projects", type=int, default=GenConfig.eval_projects,
                   help="held-out projects")
    p.add_argument("--min-classes", type=int, default=GenConfig.min_classes,
                   help="classes per project, lower bound")
    p.add_argument("--max-classes", type=int, default=GenConfig.max_classes,
                   help="classes per project, upper bound")
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
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other failure: exit 4, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
