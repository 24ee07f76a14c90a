"""In-memory span tracing around pathmove's public names, and the
per-layer metrics derived from the spans.

The traced child process calls `install`, which replaces module
attributes of `pathmove.cli`, `pathmove.pipeline` and
`pathmove.injector` with wrappers that open a span per call.  Calls
made inside those modules look the names up as module globals, so they
go through the wrappers too.  Nothing inside the program changes.

A span is a dict: name, start, end (perf_counter seconds), parent (index
into the same process's list, or None) and counts taken from the call's
arguments and result.  `layer_metrics` turns the spans of one round
(several processes on the stage path) into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import math
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """Spans of one process, in the order they were opened."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


# ---------------------------------------------------------------------------
# Counters taken at the wrapped boundaries.  Each gets (args, kwargs,
# result) and returns a dict for the span's counts; it must not alter
# its inputs.


def _bag_counts(args, kwargs, bag):
    return {
        "contexts": len(bag.contexts),
        "empty": int(not bag.contexts),
        "method_id": bag.method_id,
    }


def _train_counts(args, kwargs, result):
    samples, config = args
    vocabs, _, losses = result
    usable = sum(1 for bag, _ in samples if bag.contexts)
    return {
        "steps": len(losses) * math.ceil(usable / config.batch_size),
        "vocab_tokens": len(vocabs.token_index),
        "vocab_paths": len(vocabs.path_index),
        "vocab_names": len(vocabs.name_index),
        "final_loss": losses[-1],
    }


def _units_counts(args, kwargs, units):
    return {"units": len(units)}


def _inject_counts(args, kwargs, result):
    return {"moves": len(result[1])}


def _pairs_counts(args, kwargs, rows):
    return {"pairs": len(rows)}


def _classifier_counts(args, kwargs, result):
    pca, _, _, platt = result
    return {"pca_k": pca.components.shape[0], "platt_converged": int(platt.converged)}


def _recommend_counts(args, kwargs, recs):
    decisions = [r.decision for r in recs]
    return {
        "scored": len(recs),
        "moves": decisions.count("Move"),
        "none": decisions.count("NoRecommendation"),
    }


def _written_bytes(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


def _written_bytes_last_arg(args, kwargs, result):
    return {"bytes": Path(args[-1]).stat().st_size}


def _text_bytes(args, kwargs, text):
    return {"bytes": len(text.encode())}


# (module, attribute, span name, counter).  A name bound in several
# modules is wrapped in each, since each module calls its own binding.
WRAPS: list[tuple[str, str, str, object]] = [
    ("pathmove.pipeline", "extract_contexts", "pathctx.extract", _bag_counts),
    ("pathmove.pipeline", "embed_bag", "embed.infer", None),
    ("pathmove.pipeline", "embed_corpus", "embed.corpus", None),
    ("pathmove.pipeline", "train_embedder", "embed.train", _train_counts),
    ("pathmove.pipeline", "load_project", "frontend.parse", _units_counts),
    ("pathmove.pipeline", "build_dataset", "injector.dataset", _pairs_counts),
    ("pathmove.pipeline", "inject_feature_envy", "injector.inject", _inject_counts),
    ("pathmove.pipeline", "fit_classifier", "svm.fit", _classifier_counts),
    ("pathmove.pipeline", "recommend", "pipeline.recommend", _recommend_counts),
    ("pathmove.pipeline", "evaluate", "pipeline.evaluate", None),
    ("pathmove.injector", "perform_move", "injector.move", None),
    ("pathmove.cli", "run_pipeline", "pipeline.run", None),
    ("pathmove.cli", "embed_corpus", "embed.corpus", None),
    ("pathmove.cli", "train_embedder", "embed.train", _train_counts),
    ("pathmove.cli", "training_accuracy", "embed.accuracy", None),
    ("pathmove.cli", "load_project", "frontend.parse", _units_counts),
    ("pathmove.cli", "build_dataset", "injector.dataset", _pairs_counts),
    ("pathmove.cli", "inject_feature_envy", "injector.inject", _inject_counts),
    ("pathmove.cli", "fit_classifier", "svm.fit", _classifier_counts),
    ("pathmove.cli", "recommend", "pipeline.recommend", _recommend_counts),
    ("pathmove.cli", "evaluate", "pipeline.evaluate", None),
    ("pathmove.cli", "save_model_bundle", "bundle.save", _written_bytes),
    ("pathmove.cli", "save_model", "bundle.save", _written_bytes_last_arg),
    ("pathmove.cli", "load_model_bundle", "bundle.load", None),
    ("pathmove.cli", "load_model", "bundle.load", None),
    ("pathmove.cli", "dump_bags", "artifacts.write", _text_bytes),
    ("pathmove.cli", "write_dataset", "artifacts.write", _written_bytes),
    ("pathmove.cli", "write_ground_truth", "artifacts.write", _written_bytes),
    ("pathmove.cli", "write_recommendations", "artifacts.write", _written_bytes),
    ("pathmove.cli", "load_bags", "artifacts.read", None),
    ("pathmove.cli", "read_dataset", "artifacts.read", None),
    ("pathmove.cli", "read_ground_truth", "artifacts.read", None),
    ("pathmove.cli", "read_recommendations", "artifacts.read", None),
]


def _wrap(fn, name: str, counter, recorder: Recorder):
    def wrapper(*args, **kwargs):
        with recorder.span(name) as record:
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record["counts"]["raised"] = type(exc).__name__
                raise
            if counter is not None:
                record["counts"].update(counter(args, kwargs, result))
            return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(recorder: Recorder, wraps=WRAPS) -> list[str]:
    """Wrap every name in `wraps`; returns the `module.attr` names that no
    longer exist, whose metrics are then reported as missing."""
    missing = []
    for module_name, attr, span_name, counter in wraps:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, _wrap(fn, span_name, counter, recorder))
    return missing


# ---------------------------------------------------------------------------
# Metric derivation

CLI_COMMANDS = (
    "extract",
    "train-embed",
    "build-dataset",
    "train-clf",
    "inject",
    "recommend",
    "evaluate",
    "pipeline",
)

# Span-time metrics: metric name -> span name.  Each also gets a
# `<layer>_self_s` metric: its time minus the time of its direct children.
SPAN_TIMES = {
    "embed.train_s": "embed.train",
    "embed.infer_s": "embed.infer",
    "embed.corpus_s": "embed.corpus",
    "embed.accuracy_s": "embed.accuracy",
    "pathctx.extract_s": "pathctx.extract",
    "frontend.parse_s": "frontend.parse",
    "injector.inject_s": "injector.inject",
    "injector.dataset_s": "injector.dataset",
    "svm.fit_s": "svm.fit",
    "pipeline.run_s": "pipeline.run",
    "pipeline.recommend_s": "pipeline.recommend",
    "pipeline.evaluate_s": "pipeline.evaluate",
    "bundle.save_s": "bundle.save",
    "bundle.load_s": "bundle.load",
    "artifacts.write_s": "artifacts.write",
    "artifacts.read_s": "artifacts.read",
}
SPAN_TIMES.update({f"cli.{c.replace('-', '_')}_s": f"cli.{c}" for c in CLI_COMMANDS})


def _count(spans, name, key):
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)


def _last(spans, name, key):
    values = [s["counts"][key] for s in spans if s["name"] == name and key in s["counts"]]
    return values[-1] if values else 0


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter_metrics(spans: list[dict]) -> dict[str, tuple[float, str, str]]:
    """metric -> (value, unit, span names the value comes from, joined by +)."""
    extracts = [s for s in spans if s["name"] == "pathctx.extract"]
    train_ids = [s["counts"]["method_id"] for s in extracts if s["counts"].get("method_id", "").startswith("train/")]
    moves = [s for s in spans if s["name"] == "injector.move"]
    train_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "embed.train")
    steps = _count(spans, "embed.train", "steps")
    return {
        "embed.train_steps": (steps, "count", "embed.train"),
        "embed.step_ms": (1000.0 * _per(train_s, steps), "ms", "embed.train"),
        "embed.infer_bags": (sum(1 for s in spans if s["name"] == "embed.infer"), "count", "embed.infer"),
        "embed.vocab_tokens": (_last(spans, "embed.train", "vocab_tokens"), "count", "embed.train"),
        "embed.vocab_paths": (_last(spans, "embed.train", "vocab_paths"), "count", "embed.train"),
        "embed.vocab_names": (_last(spans, "embed.train", "vocab_names"), "count", "embed.train"),
        "embed.final_loss": (_last(spans, "embed.train", "final_loss"), "nats", "embed.train"),
        "pathctx.extract_calls": (len(extracts), "count", "pathctx.extract"),
        "pathctx.contexts": (_count(spans, "pathctx.extract", "contexts"), "count", "pathctx.extract"),
        "pathctx.empty_bags": (_count(spans, "pathctx.extract", "empty"), "count", "pathctx.extract"),
        "pathctx.extracts_per_method": (
            _per(len(train_ids), len(set(train_ids))), "ratio", "pathctx.extract"
        ),
        "frontend.units": (_count(spans, "frontend.parse", "units"), "count", "frontend.parse"),
        "injector.moves": (_count(spans, "injector.inject", "moves"), "count", "injector.inject"),
        "injector.moves_skipped": (
            sum(1 for s in moves if "raised" in s["counts"]), "count", "injector.move"
        ),
        "injector.move_ms": (
            1000.0 * _per(sum(s["end"] - s["start"] for s in moves), len(moves)),
            "ms",
            "injector.move",
        ),
        "injector.pairs": (_count(spans, "injector.dataset", "pairs"), "count", "injector.dataset"),
        "featurize.pca_k": (_last(spans, "svm.fit", "pca_k"), "count", "svm.fit"),
        "svm.platt_converged": (_last(spans, "svm.fit", "platt_converged"), "flag", "svm.fit"),
        "pipeline.scored_methods": (_count(spans, "pipeline.recommend", "scored"), "count", "pipeline.recommend"),
        "pipeline.moves_recommended": (_count(spans, "pipeline.recommend", "moves"), "count", "pipeline.recommend"),
        "pipeline.no_recommendation": (_count(spans, "pipeline.recommend", "none"), "count", "pipeline.recommend"),
        "artifacts.bytes_written": (
            _count(spans, "artifacts.write", "bytes") + _count(spans, "bundle.save", "bytes"),
            "bytes",
            "artifacts.write+bundle.save",
        ),
    }


def self_times(processes: list[list[dict]]) -> dict[str, float]:
    """Span name -> summed duration minus the duration of direct children."""
    out: dict[str, float] = {}
    for spans in processes:
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for s, inner in zip(spans, child_time):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - inner
    return out


def layer_metrics(processes: list[list[dict]], missing: set[str]) -> dict[str, dict]:
    """Per-layer metrics of one round.  `processes` holds each child
    process's span list; `missing` the span names whose wrapped function
    no longer exists, whose metrics get value None rather than 0."""
    spans = [s for proc in processes for s in proc]
    own = self_times(processes)
    out: dict[str, dict] = {}
    for metric, span_name in SPAN_TIMES.items():
        total = sum((s["end"] - s["start"] for s in spans if s["name"] == span_name), 0.0)
        gone = span_name in missing
        out[metric] = {"value": None if gone else total, "unit": "s"}
        out[metric[: -len("_s")] + "_self_s"] = {
            "value": None if gone else own.get(span_name, 0.0),
            "unit": "s",
        }
    for metric, (value, unit, sources) in _counter_metrics(spans).items():
        gone = any(name in missing for name in sources.split("+"))
        out[metric] = {"value": None if gone else value, "unit": unit}
    return out


def missing_span_names(missing_attrs: list[str]) -> set[str]:
    """Span names fed by at least one wrapped name that no longer exists."""
    gone = set(missing_attrs)
    return {span for module, attr, span, _ in WRAPS if f"{module}.{attr}" in gone}
