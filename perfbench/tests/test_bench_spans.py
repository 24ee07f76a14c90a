"""Span recording, self times and missing-name handling."""

import sys
import types

import spans


def span(name, start, end, parent=None, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent, "counts": counts}


def test_self_time_subtracts_direct_children():
    proc = [
        span("cli.pipeline", 0.0, 10.0),
        span("pipeline.run", 1.0, 9.0, 0),
        span("embed.train", 2.0, 6.0, 1),
        span("pathctx.extract", 6.0, 7.0, 1, contexts=3, empty=0, method_id="train/p/A.java::A::m/1"),
    ]
    own = spans.self_times([proc])
    assert own["cli.pipeline"] == 2.0
    assert own["pipeline.run"] == 3.0
    assert own["embed.train"] == 4.0
    metrics = spans.layer_metrics([proc], set())
    assert metrics["pipeline.run_s"]["value"] == 8.0
    assert metrics["pipeline.run_self_s"]["value"] == 3.0
    assert metrics["pathctx.contexts"]["value"] == 3
    assert metrics["cli.extract_s"]["value"] == 0.0


def test_extracts_per_method_counts_training_methods():
    bag = dict(contexts=1, empty=0)
    proc = [span("pathctx.extract", 0, 1, method_id="train/p/A.java::A::m/1", **bag),
            span("pathctx.extract", 1, 2, method_id="train/p/A.java::A::m/1", **bag),
            span("pathctx.extract", 2, 3, method_id="eval/q/B.java::B::n/1", **bag)]
    assert spans.layer_metrics([proc], set())["pathctx.extracts_per_method"]["value"] == 2.0


def test_recorder_nests_and_wrapped_names_count(monkeypatch):
    fake = types.ModuleType("fake_stage")
    fake.present = lambda x: [x, x]
    monkeypatch.setitem(sys.modules, "fake_stage", fake)
    recorder = spans.Recorder()
    wraps = [("fake_stage", "present", "injector.dataset", spans._pairs_counts),
             ("fake_stage", "gone", "embed.train", None)]
    missing = spans.install(recorder, wraps)
    assert missing == ["fake_stage.gone"]
    with recorder.span("cli.build-dataset"):
        assert fake.present(7) == [7, 7]
    outer, inner = recorder.spans
    assert inner["parent"] == 0 and inner["counts"] == {"pairs": 2}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_missing_names_are_null_not_zero():
    gone = spans.missing_span_names(["pathmove.cli.train_embedder"])
    assert gone == {"embed.train"}
    metrics = spans.layer_metrics([[]], gone)
    assert metrics["embed.train_s"]["value"] is None
    assert metrics["embed.train_steps"]["value"] is None
    assert metrics["embed.infer_s"]["value"] == 0.0
