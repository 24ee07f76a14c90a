"""The benchmark's output checks, on a hand-written three-class project."""

import copy
import math

import pytest

import checks

PROJECT = "eval/proj-00"
SOURCES = {
    "Alpha": """class Alpha {
    int a1;

    int getA1() {
        return a1;
    }

    int hop(Alpha peer, Beta t, Gamma aux, int k) {
        int x = t.b1 + k;
        return x;
    }
}
""",
    "Beta": """class Beta {
    int b1;

    int work(int k, int n) {
        return b1 + k;
    }
}
""",
    "Gamma": """class Gamma {
    int c1;

    void setC1(int value) {
        c1 = value;
    }
}
""",
}
MOVED = f"{PROJECT}/Beta.java::Beta::hop/4"
TRUTH = [{"moved_method_id": MOVED, "original_class_id": "Alpha", "injected_class_id": "Beta"}]


@pytest.fixture
def sources(tmp_path):
    for name, text in SOURCES.items():
        path = tmp_path / PROJECT / f"{name}.java"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return checks.Sources(tmp_path)


def rec(method_id, best, probability, decision):
    return {"project": PROJECT, "method_id": method_id, "best_class_id": best,
            "probability": probability, "decision": decision}


def report_for(recs, truth, baseline):
    return {"report": checks.recompute_scores(recs, truth), "baseline": {"macro_f1": baseline}}


def test_signatures_read_from_source(sources):
    sigs = sources.project(PROJECT)
    assert sigs["Alpha"][("hop", 4)] == ["Alpha", "Beta", "Gamma", "int"]
    assert sigs["Gamma"][("setC1", 1)] == ["int"]


def test_recomputed_scores():
    recs = [rec(MOVED, "Alpha", 0.9, "Move"),
            rec(f"{PROJECT}/Beta.java::Beta::work/2", "Gamma", 0.8, "Move")]
    scores = checks.recompute_scores(recs, TRUTH)
    row = scores["projects"][0]
    assert (row["correct"], row["recommended"], row["ground_truth"]) == (1, 2, 1)
    assert row["f1"] == pytest.approx(2 * 0.5 * 1.0 / 1.5)
    assert scores["macro"]["f1"] == row["f1"]
    assert scores["micro"]["precision"] == 0.5


def test_report_mismatch_is_found():
    recs = [rec(MOVED, "Alpha", 0.9, "Move")]
    report = report_for(recs, TRUTH, 0.4)
    assert checks.check_report(recs, TRUTH, report) == []
    tampered = copy.deepcopy(report)
    tampered["report"]["macro"]["f1"] = 0.75
    assert checks.check_report(recs, TRUTH, tampered)


def test_ground_truth_against_source(sources):
    assert checks.check_ground_truth(TRUTH, sources) == []
    not_a_param = [dict(TRUTH[0], injected_class_id="Delta")]
    assert checks.check_ground_truth(not_a_param, sources)
    wrong_home = [dict(TRUTH[0], original_class_id="Gamma")]
    assert checks.check_ground_truth(wrong_home, sources)


def test_recommendation_properties(sources):
    good = [rec(MOVED, "Alpha", 0.9, "Move"),
            rec(f"{PROJECT}/Beta.java::Beta::work/2", "Beta", 0.7, "Stay"),
            rec(f"{PROJECT}/Alpha.java::Alpha::getA1/0", "Alpha", 0.5, "NoRecommendation")]
    assert checks.check_recommendations(good, TRUTH, sources, 0.5) == []
    bad = [rec(MOVED, "Alpha", 0.4, "Move"),  # below threshold
           rec(MOVED, "Delta", 0.9, "Move"),  # not a parameter type
           rec(MOVED, "Beta", 0.9, "Move"),  # its current class
           rec(f"{PROJECT}/Beta.java::Beta::work/2", "Gamma", 0.7, "Stay"),
           rec(MOVED, "Alpha", 1.0, "Move"),
           rec(MOVED, "Alpha", 0.9, "Maybe")]
    problems = checks.check_recommendations(bad, TRUTH, sources, 0.5)
    assert len(problems) == len(bad)


def test_random_baseline_and_quality_floor(sources):
    # hop sits in Beta; it may stay or go to Alpha or Gamma: P = 1/2, R = 1/3
    baseline = checks.random_baseline(TRUTH, sources)
    assert baseline == pytest.approx(0.4)
    recs = [rec(MOVED, "Alpha", 0.9, "Move")]
    assert checks.check_quality(report_for(recs, TRUTH, baseline), baseline) == []
    weak = report_for([rec(MOVED, "Gamma", 0.9, "Move")], TRUTH, baseline)
    assert checks.check_quality(weak, baseline)
    assert checks.check_quality(report_for(recs, TRUTH, 0.3), baseline)
    assert not math.isnan(baseline)
