"""Recommendation decisions, evaluation math, and the end-to-end run.

Decision tests steer the model analytically: an identity reduction, an
SVM that reads out only the class half of the pair, and a plain sigmoid
calibration make every probability a known function of the hand-picked
method embeddings.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmove import pipeline
from pathmove.bundle import CorruptFileError
from pathmove.codegen import GenConfig, write_corpus
from pathmove.config import RunConfig
from pathmove.embed import UNK, CodeVector, EmbedderParams, Vocabularies, save_model
from pathmove.errors import DataError
from pathmove.featurize import FeatureVector, PcaModel
from pathmove.frontend import parse_unit
from pathmove.injector import (
    GroundTruthEntry,
    LabeledExample,
    read_dataset,
    read_ground_truth,
    write_dataset,
    write_ground_truth,
)
from pathmove.pathctx import ExtractionLimits
from pathmove.pipeline import (
    MOVE,
    NO_RECOMMENDATION,
    STAY,
    ModelBundle,
    Recommendation,
    analytic_random_baseline,
    classifier_metrics,
    corpus_bags,
    embed_corpus,
    evaluate,
    f1_score,
    fit_classifier,
    group_ground_truth,
    load_model_bundle,
    method_project,
    read_recommendations,
    recommend,
    run_pipeline,
    save_model_bundle,
    training_samples,
    write_recommendations,
)
from pathmove.svm import PlattParams, RffMap, SvmHyperparams, SvmModel, platt_probability

ALPHA_SRC = """
class Alpha {
    int ore;

    int getOre() {
        return ore;
    }

    int lift(Beta b, int k) {
        int x = b.mass + k;
        return x;
    }
}
"""

BETA_SRC = """
class Beta {
    int mass;

    int getMass() {
        return mass;
    }

    int churn(int k) {
        int y = mass + k;
        return y;
    }
}
"""

GAMMA_SRC = """
class Gamma {
    int haze;

    int getHaze() {
        return haze;
    }

    int fade(int k) {
        int z = haze + k;
        return z;
    }
}
"""


def parse_corpus(*named_sources):
    return [parse_unit(src, path) for path, src in named_sources]


def toy_bundle():
    """Probability of (method, class) is exactly sigmoid(class mean).

    Embeddings are one-dimensional, the pair is [method, class], the PCA
    is the identity, the SVM weight vector is [0, 1], and Platt (A=-1,
    B=0) is the logistic sigmoid.  The embedder inside is never used by
    scoring; it only has to be structurally valid.
    """
    embedder = EmbedderParams(
        token_matrix=np.zeros((2, 2)),
        path_matrix=np.zeros((2, 2)),
        fc_matrix=np.zeros((6, 2)),
        fc_bias=np.zeros(2),
        attention_vector=np.zeros(2),
        output_matrix=np.zeros((2, 1)),
    )
    vocabs = Vocabularies({UNK: 0, "x": 1}, {UNK: 0, "P": 1}, {"m": 0})
    pca = PcaModel(np.zeros(2), np.eye(2), np.array([0.6, 0.4]))
    svm = SvmModel(np.array([0.0, 1.0]), 0.0, SvmHyperparams())
    platt = PlattParams(A=-1.0, B=0.0)
    return ModelBundle(embedder, vocabs, pca, svm, platt, None, RunConfig(rff_enabled=False))


def embeddings_by_name(units, values):
    out = {}
    for unit in units:
        for cls in unit.classes:
            for method in cls.methods:
                if method.name in values:
                    out[method.id] = CodeVector(
                        np.array([float(values[method.name])]), method.name
                    )
    return out


def sigmoid_prob(bundle, score):
    return platt_probability(bundle.platt, score)


def only(recs, name):
    matches = [r for r in recs if f"::{name}/" in r.method_id]
    assert len(matches) == 1
    return matches[0]


# ---------------------------------------------------------------------------
# Recommendation decisions


class TestRecommendDecisions:
    def corpus(self):
        return parse_corpus(("Alpha.java", ALPHA_SRC), ("Beta.java", BETA_SRC))

    def test_move_when_target_wins(self):
        units = self.corpus()
        bundle = toy_bundle()
        emb = embeddings_by_name(
            units, {"getOre": -2.0, "lift": 0.0, "getMass": 2.0, "churn": 2.0}
        )
        rec = only(recommend(units, emb, bundle, 0.5), "lift")
        assert rec.decision == MOVE
        assert rec.best_class_id == "Beta"
        assert rec.probability == sigmoid_prob(bundle, 2.0)

    def test_stay_when_origin_wins(self):
        units = self.corpus()
        bundle = toy_bundle()
        emb = embeddings_by_name(
            units, {"getOre": 2.0, "lift": 0.0, "getMass": -2.0, "churn": -2.0}
        )
        rec = only(recommend(units, emb, bundle, 0.5), "lift")
        assert rec.decision == STAY
        assert rec.best_class_id == "Alpha"
        assert rec.probability == sigmoid_prob(bundle, 2.0)

    def test_no_recommendation_below_threshold(self):
        units = self.corpus()
        bundle = toy_bundle()
        emb = embeddings_by_name(
            units, {"getOre": -1.0, "lift": 0.0, "getMass": -2.0, "churn": -2.0}
        )
        rec = only(recommend(units, emb, bundle, 0.5), "lift")
        assert rec.decision == NO_RECOMMENDATION
        assert rec.best_class_id == "Alpha"
        assert rec.probability == sigmoid_prob(bundle, -1.0)

    def test_probability_at_threshold_recommends_nothing(self):
        # sigmoid(0) is exactly 0.5; the rule is strict inequality
        units = self.corpus()
        bundle = toy_bundle()
        emb = embeddings_by_name(
            units, {"getOre": -3.0, "lift": 0.0, "getMass": 0.0, "churn": 0.0}
        )
        rec = only(recommend(units, emb, bundle, 0.5), "lift")
        assert rec.probability == 0.5
        assert rec.decision == NO_RECOMMENDATION

    def test_threshold_monotonicity(self):
        units = self.corpus()
        emb = embeddings_by_name(
            units, {"getOre": -2.0, "lift": 0.0, "getMass": 2.0, "churn": 2.0}
        )
        decisions = []
        for threshold in (0.2, 0.5, 0.88, 0.89, 0.99):
            rec = only(recommend(units, emb, toy_bundle(), threshold), "lift")
            decisions.append(rec.decision)
        assert decisions == [MOVE, MOVE, MOVE, NO_RECOMMENDATION, NO_RECOMMENDATION]

    def test_tie_prefers_origin(self):
        units = self.corpus()
        bundle = toy_bundle()
        emb = embeddings_by_name(
            units, {"getOre": 2.0, "lift": 0.0, "getMass": 2.0, "churn": 2.0}
        )
        rec = only(recommend(units, emb, bundle, 0.5), "lift")
        assert rec.decision == STAY
        assert rec.best_class_id == "Alpha"

    def test_tie_among_targets_takes_smallest_id(self):
        two_target = ALPHA_SRC.replace(
            "int lift(Beta b, int k) {",
            "int lift(Gamma g, Beta b, int k) {",
        )
        units = parse_corpus(
            ("Alpha.java", two_target),
            ("Beta.java", BETA_SRC),
            ("Gamma.java", GAMMA_SRC),
        )
        bundle = toy_bundle()
        emb = embeddings_by_name(
            units,
            {
                "getOre": 1.0,
                "lift": 0.0,
                "getMass": 2.0,
                "churn": 2.0,
                "getHaze": 2.0,
                "fade": 2.0,
            },
        )
        rec = only(recommend(units, emb, bundle, 0.5), "lift")
        assert rec.decision == MOVE
        assert rec.best_class_id == "Beta"

    def test_missing_method_embedding_gives_no_recommendation(self):
        units = self.corpus()
        bundle = toy_bundle()
        emb = embeddings_by_name(
            units, {"getOre": 2.0, "getMass": 2.0, "churn": 2.0}
        )
        rec = only(recommend(units, emb, bundle, 0.5), "lift")
        assert rec.decision == NO_RECOMMENDATION
        assert rec.probability == 0.0
        assert rec.best_class_id == "Alpha"

    def test_unscoreable_origin_still_scores_targets(self):
        lonely = """
class Alpha {
    int ore;

    int lift(Beta b, int k) {
        int x = b.mass + k;
        return x;
    }
}
"""
        units = parse_corpus(("Alpha.java", lonely), ("Beta.java", BETA_SRC))
        bundle = toy_bundle()
        emb = embeddings_by_name(units, {"lift": 0.0, "getMass": 2.0, "churn": 2.0})
        rec = only(recommend(units, emb, bundle, 0.5), "lift")
        assert rec.decision == MOVE
        assert rec.best_class_id == "Beta"

    def test_nothing_scoreable_gives_no_recommendation(self):
        lonely = """
class Alpha {
    int ore;

    int lift(Beta b, int k) {
        int x = b.mass + k;
        return x;
    }
}
"""
        empty_beta = """
class Beta {
    int mass;
}
"""
        units = parse_corpus(("Alpha.java", lonely), ("Beta.java", empty_beta))
        bundle = toy_bundle()
        emb = embeddings_by_name(units, {"lift": 0.0})
        rec = only(recommend(units, emb, bundle, 0.5), "lift")
        assert rec.decision == NO_RECOMMENDATION
        assert rec.probability == 0.0

    def test_no_candidates_gives_no_recommendations(self):
        solo = """
class Solo {
    int v;

    int getV() {
        return v;
    }
}
"""
        units = parse_corpus(("Solo.java", solo))
        assert recommend(units, {}, toy_bundle(), 0.5) == []

    def test_recommendation_rejects_unknown_decision(self):
        with pytest.raises(ValueError):
            Recommendation("m", "c", 0.5, "Maybe", ["d"])


# ---------------------------------------------------------------------------
# F1 and evaluation


class TestScoring:
    def test_f1_published_operating_point(self):
        assert abs(f1_score(0.259, 0.538) - 0.35) < 0.005

    def test_f1_zero_when_both_zero(self):
        assert f1_score(0.0, 0.0) == 0.0

    def test_f1_properties(self):
        rng = random.Random(41)
        for _ in range(200):
            p = rng.random()
            r = rng.random()
            f1 = f1_score(p, r)
            assert 0.0 <= f1 <= 1.0
            assert f1 <= (p + r) / 2 + 1e-12
            assert f1 == f1_score(r, p)
            assert abs(f1_score(p, p) - p) < 1e-12

    def evaluate_fixture(self):
        gt = {
            "p1": [
                GroundTruthEntry("p1/A.java~A~m1/1", "A", "B"),
                GroundTruthEntry("p1/B.java~B~m2/1", "B", "C"),
            ],
            "p2": [GroundTruthEntry("p2/D.java~D~m9/1", "D", "E")],
        }
        recs = {
            "p1": [
                Recommendation("p1/A.java~A~m1/1", "A", 0.9, MOVE, ["A"]),
                Recommendation("p1/B.java~B~m2/1", "C", 0.8, MOVE, ["C"]),
                Recommendation("p1/C.java~C~m3/1", "A", 0.7, MOVE, ["A", "B"]),
                Recommendation("p1/C.java~C~m4/1", "C", 0.9, STAY, ["A"]),
            ],
            "p2": [
                Recommendation("p2/D.java~D~m9/1", "D", 0.6, STAY, ["E"]),
                Recommendation("p2/E.java~E~m8/1", "E", 0.2, NO_RECOMMENDATION, ["D"]),
            ],
        }
        return recs, gt

    def test_evaluate_hand_computed(self):
        recs, gt = self.evaluate_fixture()
        report = evaluate(recs, gt)
        p1, p2 = report.projects
        assert (p1.project, p2.project) == ("p1", "p2")
        assert (p1.n_ground_truth, p1.n_recommended, p1.n_correct) == (2, 3, 1)
        assert p1.precision == pytest.approx(1 / 3, rel=1e-12)
        assert p1.recall == pytest.approx(1 / 2, rel=1e-12)
        assert p1.f1 == pytest.approx(0.4, rel=1e-12)
        assert not p1.precision_undefined
        assert report.macro_precision == pytest.approx(1 / 6, rel=1e-12)
        assert report.macro_recall == pytest.approx(1 / 4, rel=1e-12)
        assert report.macro_f1 == pytest.approx(0.2, rel=1e-12)
        assert report.micro_precision == pytest.approx(1 / 3, rel=1e-12)
        assert report.micro_recall == pytest.approx(1 / 3, rel=1e-12)
        assert report.micro_f1 == pytest.approx(1 / 3, rel=1e-12)

    def test_evaluate_flags_undefined_precision(self):
        recs, gt = self.evaluate_fixture()
        report = evaluate(recs, gt)
        p2 = report.projects[1]
        assert p2.precision_undefined
        assert p2.precision == 0.0
        assert p2.recall == 0.0
        assert p2.f1 == 0.0

    def test_evaluate_rejects_mismatched_projects(self):
        recs, gt = self.evaluate_fixture()
        del recs["p2"]
        with pytest.raises(DataError):
            evaluate(recs, gt)

    def test_evaluate_rejects_empty_ground_truth(self):
        recs, gt = self.evaluate_fixture()
        gt["p2"] = []
        with pytest.raises(DataError):
            evaluate(recs, gt)

    def test_report_to_dict_shape(self):
        recs, gt = self.evaluate_fixture()
        d = evaluate(recs, gt).to_dict()
        assert set(d) == {"projects", "macro", "micro"}
        assert [p["project"] for p in d["projects"]] == ["p1", "p2"]
        assert set(d["macro"]) == {"precision", "recall", "f1"}
        assert d["projects"][0]["correct"] == 1


def scored(method_id, targets):
    """A recommendation that records its candidate targets; the random
    baseline reads nothing else of it."""
    return Recommendation(method_id, "Home", 0.2, NO_RECOMMENDATION, targets)


class TestRandomBaseline:
    def test_envy_shape_gives_two_sevenths(self):
        # 3 targets plus stay per method, original always reachable:
        # precision 1/3, recall 1/4, F1 = 2/7
        recs = {}
        gt = {}
        for proj in ("p1", "p2"):
            recs[proj] = [scored(f"{proj}/m{i}", ["T1", "T2", "T3"]) for i in range(3)]
            gt[proj] = [
                GroundTruthEntry(f"{proj}/m{i}", "T2", "Home") for i in range(3)
            ]
        assert analytic_random_baseline(recs, gt) == pytest.approx(2 / 7, abs=1e-12)

    def test_mixed_visibility_hand_computed(self):
        # e1: two options with the original reachable, e2: invisible.
        # Expected correct 1/2, recommended 1/2, precision 1, recall 1/4.
        recs = {"p": [scored("p/m1", ["T1"])]}
        gt = {
            "p": [
                GroundTruthEntry("p/m1", "T1", "Home"),
                GroundTruthEntry("p/m2", "T9", "Home"),
            ]
        }
        assert analytic_random_baseline(recs, gt) == pytest.approx(0.4, rel=1e-12)

    def test_unreachable_original_counts_against_precision(self):
        recs = {"p": [scored("p/m1", ["T1"])]}
        gt = {"p": [GroundTruthEntry("p/m1", "Elsewhere", "Home")]}
        assert analytic_random_baseline(recs, gt) == 0.0

    def test_rejects_empty_ground_truth(self):
        with pytest.raises(DataError):
            analytic_random_baseline({"p": []}, {"p": []})


# ---------------------------------------------------------------------------
# Classifier fitting and metrics


def blob_examples(n_per_side, seed, offset=3.0, scale=0.3):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_per_side):
        for label, sign in ((1, 1.0), (0, -1.0)):
            center = np.array([sign * offset, 0.0])
            values = center + scale * rng.standard_normal(2)
            out.append(
                LabeledExample(
                    FeatureVector(values, f"m{label}{i}", f"c{label}", "raw"), label
                )
            )
    return out


class TestFitClassifier:
    def test_linear_separable_blobs(self):
        train = blob_examples(20, seed=5)
        validate = blob_examples(6, seed=6)
        test = blob_examples(10, seed=7)
        config = RunConfig(seed=0, svm_c=10.0, svm_epochs=100, rff_enabled=False)
        pca, rff, svm_model, platt = fit_classifier(train, validate, config)
        assert rff is None
        bundle = toy_bundle()
        bundle.pca, bundle.svm_model, bundle.platt = pca, svm_model, platt
        metrics = classifier_metrics(bundle, test)
        assert metrics["accuracy"] == 1.0
        assert metrics["nll"] < 0.69
        assert metrics["count"] == len(test)

    def test_rff_separable_blobs(self):
        train = blob_examples(20, seed=15)
        validate = blob_examples(6, seed=16)
        test = blob_examples(10, seed=17)
        config = RunConfig(seed=0, svm_c=10.0, svm_epochs=100, rff_enabled=True, rff_dim=64)
        pca, rff, svm_model, platt = fit_classifier(train, validate, config)
        assert rff is not None
        assert svm_model.weights.shape == (64,)
        bundle = toy_bundle()
        bundle.pca, bundle.rff = pca, rff
        bundle.svm_model, bundle.platt = svm_model, platt
        metrics = classifier_metrics(bundle, test)
        assert metrics["accuracy"] == 1.0

    def test_metrics_reject_empty(self):
        with pytest.raises(DataError):
            classifier_metrics(toy_bundle(), [])


# ---------------------------------------------------------------------------
# Bundle persistence


def fitted_bundle(with_rff):
    rng = np.random.default_rng(3)
    train = blob_examples(15, seed=25)
    validate = blob_examples(5, seed=26)
    config = RunConfig(seed=2, threshold=0.7, max_length=7, max_contexts=150, svm_epochs=60,
                       rff_enabled=with_rff, rff_dim=16, token_dim=2, path_dim=2, code_dim=1)
    pca, rff, svm_model, platt = fit_classifier(train, validate, config)
    # code vectors of width 1, so that pairs are as wide as the blobs
    embedder = EmbedderParams(
        token_matrix=rng.standard_normal((3, 2)),
        path_matrix=rng.standard_normal((2, 2)),
        fc_matrix=rng.standard_normal((6, 1)),
        fc_bias=rng.standard_normal(1),
        attention_vector=rng.standard_normal(1),
        output_matrix=rng.standard_normal((1, 2)),
    )
    vocabs = Vocabularies(
        {UNK: 0, "left": 1, "right": 2},
        {UNK: 0, "Name↑Plus↓Name": 1},
        {"alpha": 0, "beta": 1},
    )
    return ModelBundle(embedder, vocabs, pca, svm_model, platt, rff, config)


class TestBundlePersistence:
    @pytest.mark.parametrize("with_rff", [False, True])
    def test_round_trip(self, tmp_path, with_rff):
        bundle = fitted_bundle(with_rff)
        path = tmp_path / "model.pmb"
        save_model_bundle(path, bundle)
        loaded = load_model_bundle(path)

        for key, original in bundle.embedder.grouped().items():
            assert np.array_equal(loaded.embedder.grouped()[key], original)
        assert loaded.vocabs.token_index == bundle.vocabs.token_index
        assert loaded.vocabs.path_index == bundle.vocabs.path_index
        assert loaded.vocabs.name_index == bundle.vocabs.name_index
        assert np.array_equal(loaded.pca.mean, bundle.pca.mean)
        assert np.array_equal(loaded.pca.components, bundle.pca.components)
        assert np.array_equal(loaded.svm_model.weights, bundle.svm_model.weights)
        assert loaded.svm_model.bias == bundle.svm_model.bias
        assert loaded.svm_model.hyperparams == bundle.svm_model.hyperparams
        assert loaded.platt == bundle.platt
        # the decision threshold is a run-time setting: not stored, so the default
        assert loaded.config == replace(bundle.config, threshold=RunConfig().threshold)
        if with_rff:
            assert np.array_equal(loaded.rff.omega, bundle.rff.omega)
            assert np.array_equal(loaded.rff.phases, bundle.rff.phases)
            assert loaded.rff.gamma == bundle.rff.gamma
        else:
            assert loaded.rff is None

        raw = np.random.default_rng(9).standard_normal((8, 2))
        assert np.array_equal(
            loaded.pair_probabilities(raw), bundle.pair_probabilities(raw)
        )

    def test_save_is_deterministic(self, tmp_path):
        bundle = fitted_bundle(True)
        save_model_bundle(tmp_path / "a.pmb", bundle)
        save_model_bundle(tmp_path / "b.pmb", bundle)
        assert (tmp_path / "a.pmb").read_bytes() == (tmp_path / "b.pmb").read_bytes()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda b: replace(b, platt=PlattParams(float("nan"), 0.0)), "array 'platt'"),
            (lambda b: replace(b, pca=replace(b.pca, mean=np.full(2, np.inf))),
             "array 'pca_mean'"),
            # code vectors of width 2 make pairs of width 4, but PCA takes 2
            (lambda b: replace(b, embedder=replace(
                b.embedder, fc_matrix=np.zeros((6, 2)), fc_bias=np.zeros(2),
                attention_vector=np.zeros(2), output_matrix=np.zeros((2, 2)))),
             "PCA input width"),
            (lambda b: replace(b, rff=replace(b.rff, omega=b.rff.omega[:, :-1])), "RFF map"),
            (lambda b: replace(b, rff=replace(b.rff, omega=np.vstack([b.rff.omega] * 2))),
             "RFF map"),
            (lambda b: replace(b, svm_model=replace(b.svm_model, weights=b.svm_model.weights[1:])),
             "SVM weights"),
        ],
        ids=["platt-nan", "pca-inf", "pca-width", "rff-phases", "rff-rows", "svm-width"],
    )
    def test_rejects_inconsistent_classifier(self, tmp_path, damage, message):
        path = tmp_path / "model.pmb"
        save_model_bundle(path, damage(fitted_bundle(True)))
        with pytest.raises(CorruptFileError, match=message):
            load_model_bundle(path)

    def test_rejects_wrong_kind(self, tmp_path):
        bundle = fitted_bundle(False)
        path = tmp_path / "embedder.pmb"
        save_model(bundle.embedder, bundle.vocabs, path)
        with pytest.raises(DataError):
            load_model_bundle(path)


# ---------------------------------------------------------------------------
# Recommendation serialization and grouping


class TestRecommendationIO:
    def sample(self):
        return {
            "eval/proj-04": [
                Recommendation("eval/proj-04/A.java::A::m/2", "B", 0.75, MOVE, ["B", "C"]),
                Recommendation("eval/proj-04/B.java::B::n/1", "B", 0.6, STAY, ["A"]),
            ],
            "eval/proj-05": [
                Recommendation(
                    "eval/proj-05/C.java::C::p/3", "C", 0.2, NO_RECOMMENDATION, ["A", "D"]
                ),
            ],
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        original = self.sample()
        write_recommendations(path, original)
        assert read_recommendations(path) == original

    def test_write_is_deterministic(self, tmp_path):
        write_recommendations(tmp_path / "a.jsonl", self.sample())
        write_recommendations(tmp_path / "b.jsonl", self.sample())
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        path.write_text('{"format": "dataset", "version": 1}\n')
        with pytest.raises(DataError):
            read_recommendations(path)

    def test_rejects_bad_row(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        write_recommendations(path, self.sample())
        path.write_text(path.read_text() + '{"project": "p"}\n')
        with pytest.raises(DataError):
            read_recommendations(path)

    def test_method_project(self):
        assert method_project("eval/proj-04/A.java::A::m/2") == "eval/proj-04"
        with pytest.raises(DataError):
            method_project("A.java::A::m/2")

    def test_group_ground_truth(self):
        entries = [
            GroundTruthEntry("eval/proj-04/A.java::A::m/2", "B", "A"),
            GroundTruthEntry("eval/proj-05/C.java::C::p/3", "D", "C"),
            GroundTruthEntry("eval/proj-04/B.java::B::n/1", "A", "B"),
        ]
        grouped = group_ground_truth(entries)
        assert sorted(grouped) == ["eval/proj-04", "eval/proj-05"]
        assert [e.moved_method_id for e in grouped["eval/proj-04"]] == [
            "eval/proj-04/A.java::A::m/2",
            "eval/proj-04/B.java::B::n/1",
        ]


# ---------------------------------------------------------------------------
# Line-delimited artifacts under corruption

VALID_GT = [
    GroundTruthEntry("eval/proj-01/A.java::A::m/1", "B", "A"),
    GroundTruthEntry("eval/proj-01/C.java::C::n/1", "A", "C"),
    GroundTruthEntry("eval/proj-02/D.java::D::p/2", "E", "D"),
]
VALID_RECS = {
    "eval/proj-01": [
        Recommendation("eval/proj-01/A.java::A::m/1", "B", 0.9, MOVE, ["B", "D"]),
        Recommendation("eval/proj-01/C.java::C::n/1", "C", 0.7, STAY, ["A"]),
    ],
    "eval/proj-02": [
        Recommendation("eval/proj-02/D.java::D::p/2", "D", 0.3, NO_RECOMMENDATION, ["E"]),
    ],
}
VALID_ROWS = [
    LabeledExample(FeatureVector(np.array([0.5, -1.0, 2.0]), e.moved_method_id, c, "raw"), y)
    for e, c, y in zip(VALID_GT, ("A", "B", "D"), (1, 0, 1))
]


def _stack_features(path):
    examples = read_dataset(path)
    if examples:  # a split may legitimately be empty
        np.stack([e.feature.values for e in examples])


LINE_ARTIFACTS = {
    "dataset": (lambda path: write_dataset(path, VALID_ROWS), _stack_features),
    "ground-truth": (
        lambda path: write_ground_truth(path, VALID_GT),
        lambda path: evaluate(VALID_RECS, group_ground_truth(read_ground_truth(path))),
    ),
    "recommendations": (
        lambda path: write_recommendations(path, VALID_RECS),
        lambda path: evaluate(read_recommendations(path), group_ground_truth(VALID_GT)),
    ),
}

JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["eval/proj-01/A.java::A::m/1", "A", MOVE, "nan", 0.5])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=5,
)


@st.composite
def corruptions(draw, text: str) -> str:
    """The text with one field replaced by an arbitrary JSON value, one
    line dropped or duplicated, or everything after some point cut."""
    lines = text.splitlines()
    how = draw(st.sampled_from(["field", "drop", "duplicate", "cut"]))
    if how == "cut":
        return text[: draw(st.integers(0, len(text) - 1))]
    i = draw(st.integers(0, len(lines) - 1))
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    else:
        row = json.loads(lines[i])
        row[draw(st.sampled_from(sorted(row)))] = draw(JSON_VALUES)
        lines[i] = json.dumps(row, sort_keys=True)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", sorted(LINE_ARTIFACTS))
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_line_readers_load_or_reject_corrupt_files(tmp_path_factory, kind, data):
    """Reading a corrupted artifact and using what was read either works
    or raises DataError, never another exception."""
    write, use = LINE_ARTIFACTS[kind]
    directory = tmp_path_factory.mktemp(kind)  # new files: truncating one may wait on a flush
    write(directory / "valid.jsonl")
    path = directory / "corrupt.jsonl"
    path.write_text(data.draw(corruptions((directory / "valid.jsonl").read_text())))
    try:
        use(path)
    except DataError:
        pass


# ---------------------------------------------------------------------------
# Corpus embedding helpers


class TestCorpusEmbedding:
    def test_samples_follow_source_order(self):
        units = parse_corpus(("Alpha.java", ALPHA_SRC), ("Beta.java", BETA_SRC))
        bags = corpus_bags(units, ExtractionLimits(8, 2, 200, 0))
        assert [bag.method_id for bag in bags] == [
            "Alpha.java::Alpha::getOre/0",
            "Alpha.java::Alpha::lift/2",
            "Beta.java::Beta::getMass/0",
            "Beta.java::Beta::churn/1",
        ]
        samples = training_samples(bags)
        assert [name for _, name in samples] == ["getOre", "lift", "getMass", "churn"]
        assert [bag for bag, _ in samples] == bags

    def test_embed_corpus_skips_empty_bodies(self):
        idle_alpha = ALPHA_SRC.replace(
            "int getOre() {\n        return ore;\n    }",
            "void idle() {\n    }",
        )
        units = parse_corpus(("Alpha.java", idle_alpha), ("Beta.java", BETA_SRC))
        bags = corpus_bags(units, ExtractionLimits(8, 2, 200, 0))
        samples = training_samples(bags)
        assert [name for _, name in samples] == ["idle", "lift", "getMass", "churn"]

        from pathmove.embed import TrainConfig, train_embedder

        vocabs, params, _ = train_embedder(
            samples,
            TrainConfig(d_t=4, d_p=4, d=8, epochs=1, batch_size=4, min_count=1),
        )
        vectors = embed_corpus(bags, params, vocabs)
        names = set()
        for unit in units:
            for cls in unit.classes:
                for method in cls.methods:
                    if method.id in vectors:
                        names.add(method.name)
        # the getter's lone leaf yields no pairs, so it drops out too
        assert names == {"lift", "churn"}


# ---------------------------------------------------------------------------
# End-to-end on a generated micro corpus


class TestRunPipeline:
    def micro_config(self):
        return RunConfig(
            seed=1,
            token_dim=8,
            path_dim=8,
            code_dim=16,
            epochs=2,
            batch_size=16,
            min_count=2,
            svm_epochs=60,
            rff_enabled=False,
        )

    def test_micro_run_shape_and_baseline(self, tmp_path):
        write_corpus(
            tmp_path,
            GenConfig(n_projects=3, eval_projects=1, min_classes=5, max_classes=5, seed=7),
        )
        result = run_pipeline(tmp_path, self.micro_config())

        assert set(result.recommendations) == {"eval/proj-02"}
        assert set(result.ground_truth) == {"eval/proj-02"}
        score = result.report.projects[0]
        assert score.project == "eval/proj-02"
        assert 5 <= score.n_ground_truth <= 10
        # every generated smell keeps the envy shape: 3 targets plus stay
        assert result.baseline_f1 == pytest.approx(2 / 7, abs=1e-12)
        n_train, n_test, n_validate = result.split_sizes
        assert min(n_train, n_test, n_validate) > 0
        assert len(result.loss_history) == 2
        assert 0.0 <= result.test_metrics["accuracy"] <= 1.0
        assert result.test_metrics["count"] == n_test

    def test_micro_run_is_deterministic(self, tmp_path):
        write_corpus(
            tmp_path,
            GenConfig(n_projects=3, eval_projects=1, min_classes=5, max_classes=5, seed=7),
        )
        first = run_pipeline(tmp_path, self.micro_config())
        second = run_pipeline(tmp_path, self.micro_config())
        assert first.report.to_dict() == second.report.to_dict()
        assert first.recommendations == second.recommendations
        assert first.ground_truth == second.ground_truth
        assert first.baseline_f1 == second.baseline_f1

    def test_each_method_is_extracted_once(self, tmp_path, monkeypatch):
        write_corpus(
            tmp_path,
            GenConfig(n_projects=3, eval_projects=1, min_classes=5, max_classes=5, seed=7),
        )
        calls = Counter()
        extract = pipeline.extract_contexts

        def counting(method, limits):
            calls[method.id] += 1
            return extract(method, limits)

        monkeypatch.setattr(pipeline, "extract_contexts", counting)
        run_pipeline(tmp_path, self.micro_config())
        assert any(m.startswith("train/") for m in calls)
        assert any(m.startswith("eval/") for m in calls)
        assert set(calls.values()) == {1}
