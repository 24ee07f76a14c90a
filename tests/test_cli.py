"""Command line behavior: config resolution, exit codes, artifact flow.

The stage-chain test drives every subcommand in-process on a micro
corpus and checks that reruns reproduce artifacts byte for byte, and
that the one-shot pipeline command writes the same files as the staged
path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from pathmove import cli
from pathmove.bundle import CorruptFileError, load_bundle, save_bundle
from pathmove.cli import (
    BAGS_FILE,
    CONFIG_ENV,
    DATASET_FILES,
    EMBEDDER_FILE,
    GROUND_TRUTH_FILE,
    MODEL_FILE,
    RECOMMENDATIONS_FILE,
    REPORT_FILE,
    build_parser,
    main,
    resolve_config,
)
from pathmove.pipeline import load_model_bundle


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)


MICRO_CONFIG = {
    "seed": 3,
    "embedder": {
        "token_dim": 8,
        "path_dim": 8,
        "code_dim": 16,
        "epochs": 2,
        "batch_size": 16,
    },
    "svm": {"epochs": 60},
    "rff": {"enabled": False},
}


def write_config(tmp_path, extra=None, name="config.json"):
    data = dict(MICRO_CONFIG)
    if extra:
        data = {**data, **extra}
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigResolution:
    def parse(self, argv):
        return build_parser().parse_args(argv)

    def test_defaults_without_any_source(self):
        config = resolve_config(self.parse(["train-embed"]))
        assert config.seed == 0
        assert config.work_dir == "work"

    def test_flag_config_file(self, tmp_path):
        path = write_config(tmp_path)
        config = resolve_config(self.parse(["train-embed", "--config", path]))
        assert config.seed == 3
        assert config.code_dim == 16

    def test_environment_config_file(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        monkeypatch.setenv(CONFIG_ENV, path)
        config = resolve_config(self.parse(["train-embed"]))
        assert config.seed == 3

    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CONFIG_ENV, write_config(tmp_path, {"seed": 5}))
        flag = write_config(tmp_path, {"seed": 8}, name="other.json")
        config = resolve_config(self.parse(["train-embed", "--config", flag]))
        assert config.seed == 8

    def test_cli_overrides_beat_file(self, tmp_path):
        path = write_config(tmp_path)
        config = resolve_config(
            self.parse(
                [
                    "train-embed",
                    "--config",
                    path,
                    "--seed",
                    "42",
                    "--threshold",
                    "0.7",
                    "--work-dir",
                    "elsewhere",
                ]
            )
        )
        assert config.seed == 42
        assert config.threshold == 0.7
        assert config.work_dir == "elsewhere"
        assert config.code_dim == 16

    def test_bad_override_is_config_error(self, tmp_path, capsys):
        assert main(["train-embed", "--threshold", "1.5"]) == 2
        assert "threshold" in capsys.readouterr().err


class TestParserBasics:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("gen-corpus", "extract", "train-embed", "build-dataset",
                        "train-clf", "inject", "recommend", "evaluate", "pipeline"):
            assert command in out

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestExitCodes:
    def test_missing_corpus_is_data_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["extract", "--corpus", "nowhere"]) == 3
        assert "train" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["train-embed", "--config", str(path)]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for data in ({"sedd": 1}, {"jobs": 1}):
            path.write_text(json.dumps(data))
            assert main(["train-embed", "--config", str(path)]) == 2
            assert "unknown config key" in capsys.readouterr().err

    def test_unexpected_exception_is_internal_error(self, monkeypatch, capsys):
        def boom(args, config):
            raise RuntimeError("stage exploded")

        monkeypatch.setattr(cli, "cmd_evaluate", boom)
        assert main(["evaluate", "--corpus", "anywhere"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "stage exploded" in err
        assert "Traceback" not in err

    def test_gen_corpus_rejects_bad_shape(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["gen-corpus", "--out", "corpus", "--projects", "2",
                     "--eval-projects", "2"])
        assert code == 2

    def test_stage_order_is_enforced(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["train-embed"]) == 3
        assert "extract" in capsys.readouterr().err
        assert main(["train-clf"]) == 3
        err = capsys.readouterr().err
        assert "train-embed" in err or "build-dataset" in err
        assert main(["recommend", "--corpus", "anywhere"]) == 3
        assert "train-clf" in capsys.readouterr().err
        assert main(["evaluate", "--corpus", "anywhere"]) == 3
        assert "recommend" in capsys.readouterr().err


class TestStageChain:
    def run_stages(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path)
        base = ["--config", config]
        assert main(["gen-corpus", *base, "--out", "corpus", "--projects", "3",
                     "--eval-projects", "1", "--min-classes", "5",
                     "--max-classes", "5"]) == 0
        assert main(["extract", *base, "--corpus", "corpus"]) == 0
        assert main(["train-embed", *base]) == 0
        assert main(["build-dataset", *base, "--corpus", "corpus"]) == 0
        assert main(["train-clf", *base]) == 0
        assert main(["inject", *base, "--corpus", "corpus", "--out", "mutated"]) == 0
        assert main(["recommend", *base, "--corpus", "mutated"]) == 0
        assert main(["evaluate", *base, "--corpus", "mutated"]) == 0
        return base

    def test_artifacts_and_reruns(self, tmp_path, monkeypatch, capsys):
        base = self.run_stages(tmp_path, monkeypatch)
        work = tmp_path / "work"
        expected = {BAGS_FILE, EMBEDDER_FILE, MODEL_FILE, GROUND_TRUTH_FILE,
                    RECOMMENDATIONS_FILE, REPORT_FILE, *DATASET_FILES.values()}
        assert {p.name for p in work.iterdir()} == expected

        report = json.loads((work / REPORT_FILE).read_text())
        assert set(report) == {"baseline", "report"}
        assert report["report"]["projects"][0]["project"] == "eval/proj-02"
        assert 0.0 < report["baseline"]["macro_f1"] < 1.0

        before = {name: (work / name).read_bytes()
                  for name in (RECOMMENDATIONS_FILE, REPORT_FILE)}
        assert main(["recommend", *base, "--corpus", "mutated"]) == 0
        assert main(["evaluate", *base, "--corpus", "mutated"]) == 0
        for name, payload in before.items():
            assert (work / name).read_bytes() == payload

    def test_pipeline_matches_staged_run(self, tmp_path, monkeypatch, capsys):
        base = self.run_stages(tmp_path, monkeypatch)
        assert main(["pipeline", *base, "--work-dir", "work2",
                     "--corpus", "corpus"]) == 0
        for name in (MODEL_FILE, GROUND_TRUTH_FILE, RECOMMENDATIONS_FILE):
            staged = (tmp_path / "work" / name).read_bytes()
            oneshot = (tmp_path / "work2" / name).read_bytes()
            assert staged == oneshot, name

        staged_report = json.loads((tmp_path / "work" / REPORT_FILE).read_text())
        oneshot_report = json.loads((tmp_path / "work2" / REPORT_FILE).read_text())
        assert oneshot_report["report"] == staged_report["report"]
        assert oneshot_report["baseline"] == staged_report["baseline"]
        assert set(oneshot_report) == {"baseline", "classifier", "report", "split"}

    def test_dataset_row_without_feature_is_data_error(self, tmp_path, monkeypatch,
                                                      capsys):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / DATASET_FILES["train"]
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        del row["feature"]
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        assert main(["train-clf", *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "feature" in err
        assert "Traceback" not in err

    def test_non_json_ground_truth_line_is_data_error(self, tmp_path, monkeypatch,
                                                      capsys):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / GROUND_TRUTH_FILE
        lines = path.read_text().splitlines()
        lines[1] = "not json"
        path.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", *base, "--corpus", "mutated"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and GROUND_TRUTH_FILE in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("damage", ["nan", "truncated"])
    def test_corrupt_svm_weights_fail_at_load(self, tmp_path, monkeypatch, capsys,
                                              damage):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / MODEL_FILE
        header, arrays = load_bundle(path, expect_kind="model")
        weights = arrays["svm_weights"]
        if damage == "nan":
            weights[0] = np.nan
        else:
            arrays["svm_weights"] = weights[:-1]
        save_bundle(path, "model", header["meta"], arrays)
        with pytest.raises(CorruptFileError, match="svm_weights|SVM weights"):
            load_model_bundle(path)
        assert main(["recommend", *base, "--corpus", "mutated"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and MODEL_FILE in err
        assert "Traceback" not in err
