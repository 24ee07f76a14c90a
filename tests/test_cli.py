"""Command line behavior: config resolution, exit codes, artifact flow.

The stage-chain test drives every subcommand in-process on a micro
corpus and checks that reruns reproduce artifacts byte for byte, and
that the one-shot pipeline command writes the same files as the staged
path.
"""

from __future__ import annotations

import io
import json
import re
import struct
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmove import cli, pipeline
from pathmove.bundle import MAGIC, CorruptFileError, load_bundle, save_bundle
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


def rewrite_header(path, edit):
    """Apply `edit` to a bundle's parsed JSON header and write it back in
    front of the unchanged array bytes."""
    raw = path.read_bytes()
    start = len(MAGIC) + 12
    version, header_len = struct.unpack_from("<IQ", raw, len(MAGIC))
    header = json.loads(raw[start : start + header_len])
    edit(header)
    data = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[: len(MAGIC)] + struct.pack("<IQ", version, len(data)) + data
                     + raw[start + header_len :])


EXACT_SECTIONS = "settings must hold exactly the sections"


def add_random_features(meta, arrays, gamma):
    """Give a bundle trained without random features a feature map as
    wide as its SVM, with the given gamma."""
    meta["settings"]["rff"]["enabled"] = True
    arrays["rff_omega"] = np.ones((len(arrays["pca_evr"]), len(arrays["svm_weights"])))
    arrays["rff_phases"] = np.zeros(len(arrays["svm_weights"]))
    arrays["rff_gamma"] = np.array([gamma])


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

    def test_undecodable_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"seed": 1\xff}')
        assert main(["train-embed", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.json" in err
        assert "Traceback" not in err

    def test_undecodable_bags_file_is_data_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        base = ["--config", write_config(tmp_path)]
        assert main(["gen-corpus", *base, "--out", "corpus", "--projects", "3",
                     "--eval-projects", "1"]) == 0
        assert main(["extract", *base, "--corpus", "corpus"]) == 0
        capsys.readouterr()
        path = tmp_path / "work" / BAGS_FILE
        data = path.read_bytes()
        lead = next(i for i, byte in enumerate(data) if byte >= 0xC0)
        path.write_bytes(data[: lead + 1])  # ends inside a multi-byte character
        assert main(["train-embed", *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "decode" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("path", ["Name", "Name↓X↑Y", "Name↑X↑Y"])
    def test_impossible_path_in_bags_file_is_data_error(self, tmp_path, monkeypatch,
                                                        capsys, path):
        monkeypatch.chdir(tmp_path)
        base = ["--config", write_config(tmp_path)]
        assert main(["gen-corpus", *base, "--out", "corpus", "--projects", "3",
                     "--eval-projects", "1"]) == 0
        assert main(["extract", *base, "--corpus", "corpus"]) == 0
        capsys.readouterr()
        bags = tmp_path / "work" / BAGS_FILE
        lines = bags.read_text().splitlines()
        lines[1] += f"\tx,{path},y"
        bags.write_text("\n".join(lines) + "\n")
        assert main(["train-embed", *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{BAGS_FILE}:2:" in err
        assert "Traceback" not in err

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

    def test_dataset_row_of_other_width_is_data_error(self, tmp_path, monkeypatch,
                                                      capsys):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / DATASET_FILES["train"]
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row["feature"] = row["feature"][:-3]
        lines[1] = json.dumps(row, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert main(["train-clf", *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{DATASET_FILES['train']}:3:" in err
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

    @pytest.mark.parametrize(
        "name, key, value, command",
        [
            (RECOMMENDATIONS_FILE, "method_id", [1], ["evaluate", "--corpus", "mutated"]),
            (GROUND_TRUTH_FILE, "moved_method_id", 5, ["evaluate", "--corpus", "mutated"]),
            (RECOMMENDATIONS_FILE, "probability", "nan", ["evaluate", "--corpus", "mutated"]),
            (DATASET_FILES["train"], "class_id", None, ["train-clf"]),
        ],
    )
    def test_malformed_row_value_is_data_error(self, tmp_path, monkeypatch, capsys,
                                               name, key, value, command):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / name
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row[key] = value
        lines[1] = json.dumps(row, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert main([*command, *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{name}:2:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", [RECOMMENDATIONS_FILE, GROUND_TRUTH_FILE])
    def test_duplicated_rows_are_data_error(self, tmp_path, monkeypatch, capsys, name):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + lines[1:]) + "\n")
        assert main(["evaluate", *base, "--corpus", "mutated"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "more than once" in err
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

    @pytest.mark.parametrize(
        "name, pattern, replacement, command",
        [
            (MODEL_FILE, rb'("dtype":"\w+",)"name"', rb'\1"nbme"', ["recommend"]),
            (MODEL_FILE, rb'"shape":\[(\d+)\]', rb'"shape":\1  ', ["recommend"]),
            (EMBEDDER_FILE, rb'"dtype":', rb'"dtyp" :', ["build-dataset"]),
        ],
        ids=["entry-without-name", "scalar-shape", "entry-without-dtype"],
    )
    def test_malformed_array_directory_is_data_error(self, tmp_path, monkeypatch, capsys,
                                                     name, pattern, replacement, command):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / name
        raw = path.read_bytes()
        start = len(MAGIC) + 12
        _, header_len = struct.unpack_from("<IQ", raw, len(MAGIC))
        header = re.sub(pattern, replacement, raw[start : start + header_len], count=1)
        assert len(header) == header_len and header != raw[start : start + header_len]
        path.write_bytes(raw[:start] + header + raw[start + header_len :])
        assert main([*command, *base, "--corpus", "corpus"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, value", [("svm_bias", np.inf), ("platt", np.nan)],
                             ids=["svm-bias-inf", "platt-nan"])
    def test_out_of_range_model_metadata_fails_at_load(self, tmp_path, monkeypatch,
                                                       capsys, name, value):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / MODEL_FILE
        header, arrays = load_bundle(path, expect_kind="model")
        arrays[name][0] = value
        save_bundle(path, "model", header["meta"], arrays)
        with pytest.raises(CorruptFileError, match=f"non-finite values in array '{name}'"):
            load_model_bundle(path)
        assert main(["recommend", *base, "--corpus", "mutated"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and MODEL_FILE in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta, arrays: meta["settings"]["limits"].update(max_length=2.5),
             "limits.max_length must be an integer"),
            (lambda meta, arrays: meta["settings"].update(seed="x"), "seed must be an integer"),
            (lambda meta, arrays: meta["settings"]["svm"].update(epochs=2.5),
             "svm.epochs must be an integer"),
            (lambda meta, arrays: add_random_features(meta, arrays, gamma=-1.0),
             "rff_gamma -1.0 is not positive"),
            (lambda meta, arrays: meta.update(platt_converged="yes"),
             "platt_converged must be true or false"),
            # settings are exactly the training sections: none missing, none run-time
            (lambda meta, arrays: meta["settings"].pop("limits"), EXACT_SECTIONS),
            (lambda meta, arrays: meta["settings"]["limits"].pop("max_width"), EXACT_SECTIONS),
            (lambda meta, arrays: meta["settings"].update(threshold=0.5), EXACT_SECTIONS),
            (lambda meta, arrays: meta["settings"].update(work_dir="work"), EXACT_SECTIONS),
        ],
        ids=["max_length-float", "limits-seed-str", "svm-epochs-float", "rff_gamma-negative",
             "converged-str", "no-limits", "no-max-width", "threshold", "work_dir"],
    )
    def test_mistyped_model_settings_fail_at_load(self, tmp_path, monkeypatch, capsys,
                                                  edit, message):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / MODEL_FILE
        header, arrays = load_bundle(path, expect_kind="model")
        edit(header["meta"], arrays)
        save_bundle(path, "model", header["meta"], arrays)
        with pytest.raises(CorruptFileError, match=message):
            load_model_bundle(path)
        assert main(["recommend", *base, "--corpus", "mutated"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and MODEL_FILE in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, command", [(MODEL_FILE, ["recommend"]),
                                               (EMBEDDER_FILE, ["build-dataset"])],
                             ids=["model", "embedder"])
    def test_bundle_without_meta_is_data_error(self, tmp_path, monkeypatch, capsys, name,
                                               command):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        rewrite_header(tmp_path / "work" / name, lambda header: header.pop("meta"))
        assert main([*command, *base, "--corpus", "corpus"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and "meta" in err
        assert "Traceback" not in err

    def test_build_dataset_reads_extracted_bags(self, tmp_path, monkeypatch, capsys):
        base = self.run_stages(tmp_path, monkeypatch)
        work = tmp_path / "work"
        datasets = {name: (work / name).read_bytes() for name in DATASET_FILES.values()}

        def no_extraction(*args):
            raise AssertionError("build-dataset extracted the corpus again")

        monkeypatch.setattr(pipeline, "extract_contexts", no_extraction)
        assert main(["build-dataset", *base, "--corpus", "corpus"]) == 0
        for name, payload in datasets.items():
            assert (work / name).read_bytes() == payload, name

    @pytest.mark.parametrize("damage", ["missing-method", "foreign-project", "no-file"])
    def test_build_dataset_rejects_bags_of_other_methods(self, tmp_path, monkeypatch, capsys,
                                                          damage):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / BAGS_FILE
        lines = path.read_text().splitlines()
        if damage == "missing-method":
            path.write_text("\n".join(lines[:-1]) + "\n")
        elif damage == "foreign-project":
            path.write_text("\n".join([*lines, "train/proj-99/X.java::X::m/0"]) + "\n")
        else:
            path.unlink()
        assert main(["build-dataset", *base, "--corpus", "corpus"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and BAGS_FILE in err and "'extract'" in err
        assert "Traceback" not in err

    def test_recommend_threshold_flag_changes_decisions(self, tmp_path, monkeypatch, capsys):
        base = self.run_stages(tmp_path, monkeypatch)
        path = tmp_path / "work" / RECOMMENDATIONS_FILE

        def moves() -> int:
            return sum(json.loads(line).get("decision") == "Move"
                       for line in path.read_text().splitlines())

        default_moves = moves()
        assert main(["recommend", *base, "--corpus", "mutated", "--threshold", "0.95"]) == 0
        assert moves() < default_moves


# ---------------------------------------------------------------------------
# Corrupted bundles: exit 0 or 3, never 4, never a traceback

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)
CORRUPTION_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def finished_chain(tmp_path_factory):
    """A finished stage chain on the micro corpus: (root, common flags,
    the two bundles' bytes)."""
    root = tmp_path_factory.mktemp("chain")
    config = write_config(root)
    base = ["--config", config, "--work-dir", str(root / "work")]
    corpus = str(root / "corpus")
    with redirect_stdout(io.StringIO()):
        assert main(["gen-corpus", *base, "--out", corpus, "--projects", "3",
                     "--eval-projects", "1"]) == 0
        for command in (["extract", "--corpus", corpus], ["train-embed"],
                        ["build-dataset", "--corpus", corpus], ["train-clf"]):
            assert main([*command, *base]) == 0
        assert main(["inject", *base, "--corpus", corpus, "--out", str(root / "mutated")]) == 0
    blobs = {name: (root / "work" / name).read_bytes() for name in (MODEL_FILE, EMBEDDER_FILE)}
    return root, base, blobs


# The stage that loads each bundle and runs what is in it.
LOADING_STAGE = {MODEL_FILE: ["recommend", "--corpus", "mutated"],
                 EMBEDDER_FILE: ["build-dataset", "--corpus", "corpus"]}


def run_on_corrupt(chain, name: str, blob: bytes) -> None:
    root, base, _ = chain
    (root / "work" / name).write_bytes(blob)
    command, flag, corpus = LOADING_STAGE[name]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([command, *base, flag, str(root / corpus)])
    assert code in (0, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("error:")


@pytest.mark.parametrize("name", [MODEL_FILE, EMBEDDER_FILE])
class TestCorruptBundles:
    @CORRUPTION_SETTINGS
    @given(position=st.integers(min_value=0), mask=st.integers(1, 255))
    def test_flipped_byte(self, finished_chain, name, position, mask):
        blob = bytearray(finished_chain[2][name])
        blob[position % len(blob)] ^= mask
        run_on_corrupt(finished_chain, name, bytes(blob))

    @CORRUPTION_SETTINGS
    @given(keep=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncation(self, finished_chain, name, keep):
        blob = finished_chain[2][name]
        run_on_corrupt(finished_chain, name, blob[: int(keep * len(blob))])

    @CORRUPTION_SETTINGS
    @given(data=st.data())
    def test_header_value_replaced_or_removed(self, finished_chain, name, data):
        root = finished_chain[0]
        path = root / "work" / name
        path.write_bytes(finished_chain[2][name])

        def edit(header):
            # Walk down from the root, stopping at a random depth.
            node, key = header, data.draw(st.sampled_from(sorted(header)))
            while isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
                node = node[key]
                keys = sorted(node) if isinstance(node, dict) else range(len(node))
                key = data.draw(st.sampled_from(keys))
            if data.draw(st.booleans()):
                del node[key]
            else:
                node[key] = data.draw(JSON_VALUES)

        rewrite_header(path, edit)
        run_on_corrupt(finished_chain, name, path.read_bytes())
