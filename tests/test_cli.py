"""Command line behavior: config resolution, exit codes, artifact flow.

The stage-chain test drives every subcommand in-process on a micro
corpus and checks that reruns reproduce artifacts byte for byte, and
that the one-shot pipeline command writes the same files as the staged
path.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmove import cli, pipeline
from pathmove.bundle import MAGIC, VERSION, load_bundle, save_bundle
from pathmove.cli import (
    BAGS_FILE,
    DATASET_FILE,
    EMBEDDER_FILE,
    GROUND_TRUTH_FILE,
    MODEL_FILE,
    RECOMMENDATIONS_FILE,
    REPORT_FILE,
    build_parser,
    main,
    resolve_config,
)
from pathmove.codegen import load_project
from pathmove.errors import DataError
from pathmove.frontend import split_method_id
from pathmove.injector import find_movable, read_ground_truth
from pathmove.pathctx import ContextBag, dump_bags, load_bags
from pathmove.pipeline import f1_score, load_model_bundle


def home(row: dict) -> str:
    """The class that an artifact row's method id names."""
    return split_method_id(row.get("method_id") or row["moved_method_id"])[1]


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
    "rff": {"dim": 32},
}


def rewrite_header(path, edit, retext=lambda text: text):
    """Apply `edit` to a bundle's parsed JSON header, then `retext` to its
    JSON text, and write it back in front of the unchanged array bytes."""
    raw = path.read_bytes()
    start = len(MAGIC) + 12
    version, header_len = struct.unpack_from("<IQ", raw, len(MAGIC))
    header = json.loads(raw[start : start + header_len])
    edit(header)
    data = retext(json.dumps(header, sort_keys=True, separators=(",", ":"))).encode()
    path.write_bytes(raw[: len(MAGIC)] + struct.pack("<IQ", version, len(data)) + data
                     + raw[start + header_len :])


EXACT_SECTIONS = "settings must hold exactly the sections"


def tree_bytes(root):
    """Every file under root, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


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

    def extract(self, tmp_path, monkeypatch, capsys):
        """gen-corpus and extract a 3/1 corpus in tmp_path: the config
        arguments, the bags file and its lines."""
        monkeypatch.chdir(tmp_path)
        base = ["--config", write_config(tmp_path)]
        assert main(["gen-corpus", *base, "--out", "corpus", "--projects", "3",
                     "--eval-projects", "1"]) == 0
        assert main(["extract", *base, "--corpus", "corpus"]) == 0
        capsys.readouterr()
        bags = tmp_path / "work" / BAGS_FILE
        return base, bags, bags.read_text(encoding="utf-8").splitlines()

    def test_undecodable_bags_file_is_data_error(self, tmp_path, monkeypatch, capsys):
        base, bags, _ = self.extract(tmp_path, monkeypatch, capsys)
        # ends inside a multi-byte character
        bags.write_bytes(bags.read_bytes() + "↑".encode("utf-8")[:2])
        assert main(["train-embed", *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "decode" in err and BAGS_FILE in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("path", ["Name", "Name↓X↑Y", "Name↑X↑Y"])
    def test_impossible_path_in_bags_file_is_data_error(self, tmp_path, monkeypatch,
                                                        capsys, path):
        base, bags, lines = self.extract(tmp_path, monkeypatch, capsys)
        header = json.loads(lines[0])
        header["paths"].append(path)
        lines[1] += f"\t0,{len(header['paths']) - 1},0"
        lines[0] = json.dumps(header, ensure_ascii=False, sort_keys=True)
        bags.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["train-embed", *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{BAGS_FILE}:1: malformed entry" in err
        assert repr(path) in err and "Traceback" not in err

    def test_bags_file_cut_at_a_line_boundary_is_data_error(self, tmp_path, monkeypatch,
                                                            capsys):
        """train-embed would otherwise train on the methods that are left."""
        base, bags, lines = self.extract(tmp_path, monkeypatch, capsys)
        bags.write_text("\n".join(lines[: len(lines) // 2]) + "\n", encoding="utf-8")
        assert main(["train-embed", *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{BAGS_FILE}:1: the header counts" in err
        assert "run 'extract' again" in err and "Traceback" not in err

    def test_repeated_method_in_bags_file_names_both_lines(self, tmp_path, monkeypatch,
                                                           capsys):
        base, bags, lines = self.extract(tmp_path, monkeypatch, capsys)
        header = json.loads(lines[0])
        header["methods"] += 1
        lines[0] = json.dumps(header, ensure_ascii=False, sort_keys=True)
        lines.append(lines[3])
        bags.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["train-embed", *base]) == 3
        err = capsys.readouterr().err
        assert f"{BAGS_FILE}:{len(lines)}: method " in err and "repeats line 4" in err
        assert "Traceback" not in err

    def test_bags_file_of_the_old_layout_asks_for_extract(self, tmp_path, monkeypatch, capsys):
        """Before the header, each cell spelled out `start,path,end`."""
        base, bags, lines = self.extract(tmp_path, monkeypatch, capsys)
        header = json.loads(lines[0])
        tokens, paths = header["tokens"], header["paths"]
        old = []
        for line in lines[1:]:
            method_id, *cells = line.split("\t")
            for k, cell in enumerate(cells):
                start, path, end = map(int, cell.split(","))
                cells[k] = f"{tokens[start]},{paths[path]},{tokens[end]}"
            old.append("\t".join([method_id, *cells]))
        bags.write_text("\n".join(old) + "\n", encoding="utf-8")
        assert main(["train-embed", *base]) == 3
        err = capsys.readouterr().err
        assert f"{BAGS_FILE}:1: expected a version-2 bags header" in err
        assert "run 'extract' again" in err and "Traceback" not in err

    def test_bad_method_id_on_a_later_line_names_that_line(self, tmp_path, monkeypatch,
                                                           capsys):
        base, bags, lines = self.extract(tmp_path, monkeypatch, capsys)
        lines[-1] = "\t".join(["garbage", *lines[-1].split("\t")[1:]])
        bags.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["train-embed", *base]) == 3
        err = capsys.readouterr().err
        assert f"{BAGS_FILE}:{len(lines)}: " in err and "garbage" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train-embed", "build-dataset"])
    @pytest.mark.parametrize(
        "method_id", ["garbage", "train/proj-00/A.java::A::f/x", "Top.java::Top::f/1"]
    )
    def test_bad_method_id_in_bags_file_names_its_line(self, tmp_path, monkeypatch, capsys,
                                                        command, method_id):
        """An id that does not parse or sits in no project directory."""
        base, bags, lines = self.extract(tmp_path, monkeypatch, capsys)
        assert main(["train-embed", *base]) == 0
        capsys.readouterr()
        lines[1] = "\t".join([method_id, *lines[1].split("\t")[1:]])
        bags.write_text("\n".join(lines) + "\n")
        corpus = ["--corpus", "corpus"] if command == "build-dataset" else []
        assert main([command, *base, *corpus]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{BAGS_FILE}:2: " in err and method_id in err
        assert "Traceback" not in err

    def test_dataset_of_another_code_width_asks_for_build_dataset(self, tmp_path, monkeypatch,
                                                                  capsys):
        """An embedder retrained at another code width after build-dataset:
        train-clf refuses the stale pairs instead of writing a model that
        recommend then rejects."""
        monkeypatch.chdir(tmp_path)
        base = ["--config", write_config(tmp_path)]
        assert main(["gen-corpus", *base, "--out", "corpus", "--projects", "3",
                     "--eval-projects", "1"]) == 0
        assert main(["extract", *base, "--corpus", "corpus"]) == 0
        assert main(["train-embed", *base]) == 0
        assert main(["build-dataset", *base, "--corpus", "corpus"]) == 0
        narrow = {"embedder": {**MICRO_CONFIG["embedder"], "code_dim": 8}}
        narrow_base = ["--config", write_config(tmp_path, narrow, name="narrow.json")]
        assert main(["train-embed", *narrow_base]) == 0
        capsys.readouterr()
        assert main(["train-clf", *narrow_base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and DATASET_FILE in err and "'build-dataset'" in err
        assert "32 wide" in err and "Traceback" not in err
        assert not (tmp_path / "work" / MODEL_FILE).exists()

    def test_split_without_test_rows_is_data_error(self, tmp_path, monkeypatch, capsys):
        """One small training project whose methods each hold more rows
        than the test quota: no test or validation split can be filled."""
        monkeypatch.chdir(tmp_path)
        base = ["--config", write_config(tmp_path), "--seed", "1"]
        assert main(["gen-corpus", *base, "--out", "corpus", "--projects", "2",
                     "--eval-projects", "1", "--min-classes", "4", "--max-classes", "4"]) == 0
        assert main(["extract", *base, "--corpus", "corpus"]) == 0
        assert main(["train-embed", *base]) == 0
        capsys.readouterr()
        for command in ("build-dataset", "pipeline"):
            assert main([command, *base, "--corpus", "corpus"]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error:") and "test or validation split empty" in err
            assert "Traceback" not in err

    def test_negative_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        base = ["--config", write_config(tmp_path)]
        assert main(["gen-corpus", *base, "--out", "corpus", "--projects", "3",
                     "--eval-projects", "1"]) == 0
        capsys.readouterr()
        assert main(["extract", *base, "--corpus", "corpus", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err
        assert not (tmp_path / "work" / BAGS_FILE).exists()

    def test_gen_corpus_refuses_a_non_empty_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        shape = ["--out", "mix", "--projects", "6", "--eval-projects", "2"]
        assert main(["gen-corpus", *shape, "--seed", "1"]) == 0
        before = tree_bytes(tmp_path / "mix")
        capsys.readouterr()
        assert main(["gen-corpus", *shape, "--seed", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "mix" in err
        assert tree_bytes(tmp_path / "mix") == before

    def test_inject_refuses_a_non_empty_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-corpus", "--out", "corpus", "--projects", "3",
                     "--eval-projects", "1"]) == 0
        (tmp_path / "mutated").mkdir()
        (tmp_path / "mutated" / "stale.java").write_text("class Stale {}\n")
        capsys.readouterr()
        assert main(["inject", "--corpus", "corpus", "--out", "mutated"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "mutated" in err
        assert tree_bytes(tmp_path / "mutated") == {"stale.java": b"class Stale {}\n"}
        assert not (tmp_path / "work").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for data in ({"sedd": 1}, {"jobs": 1}):
            path.write_text(json.dumps(data))
            assert main(["train-embed", "--config", str(path)]) == 2
            assert "unknown config key" in capsys.readouterr().err

    def test_removed_limits_section_is_config_error(self, tmp_path, capsys):
        # the extraction limits are fixed; a config that sets them is refused
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"limits": {"max_length": 8, "max_width": 2,
                                               "max_contexts": 200}}))
        assert main(["train-embed", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown config key 'limits'" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"threshold": 1%s}' % ("0" * 400), "threshold"),
            ('{"threshold": -1%s}' % ("0" * 400), "threshold"),
            # beyond the digit limit of Python's int parser
            ('{"seed": 1%s}' % ("0" * 5000), "not valid JSON"),
        ],
        ids=["threshold", "negative-threshold", "too-many-digits"],
    )
    def test_integer_beyond_float_range_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                        text, message):
        # no bags-train.tsv: the config must fail before train-embed looks for one
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.json").write_text(text)
        assert main(["train-embed", "--config", "big.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

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


def test_text_files_are_utf8_under_an_ascii_locale(tmp_path):
    """extract writes path arrows and inject copies a non-ASCII string
    literal, in a process whose locale prefers ASCII."""
    assert main(["gen-corpus", "--out", str(tmp_path / "corpus"), "--projects", "3",
                 "--eval-projects", "1"]) == 0
    source = min((tmp_path / "corpus" / "eval").rglob("*.java"))
    text = source.read_text(encoding="utf-8").rstrip()
    source.write_text(text[:-1] + '    String motto() {\n        return "café ↑";\n    }\n}\n',
                      encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv in (["extract", "--corpus", "corpus"],
                 ["inject", "--corpus", "corpus", "--out", "mutated"]):
        proc = subprocess.run([sys.executable, "-m", "pathmove.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert "↑" in (tmp_path / "work" / BAGS_FILE).read_text(encoding="utf-8")
    mutated = tmp_path / "mutated" / source.relative_to(tmp_path / "corpus")
    assert '"café ↑"' in mutated.read_text(encoding="utf-8")


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
                    RECOMMENDATIONS_FILE, REPORT_FILE, DATASET_FILE}
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
        for name in (MODEL_FILE, GROUND_TRUTH_FILE, RECOMMENDATIONS_FILE, REPORT_FILE):
            staged = (tmp_path / "work" / name).read_bytes()
            oneshot = (tmp_path / "work2" / name).read_bytes()
            assert staged == oneshot, name

    def test_unplantable_move_is_not_injected(self, tmp_path, monkeypatch, capsys):
        """Moving put into Target would make it a setter there, which no
        recommender scores and no move can undo.  inject plants nothing,
        so the project has no ground truth, and pipeline and evaluate
        both refuse it without writing a report."""
        base = self.run_stages(tmp_path, monkeypatch)
        eval_dir = tmp_path / "corpus" / "eval"
        shutil.rmtree(eval_dir)
        (eval_dir / "proj-x").mkdir(parents=True)
        (eval_dir / "proj-x" / "Origin.java").write_text(
            "class Origin {\n    int level;\n    int getLevel() {\n        return level;\n"
            "    }\n    void put(Target t, int v) {\n        t.count = v;\n    }\n}\n")
        (eval_dir / "proj-x" / "Target.java").write_text(
            "class Target {\n    int count;\n    int getCount() {\n        return count;\n"
            "    }\n}\n")
        work = tmp_path / "work"
        (work / REPORT_FILE).unlink()
        capsys.readouterr()
        assert main(["inject", *base, "--corpus", "corpus", "--out", "mutated2"]) == 0
        assert read_ground_truth(work / GROUND_TRUTH_FILE) == {}
        assert main(["recommend", *base, "--corpus", "mutated2"]) == 0
        assert main(["evaluate", *base, "--corpus", "mutated2"]) == 3
        assert main(["pipeline", *base, "--work-dir", "work2", "--corpus", "corpus"]) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 2 and err.count("eval/proj-x") == 2
        assert "Traceback" not in err
        assert not (work / REPORT_FILE).exists()
        assert not (tmp_path / "work2" / REPORT_FILE).exists()

    def test_project_without_candidates_is_left_out(self, tmp_path, monkeypatch, capsys):
        """proj-x has no method to move, so neither artifact holds a row
        for it: evaluate and pipeline both leave it out and write the
        report of the generated project alone."""
        base = self.run_stages(tmp_path, monkeypatch)
        work = tmp_path / "work"
        report = (work / REPORT_FILE).read_bytes()
        (tmp_path / "corpus" / "eval" / "proj-x").mkdir()
        (tmp_path / "corpus" / "eval" / "proj-x" / "Target.java").write_text(
            "class Target {\n    int count;\n    int getCount() {\n        return count;\n"
            "    }\n}\n")
        assert main(["inject", *base, "--corpus", "corpus", "--out", "mutated2"]) == 0
        assert main(["recommend", *base, "--corpus", "mutated2"]) == 0
        assert main(["evaluate", *base, "--corpus", "mutated2"]) == 0
        assert main(["pipeline", *base, "--work-dir", "work2", "--corpus", "corpus"]) == 0
        assert (work / REPORT_FILE).read_bytes() == report
        assert (tmp_path / "work2" / REPORT_FILE).read_bytes() == report

    def test_evaluate_reads_no_source(self, tmp_path, monkeypatch, capsys):
        base = self.run_stages(tmp_path, monkeypatch)
        report = (tmp_path / "work" / REPORT_FILE).read_bytes()
        for path in (tmp_path / "mutated").rglob("*.java"):
            path.unlink()
        assert main(["evaluate", *base, "--corpus", "mutated"]) == 0
        assert (tmp_path / "work" / REPORT_FILE).read_bytes() == report

    def test_baseline_counts_the_corpus_candidates(self, tmp_path, monkeypatch, capsys):
        """The baseline that evaluate takes from the recommendations'
        targets equals one taken from the mutated corpus's candidates."""
        self.run_stages(tmp_path, monkeypatch)
        truth = read_ground_truth(tmp_path / "work" / GROUND_TRUTH_FILE)
        f1s = []
        for project, entries in sorted(truth.items()):
            candidates = {c.method_id: c for c in find_movable(load_project("mutated", project))}
            exp_correct = exp_recommended = 0.0
            for entry in entries:
                cand = candidates.get(entry.moved_method_id)
                if cand is None:
                    continue
                options = len(cand.target_class_ids) + 1
                if entry.original_class_id in cand.target_class_ids:
                    exp_correct += 1.0 / options
                exp_recommended += (options - 1.0) / options
            precision = exp_correct / exp_recommended if exp_recommended else 0.0
            f1s.append(f1_score(precision, exp_correct / len(entries)))
        report = json.loads((tmp_path / "work" / REPORT_FILE).read_text())
        assert report["baseline"]["macro_f1"] == sum(f1s) / len(f1s)

    def test_ground_truth_project_missing_from_corpus(self, tmp_path, monkeypatch, capsys):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        shutil.copytree(tmp_path / "mutated", tmp_path / "other")
        (tmp_path / "other" / "eval" / "proj-02").rename(tmp_path / "other" / "eval" / "proj-09")
        assert main(["evaluate", *base, "--corpus", "other"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and GROUND_TRUTH_FILE in err and "eval/proj-02" in err
        assert "Traceback" not in err

    def test_dataset_row_without_feature_is_data_error(self, tmp_path, monkeypatch,
                                                      capsys):
        """A dataset bundle without its `class_halves` array."""
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / DATASET_FILE
        header, arrays = load_bundle(path, expect_kind="dataset")
        del arrays["class_halves"]
        save_bundle(path, "dataset", header["meta"], arrays)
        assert main(["train-clf", *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and DATASET_FILE in err and "class_halves" in err
        assert "Traceback" not in err

    def test_dataset_row_of_other_width_is_data_error(self, tmp_path, monkeypatch,
                                                      capsys):
        """Halves of unequal width do not make pairs: class halves three
        values narrower than the method halves."""
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / DATASET_FILE
        header, arrays = load_bundle(path, expect_kind="dataset")
        arrays["class_halves"] = arrays["class_halves"][:, 3:]
        save_bundle(path, "dataset", header["meta"], arrays)
        assert main(["train-clf", *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{DATASET_FILE}: bad dataset bundle" in err
        assert "Traceback" not in err

    def test_dataset_of_whole_pairs_asks_for_build_dataset(self, tmp_path, monkeypatch,
                                                          capsys):
        """A dataset.pmb from a version that stored each pair whole, in a
        `features` array."""
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / DATASET_FILE
        header, arrays = load_bundle(path, expect_kind="dataset")
        arrays["features"] = np.concatenate(
            [arrays.pop("method_halves")[arrays.pop("method_index")],
             arrays.pop("class_halves")[arrays.pop("class_index")]], axis=1)
        save_bundle(path, "dataset", header["meta"], arrays)
        assert main(["train-clf", *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and DATASET_FILE in err and "'features'" in err
        assert "run 'build-dataset' again" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta, arrays: meta["validate"][0].__setitem__(0, 7), "ids must be strings"),
            (lambda meta, arrays: meta["validate"].__setitem__(0, ["m", "c", "x"]),
             "list of \\[method_id, class_id\\]"),
            (lambda meta, arrays: arrays["labels"].__setitem__(0, 2), "label must be 0 or 1"),
            (lambda meta, arrays: meta["train"].pop(), "ids, features"),
            (lambda meta, arrays: meta.update(validate=[]), "non-empty list"),
        ],
        ids=["id-int", "id-triple", "label-2", "fewer-ids", "empty-split"],
    )
    def test_malformed_dataset_is_data_error(self, tmp_path, monkeypatch, capsys, edit,
                                             message):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / DATASET_FILE
        header, arrays = load_bundle(path, expect_kind="dataset")
        edit(header["meta"], arrays)
        save_bundle(path, "dataset", header["meta"], arrays)
        assert main(["train-clf", *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and DATASET_FILE in err
        assert re.search(message, err), err
        assert "Traceback" not in err

    def test_three_split_dataset_asks_for_build_dataset(self, tmp_path, monkeypatch, capsys):
        """A dataset.pmb from a version that also stored a test split,
        with its rows in train, test, validate order."""
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / DATASET_FILE
        header, arrays = load_bundle(path, expect_kind="dataset")
        meta = header["meta"]
        meta["test"] = meta["validate"]
        n_validate = len(meta["validate"])
        for name in ("method_index", "class_index", "labels"):
            arrays[name] = np.concatenate([arrays[name], arrays[name][-n_validate:]])
        save_bundle(path, "dataset", meta, arrays)
        assert main(["train-clf", *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and DATASET_FILE in err and "'test'" in err
        assert "run 'build-dataset' again" in err and "Traceback" not in err

    @pytest.mark.parametrize("split", ["train", "validate"])
    def test_dataset_split_of_one_label_asks_for_build_dataset(self, tmp_path, monkeypatch,
                                                               capsys, split):
        """Every pair of one split labeled 1: the SVM and Platt fits need
        both labels, so the loader refuses the file before either runs."""
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / DATASET_FILE
        header, arrays = load_bundle(path, expect_kind="dataset")
        n_train = len(header["meta"]["train"])
        arrays["labels"][slice(None, n_train) if split == "train" else slice(n_train, None)] = 1
        save_bundle(path, "dataset", header["meta"], arrays)
        assert main(["train-clf", *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and DATASET_FILE in err
        assert f"split '{split}' lacks label 0 or 1" in err
        assert "run 'build-dataset' again" in err and "Traceback" not in err

    def test_ground_truth_id_outside_a_project_is_data_error(self, tmp_path, monkeypatch,
                                                            capsys):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / GROUND_TRUTH_FILE
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row["moved_method_id"] = "A.java::A::m/1"
        lines[1] = json.dumps(row, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", *base, "--corpus", "mutated"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{GROUND_TRUTH_FILE}:2:" in err
        assert "project directory" in err and "Traceback" not in err

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
            (RECOMMENDATIONS_FILE, "target_class_ids", "A", ["evaluate", "--corpus", "mutated"]),
            (RECOMMENDATIONS_FILE, "target_class_ids", [1], ["evaluate", "--corpus", "mutated"]),
            (RECOMMENDATIONS_FILE, "target_class_ids", [], ["evaluate", "--corpus", "mutated"]),
            (RECOMMENDATIONS_FILE, "target_class_ids", ["B", "B"],
             ["evaluate", "--corpus", "mutated"]),
            # the header: a file written before rows recorded their targets
            (RECOMMENDATIONS_FILE, "version", 1, ["evaluate", "--corpus", "mutated"]),
            (RECOMMENDATIONS_FILE, "probability", "0.5", ["evaluate", "--corpus", "mutated"]),
            (RECOMMENDATIONS_FILE, "probability", True, ["evaluate", "--corpus", "mutated"]),
            # a project that is not the one the method id sits in
            (RECOMMENDATIONS_FILE, "project", "eval/proj-09", ["evaluate", "--corpus", "mutated"]),
            # rows that disagree with the class their own method id names;
            # a callable value gives the keys to update from the row
            (RECOMMENDATIONS_FILE, "best_class_id", "Nowhere",
             ["evaluate", "--corpus", "mutated"]),
            (RECOMMENDATIONS_FILE, "target_class_ids",
             lambda row: {"target_class_ids": sorted(row["target_class_ids"] + [home(row)])},
             ["evaluate", "--corpus", "mutated"]),
            (RECOMMENDATIONS_FILE, "decision",
             lambda row: {"decision": "Move", "best_class_id": home(row)},
             ["evaluate", "--corpus", "mutated"]),
            (RECOMMENDATIONS_FILE, "decision",
             lambda row: {"decision": "Stay", "best_class_id": row["target_class_ids"][0]},
             ["evaluate", "--corpus", "mutated"]),
            (GROUND_TRUTH_FILE, "injected_class_id",
             lambda row: {"injected_class_id": row["original_class_id"]},
             ["evaluate", "--corpus", "mutated"]),
            (GROUND_TRUTH_FILE, "original_class_id",
             lambda row: {"original_class_id": row["injected_class_id"]},
             ["evaluate", "--corpus", "mutated"]),
        ],
    )
    def test_malformed_row_value_is_data_error(self, tmp_path, monkeypatch, capsys,
                                               name, key, value, command):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / name
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if key in json.loads(line))
        row = json.loads(lines[i])
        if callable(value):
            row.update(value(row))
        else:
            row[key] = value
        lines[i] = json.dumps(row, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert main([*command, *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{name}:{i + 1}:" in err
        assert "Traceback" not in err

    # integers of more digits than Python's int parser takes (4,300)
    def test_oversized_integer_in_jsonl_header_is_data_error(self, tmp_path, monkeypatch,
                                                             capsys):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / RECOMMENDATIONS_FILE
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        lines[0] = json.dumps({**header, "version": 7777}).replace("7777", "1" + "0" * 5000)
        path.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", *base, "--corpus", "mutated"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{RECOMMENDATIONS_FILE}:1:" in err
        assert "Traceback" not in err

    def test_oversized_integer_in_bundle_header_is_data_error(self, tmp_path, monkeypatch,
                                                              capsys):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        rewrite_header(tmp_path / "work" / MODEL_FILE,
                       lambda header: header["meta"]["settings"].update(seed=7777),
                       lambda text: text.replace('"seed":7777', '"seed":1' + "0" * 5000))
        assert main(["recommend", *base, "--corpus", "mutated"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{MODEL_FILE}: unreadable header" in err
        assert "Traceback" not in err

    def test_header_only_artifacts_are_data_error(self, tmp_path, monkeypatch, capsys):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        for name in (RECOMMENDATIONS_FILE, GROUND_TRUTH_FILE):
            path = tmp_path / "work" / name
            path.write_text(path.read_text().splitlines()[0] + "\n")
        assert main(["evaluate", *base, "--corpus", "mutated"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no projects to evaluate" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "target, command",
        [
            ("corpus/train/proj-00", ["extract", "--corpus", "corpus"]),
            (f"work/{GROUND_TRUTH_FILE}", ["evaluate", "--corpus", "mutated"]),
        ],
        ids=["java", "jsonl"],
    )
    def test_non_utf8_input_names_the_file(self, tmp_path, monkeypatch, capsys,
                                           target, command):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / target
        if path.is_dir():
            path = min(path.glob("*.java"))
        path.write_bytes(path.read_bytes() + b"\xc0\xc1")
        assert main([*command, *base]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and path.name in err and "UTF-8" in err
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
        with pytest.raises(DataError, match="svm_weights|SVM weights"):
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

    @pytest.mark.parametrize(
        "name, array, edit, message, command",
        [
            (MODEL_FILE, "emb_attention_vector", lambda a: a[:-1], "has shape", ["recommend"]),
            (EMBEDDER_FILE, "attention_vector", lambda a: a[:-1], "has shape", ["build-dataset"]),
            # widened, and 1/3 has no float32 value, so the bundle stores
            # the array as float64
            (MODEL_FILE, "emb_fc_bias", lambda a: np.r_[1 / 3, a[1:].astype(np.float64)],
             "is stored as float64, not float32; run 'train-embed' again", ["recommend"]),
            (EMBEDDER_FILE, "fc_bias", lambda a: np.r_[1 / 3, a[1:].astype(np.float64)],
             "is stored as float64, not float32; run 'train-embed' again", ["build-dataset"]),
        ],
        ids=["model-attention", "embedder-attention", "model-wide", "embedder-wide"],
    )
    def test_unfit_embedder_array_fails_at_load(self, tmp_path, monkeypatch, capsys,
                                                name, array, edit, message, command):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / name
        kind = "model" if name == MODEL_FILE else "embedder"
        header, arrays = load_bundle(path, expect_kind=kind)
        arrays[array] = edit(arrays[array])
        save_bundle(path, kind, header["meta"], arrays)
        assert main([*command, *base, "--corpus", "corpus"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and f"'{array}' " in err
        assert message in err and "Traceback" not in err

    def test_bundles_store_no_name_head(self, tmp_path, monkeypatch, capsys):
        """Neither embedder bundle stores the name head; one that does, as
        older versions wrote it, still serves the stages with the same bytes."""
        base = self.run_stages(tmp_path, monkeypatch)
        work = tmp_path / "work"
        before = {name: (work / name).read_bytes() for name in (DATASET_FILE,
                                                                RECOMMENDATIONS_FILE)}
        for name, kind, prefix in ((EMBEDDER_FILE, "embedder", ""), (MODEL_FILE, "model", "emb_")):
            header, arrays = load_bundle(work / name, expect_kind=kind)
            assert "name_vocab" not in header["meta"]
            assert prefix + "output_matrix" not in arrays
            d = arrays[prefix + "fc_bias"].size
            arrays[prefix + "output_matrix"] = np.ones((d, 2), dtype=np.float32)
            save_bundle(work / name, kind, {**header["meta"], "name_vocab": ["f", "g"]}, arrays)
        assert main(["build-dataset", *base, "--corpus", "corpus"]) == 0
        assert main(["recommend", *base, "--corpus", "mutated"]) == 0
        assert {name: (work / name).read_bytes() for name in before} == before

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
        with pytest.raises(DataError, match=f"non-finite values in array '{name}'"):
            load_model_bundle(path)
        assert main(["recommend", *base, "--corpus", "mutated"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and MODEL_FILE in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta, arrays: meta["settings"]["embedder"].update(batch_size=2.5),
             "embedder.batch_size must be an integer"),
            (lambda meta, arrays: meta["settings"].update(seed="x"), "seed must be an integer"),
            (lambda meta, arrays: meta["settings"]["svm"].update(epochs=2.5),
             "svm.epochs must be an integer"),
            # models written by earlier versions: the linear path, and the
            # width overrides now always derived from the training split
            (lambda meta, arrays: meta["settings"]["rff"].update(gamma=None),
             "unknown config key rff.gamma"),
            (lambda meta, arrays: meta["settings"]["rff"].update(enabled=False),
             "rff.enabled must be true"),
            (lambda meta, arrays: meta["settings"].update(pca={"k": None,
                                                                "variance_threshold": 0.95}),
             "unknown config key 'pca'"),
            # models written while the extraction limits, the learning
            # rate, the PCA variance and svm.c were still settings
            (lambda meta, arrays: meta["settings"].update(
                limits={"max_length": 8, "max_width": 2, "max_contexts": 200}),
             "unknown config key 'limits'; run 'train-clf' again$"),
            (lambda meta, arrays: (
                meta["settings"].update(limits={"max_length": 8, "max_width": 2,
                                                "max_contexts": 200},
                                        pca={"variance_threshold": 0.95}),
                meta["settings"]["embedder"].update(learning_rate=0.001),
                meta["settings"]["svm"].update(c=10.0)),
             "unknown config key embedder.learning_rate; run 'train-clf' again$"),
            (lambda meta, arrays: meta.update(platt_converged="yes"),
             "platt_converged must be true or false"),
            # settings are exactly the training sections: none missing, none run-time
            (lambda meta, arrays: meta["settings"].pop("svm"), EXACT_SECTIONS),
            (lambda meta, arrays: meta["settings"]["svm"].pop("epochs"), EXACT_SECTIONS),
            (lambda meta, arrays: meta["settings"].update(threshold=0.5), EXACT_SECTIONS),
            (lambda meta, arrays: meta["settings"].update(work_dir="work"), EXACT_SECTIONS),
            (lambda meta, arrays: meta.pop("settings"),
             "predates the settings layout; run 'train-clf' again"),
            # settings must state the widths the arrays have
            (lambda meta, arrays: meta["settings"]["embedder"].update(token_dim=7),
             "settings embedder.token_dim 7"),
            (lambda meta, arrays: meta["settings"]["embedder"].update(path_dim=7),
             "settings embedder.path_dim 7"),
            (lambda meta, arrays: meta["settings"]["embedder"].update(code_dim=7),
             "settings embedder.code_dim 7"),
            # the map is rff.dim 32 wide
            (lambda meta, arrays: meta["settings"]["rff"].update(dim=256),
             "settings rff.dim 256"),
        ],
        ids=["batch_size-float", "limits-seed-str", "svm-epochs-float", "rff-gamma",
             "rff-disabled", "pca-k", "limits", "parent-settings", "converged-str", "no-svm",
             "no-svm-epochs", "threshold", "work_dir", "no-settings", "token_dim", "path_dim",
             "code_dim", "rff-dim"],
    )
    def test_mistyped_model_settings_fail_at_load(self, tmp_path, monkeypatch, capsys,
                                                  edit, message):
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / MODEL_FILE
        header, arrays = load_bundle(path, expect_kind="model")
        edit(header["meta"], arrays)
        save_bundle(path, "model", header["meta"], arrays)
        with pytest.raises(DataError, match=message):
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
        dataset = (work / DATASET_FILE).read_bytes()

        def no_extraction(*args):
            raise AssertionError("build-dataset extracted the corpus again")

        monkeypatch.setattr(pipeline, "extract_contexts", no_extraction)
        assert main(["build-dataset", *base, "--corpus", "corpus"]) == 0
        assert (work / DATASET_FILE).read_bytes() == dataset

    @pytest.mark.parametrize(
        "damage, message",
        [("missing-method", r"methods of train/proj-\d+ differ from the corpus's"),
         ("foreign-project", "train/proj-99 is not a training project of the corpus"),
         ("no-file", "missing artifact")],
        ids=["missing-method", "foreign-project", "no-file"],
    )
    def test_build_dataset_rejects_bags_of_other_methods(self, tmp_path, monkeypatch, capsys,
                                                          damage, message):
        """Well-formed bags that are not the corpus's: one method short, or
        one method of a project the corpus does not have."""
        base = self.run_stages(tmp_path, monkeypatch)
        capsys.readouterr()
        path = tmp_path / "work" / BAGS_FILE
        if damage == "no-file":
            path.unlink()
        else:
            bags = load_bags(path.read_text())
            if damage == "missing-method":
                bags = bags[:-1]
            else:
                bags.append(ContextBag("train/proj-99/X.java::X::m/0"))
            path.write_text(dump_bags(bags))
        assert main(["build-dataset", *base, "--corpus", "corpus"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and BAGS_FILE in err and "'extract'" in err
        assert re.search(message, err), err
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
    the bytes of each file the chain left in its work dir, by name)."""
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
    return root, base, {path.name: path.read_bytes() for path in (root / "work").iterdir()}


def restore_work(chain, work) -> None:
    """Make `work` hold exactly the files the chain left in its work dir,
    with their bytes, whatever a test or a stage has edited or added."""
    files = chain[2]
    work.mkdir(exist_ok=True)
    for path in work.iterdir():
        if path.name not in files:
            path.unlink()
    for name, payload in files.items():
        (work / name).write_bytes(payload)


# The stage that loads each bundle and runs what is in it, and the corpus
# directory it reads, if any.
LOADING_STAGE = {MODEL_FILE: ("recommend", "mutated"),
                 EMBEDDER_FILE: ("build-dataset", "corpus"),
                 DATASET_FILE: ("train-clf", None)}


def run_on_corrupt(chain, name: str, blob: bytes) -> str:
    """Run the loading stage with `blob` as `name` and every other file
    of the work dir as the chain left it; its standard error."""
    root, base, _ = chain
    restore_work(chain, root / "work")
    (root / "work" / name).write_bytes(blob)
    command, corpus = LOADING_STAGE[name]
    corpus_flag = ["--corpus", str(root / corpus)] if corpus else []
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([command, *base, *corpus_flag])
    assert code in (0, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("error:")
    return err.getvalue()


def test_damaged_bundle_version_names_the_file(finished_chain):
    blob = bytearray(finished_chain[2][MODEL_FILE])
    blob[len(MAGIC)] ^= 0x02  # the low byte of the format version
    err = run_on_corrupt(finished_chain, MODEL_FILE, bytes(blob))
    assert err.startswith("error:") and "bundle version 3" in err and MODEL_FILE in err


@pytest.mark.parametrize(
    "name, line",
    [("deep.json", None), (MODEL_FILE, None), (RECOMMENDATIONS_FILE, 0),
     (RECOMMENDATIONS_FILE, 1), (GROUND_TRUTH_FILE, 0), (GROUND_TRUTH_FILE, 1)],
    ids=["config", "bundle-header", "recommendations-header", "recommendations-row",
         "ground-truth-header", "ground-truth-row"],
)
def test_deeply_nested_json_is_malformed_input(finished_chain, tmp_path, name, line):
    """A JSON value nested too deeply to decode is malformed like any
    other: in a config it exits 2, in an artifact 3 naming the file and
    line, never 4."""
    root, base, _ = finished_chain
    work = tmp_path / "work"
    restore_work(finished_chain, work)
    deep = "[" * 100_000
    flags = [*base[:2], "--work-dir", str(work), "--corpus", str(root / "mutated")]
    if name == "deep.json":
        (tmp_path / name).write_text(deep)
        command = ["train-embed", "--config", str(tmp_path / name)]
        code, where = 2, f"{name} is not valid JSON"
    elif name == MODEL_FILE:
        (work / name).write_bytes(MAGIC + struct.pack("<IQ", VERSION, len(deep)) + deep.encode())
        command, code, where = ["recommend", *flags], 3, f"{name}: unreadable header"
    else:
        with redirect_stdout(io.StringIO()):
            assert main(["recommend", *flags]) == 0
        lines = (work / name).read_text().splitlines()
        lines[line] = deep
        (work / name).write_text("\n".join(lines) + "\n")
        command, code, where = ["evaluate", *flags], 3, f"{name}:{line + 1}:"
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(command) == code, err.getvalue()
    assert err.getvalue().startswith("error:") and where in err.getvalue()


@pytest.mark.parametrize("name", [MODEL_FILE, EMBEDDER_FILE, DATASET_FILE])
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
