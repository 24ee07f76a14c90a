"""Benchmark of pathmove's end-to-end loop, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's corpus from the seed with
`pathmove gen-corpus` several times and reports the median user CPU time.  The
timed part then runs whole rounds of the workload's commands, each in a
fresh process (perfbench/child.py, which calls `pathmove.cli.main`)
with the BLAS and OpenMP pools pinned to one thread, until the given
seconds have passed; at least one round always runs.  Outside the timed
part the outputs are checked (checks.py) and, on the stage path, compared
byte for byte with `pathmove pipeline` on the same corpus and config.

The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` (commands of the timed rounds) and `metrics`,
the end-to-end metrics with `--trace 0` and the per-layer metrics of
spans.py with `--trace 1`.  The exit code is 0 only when every command
succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
CHILD = Path(__file__).resolve().parent / "child.py"

# The acceptance suite's EXPERIMENT_CONFIG (tests/test_acceptance.py).
EXPERIMENT_CONFIG = {
    "seed": 0,
    "threshold": 0.5,
    "embedder": {"token_dim": 64, "path_dim": 64, "code_dim": 192, "epochs": 12,
                 "batch_size": 32, "min_count": 2},
    "rff": {"enabled": True, "dim": 256},
    "svm": {"epochs": 200},
}
THRESHOLD = 0.5  # the default, and the value in EXPERIMENT_CONFIG

# name -> (projects, held-out projects, config, path, training-corpus
# seed).  A training-corpus seed of None takes the training projects
# from --seed too; otherwise only the held-out projects vary with --seed.
# Why each workload exists is in README.md.
WORKLOADS = {
    "pipeline-80x20": (100, 20, {}, "pipeline", None),
    "stages-20x200": (220, 200, EXPERIMENT_CONFIG, "stages", 0),
}

SETUPS = 11
DEADLINE_S = 170.0  # the whole run, set-up and checks included
COMPARED = ("model.pmb", "recommendations.jsonl", "ground-truth.jsonl")
DIGESTED = ("model.pmb", "recommendations.jsonl", "report.json")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class CommandFailed(Exception):
    pass


class Runner:
    """Starts child processes and keeps the run's deadline."""

    def __init__(self, run_dir: Path, started: float):
        self.run_dir = run_dir
        self.started = started
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in BLAS_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.env.pop("PATHMOVE_CONFIG", None)
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def run(self, argv: list[str], trace: bool) -> tuple[float, dict]:
        """(wall seconds, child result) of one pathmove command."""
        self.count += 1
        tag = f"{self.count:03d}-{argv[0]}"
        result_path = self.run_dir / "logs" / f"{tag}.json"
        log_path = self.run_dir / "logs" / f"{tag}.log"
        cmd = [sys.executable, str(CHILD), str(result_path), "1" if trace else "0", "--"] + argv
        with open(log_path, "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            # wait() with a timeout polls in steps of up to 50 ms, which
            # would round every timing; a timer kills a late child instead.
            timer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        if code != 0 or not result_path.is_file():
            tail = log_path.read_text()[-2000:]
            raise CommandFailed(f"pathmove {' '.join(argv)} exited {code}:\n{tail}")
        return wall, json.loads(result_path.read_text())


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def dir_mb(root: Path) -> float:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) / 1e6


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _children_user_s() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime


def gen_corpus(runner: Runner, out: Path, projects: int, held_out: int, seed: int) -> None:
    runner.run(["gen-corpus", "--out", str(out), "--projects", str(projects),
                "--eval-projects", str(held_out), "--seed", str(seed)], trace=False)


def setup(runner: Runner, run_dir: Path, projects: int, held_out: int, seed: int,
          train_seed: int | None) -> tuple[float, Path, list[str]]:
    """Generate the corpus SETUPS times; (median user CPU seconds,
    corpus, problems).  User CPU time of the generating processes:
    interpreter start, imports, the generator and the Python side of
    the writes.  The system time of creating the same files on ext4
    moved threefold to twentyfold with the directory they landed in and
    with the hour, and wall time follows it, so neither is a measure of
    the program.  All but the last copy are removed at once: files
    removed before the kernel writes them back never reach the disk.

    With a training-corpus seed, the training projects come from a
    second, smaller corpus generated from that seed: project i depends
    only on the seed and i, so they are the projects that seed's full
    corpus would hold."""
    times, digests = [], set()
    for k in range(SETUPS):
        corpus = run_dir / f"corpus{k}"
        user0 = _children_user_s()
        gen_corpus(runner, corpus, projects, held_out, seed)
        if train_seed is not None:
            fixed = run_dir / "train-corpus"
            gen_corpus(runner, fixed, projects - held_out + 1, 1, train_seed)
            shutil.rmtree(corpus / "train")
            (fixed / "train").rename(corpus / "train")
            shutil.rmtree(fixed)
        times.append(_children_user_s() - user0)
        digests.add(tree_digest(corpus))
        if k < SETUPS - 1:
            shutil.rmtree(corpus)
    problems = [] if len(digests) == 1 else ["gen-corpus wrote different corpora for one seed"]
    return statistics.median(times), corpus, problems


def stage_commands(corpus: Path, work: Path, mutated: Path, config: Path) -> list[list[str]]:
    common = ["--config", str(config), "--work-dir", str(work)]
    return [
        ["extract", "--corpus", str(corpus)] + common,
        ["train-embed"] + common,
        ["build-dataset", "--corpus", str(corpus)] + common,
        ["train-clf"] + common,
        ["inject", "--corpus", str(corpus), "--out", str(mutated)] + common,
        ["recommend", "--corpus", str(mutated)] + common,
        ["evaluate", "--corpus", str(mutated)] + common,
    ]


def pipeline_command(corpus: Path, work: Path, config: Path) -> list[str]:
    return ["pipeline", "--corpus", str(corpus), "--config", str(config), "--work-dir", str(work)]


def run_round(runner: Runner, commands: list[list[str]], trace: bool) -> dict:
    wall, rss_kb, processes, missing, steps = 0.0, 0, [], set(), []
    cpu0 = _children_cpu_s()
    for argv in commands:
        seconds, result = runner.run(argv, trace)
        wall += seconds
        steps.append((argv[0], round(seconds, 3)))
        rss_kb = max(rss_kb, result["maxrss_kb"])
        processes.append(result["spans"])
        missing.update(result["missing"])
    cpu = _children_cpu_s() - cpu0
    print(f"round: wall {wall:.3f} s, cpu {cpu:.3f} s, {steps}", file=sys.stderr)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_kb * 1024 / 1e6, "processes": processes,
            "missing": sorted(missing)}


def ledger_problems(key: str, value: str) -> list[str]:
    """Compare with the digest an earlier run of the same workload, seed
    and program source recorded; record it if there is none."""
    path = OUT / "digests" / key
    if path.is_file():
        recorded = path.read_text()
        return [] if recorded == value else [f"artifacts differ from an earlier run ({key})"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(value)
    return []


def end_to_end(setup_s: float, rounds: list[dict], work: Path) -> dict:
    report = json.loads((work / "report.json").read_text())["report"]
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "work_dir_mb": (dir_mb(work), "MB"),
        "macro_f1": (report["macro"]["f1"], "ratio"),
        "micro_f1": (report["micro"]["f1"], "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def per_layer(rounds: list[dict]) -> dict:
    per_round = []
    for r in rounds:
        metrics = spans.layer_metrics(r["processes"], spans.missing_span_names(r["missing"]))
        metrics["trace.wall_s"] = {"value": r["wall_s"], "unit": "s"}
        per_round.append(metrics)
    out = {}
    for name, first in per_round[0].items():
        values = [m[name]["value"] for m in per_round]
        value = None if None in values else statistics.median(values)
        out[name] = {"value": value, "unit": first["unit"]}
    for name in rounds[0]["missing"]:
        print(f"missing: {name} no longer exists; its metrics are reported as null", file=sys.stderr)
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pathmove" / "cli.py").is_file():
        print(f"error: no pathmove sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    projects, held_out, config, path, train_seed = WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "logs").mkdir(parents=True)
    runner = Runner(run_dir, started)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config))
    trace = bool(args.trace)

    rounds, attempted, failed, problems = [], 0, 0, []
    try:
        setup_s, corpus, problems = setup(runner, run_dir, projects, held_out, args.seed, train_seed)
        measure_start = time.perf_counter()
        while True:
            i = len(rounds)
            work, mutated = run_dir / f"round{i}" / "work", run_dir / f"round{i}" / "mutated"
            if path == "pipeline":
                commands = [pipeline_command(corpus, work, config_path)]
            else:
                commands = stage_commands(corpus, work, mutated, config_path)
            attempted += len(commands)
            rounds.append(run_round(runner, commands, trace))
            rounds[-1]["digest"] = checks.digest(work, DIGESTED)
            elapsed = time.perf_counter() - measure_start
            # room for another round plus the identity check's pipeline run
            if elapsed >= args.seconds or runner.remaining() < 2.5 * rounds[-1]["wall_s"] + 10:
                break
            shutil.rmtree(work.parent)
        work = run_dir / f"round{len(rounds) - 1}" / "work"
        problems += checks.check_run(work, corpus, THRESHOLD)
        if len({r["digest"] for r in rounds}) != 1:
            problems.append("rounds of one run wrote different artifacts")
        source_digest = tree_digest(ROOT / "src" / "pathmove")[:16]
        problems += ledger_problems(f"{args.workload}-seed{args.seed}-{source_digest}", rounds[0]["digest"])
        if path == "stages":
            check_work = run_dir / "pipeline-check"
            runner.run(pipeline_command(corpus, check_work, config_path), trace=False)
            problems += checks.same_files(work, check_work, COMPARED)
            ours = json.loads((work / "report.json").read_text())
            theirs = json.loads((check_work / "report.json").read_text())
            if (ours["report"], ours["baseline"]) != (theirs["report"], theirs["baseline"]):
                problems.append("report.json scores differ between the stage path and pipeline")
        metrics = per_layer(rounds) if trace else end_to_end(setup_s, rounds, work)
    except CommandFailed as exc:
        failed = 1
        problems.append(str(exc))
        metrics = {}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems
    (run_dir / "result.json").write_text(json.dumps({"rounds": rounds, "problems": problems}, default=str))
    if correct:
        for done in (corpus, run_dir / "pipeline-check", work.parent):
            shutil.rmtree(done, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
