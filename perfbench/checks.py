"""Output checks written apart from the program.

Nothing here imports pathmove: the checks read the generated source
text and the JSON artifacts and recompute what the program reports.
Each function returns a list of problems; an empty list means the check
passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

DECISIONS = ("Move", "Stay", "NoRecommendation")
TOLERANCE = 1e-12

_CLASS_RE = re.compile(r"^class\s+(\w+)\s*\{", re.MULTILINE)
_METHOD_RE = re.compile(r"^\s+(?:static\s+)?\w+\s+(\w+)\(([^)]*)\)\s*\{", re.MULTILINE)


def read_jsonl(path: Path) -> list[dict]:
    """Rows of a JSON-lines artifact, header line dropped."""
    lines = [line for line in Path(path).read_text().splitlines() if line]
    return [json.loads(line) for line in lines[1:]]


def split_method_id(method_id: str) -> tuple[str, str, str, int]:
    """`proj-dir/File.java::Class::name/arity` -> (project, class, name, arity)."""
    file_path, class_name, signature = method_id.split("::")
    name, arity = signature.rsplit("/", 1)
    project = "/".join(Path(file_path).parts[:2])
    return project, class_name, name, int(arity)


def project_signatures(corpus: Path, project: str) -> dict[str, dict[tuple[str, int], list[str]]]:
    """class -> (method name, arity) -> parameter types, read from the
    source files of one project with a regular expression."""
    out: dict[str, dict[tuple[str, int], list[str]]] = {}
    for path in sorted((Path(corpus) / project).glob("*.java")):
        text = path.read_text()
        classes = _CLASS_RE.findall(text)
        if len(classes) != 1:
            raise ValueError(f"{path}: expected one class declaration, found {len(classes)}")
        methods = out.setdefault(classes[0], {})
        for name, params in _METHOD_RE.findall(text):
            types = [p.split()[0] for p in params.split(",") if p.strip()]
            methods[(name, len(types))] = types
    return out


class Sources:
    """Lazily parsed signatures of the unmutated generated corpus."""

    def __init__(self, corpus: Path):
        self.corpus = Path(corpus)
        self._projects: dict[str, dict] = {}

    def project(self, project: str) -> dict[str, dict[tuple[str, int], list[str]]]:
        if project not in self._projects:
            self._projects[project] = project_signatures(self.corpus, project)
        return self._projects[project]


def f1(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def recompute_scores(recs: list[dict], truth: list[dict]) -> dict:
    """Per-project and macro/micro precision, recall and F1.  A Move is
    correct when it sends a moved method back to its original class."""
    by_project: dict[str, list[dict]] = {}
    for entry in truth:
        by_project.setdefault(split_method_id(entry["moved_method_id"])[0], []).append(entry)
    moves_by_project: dict[str, list[dict]] = {}
    for rec in recs:
        if rec["decision"] == "Move":
            moves_by_project.setdefault(rec["project"], []).append(rec)
    projects = []
    hits = recommended = expected = 0
    for project in sorted(by_project):
        home = {e["moved_method_id"]: e["original_class_id"] for e in by_project[project]}
        moves = moves_by_project.get(project, [])
        correct = sum(1 for r in moves if home.get(r["method_id"]) == r["best_class_id"])
        precision = correct / len(moves) if moves else 0.0
        recall = correct / len(home)
        projects.append(
            {"project": project, "ground_truth": len(home), "recommended": len(moves),
             "correct": correct, "precision": precision, "recall": recall,
             "f1": f1(precision, recall), "precision_undefined": not moves}
        )
        hits += correct
        recommended += len(moves)
        expected += len(home)
    n = len(projects)
    micro_p = hits / recommended if recommended else 0.0
    micro_r = hits / expected if expected else 0.0
    return {
        "projects": projects,
        "macro": {k: sum(p[k] for p in projects) / n if n else 0.0 for k in ("precision", "recall", "f1")},
        "micro": {"precision": micro_p, "recall": micro_r, "f1": f1(micro_p, micro_r)},
    }


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return a == b
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def check_report(recs: list[dict], truth: list[dict], report: dict) -> list[str]:
    """The report's scores equal the ones recomputed from the artifacts."""
    problems = []
    ours = recompute_scores(recs, truth)
    theirs = report["report"]
    if {r["project"] for r in recs} - {p["project"] for p in ours["projects"]}:
        problems.append("recommendations name projects without ground truth")
    if len(ours["projects"]) != len(theirs["projects"]):
        return problems + [f"report has {len(theirs['projects'])} projects, expected {len(ours['projects'])}"]
    for mine, got in zip(ours["projects"], theirs["projects"]):
        for key, value in mine.items():
            if not _close(value, got.get(key)):
                problems.append(f"{mine['project']}: {key} is {got.get(key)!r}, recomputed {value!r}")
    for avg in ("macro", "micro"):
        for key, value in ours[avg].items():
            if not _close(value, theirs[avg][key]):
                problems.append(f"{avg} {key} is {theirs[avg][key]!r}, recomputed {value!r}")
    return problems


def check_ground_truth(truth: list[dict], sources: Sources) -> list[str]:
    """Each moved method was declared in its original class, with that
    name and arity, and moved into a different class that is one of its
    parameter types."""
    problems = []
    seen = set()
    for entry in truth:
        moved = entry["moved_method_id"]
        if moved in seen:
            problems.append(f"{moved}: listed twice")
        seen.add(moved)
        project, cls, name, arity = split_method_id(moved)
        origin, injected = entry["original_class_id"], entry["injected_class_id"]
        types = sources.project(project).get(origin, {}).get((name, arity))
        if types is None:
            problems.append(f"{moved}: {origin} declares no {name}/{arity}")
            continue
        if injected == origin:
            problems.append(f"{moved}: injected into its own class")
        if injected not in types:
            problems.append(f"{moved}: {injected} is not a parameter type of {name} {types}")
        if cls != injected or not moved.startswith(f"{project}/{injected}.java::"):
            problems.append(f"{moved}: id does not place it in {injected}")
    return problems


def _param_types(method_id: str, moved_from: dict[str, str], sources: Sources) -> list[str] | None:
    """Parameter types of a method of the mutated corpus, looked up in the
    unmutated source: moved methods keep their signature."""
    project, cls, name, arity = split_method_id(method_id)
    home = moved_from.get(method_id, cls)
    return sources.project(project).get(home, {}).get((name, arity))


def check_recommendations(recs: list[dict], truth: list[dict], sources: Sources, threshold: float) -> list[str]:
    problems = []
    moved_from = {e["moved_method_id"]: e["original_class_id"] for e in truth}
    for rec in recs:
        mid, decision, prob, best = rec["method_id"], rec["decision"], rec["probability"], rec["best_class_id"]
        project, cls, _, _ = split_method_id(mid)
        if decision not in DECISIONS:
            problems.append(f"{mid}: decision {decision!r}")
            continue
        if not 0.0 <= prob < 1.0:
            problems.append(f"{mid}: probability {prob!r} outside [0, 1)")
        if (decision == "NoRecommendation") != (prob <= threshold):
            problems.append(f"{mid}: {decision} with probability {prob!r} at threshold {threshold}")
        if decision == "Stay" and best != cls:
            problems.append(f"{mid}: Stay names {best}, not its class {cls}")
        if decision == "Move":
            types = _param_types(mid, moved_from, sources)
            if types is None:
                problems.append(f"{mid}: no declaration in the unmutated source")
            elif best == cls or best not in types or best not in sources.project(project):
                problems.append(f"{mid}: Move to {best}, not another parameter-type class {types}")
    return problems


def random_baseline(truth: list[dict], sources: Sources) -> float:
    """Expected macro-F1 of picking uniformly among staying and each
    candidate target, from candidate counts in the unmutated source.  A
    moved method sits in its injected class; its candidates are the
    distinct parameter types that are classes of the project, minus that
    class, and the right pick is its original class."""
    by_project: dict[str, list[dict]] = {}
    for entry in truth:
        by_project.setdefault(split_method_id(entry["moved_method_id"])[0], []).append(entry)
    scores = []
    for project, entries in sorted(by_project.items()):
        classes = sources.project(project)
        exp_correct = exp_recommended = 0.0
        for e in entries:
            _, _, name, arity = split_method_id(e["moved_method_id"])
            types = classes[e["original_class_id"]][(name, arity)]
            targets = {t for t in types if t in classes} - {e["injected_class_id"]}
            options = len(targets) + 1
            if e["original_class_id"] in targets:
                exp_correct += 1 / options
            exp_recommended += len(targets) / options
        precision = exp_correct / exp_recommended if exp_recommended else 0.0
        scores.append(f1(precision, exp_correct / len(entries)))
    return sum(scores) / len(scores)


def check_quality(report: dict, baseline: float) -> list[str]:
    """macro-F1 clears 0.5, beats our own random baseline, and the
    report's own baseline agrees with ours."""
    problems = []
    macro = report["report"]["macro"]["f1"]
    if macro < 0.5:
        problems.append(f"macro-F1 {macro:.4f} below 0.5")
    if macro <= baseline:
        problems.append(f"macro-F1 {macro:.4f} does not beat the random baseline {baseline:.4f}")
    reported = report["baseline"]["macro_f1"]
    if not math.isclose(reported, baseline, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"report baseline {reported!r} differs from recomputed {baseline!r}")
    return problems


def check_run(work: Path, corpus: Path, threshold: float) -> list[str]:
    """Every output check on one work directory scored against the
    unmutated corpus it was made from."""
    recs = read_jsonl(work / "recommendations.jsonl")
    truth = read_jsonl(work / "ground-truth.jsonl")
    report = json.loads((work / "report.json").read_text())
    sources = Sources(corpus)
    if not truth:
        return ["no methods were moved"]
    problems = check_ground_truth(truth, sources)
    if problems:
        return problems
    problems += check_report(recs, truth, report)
    problems += check_recommendations(recs, truth, sources, threshold)
    problems += check_quality(report, random_baseline(truth, sources))
    return problems


def same_files(a: Path, b: Path, names: tuple[str, ...]) -> list[str]:
    return [f"{name} differs between {a.name} and {b.name}"
            for name in names if (a / name).read_bytes() != (b / name).read_bytes()]


def digest(work: Path, names: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (work / name).read_bytes())
    return h.hexdigest()
