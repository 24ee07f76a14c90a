"""Movable-method detection, synthetic smell injection and dataset prep.

A method is a move candidate when it survives the structural filters
(static, constructor-like, empty, delegation, parameterless, getter,
setter), does not touch its own class's instance state, and has at least
one parameter whose declared type resolves to a corpus class.  Injection
relocates such methods into one of their parameter-type classes,
rewriting member qualifiers so the result still parses; every move is
recorded as ground truth and can be undone.

Datasets pair each candidate with its origin (label 1, duplicated) and
each target (label 0), keeping the two label counts exactly equal.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embed import CodeVector
from .errors import DataError
from .featurize import FeatureVector, NoMethodsError, class_embedding, make_pair_vector
from .frontend import (
    AstNode,
    ClassDecl,
    MethodDecl,
    SourceUnit,
    find_enclosing,
    make_method_id,
)


class NotMovableError(DataError):
    """The requested move violates a structural precondition."""


class UnresolvedTargetError(DataError):
    """Target class id does not resolve in the corpus."""


class TooFewError(DataError):
    """Not enough examples to split."""


@dataclass
class CandidateMove:
    method_id: str
    origin_class_id: str
    target_class_ids: list[str]

    def __post_init__(self):
        if not self.target_class_ids:
            raise ValueError("candidate needs at least one target class")
        if self.origin_class_id in self.target_class_ids:
            raise ValueError("origin class cannot be a move target")
        self.target_class_ids = sorted(self.target_class_ids)


@dataclass
class GroundTruthEntry:
    moved_method_id: str
    original_class_id: str
    injected_class_id: str


@dataclass(eq=False)
class LabeledExample:
    feature: FeatureVector
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


# ---------------------------------------------------------------------------
# Structural filters


def is_constructor_like(method: MethodDecl, cls: ClassDecl) -> bool:
    return method.name == cls.name


def is_empty(method: MethodDecl) -> bool:
    return not method.body.children


def _single_call(method: MethodDecl) -> AstNode | None:
    """The call node if the body is exactly one return/expression
    statement wrapping a call, else None."""
    if len(method.body.children) != 1:
        return None
    stmt = method.body.children[0]
    if stmt.label not in ("ReturnStatement", "ExpressionStatement") or not stmt.children:
        return None
    expr = stmt.children[0]
    return expr if expr.label == "MethodCall" else None


def is_delegation(method: MethodDecl) -> bool:
    """Single statement, single call, and every parameter forwarded as a
    bare argument of that call."""
    call = _single_call(method)
    if call is None:
        return False
    arg_names = {a.token for a in call.children[1:] if a.label == "Name"}
    return set(method.param_names) <= arg_names


def is_getter(method: MethodDecl, cls: ClassDecl) -> bool:
    if len(method.body.children) != 1:
        return False
    stmt = method.body.children[0]
    return (
        stmt.label == "ReturnStatement"
        and len(stmt.children) == 1
        and stmt.children[0].label == "Name"
        and stmt.children[0].token in cls.field_names
    )


def is_setter(method: MethodDecl, cls: ClassDecl) -> bool:
    if len(method.body.children) != 1:
        return False
    stmt = method.body.children[0]
    return (
        stmt.label == "Assignment"
        and stmt.children[0].label == "Name"
        and stmt.children[0].token in cls.field_names
    )


def passes_structural_filters(method: MethodDecl, cls: ClassDecl) -> bool:
    """The six categories that are never movable."""
    return not (
        method.is_static
        or is_constructor_like(method, cls)
        or is_empty(method)
        or is_delegation(method)
        or not method.params
        or is_getter(method, cls)
        or is_setter(method, cls)
    )


def _bare_member_refs(
    method: MethodDecl, cls: ClassDecl
) -> tuple[set[str], set[str], bool]:
    """Unqualified references the body makes into the enclosing class.

    Returns (field names read or written bare, method names called bare,
    saw_unknown_call).  Parameter names shadow fields.  Member-position
    names of field accesses and qualified calls are not the enclosing
    class's members and are ignored.  Local variables cannot be told
    apart from field writes after parsing, so a bare name matching a
    field counts as a reference; generated corpora never shadow fields.
    """
    params = set(method.param_names)
    fields: set[str] = set()
    calls: set[str] = set()
    unknown_call = False

    def visit(node: AstNode):
        nonlocal unknown_call
        if node.label == "MethodCall":
            callee = node.children[0]
            if callee.label == "Name":
                if callee.token != method.name:
                    if callee.token in cls.method_names:
                        calls.add(callee.token)
                    else:
                        unknown_call = True
            else:
                visit(callee)
            for arg in node.children[1:]:
                visit(arg)
            return
        if node.label == "FieldAccess":
            visit(node.children[0])  # member name belongs to the receiver
            return
        if node.label == "Name":
            if node.token in cls.field_names and node.token not in params:
                fields.add(node.token)
            return
        for child in node.children:
            visit(child)

    visit(method.body)
    return fields, calls, unknown_call


def touches_instance_state(method: MethodDecl, cls: ClassDecl) -> bool:
    """True when the body references the enclosing class's fields or
    methods without a qualifier (beyond calling itself)."""
    fields, calls, unknown_call = _bare_member_refs(method, cls)
    return bool(fields or calls or unknown_call)


# ---------------------------------------------------------------------------
# Candidate enumeration


def build_class_index(units: list[SourceUnit]) -> dict[str, tuple[SourceUnit, ClassDecl]]:
    """Map class name → (unit, class), rejecting duplicates across files."""
    index: dict[str, tuple[SourceUnit, ClassDecl]] = {}
    for unit in units:
        for cls in unit.classes:
            if cls.name in index:
                raise DataError(
                    f"class {cls.name!r} defined in both "
                    f"{index[cls.name][0].file_path} and {unit.file_path}"
                )
            index[cls.name] = (unit, cls)
    return index


def _targets_of(method: MethodDecl, origin: str, index: dict) -> list[str]:
    seen = []
    for _, type_name in method.params:
        if type_name != origin and type_name in index and type_name not in seen:
            seen.append(type_name)
    return sorted(seen)


def _enumerate(units: list[SourceUnit], require_state_free: bool) -> list[CandidateMove]:
    index = build_class_index(units)
    out = []
    for unit in units:
        for cls in unit.classes:
            for method in cls.methods:
                if not passes_structural_filters(method, cls):
                    continue
                if require_state_free and touches_instance_state(method, cls):
                    continue
                targets = _targets_of(method, cls.name, index)
                if not targets:
                    continue
                out.append(CandidateMove(method.id, cls.name, targets))
    return sorted(out, key=lambda c: c.method_id)


def find_movable(units: list[SourceUnit]) -> list[CandidateMove]:
    """Methods safe to relocate: structural filters plus no unqualified
    use of origin state, with at least one resolvable target."""
    return _enumerate(units, require_state_free=True)


def find_scoreable(units: list[SourceUnit]) -> list[CandidateMove]:
    """Methods worth scoring at recommendation time: structural filters
    only.  Previously injected methods access their new home's members
    without qualifiers, so the state-free restriction that guards
    injection would hide exactly the methods the recommender must judge.
    """
    return _enumerate(units, require_state_free=False)


# ---------------------------------------------------------------------------
# Moving


def _unique_param_of_type(method: MethodDecl, type_name: str, why: str) -> str:
    names = [n for n, t in method.params if t == type_name]
    if len(names) != 1:
        raise NotMovableError(
            f"{method.id}: needs exactly one parameter of type {type_name} "
            f"({why}), found {len(names)}"
        )
    return names[0]


def _assigned_names(body: AstNode) -> set[str]:
    return {
        node.children[0].token
        for node in body.walk()
        if node.label == "Assignment" and node.children[0].label == "Name"
    }


def _unqualify(
    node: AstNode, qualifier: str, target: ClassDecl, introduced: set[str], method_id: str
) -> AstNode:
    """Rewrite `q.member` into bare `member` for the target-typed
    parameter q, validating that each member exists on the target."""

    def is_qualifier(candidate: AstNode) -> bool:
        return candidate.label == "Name" and candidate.token == qualifier

    if node.label == "MethodCall":
        callee = node.children[0]
        if callee.label == "FieldAccess" and is_qualifier(callee.children[0]):
            name = callee.children[1].token
            if name not in target.method_names:
                raise NotMovableError(
                    f"{method_id}: {qualifier}.{name}() is not a method of {target.name}"
                )
            introduced.add(name)
            new_callee = AstNode("Name", token=name, pos=callee.pos)
        else:
            new_callee = _unqualify(callee, qualifier, target, introduced, method_id)
        args = [
            _unqualify(a, qualifier, target, introduced, method_id)
            for a in node.children[1:]
        ]
        return AstNode("MethodCall", [new_callee] + args, pos=node.pos)
    if node.label == "FieldAccess":
        receiver = _unqualify(node.children[0], qualifier, target, introduced, method_id)
        if is_qualifier(receiver):
            name = node.children[1].token
            if name not in target.field_names:
                raise NotMovableError(
                    f"{method_id}: {qualifier}.{name} is not a field of {target.name}"
                )
            introduced.add(name)
            return AstNode("Name", token=name, pos=node.pos)
        return AstNode("FieldAccess", [receiver, node.children[1]], pos=node.pos)
    if node.is_leaf:
        return node
    children = [_unqualify(c, qualifier, target, introduced, method_id) for c in node.children]
    return AstNode(node.label, children, op=node.op, pos=node.pos)


def _requalify(
    node: AstNode,
    origin: ClassDecl,
    method: MethodDecl,
    skip: set[str],
    carrier: list[str | None],
    need_carrier,
) -> AstNode:
    """Rewrite bare references to the origin class's members into
    accesses through an origin-typed parameter (the carrier), resolved
    lazily so state-free methods never require one."""

    def qualify(name_node: AstNode) -> AstNode:
        if carrier[0] is None:
            carrier[0] = need_carrier()
        holder = AstNode("Name", token=carrier[0], pos=name_node.pos)
        return AstNode("FieldAccess", [holder, name_node], pos=name_node.pos)

    if node.label == "MethodCall":
        callee = node.children[0]
        if (
            callee.label == "Name"
            and callee.token != method.name
            and callee.token in origin.method_names
        ):
            new_callee = qualify(callee)
        elif callee.label == "Name":
            new_callee = callee
        else:
            new_callee = _requalify(callee, origin, method, skip, carrier, need_carrier)
        args = [
            _requalify(a, origin, method, skip, carrier, need_carrier)
            for a in node.children[1:]
        ]
        return AstNode("MethodCall", [new_callee] + args, pos=node.pos)
    if node.label == "FieldAccess":
        receiver = _requalify(node.children[0], origin, method, skip, carrier, need_carrier)
        return AstNode("FieldAccess", [receiver, node.children[1]], pos=node.pos)
    if node.label == "Name":
        if node.token in origin.field_names and node.token not in skip:
            return qualify(node)
        return node
    if node.is_leaf:
        return node
    children = [
        _requalify(c, origin, method, skip, carrier, need_carrier) for c in node.children
    ]
    return AstNode(node.label, children, op=node.op, pos=node.pos)


def perform_move(
    units: list[SourceUnit], method_id: str, target_class_id: str
) -> tuple[list[SourceUnit], GroundTruthEntry]:
    """Relocate one method into a parameter-type class.

    Inside the moved body, accesses through the target-typed parameter
    lose their qualifier; bare references to origin members gain one
    through an origin-typed parameter.  The input corpus is left
    untouched; a rewritten deep copy is returned with the ground-truth
    record.  Refuses moves whose rewrite would capture or collide names.
    """
    mutated = copy.deepcopy(units)
    index = build_class_index(mutated)
    origin_cls, method = find_enclosing(mutated, method_id)
    if target_class_id not in index:
        raise UnresolvedTargetError(f"target class {target_class_id!r} not in corpus")
    if target_class_id == origin_cls.name:
        raise NotMovableError(f"{method_id}: target equals origin class")
    target_unit, target_cls = index[target_class_id]
    if any(
        m.name == method.name and m.arity == method.arity for m in target_cls.methods
    ):
        raise NotMovableError(
            f"{method_id}: {target_class_id} already declares {method.name}/{method.arity}"
        )
    qualifier = _unique_param_of_type(method, target_class_id, "to drop its qualifier")

    introduced: set[str] = set()
    body = _unqualify(method.body, qualifier, target_cls, introduced, method_id)

    blocked = set(method.param_names) | _assigned_names(method.body)
    collisions = introduced & blocked
    if collisions:
        raise NotMovableError(
            f"{method_id}: unqualifying would capture {sorted(collisions)}"
        )
    ambiguous = introduced & (origin_cls.field_names | origin_cls.method_names)
    if ambiguous:
        raise NotMovableError(
            f"{method_id}: member names {sorted(ambiguous)} exist on both classes"
        )

    carrier: list[str | None] = [None]

    def need_carrier() -> str:
        return _unique_param_of_type(method, origin_cls.name, "to requalify origin members")

    skip = set(method.param_names) | introduced
    body = _requalify(body, origin_cls, method, skip, carrier, need_carrier)

    origin_cls.methods.remove(method)
    method.body = body
    method.id = make_method_id(
        target_unit.file_path, target_cls.name, method.name, method.arity
    )
    target_cls.methods.append(method)
    return mutated, GroundTruthEntry(method.id, origin_cls.name, target_cls.name)


def canonical_corpus(units: list[SourceUnit]) -> list[SourceUnit]:
    """Order-insensitive view for structural comparison: units sorted by
    path, methods by signature.  Method declaration order carries no
    meaning in the language, and a round-tripped move appends at the end."""
    out = []
    for unit in sorted(units, key=lambda u: u.file_path):
        classes = [
            ClassDecl(
                c.name,
                list(c.fields),
                sorted(c.methods, key=lambda m: (m.name, m.arity)),
            )
            for c in unit.classes
        ]
        out.append(SourceUnit(unit.file_path, classes))
    return out


def corpora_equal(a: list[SourceUnit], b: list[SourceUnit]) -> bool:
    return canonical_corpus(a) == canonical_corpus(b)


def inject_feature_envy(
    units: list[SourceUnit], seed: int, max_moves: int | None = None
) -> tuple[list[SourceUnit], list[GroundTruthEntry]]:
    """Move candidates into seeded-random targets until exhausted or at
    the cap.  Candidates invalidated by earlier moves are skipped."""
    candidates = find_movable(units)
    rng = random.Random(seed)
    order = list(candidates)
    rng.shuffle(order)
    current = units
    entries: list[GroundTruthEntry] = []
    for candidate in order:
        if max_moves is not None and len(entries) >= max_moves:
            break
        target = rng.choice(candidate.target_class_ids)
        try:
            current, entry = perform_move(current, candidate.method_id, target)
        except (NotMovableError, UnresolvedTargetError):
            continue
        entries.append(entry)
    return current, entries


# ---------------------------------------------------------------------------
# Dataset construction


def build_dataset(
    units: list[SourceUnit],
    embeddings: dict[str, CodeVector],
    candidates: list[CandidateMove],
) -> list[LabeledExample]:
    """Pair every candidate with its targets (label 0) and its origin
    (label 1, one duplicate per kept target).  A pair whose class cannot
    be embedded is dropped together with one positive, so the two label
    counts stay exactly equal."""
    index = build_class_index(units)
    examples: list[LabeledExample] = []
    for candidate in sorted(candidates, key=lambda c: c.method_id):
        method_vec = embeddings.get(candidate.method_id)
        if method_vec is None:
            continue
        origin_entry = index.get(candidate.origin_class_id)
        if origin_entry is None:
            continue
        origin_cls = origin_entry[1]
        try:
            origin_vec = class_embedding(
                origin_cls, embeddings, exclude=candidate.method_id
            )
        except NoMethodsError:
            continue
        positive = make_pair_vector(method_vec, origin_vec)
        for target_id in candidate.target_class_ids:
            entry = index.get(target_id)
            if entry is None:
                continue
            try:
                target_vec = class_embedding(entry[1], embeddings)
            except NoMethodsError:
                continue
            examples.append(LabeledExample(make_pair_vector(method_vec, target_vec), 0))
            examples.append(
                LabeledExample(
                    FeatureVector(
                        positive.values, positive.method_id, positive.class_id, "raw"
                    ),
                    1,
                )
            )
    return examples


def split_dataset(
    examples: list[LabeledExample], seed: int
) -> tuple[list[LabeledExample], list[LabeledExample], list[LabeledExample]]:
    """Seeded 3:1:1 split keeping all rows of a method together.

    Groups are canonically sorted before the seeded shuffle, so input
    order cannot change the outcome.  Test and validation greedily fill
    floor(n/5) rows each; everything else trains.
    """
    if len(examples) < 5:
        raise TooFewError(f"need at least 5 examples to split, got {len(examples)}")
    groups: dict[str, list[LabeledExample]] = {}
    for example in examples:
        groups.setdefault(example.feature.method_id, []).append(example)
    for rows in groups.values():
        rows.sort(key=lambda e: (e.feature.class_id, e.label))
    keys = sorted(groups)
    rng = random.Random(seed)
    rng.shuffle(keys)
    quota = len(examples) // 5
    train: list[LabeledExample] = []
    test: list[LabeledExample] = []
    validate: list[LabeledExample] = []
    for key in keys:
        rows = groups[key]
        if len(test) + len(rows) <= quota:
            test.extend(rows)
        elif len(validate) + len(rows) <= quota:
            validate.extend(rows)
        else:
            train.extend(rows)
    return train, test, validate


# ---------------------------------------------------------------------------
# Line-delimited artifacts

DATASET_FORMAT = {"format": "dataset", "version": 1}
GROUND_TRUTH_FORMAT = {"format": "ground-truth", "version": 1}


def check_header(line: str, expected: dict, path: str) -> None:
    """Reject a line-delimited artifact whose first line is not `expected`."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed header line: {exc}") from exc
    if header != expected:
        raise DataError(f"{path}: header {header!r} does not match {expected!r}")


def write_dataset(path: str | Path, examples: list[LabeledExample]) -> None:
    lines = [json.dumps(DATASET_FORMAT, sort_keys=True)]
    for example in examples:
        lines.append(
            json.dumps(
                {
                    "method_id": example.feature.method_id,
                    "class_id": example.feature.class_id,
                    "label": example.label,
                    "feature": example.feature.values.tolist(),
                },
                sort_keys=True,
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_dataset(path: str | Path) -> list[LabeledExample]:
    text = Path(path).read_text().splitlines()
    if not text:
        raise DataError(f"{path}: empty dataset file")
    check_header(text[0], DATASET_FORMAT, str(path))
    examples = []
    for line in text[1:]:
        if not line:
            continue
        try:
            row = json.loads(line)
            feature = FeatureVector(
                np.array(row["feature"], dtype=np.float64),
                row["method_id"],
                row["class_id"],
                "raw",
            )
            example = LabeledExample(feature, int(row["label"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad dataset row: {exc}") from exc
        examples.append(example)
    return examples


def write_ground_truth(path: str | Path, entries: list[GroundTruthEntry]) -> None:
    lines = [json.dumps(GROUND_TRUTH_FORMAT, sort_keys=True)]
    for entry in entries:
        lines.append(
            json.dumps(
                {
                    "moved_method_id": entry.moved_method_id,
                    "original_class_id": entry.original_class_id,
                    "injected_class_id": entry.injected_class_id,
                },
                sort_keys=True,
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_ground_truth(path: str | Path) -> list[GroundTruthEntry]:
    text = Path(path).read_text().splitlines()
    if not text:
        raise DataError(f"{path}: empty ground-truth file")
    check_header(text[0], GROUND_TRUTH_FORMAT, str(path))
    entries = []
    for line in text[1:]:
        if not line:
            continue
        try:
            row = json.loads(line)
            entry = GroundTruthEntry(
                row["moved_method_id"],
                row["original_class_id"],
                row["injected_class_id"],
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad ground-truth row: {exc}") from exc
        entries.append(entry)
    return entries
