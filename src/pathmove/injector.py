"""Movable-method detection, synthetic smell injection and dataset prep.

A method is a move candidate when it survives the structural filters
(static, constructor-like, empty, delegation, parameterless, getter,
setter), does not touch its own class's instance state, and has at least
one parameter whose declared type resolves to a corpus class.  Injection
relocates such methods into one of their parameter-type classes,
rewriting member qualifiers so the result still parses; every move is
recorded as ground truth and can be undone.  One walker, `_map_members`,
finds member references for both the state check and the rewrites, and
rewrites share every subtree they leave unchanged.

Datasets pair each candidate with its origin (label 1, duplicated) and
each target (label 0), keeping the two label counts exactly equal.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .bundle import read_jsonl, write_jsonl
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

    def __post_init__(self):
        if not all(isinstance(v, str) for v in vars(self).values()):
            raise TypeError(f"ground-truth ids must be strings: {self!r}")


@dataclass(eq=False)
class LabeledExample:
    feature: FeatureVector
    label: int

    def __post_init__(self):
        if type(self.label) is not int or self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


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


def _map_members(node: AstNode, bare, qualified) -> AstNode:
    """`node` with each member reference replaced by a callback's result.

    `bare(name, is_call)` gets every Name that is not the member half of
    a FieldAccess; `qualified(access, is_call)` gets every FieldAccess
    after its receiver has been mapped.  `is_call` marks the callee of a
    MethodCall.  Copy-on-write: a node whose children all come back as
    the same objects is returned itself, so untouched subtrees are
    shared and a read-only walk builds no nodes.
    """

    def visit(node: AstNode, is_call: bool = False) -> AstNode:
        if node.label == "Name":
            return bare(node, is_call)
        if node.label == "FieldAccess":
            receiver, member = node.children
            mapped = visit(receiver)
            if mapped is not receiver:
                node = AstNode("FieldAccess", [mapped, member], pos=node.pos)
            return qualified(node, is_call)
        calls = node.label == "MethodCall"
        children = [visit(c, calls and i == 0) for i, c in enumerate(node.children)]
        if all(new is old for new, old in zip(children, node.children)):
            return node
        return AstNode(node.label, children, op=node.op, pos=node.pos)

    return visit(node)


def _keep(node: AstNode, is_call: bool) -> AstNode:
    return node


def touches_instance_state(method: MethodDecl, cls: ClassDecl) -> bool:
    """True when the body references the enclosing class's fields or
    methods without a qualifier.  Every bare call other than recursion
    counts, whether or not it names a known method.  Parameter names
    shadow fields.  Local variables cannot be told apart from field
    writes after parsing, so a bare name matching a field counts as a
    reference; generated corpora never shadow fields.
    """
    fields = cls.field_names - set(method.param_names)
    refs: list[AstNode] = []

    def record(name: AstNode, is_call: bool) -> AstNode:
        if (name.token != method.name) if is_call else (name.token in fields):
            refs.append(name)
        return name

    _map_members(method.body, record, _keep)
    return bool(refs)


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


def perform_move(
    units: list[SourceUnit], method_id: str, target_class_id: str
) -> tuple[list[SourceUnit], GroundTruthEntry]:
    """Relocate one method into a parameter-type class.

    Inside the moved body, accesses through the target-typed parameter
    lose their qualifier; bare references to origin members gain one
    through an origin-typed parameter.  The input corpus is left
    untouched: the returned corpus rebuilds only the moved method, its
    origin and target classes and the units holding them, and shares
    every other unit, class, method and AST node with the input.
    Refuses moves whose rewrite would capture or collide names.
    """
    index = build_class_index(units)
    origin_cls, method = find_enclosing(units, method_id)
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

    def unqualify(access: AstNode, is_call: bool) -> AstNode:
        receiver, member = access.children
        if receiver.label != "Name" or receiver.token != qualifier:
            return access
        names = target_cls.method_names if is_call else target_cls.field_names
        if member.token not in names:
            what = "() is not a method" if is_call else " is not a field"
            raise NotMovableError(
                f"{method_id}: {qualifier}.{member.token}{what} of {target_cls.name}"
            )
        introduced.add(member.token)
        return AstNode("Name", token=member.token, pos=access.pos)

    body = _map_members(method.body, _keep, unqualify)

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

    origin_calls = origin_cls.method_names - {method.name}
    origin_fields = origin_cls.field_names - set(method.param_names) - introduced
    carrier: str | None = None

    def requalify(name: AstNode, is_call: bool) -> AstNode:
        nonlocal carrier
        if name.token not in (origin_calls if is_call else origin_fields):
            return name
        if carrier is None:  # resolved lazily: state-free methods need none
            carrier = _unique_param_of_type(method, origin_cls.name, "to requalify origin members")
        holder = AstNode("Name", token=carrier, pos=name.pos)
        return AstNode("FieldAccess", [holder, name], pos=name.pos)

    body = _map_members(body, requalify, _keep)

    new_id = make_method_id(target_unit.file_path, target_cls.name, method.name, method.arity)
    moved = replace(method, body=body, id=new_id)
    swap = {  # class names are unique in the corpus (build_class_index)
        origin_cls.name: replace(
            origin_cls, methods=[m for m in origin_cls.methods if m is not method]
        ),
        target_cls.name: replace(target_cls, methods=target_cls.methods + [moved]),
    }
    mutated = [
        replace(u, classes=[swap.get(c.name, c) for c in u.classes])
        if any(c.name in swap for c in u.classes) else u
        for u in units
    ]
    return mutated, GroundTruthEntry(moved.id, origin_cls.name, target_cls.name)


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


def candidate_pairs(
    units: list[SourceUnit],
    embeddings: dict[str, CodeVector],
    candidates: list[CandidateMove],
) -> Iterator[tuple[CandidateMove, FeatureVector | None, list[FeatureVector]]]:
    """(candidate, origin pair, target pairs) for each candidate, in the
    given order; training and recommendation both pair through here.
    The origin's class vector leaves the candidate out; the origin pair
    is None when nothing else in its class is embedded.  Only target
    classes with an embedded method get a pair, and a candidate with no
    code vector gets no pairs at all.  Full class means are computed
    once per call."""
    index = build_class_index(units)

    def mean(class_id: str, exclude: str | None = None) -> CodeVector | None:
        try:
            return class_embedding(index[class_id][1], embeddings, exclude)
        except (KeyError, NoMethodsError):
            return None

    full = {class_id: mean(class_id) for class_id in index}
    for candidate in candidates:
        method_vec = embeddings.get(candidate.method_id)
        if method_vec is None:
            yield candidate, None, []
            continue
        origin = mean(candidate.origin_class_id, exclude=candidate.method_id)
        targets = [full.get(t) for t in candidate.target_class_ids]
        yield (
            candidate,
            None if origin is None else make_pair_vector(method_vec, origin),
            [make_pair_vector(method_vec, t) for t in targets if t is not None],
        )


def build_dataset(
    units: list[SourceUnit],
    embeddings: dict[str, CodeVector],
    candidates: list[CandidateMove],
) -> list[LabeledExample]:
    """Pair every candidate with its targets (label 0) and its origin
    (label 1, one duplicate per kept target).  A pair whose class cannot
    be embedded is dropped together with one positive, so the two label
    counts stay exactly equal."""
    ordered = sorted(candidates, key=lambda c: c.method_id)
    examples: list[LabeledExample] = []
    for _, origin, targets in candidate_pairs(units, embeddings, ordered):
        if origin is None:
            continue
        for pair in targets:
            examples.append(LabeledExample(pair, 0))
            examples.append(LabeledExample(origin, 1))
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


def write_dataset(path: str | Path, examples: list[LabeledExample]) -> None:
    rows = (
        {
            "method_id": e.feature.method_id,
            "class_id": e.feature.class_id,
            "label": e.label,
            "feature": e.feature.values.tolist(),
        }
        for e in examples
    )
    write_jsonl(path, DATASET_FORMAT, rows)


def read_dataset(path: str | Path) -> list[LabeledExample]:
    """Every feature must be a list of finite numbers as wide as the
    first row's."""
    shapes: set[tuple[int, ...]] = set()

    def parse(row: dict) -> LabeledExample:
        values = np.array(row["feature"], dtype=np.float64)
        shapes.add(values.shape)
        if values.ndim != 1 or len(shapes) > 1 or not np.isfinite(values).all():
            raise ValueError("feature is not a finite list of the first row's width")
        feature = FeatureVector(values, row["method_id"], row["class_id"], "raw")
        return LabeledExample(feature, row["label"])

    return read_jsonl(path, DATASET_FORMAT, parse)


def write_ground_truth(path: str | Path, entries: list[GroundTruthEntry]) -> None:
    write_jsonl(path, GROUND_TRUTH_FORMAT, map(asdict, entries))


def read_ground_truth(path: str | Path) -> list[GroundTruthEntry]:
    return read_jsonl(path, GROUND_TRUTH_FORMAT, lambda row: GroundTruthEntry(**row))
