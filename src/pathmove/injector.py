"""Movable-method detection, synthetic smell injection and dataset prep.

A method is a move candidate when it survives the structural filters
(static, constructor-like, empty, delegation, parameterless, getter,
setter) and has at least one parameter whose declared type resolves to
a corpus class.  That one candidate set serves injection, training and
recommendation alike.  Injection relocates a candidate into one of its
parameter-type classes, rewriting member qualifiers so the result still
parses: accesses through the target-typed parameter lose their
qualifier, and bare references to origin members are requalified
through the one origin-typed parameter, or the move is refused; so is a
move that would bind a bare name the origin does not declare to a
target member.  It keeps a move only when the moved method is still a
candidate in its new class and has exactly one parameter of its
origin's type, so the recommender scores it and a move back can undo
it; every kept move is recorded as ground truth.  The rewrites run in
one walk of `_map_members`, which shares every subtree it leaves
unchanged.

Datasets pair each candidate with its origin (label 1, duplicated) and
each target (label 0), keeping the two label counts exactly equal.  The
split dataset is saved as one bundle of labels and pair halves, each
distinct method half and class half stored once.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .bundle import load_bundle, read_jsonl, save_bundle, write_jsonl
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
    method_project,
    split_method_id,
)


class NotMovableError(DataError):
    """The requested move violates a structural precondition."""


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
                node = AstNode("FieldAccess", [mapped, member])
            return qualified(node, is_call)
        calls = node.label == "MethodCall"
        children = [visit(c, calls and i == 0) for i, c in enumerate(node.children)]
        if all(new is old for new, old in zip(children, node.children)):
            return node
        return AstNode(node.label, children, op=node.op)

    return visit(node)


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


def find_movable(units: list[SourceUnit]) -> list[CandidateMove]:
    """Every method that passes the structural filters and has at least
    one resolvable target, sorted by id: the one candidate set that
    injection, training and recommendation all use."""
    index = build_class_index(units)
    out = []
    for unit in units:
        for cls in unit.classes:
            for method in cls.methods:
                if not passes_structural_filters(method, cls):
                    continue
                targets = _targets_of(method, cls.name, index)
                if targets:
                    out.append(CandidateMove(method.id, cls.name, targets))
    return sorted(out, key=lambda c: c.method_id)


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
    Refuses moves whose rewrite would capture or collide names, and
    moves that would bind a bare name the origin does not declare (no
    parameter, local or recursive call) to a target member.
    """
    index = build_class_index(units)
    origin_cls, method = find_enclosing(units, method_id)
    if target_class_id not in index:
        raise NotMovableError(f"target class {target_class_id!r} not in corpus")
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
        return AstNode("Name", token=member.token)

    origin_calls = origin_cls.method_names - {method.name}
    origin_fields = origin_cls.field_names - set(method.param_names)
    blocked = set(method.param_names) | _assigned_names(method.body)
    carrier: str | None = None

    def requalify(name: AstNode, is_call: bool) -> AstNode:
        nonlocal carrier
        if name.token not in (origin_calls if is_call else origin_fields):
            # a name the origin does not declare stays as written, so moved
            # it must not bind to a target member; a recursive call moves along
            captured = (name.token in target_cls.method_names and name.token != method.name
                        if is_call else name.token in target_cls.field_names - blocked)
            if captured:
                raise NotMovableError(
                    f"{method_id}: bare {name.token}{'()' if is_call else ''} is no member "
                    f"of {origin_cls.name} and would bind to {target_cls.name}'s"
                )
            return name
        if carrier is None:  # resolved lazily: a body without origin members needs none
            carrier = _unique_param_of_type(method, origin_cls.name, "to requalify origin members")
        return AstNode("FieldAccess", [AstNode("Name", token=carrier), name])

    # One walk: requalify never sees a name unqualify introduced (see `ambiguous`).
    body = _map_members(method.body, requalify, unqualify)

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
    units: list[SourceUnit], seed: int
) -> tuple[list[SourceUnit], list[GroundTruthEntry]]:
    """Move every candidate into a seeded-random target.  Candidates
    invalidated by earlier moves are skipped, and so is a move that the
    recommender could not see or undo: the moved method must pass the
    structural filters in its new class and keep exactly one parameter
    of its origin's type."""
    candidates = find_movable(units)
    rng = random.Random(seed)
    order = list(candidates)
    rng.shuffle(order)
    current = units
    entries: list[GroundTruthEntry] = []
    for candidate in order:
        target = rng.choice(candidate.target_class_ids)
        try:
            moved, entry = perform_move(current, candidate.method_id, target)
        except NotMovableError:
            continue
        cls, method = find_enclosing(moved, entry.moved_method_id)
        origin_params = [t for _, t in method.params if t == entry.original_class_id]
        if passes_structural_filters(method, cls) and len(origin_params) == 1:
            current = moved
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
    floor(n/5) rows each; everything else trains.  Raises DataError
    when test or validation would stay empty.
    """
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
    if not (test and validate):
        raise DataError(f"{len(examples)} examples in {len(keys)} methods leave "
                          f"the test or validation split empty")
    return train, test, validate


# ---------------------------------------------------------------------------
# Artifacts

DATASET_SPLITS = ("train", "validate")
GROUND_TRUTH_FORMAT = {"format": "ground-truth", "version": 1}


def write_dataset(path: str | Path, splits: tuple[list[LabeledExample], ...]) -> None:
    """One bundle holding the rows of every split in DATASET_SPLITS order.
    Each pair is stored as its two halves, each distinct half once:
    `method_halves` and `class_halves` hold them in first-seen order, and
    row i is method_halves[method_index[i]] followed by
    class_halves[class_index[i]].  Halves are told apart by their bytes,
    so 0.0 and -0.0 stay apart.  The int64 `labels` hold the labels, and
    the metadata holds each split's [method_id, class_id] per row."""
    rows = [e for split in splits for e in split]
    meta = {name: [[e.feature.method_id, e.feature.class_id] for e in split]
            for name, split in zip(DATASET_SPLITS, splits, strict=True)}
    features = np.stack([e.feature.values for e in rows])
    width = features.shape[1] // 2
    arrays = {"labels": np.array([e.label for e in rows], dtype=np.int64)}
    for half, part in (("method", features[:, :width]), ("class", features[:, width:])):
        seen: dict[bytes, int] = {}  # a distinct half's bytes -> its place
        index = [seen.setdefault(row.tobytes(), len(seen)) for row in part]
        distinct = np.frombuffer(b"".join(seen), dtype=part.dtype)
        arrays[f"{half}_halves"] = distinct.reshape(len(seen), part.shape[1])
        arrays[f"{half}_index"] = np.array(index, dtype=np.int64)
    save_bundle(path, "dataset", meta, arrays)


def read_dataset(path: str | Path) -> tuple[list[LabeledExample], ...]:
    """The splits `write_dataset` saved, every feature row rebuilt bit for
    bit.  Raises DataError unless the metadata holds exactly the
    DATASET_SPLITS, each a non-empty list of [method_id, class_id] string
    pairs, the two half arrays are matrices of one width, each index
    array is int64 with one entry per id and stays within its halves,
    and each label is 0 or 1, both present in each split."""
    header, arrays = load_bundle(path, expect_kind="dataset")
    try:
        meta = header["meta"]
        ids = [meta[name] for name in DATASET_SPLITS]
        stale = sorted(set(meta) - set(DATASET_SPLITS))
        if stale:
            raise ValueError(f"split {stale[0]!r} is not one of {DATASET_SPLITS}; "
                             "run 'build-dataset' again")
        if "features" in arrays:
            raise ValueError("pairs stored whole in a 'features' array, an older layout; "
                             "run 'build-dataset' again")
        labels = arrays["labels"]
        n = sum(map(len, ids))
        if not all(type(split) is list and split for split in ids) or any(
            type(pair) is not list or len(pair) != 2 for split in ids for pair in split
        ):
            raise ValueError("each split must be a non-empty list of [method_id, class_id]")
        parts = []
        for half in ("method", "class"):
            halves, index = arrays[f"{half}_halves"], arrays[f"{half}_index"]
            if halves.ndim != 2:
                raise ValueError(f"{half}_halves of shape {halves.shape} is not a matrix")
            if index.shape != (n,) or labels.shape != (n,):
                raise ValueError(f"{n} ids, features indexed {index.shape} by {half}_index, "
                                 f"labels {labels.shape}")
            if index.dtype != np.int64 or not ((index >= 0) & (index < len(halves))).all():
                raise ValueError(f"{half}_index leaves the {len(halves)} rows of {half}_halves")
            parts.append(halves[index])
        if parts[0].shape[1] != parts[1].shape[1]:
            raise ValueError(f"method halves {parts[0].shape[1]} wide, "
                             f"class halves {parts[1].shape[1]}")
        rows = iter(zip(np.concatenate(parts, axis=1), labels.tolist()))
        splits = tuple([LabeledExample(FeatureVector(values, *pair, "raw"), label)
                        for pair, (values, label) in zip(split, rows)] for split in ids)
        for name, split in zip(DATASET_SPLITS, splits):
            if {e.label for e in split} != {0, 1}:
                raise ValueError(f"split {name!r} lacks label 0 or 1; run 'build-dataset' again")
        return splits
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad dataset bundle: {exc}") from exc


def write_ground_truth(path: str | Path, gt_by_project: dict[str, list[GroundTruthEntry]]) -> None:
    """One row per entry, the projects in sorted order."""
    rows = (asdict(e) for project in sorted(gt_by_project) for e in gt_by_project[project])
    write_jsonl(path, GROUND_TRUTH_FORMAT, rows)


def _parse_ground_truth(row: dict) -> tuple[str, GroundTruthEntry]:
    entry = GroundTruthEntry(**row)
    project = method_project(entry.moved_method_id)
    home = split_method_id(entry.moved_method_id)[1]
    if entry.injected_class_id != home:
        raise ValueError(f"injected_class_id {entry.injected_class_id!r} is not the class "
                         f"{home!r} of the moved method")
    if entry.original_class_id == home:
        raise ValueError(f"original_class_id equals injected_class_id {home!r}")
    return project, entry


def read_ground_truth(path: str | Path) -> dict[str, list[GroundTruthEntry]]:
    """The entries of each project, in file order."""
    out: dict[str, list[GroundTruthEntry]] = {}
    for project, entry in read_jsonl(path, GROUND_TRUTH_FORMAT, _parse_ground_truth):
        out.setdefault(project, []).append(entry)
    return out
