"""Generated corpora: well-formedness, determinism and move guarantees."""

from __future__ import annotations

from collections import Counter

import pytest

from pathmove.codegen import (
    EVAL_DIR,
    THEMES,
    TRAIN_DIR,
    GenConfig,
    generate_corpus,
    generate_project,
    list_projects,
    load_project,
    write_corpus,
)
from pathmove.errors import ConfigError, DataError
from pathmove.frontend import find_enclosing, parse_unit, print_unit
from pathmove.injector import (
    _map_members,
    build_class_index,
    find_movable,
    inject_feature_envy,
    is_delegation,
    perform_move,
    corpora_equal,
)
from pathmove.pathctx import ExtractionLimits, extract_contexts

# Parameter names shared by every generated method; theme pools must not
# reuse them, or a bare reference could silently bind to the wrong thing.
RESERVED_NAMES = frozenset({"peer", "t", "aux", "extra", "k", "n", "value", "a", "b"})


def parse_project(seed):
    return [
        parse_unit(text, f"{name}.java")
        for name, text in sorted(generate_project(seed).items())
    ]


def test_name_pools_globally_disjoint():
    seen = set(RESERVED_NAMES)
    for theme in THEMES:
        words = (
            [theme.class_name]
            + list(theme.fields)
            + list(theme.methods)
            + list(theme.locals_)
        )
        accessors = [f"get{theme.fields[0].capitalize()}", f"set{theme.fields[0].capitalize()}"]
        for word in words + accessors:
            assert word not in seen, f"{word} appears in two pools"
            seen.add(word)


def test_pool_sizes():
    for theme in THEMES:
        assert len(theme.fields) == 4
        assert len(theme.methods) == 8
        assert len(theme.locals_) == 6


def test_generated_projects_parse_and_round_trip():
    for seed in range(8):
        for unit in parse_project(seed):
            reparsed = parse_unit(print_unit(unit), unit.file_path)
            assert reparsed == unit


def test_project_shape():
    for seed in range(8):
        units = parse_project(seed)
        assert 5 <= len(units) <= 7
        delegations = 0
        for unit in units:
            cls = unit.classes[0]
            assert 3 <= len(cls.fields) <= 4
            delegations += sum(1 for m in cls.methods if is_delegation(m))
        assert delegations == 1


def test_movable_set_is_exactly_the_envy_methods():
    envy_names = {name for theme in THEMES for name in theme.methods[3:5]}
    for seed in range(8):
        units = parse_project(seed)
        movable = find_movable(units)
        found = {c.method_id.split("::")[-1].split("/")[0] for c in movable}
        assert found <= envy_names
        per_class = {}
        for c in movable:
            per_class[c.origin_class_id] = per_class.get(c.origin_class_id, 0) + 1
        # every class plants at least one envy method and at most two
        assert set(per_class) == {u.classes[0].name for u in units}
        assert all(1 <= n <= 2 for n in per_class.values())


def test_envy_methods_have_carrier_and_three_targets():
    units = parse_project(3)
    index = build_class_index(units)
    for cand in find_movable(units):
        assert len(cand.target_class_ids) == 3
        _, method = next(
            (c, m)
            for _, c in index.values()
            for m in c.methods
            if m.id == cand.method_id
        )
        origin_typed = [t for _, t in method.params if t == cand.origin_class_id]
        assert origin_typed == [cand.origin_class_id]


def test_every_envy_method_actually_moves():
    # the disjoint pools promise: no move is ever refused
    for seed in range(8):
        units = parse_project(seed)
        movable = find_movable(units)
        mutated, entries = inject_feature_envy(units, seed=seed)
        assert len(entries) == len(movable)
        candidates = {c.method_id: c for c in find_movable(mutated)}
        for entry in entries:
            cand = candidates[entry.moved_method_id]
            assert entry.original_class_id in cand.target_class_ids


def member_references(units, method_id):
    """How often the method's body uses each class's members: a bare name
    counts for the class holding the method, a name qualified by a
    parameter for that parameter's type."""
    index = build_class_index(units)
    home, method = find_enclosing(units, method_id)
    types = dict(method.params)
    counts = Counter()

    def count(cls, name, is_call):
        if name in (cls.method_names if is_call else cls.field_names):
            counts[cls.name] += 1

    def bare(name, is_call):
        if name.token not in types:
            count(home, name.token, is_call)
        return name

    def qualified(access, is_call):
        receiver, member = access.children
        if receiver.label == "Name" and types.get(receiver.token) in index:
            count(index[types[receiver.token]][1], member.token, is_call)
        return access

    _map_members(method.body, bare, qualified)
    return counts


def test_planted_body_uses_its_true_home_most():
    # the paper's smell: a moved method uses the members of the class it
    # came from more than those of the class it was planted in
    for seed in range(4):
        mutated, entries = inject_feature_envy(parse_project(seed), seed=seed)
        assert entries
        for entry in entries:
            counts = member_references(mutated, entry.moved_method_id)
            assert counts[entry.original_class_id] > counts[entry.injected_class_id], entry


def test_moves_are_reversible():
    units = parse_project(5)
    mutated, entries = inject_feature_envy(units, seed=11)
    for entry in reversed(entries):
        mutated, _ = perform_move(
            mutated, entry.moved_method_id, entry.original_class_id
        )
    assert corpora_equal(units, mutated)


def test_getter_bags_empty_setter_bags_not():
    units = parse_project(0)
    cls = units[0].classes[0]
    limits = ExtractionLimits()
    getter = next(m for m in cls.methods if m.name.startswith("get"))
    setter = next(m for m in cls.methods if m.name.startswith("set"))
    assert extract_contexts(getter, limits).contexts == []
    assert len(extract_contexts(setter, limits).contexts) == 1


def test_generate_project_deterministic():
    assert generate_project(42) == generate_project(42)
    assert generate_project(42) != generate_project(43)


def test_corpus_layout(tmp_path):
    config = GenConfig(n_projects=6, eval_projects=2, seed=1)
    files = write_corpus(tmp_path, config)
    assert files == sorted(generate_corpus(config))
    train, evaluation = list_projects(tmp_path)
    assert train == [f"{TRAIN_DIR}/proj-0{i}" for i in range(4)]
    assert evaluation == [f"{EVAL_DIR}/proj-04", f"{EVAL_DIR}/proj-05"]
    units = load_project(tmp_path, train[0])
    assert all(u.file_path.startswith(f"{TRAIN_DIR}/proj-00/") for u in units)
    assert find_movable(units)


def test_corpus_generation_deterministic(tmp_path):
    config = GenConfig(n_projects=4, eval_projects=1, seed=9)
    assert generate_corpus(config) == generate_corpus(config)
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_corpus(a, config)
    write_corpus(b, config)
    train_a, _ = list_projects(a)
    for project in train_a:
        for unit_a, unit_b in zip(load_project(a, project), load_project(b, project)):
            assert unit_a == unit_b


def test_adding_projects_keeps_existing_ones():
    small = generate_corpus(GenConfig(n_projects=4, eval_projects=1, seed=2))
    big = generate_corpus(GenConfig(n_projects=8, eval_projects=1, seed=2))
    for path, text in small.items():
        if path.startswith(TRAIN_DIR):
            assert big[path] == text


def test_missing_layout_rejected(tmp_path):
    with pytest.raises(DataError):
        list_projects(tmp_path)
    (tmp_path / TRAIN_DIR / "proj-00").mkdir(parents=True)
    (tmp_path / EVAL_DIR).mkdir()
    with pytest.raises(DataError, match="no project directories"):
        list_projects(tmp_path)
    with pytest.raises(DataError):
        load_project(tmp_path, f"{TRAIN_DIR}/proj-00")


def test_config_validation():
    with pytest.raises(ConfigError):
        GenConfig(n_projects=0)
    with pytest.raises(ConfigError):
        GenConfig(n_projects=5, eval_projects=5)
    with pytest.raises(ConfigError):
        GenConfig(min_classes=3)
    with pytest.raises(ConfigError):
        GenConfig(min_classes=8, max_classes=7)
    with pytest.raises(ConfigError):
        GenConfig(max_classes=11)
