"""Movable-method detection, move rewriting, injection and dataset prep.

The main fixture is hand-labeled: every Wallet method is annotated with
the exact filter that should keep it out (or with its expected targets),
so the enumeration tests assert complete sets rather than spot checks.
"""

from __future__ import annotations

import copy
import json
import random

import numpy as np
import pytest

from pathmove.embed import CodeVector
from pathmove.errors import DataError
from pathmove.frontend import find_enclosing, parse_unit, print_unit
from pathmove.injector import (
    CandidateMove,
    GroundTruthEntry,
    LabeledExample,
    NotMovableError,
    TooFewError,
    UnresolvedTargetError,
    build_class_index,
    build_dataset,
    corpora_equal,
    find_movable,
    find_scoreable,
    inject_feature_envy,
    is_constructor_like,
    is_delegation,
    is_empty,
    is_getter,
    is_setter,
    passes_structural_filters,
    perform_move,
    read_dataset,
    read_ground_truth,
    split_dataset,
    touches_instance_state,
    write_dataset,
    write_ground_truth,
)
from pathmove.featurize import FeatureVector

WALLET_SRC = """
class Wallet {
    int balance;
    int rate;

    static int zero(int seed) {
        return seed - seed;
    }

    int Wallet(int start) {
        return start;
    }

    void noop(int x) {
    }

    int relay(Ledger ledger, int amount) {
        return post(ledger, amount);
    }

    int current() {
        return balance;
    }

    void update(int amount) {
        balance = amount;
    }

    int scale() {
        int doubled = rate + rate;
        return doubled;
    }

    int audit(Ledger ledger, int bound) {
        int flagged = 0;
        if (balance > bound) {
            flagged = ledger.total;
        }
        return flagged;
    }

    int merge(Ledger ledger, int bonus) {
        int sum = ledger.total + bonus;
        return sum;
    }

    int check(Wallet home, Ledger ledger, Report report, int low) {
        int verdict = 0;
        if (ledger.total > low) {
            verdict = report.lines;
        }
        return verdict;
    }

    int describe(Report report, int width) {
        int span = report.lines * width;
        return span;
    }

    int spread(Ledger ledger, int lo, int hi) {
        int mid = (lo + hi) / 2;
        ledger.add(mid);
        return mid;
    }
}
"""

LEDGER_SRC = """
class Ledger {
    int total;

    int plain(int a, int b) {
        return a + b;
    }

    void add(int amount) {
        total = total + amount;
    }
}
"""

REPORT_SRC = """
class Report {
    int lines;

    int header(int width) {
        return width * 3;
    }
}
"""


def fixture_units():
    return [
        parse_unit(WALLET_SRC, "Wallet.java"),
        parse_unit(LEDGER_SRC, "Ledger.java"),
        parse_unit(REPORT_SRC, "Report.java"),
    ]


def method_of(units, class_name, method_name):
    index = build_class_index(units)
    cls = index[class_name][1]
    for m in cls.methods:
        if m.name == method_name:
            return cls, m
    raise AssertionError(f"{class_name}.{method_name} not in fixture")


# ---------------------------------------------------------------------------
# Structural filters, one hand-labeled assertion per category


def test_filter_static():
    cls, m = method_of(fixture_units(), "Wallet", "zero")
    assert m.is_static
    assert not passes_structural_filters(m, cls)


def test_filter_constructor_like():
    cls, m = method_of(fixture_units(), "Wallet", "Wallet")
    assert is_constructor_like(m, cls)
    assert not passes_structural_filters(m, cls)


def test_filter_empty():
    cls, m = method_of(fixture_units(), "Wallet", "noop")
    assert is_empty(m)
    assert not passes_structural_filters(m, cls)


def test_filter_delegation():
    cls, m = method_of(fixture_units(), "Wallet", "relay")
    assert is_delegation(m)
    assert not passes_structural_filters(m, cls)


def test_filter_getter():
    cls, m = method_of(fixture_units(), "Wallet", "current")
    assert is_getter(m, cls)
    assert not passes_structural_filters(m, cls)


def test_filter_setter():
    cls, m = method_of(fixture_units(), "Wallet", "update")
    assert is_setter(m, cls)
    assert not passes_structural_filters(m, cls)


def test_filter_parameterless():
    cls, m = method_of(fixture_units(), "Wallet", "scale")
    assert not m.params
    assert not passes_structural_filters(m, cls)


def test_filters_pass_candidates():
    units = fixture_units()
    for name in ("audit", "merge", "check", "describe", "spread"):
        cls, m = method_of(units, "Wallet", name)
        assert passes_structural_filters(m, cls), name


def test_state_touch_bare_field():
    cls, m = method_of(fixture_units(), "Wallet", "audit")
    assert touches_instance_state(m, cls)


def test_state_touch_ignores_qualified_refs():
    units = fixture_units()
    for name in ("merge", "check", "describe", "spread"):
        cls, m = method_of(units, "Wallet", name)
        assert not touches_instance_state(m, cls), name


def test_state_touch_unknown_bare_call():
    cls, m = method_of(fixture_units(), "Wallet", "relay")
    assert touches_instance_state(m, cls)


def test_state_touch_param_shadows_field():
    unit = parse_unit(
        """
        class Shadow {
            int balance;
            int probe(Ledger ledger, int balance) {
                return balance + ledger.total;
            }
        }
        """,
        "Shadow.java",
    )
    cls = unit.classes[0]
    assert not touches_instance_state(cls.methods[0], cls)


def test_state_touch_self_recursion_allowed():
    unit = parse_unit(
        """
        class Loop {
            int down(Ledger ledger, int n) {
                if (n > 0) {
                    return down(ledger, n - 1);
                }
                return ledger.total;
            }
        }
        """,
        "Loop.java",
    )
    cls = unit.classes[0]
    assert not touches_instance_state(cls.methods[0], cls)


def test_state_touch_bare_call_as_receiver():
    unit = parse_unit(
        """
        class Probe {
            int peek(Ledger ledger, int n) {
                return helper().total + ledger.total;
            }
        }
        """,
        "Probe.java",
    )
    cls = unit.classes[0]
    assert touches_instance_state(cls.methods[0], cls)


# ---------------------------------------------------------------------------
# Enumeration


def test_find_movable_exact_set():
    units = fixture_units()
    movable = find_movable(units)
    by_name = {c.method_id.split("::")[-1]: c for c in movable}
    assert sorted(by_name) == ["check/4", "describe/2", "merge/2", "spread/3"]
    assert by_name["merge/2"].target_class_ids == ["Ledger"]
    assert by_name["check/4"].target_class_ids == ["Ledger", "Report"]
    assert by_name["describe/2"].target_class_ids == ["Report"]
    assert by_name["spread/3"].target_class_ids == ["Ledger"]
    assert all(c.origin_class_id == "Wallet" for c in movable)
    assert [c.method_id for c in movable] == sorted(c.method_id for c in movable)


def test_find_scoreable_adds_state_touchers():
    units = fixture_units()
    movable = {c.method_id for c in find_movable(units)}
    scoreable = {c.method_id for c in find_scoreable(units)}
    assert movable < scoreable
    extra = {m.split("::")[-1] for m in scoreable - movable}
    assert extra == {"audit/2"}


def test_targetless_methods_not_scoreable():
    # plain and header pass every filter but have no class-typed params
    scoreable = {c.method_id.split("::")[-1] for c in find_scoreable(fixture_units())}
    assert "plain/2" not in scoreable
    assert "header/1" not in scoreable


def test_duplicate_class_rejected():
    units = [
        parse_unit("class Same { int x; }", "a.java"),
        parse_unit("class Same { int y; }", "b.java"),
    ]
    with pytest.raises(DataError):
        build_class_index(units)


def test_candidate_validation():
    with pytest.raises(ValueError):
        CandidateMove("m", "A", [])
    with pytest.raises(ValueError):
        CandidateMove("m", "A", ["A", "B"])
    cand = CandidateMove("m", "A", ["C", "B"])
    assert cand.target_class_ids == ["B", "C"]


# ---------------------------------------------------------------------------
# perform_move


def test_move_unqualifies_target_refs():
    units = fixture_units()
    merge_id = method_of(units, "Wallet", "merge")[1].id
    mutated, entry = perform_move(units, merge_id, "Ledger")

    # original corpus untouched
    assert method_of(units, "Wallet", "merge")[1].id == merge_id
    assert len(build_class_index(units)["Ledger"][1].methods) == 2

    wallet = build_class_index(mutated)["Wallet"][1]
    ledger = build_class_index(mutated)["Ledger"][1]
    assert "merge" not in wallet.method_names
    assert "merge" in ledger.method_names
    assert len(wallet.methods) == 11
    assert len(ledger.methods) == 3

    moved = [m for m in ledger.methods if m.name == "merge"][0]
    assert moved.id == "Ledger.java::Ledger::merge/2"
    assert entry == GroundTruthEntry(moved.id, "Wallet", "Ledger")

    text = print_unit(build_class_index(mutated)["Ledger"][0])
    assert "ledger.total" not in text
    assert "sum = total + bonus;" in text


def test_move_keeps_other_qualifiers():
    units = fixture_units()
    check_id = method_of(units, "Wallet", "check")[1].id
    mutated, _ = perform_move(units, check_id, "Report")
    report_unit = build_class_index(mutated)["Report"][0]
    text = print_unit(report_unit)
    assert "report.lines" not in text
    assert "verdict = lines;" in text
    assert "ledger.total" in text  # other param stays qualified


def test_move_requalifies_origin_members():
    units = [
        parse_unit(
            """
            class Pair {
                int left;
                int fuse(Pair own, Box box, int k) {
                    int keep = left + k;
                    box.push(keep);
                    return keep;
                }
            }
            """,
            "Pair.java",
        ),
        parse_unit(
            """
            class Box {
                int depth;
                void push(int value) {
                    depth = value;
                }
            }
            """,
            "Box.java",
        ),
    ]
    fuse_id = units[0].classes[0].methods[0].id
    mutated, entry = perform_move(units, fuse_id, "Box")
    box_unit = build_class_index(mutated)["Box"][0]
    text = print_unit(box_unit)
    assert "keep = own.left + k;" in text
    assert "push(keep);" in text
    assert "box.push" not in text
    assert entry.moved_method_id == "Box.java::Box::fuse/3"


def test_move_without_origin_param_needs_no_carrier():
    # state-free bodies never force an origin-typed parameter
    units = fixture_units()
    spread_id = method_of(units, "Wallet", "spread")[1].id
    mutated, _ = perform_move(units, spread_id, "Ledger")
    text = print_unit(build_class_index(mutated)["Ledger"][0])
    assert "add(mid);" in text
    assert "ledger.add" not in text


def test_move_carrier_missing_refuses():
    units = [
        parse_unit(
            """
            class Pair {
                int left;
                int fuse(Box box, int k) {
                    int keep = left + k;
                    box.push(keep);
                    return keep;
                }
            }
            """,
            "Pair.java",
        ),
        parse_unit(
            "class Box { int depth; void push(int value) { depth = value; } }",
            "Box.java",
        ),
    ]
    with pytest.raises(NotMovableError):
        perform_move(units, units[0].classes[0].methods[0].id, "Box")


def _two_class_corpus(wallet_method_src, ledger_extra=""):
    wallet = parse_unit(
        "class Wallet {\n    int balance;\n" + wallet_method_src + "\n}",
        "Wallet.java",
    )
    ledger = parse_unit(
        "class Ledger {\n    int total;\n"
        "    void add(int amount) { total = total + amount; }\n"
        + ledger_extra
        + "\n}",
        "Ledger.java",
    )
    return [wallet, ledger]


def test_move_rejects_target_not_a_param_type():
    units = fixture_units()
    merge_id = method_of(units, "Wallet", "merge")[1].id
    with pytest.raises(NotMovableError):
        perform_move(units, merge_id, "Report")


def test_move_rejects_unresolved_target():
    units = fixture_units()
    merge_id = method_of(units, "Wallet", "merge")[1].id
    with pytest.raises(UnresolvedTargetError):
        perform_move(units, merge_id, "Ghost")


def test_move_rejects_signature_clash():
    units = _two_class_corpus(
        "    int add(Ledger ledger) { return ledger.total; }",
    )
    mid = units[0].classes[0].methods[0].id
    assert mid.endswith("add/1")
    units[1].classes[0].methods.append(
        parse_unit(
            "class T { int add(int amount) { return amount; } }", "t.java"
        ).classes[0].methods[0]
    )
    # Ledger now declares add/1 too
    with pytest.raises(NotMovableError):
        perform_move(units, mid, "Ledger")


def test_move_rejects_local_capture():
    units = _two_class_corpus(
        "    int merge(Ledger ledger, int bonus) {\n"
        "        int total = bonus;\n"
        "        return total + ledger.total;\n"
        "    }"
    )
    with pytest.raises(NotMovableError):
        perform_move(units, units[0].classes[0].methods[0].id, "Ledger")


def test_move_rejects_param_capture():
    units = _two_class_corpus(
        "    int merge(Ledger ledger, int total) { return ledger.total + total; }"
    )
    with pytest.raises(NotMovableError):
        perform_move(units, units[0].classes[0].methods[0].id, "Ledger")


def test_move_rejects_ghost_member():
    units = _two_class_corpus(
        "    int merge(Ledger ledger, int bonus) { return ledger.ghost + bonus; }"
    )
    with pytest.raises(NotMovableError):
        perform_move(units, units[0].classes[0].methods[0].id, "Ledger")


def test_move_rejects_ghost_method():
    units = _two_class_corpus(
        "    int merge(Ledger ledger, int bonus) { return ledger.vanish(bonus); }"
    )
    with pytest.raises(NotMovableError):
        perform_move(units, units[0].classes[0].methods[0].id, "Ledger")


def test_move_rejects_member_on_both_classes():
    units = [
        parse_unit(
            "class Wallet { int total; "
            "int merge(Ledger ledger, int bonus) { return ledger.total + bonus; } }",
            "Wallet.java",
        ),
        parse_unit("class Ledger { int total; int id(int x) { return x; } }", "Ledger.java"),
    ]
    with pytest.raises(NotMovableError):
        perform_move(units, units[0].classes[0].methods[0].id, "Ledger")


def test_move_rejects_two_target_params():
    units = _two_class_corpus(
        "    int merge(Ledger one, Ledger two, int bonus) { return one.total + bonus; }"
    )
    with pytest.raises(NotMovableError):
        perform_move(units, units[0].classes[0].methods[0].id, "Ledger")


def test_move_shares_what_it_does_not_change():
    # only the two classes, their units and the moved method are rebuilt;
    # a whole-project copy would fail every `is` below
    units = fixture_units()
    merge_id = method_of(units, "Wallet", "merge")[1].id
    mutated, _ = perform_move(units, merge_id, "Ledger")
    assert mutated[2] is units[2]
    assert mutated[0] is not units[0] and mutated[1] is not units[1]
    wallet, ledger = units[0].classes[0], units[1].classes[0]
    new_wallet, new_ledger = mutated[0].classes[0], mutated[1].classes[0]
    assert new_wallet is not wallet and new_ledger is not ledger
    kept = [m for m in wallet.methods if m.name != "merge"]
    assert len(new_wallet.methods) == len(kept)
    assert all(a is b for a, b in zip(new_wallet.methods, kept))
    assert all(a is b for a, b in zip(new_ledger.methods, ledger.methods))
    moved, original = new_ledger.methods[-1], method_of(units, "Wallet", "merge")[1]
    assert moved.name == "merge" and moved.params is original.params


def test_move_shares_statements_it_does_not_rewrite():
    # `int mid = ...` and `return mid;` reference no member; only the
    # `ledger.add(mid);` statement is rebuilt
    units = fixture_units()
    spread = method_of(units, "Wallet", "spread")[1]
    mutated, _ = perform_move(units, spread.id, "Ledger")
    moved = build_class_index(mutated)["Ledger"][1].methods[-1]
    before, after = spread.body.children, moved.body.children
    assert moved.name == "spread" and len(after) == len(before) == 3
    assert after[0] is before[0] and after[2] is before[2]
    assert after[1] is not before[1]


SAME_FILE_SRC = """
class Wallet {
    int balance;

    int merge(Wallet home, Ledger ledger, int bonus) {
        int sum = ledger.total + bonus;
        return sum;
    }

    int spend(Ledger ledger, int cost) {
        ledger.add(cost);
        return cost;
    }
}

class Ledger {
    int total;

    void add(int amount) {
        total = total + amount;
    }
}
"""


def test_move_between_classes_of_one_file():
    units = [parse_unit(SAME_FILE_SRC, "Book.java"), parse_unit(REPORT_SRC, "Report.java")]
    snapshot = copy.deepcopy(units)
    merge_id = "Book.java::Wallet::merge/3"
    mutated, entry = perform_move(units, merge_id, "Ledger")
    assert entry == GroundTruthEntry("Book.java::Ledger::merge/3", "Wallet", "Ledger")
    assert units == snapshot
    assert mutated[1] is units[1]

    wallet, ledger = mutated[0].classes
    assert (wallet.name, ledger.name) == ("Wallet", "Ledger")
    assert [m.name for m in wallet.methods] == ["spend"]
    assert [m.id for m in ledger.methods] == [
        "Book.java::Ledger::add/1",
        entry.moved_method_id,
    ]
    text = print_unit(mutated[0])
    assert "sum = total + bonus;" in text
    assert "ledger.total" not in text
    assert text.index("class Ledger") < text.index("merge(")

    restored, back = perform_move(mutated, entry.moved_method_id, "Wallet")
    assert back == GroundTruthEntry(merge_id, "Ledger", "Wallet")
    assert corpora_equal(units, restored)
    assert units == snapshot


# ---------------------------------------------------------------------------
# Involution: moving back restores the corpus


def test_move_back_restores_fixture():
    units = fixture_units()
    check_id = method_of(units, "Wallet", "check")[1].id
    mutated, entry = perform_move(units, check_id, "Ledger")
    assert not corpora_equal(units, mutated)
    restored, back = perform_move(mutated, entry.moved_method_id, "Wallet")
    assert corpora_equal(units, restored)
    assert back.moved_method_id == check_id
    assert back.original_class_id == "Ledger"


ENVY_SRC = {
    "Alpha.java": """
class Alpha {
    int heat;
    int mass;
    int getHeat() {
        return heat;
    }
    int churn(int k) {
        int spin = heat + k;
        return spin * mass;
    }
    int drift(Alpha self, Beta peer, int k) {
        int base = k + k;
        return peer.pull(base) + peer.load;
    }
}
""",
    "Beta.java": """
class Beta {
    int load;
    int getLoad() {
        return load;
    }
    int pull(int amount) {
        return load - amount;
    }
    int lean(Beta self, Gamma peer, int k) {
        int top = k * 2;
        peer.bump(top);
        return peer.size + top;
    }
}
""",
    "Gamma.java": """
class Gamma {
    int size;
    void bump(int amount) {
        size = size + amount;
    }
    int weigh(int k) {
        int deep = size + k;
        return deep;
    }
    int reach(Gamma self, Alpha peer, int k) {
        int far = k - 1;
        return peer.heat * far + peer.getHeat();
    }
}
""",
}


def envy_units():
    return [parse_unit(src, path) for path, src in sorted(ENVY_SRC.items())]


def test_envy_corpus_candidates():
    movable = find_movable(envy_units())
    names = sorted(c.method_id.split("::")[-1] for c in movable)
    assert names == ["drift/3", "lean/3", "reach/3"]


def test_inject_then_reverse_restores_everything():
    units = envy_units()
    mutated, entries = inject_feature_envy(units, seed=7)
    assert len(entries) == 3
    assert not corpora_equal(units, mutated)
    for entry in reversed(entries):
        mutated, _ = perform_move(
            mutated, entry.moved_method_id, entry.original_class_id
        )
    assert corpora_equal(units, mutated)


def test_injected_methods_stay_scoreable():
    # the whole point of scoring without the state filter: moved methods
    # must remain visible, with the original class among their targets
    units = envy_units()
    mutated, entries = inject_feature_envy(units, seed=7)
    scoreable = {c.method_id: c for c in find_scoreable(mutated)}
    for entry in entries:
        assert entry.moved_method_id in scoreable
        cand = scoreable[entry.moved_method_id]
        assert cand.origin_class_id == entry.injected_class_id
        assert entry.original_class_id in cand.target_class_ids


def test_injected_methods_not_movable_again():
    # after the move they touch their new home's state
    units = envy_units()
    mutated, entries = inject_feature_envy(units, seed=7)
    movable = {c.method_id for c in find_movable(mutated)}
    for entry in entries:
        assert entry.moved_method_id not in movable


def test_inject_determinism_and_seed_sensitivity():
    units = envy_units()
    a_corpus, a_entries = inject_feature_envy(units, seed=3)
    b_corpus, b_entries = inject_feature_envy(units, seed=3)
    assert a_entries == b_entries
    assert corpora_equal(a_corpus, b_corpus)
    seen = {
        tuple((e.moved_method_id, e.injected_class_id) for e in entries)
        for entries in (
            inject_feature_envy(units, seed=s)[1] for s in range(6)
        )
    }
    assert len(seen) > 1


def test_inject_cap():
    units = envy_units()
    _, entries = inject_feature_envy(units, seed=0, max_moves=2)
    assert len(entries) == 2
    _, all_entries = inject_feature_envy(units, seed=0)
    assert all_entries[:2] == entries


def test_inject_leaves_input_untouched():
    # `==` compares every unit, class, method (with its id) and AST node;
    # printing alone would not show a rewritten method id
    units = fixture_units()
    snapshot = copy.deepcopy(units)

    merge_id = method_of(units, "Wallet", "merge")[1].id
    perform_move(units, merge_id, "Ledger")
    assert units == snapshot

    # audit reads a bare origin field and has no Wallet parameter to carry
    # it, so the refusal comes only after the body has been rewritten
    audit_id = method_of(units, "Wallet", "audit")[1].id
    with pytest.raises(NotMovableError):
        perform_move(units, audit_id, "Ledger")
    assert units == snapshot

    _, entries = inject_feature_envy(units, seed=1)
    assert entries
    assert units == snapshot


def test_inject_shares_unmoved_units():
    units = envy_units()
    mutated, entries = inject_feature_envy(units, seed=7, max_moves=1)
    (entry,) = entries
    touched = {entry.original_class_id, entry.injected_class_id}
    for before, after in zip(units, mutated):
        if before.classes[0].name in touched:
            assert after is not before
        else:
            assert after is before


# ---------------------------------------------------------------------------
# Dataset construction


def fake_embeddings(units, dim=6, seed=0, omit=()):
    rng = np.random.default_rng(seed)
    out = {}
    for unit in units:
        for cls in unit.classes:
            for m in cls.methods:
                if m.name in omit:
                    continue
                out[m.id] = CodeVector(rng.standard_normal(dim), m.id)
    return out


def test_dataset_balance_and_pairing():
    units = fixture_units()
    embeddings = fake_embeddings(units)
    candidates = find_movable(units)
    examples = build_dataset(units, embeddings, candidates)

    # check has two targets, the rest one each: 5 pairs, 10 rows
    assert len(examples) == 10
    labels = [e.label for e in examples]
    assert labels.count(0) == labels.count(1) == 5
    for e in examples:
        if e.label == 1:
            assert e.feature.class_id == "Wallet"
        else:
            assert e.feature.class_id in ("Ledger", "Report")
        assert e.feature.stage == "raw"
        assert e.feature.values.shape == (12,)


def test_dataset_positive_excludes_own_method():
    units = fixture_units()
    embeddings = fake_embeddings(units)
    merge_id = method_of(units, "Wallet", "merge")[1].id
    examples = build_dataset(units, embeddings, find_movable(units))
    positive = [
        e for e in examples if e.label == 1 and e.feature.method_id == merge_id
    ][0]
    wallet = build_class_index(units)["Wallet"][1]
    rows = [
        embeddings[m.id].values for m in wallet.methods if m.id != merge_id
    ]
    expected_class_half = np.mean(rows, axis=0)
    np.testing.assert_allclose(positive.feature.values[6:], expected_class_half)
    np.testing.assert_allclose(
        positive.feature.values[:6], embeddings[merge_id].values
    )


def test_dataset_negative_uses_full_target_mean():
    units = fixture_units()
    embeddings = fake_embeddings(units)
    examples = build_dataset(units, embeddings, find_movable(units))
    ledger = build_class_index(units)["Ledger"][1]
    expected = np.mean([embeddings[m.id].values for m in ledger.methods], axis=0)
    negatives = [e for e in examples if e.feature.class_id == "Ledger"]
    assert negatives
    for e in negatives:
        np.testing.assert_allclose(e.feature.values[6:], expected)


def test_dataset_drops_unembeddable_target_symmetrically():
    units = fixture_units()
    embeddings = fake_embeddings(units, omit=("header",))  # Report loses all vectors
    examples = build_dataset(units, embeddings, find_movable(units))
    # check keeps its Ledger pair; describe loses its only pair
    assert len(examples) == 6
    labels = [e.label for e in examples]
    assert labels.count(0) == labels.count(1) == 3
    assert all(e.feature.class_id != "Report" for e in examples if e.label == 0)


def test_dataset_skips_method_without_embedding():
    units = fixture_units()
    embeddings = fake_embeddings(units, omit=("merge",))
    examples = build_dataset(units, embeddings, find_movable(units))
    merge_id = method_of(units, "Wallet", "merge")[1].id
    assert len(examples) == 8
    assert all(e.feature.method_id != merge_id for e in examples)


def test_dataset_skips_method_when_origin_mean_empty():
    units = [
        parse_unit(
            "class Solo { int go(Ledger ledger, int k) { return ledger.total + k; } }",
            "Solo.java",
        ),
        parse_unit(
            "class Ledger { int total; int peek(int k) { return k; } }",
            "Ledger.java",
        ),
    ]
    candidates = find_movable(units)
    assert len(candidates) == 1
    # only the candidate itself is embeddable in Solo, so excluding it
    # leaves nothing to average over
    rng = np.random.default_rng(1)
    embeddings = {
        units[0].classes[0].methods[0].id: CodeVector(rng.standard_normal(4), "a"),
        units[1].classes[0].methods[0].id: CodeVector(rng.standard_normal(4), "b"),
    }
    assert build_dataset(units, embeddings, candidates) == []


def test_labeled_example_validation():
    vec = FeatureVector(np.zeros(4), "m", "c", "raw")
    with pytest.raises(ValueError):
        LabeledExample(vec, 2)


# ---------------------------------------------------------------------------
# Splitting


def singleton_examples(n, dim=3):
    rng = np.random.default_rng(0)
    return [
        LabeledExample(
            FeatureVector(rng.standard_normal(dim), f"m{i:03d}", "C", "raw"), i % 2
        )
        for i in range(n)
    ]


def grouped_examples(n_groups):
    rng = np.random.default_rng(0)
    out = []
    for i in range(n_groups):
        for cls, label in (("A", 1), ("B", 0)):
            out.append(
                LabeledExample(
                    FeatureVector(rng.standard_normal(3), f"m{i:03d}", cls, "raw"),
                    label,
                )
            )
    return out


def keys(part):
    return sorted((e.feature.method_id, e.feature.class_id, e.label) for e in part)


def test_split_100_singletons():
    train, test, validate = split_dataset(singleton_examples(100), seed=0)
    assert (len(train), len(test), len(validate)) == (60, 20, 20)
    all_keys = keys(train) + keys(test) + keys(validate)
    assert sorted(all_keys) == keys(singleton_examples(100))


def test_split_seven_rows():
    train, test, validate = split_dataset(singleton_examples(7), seed=0)
    assert (len(train), len(test), len(validate)) == (5, 1, 1)


def test_split_group_integrity():
    examples = grouped_examples(10)
    train, test, validate = split_dataset(examples, seed=1)
    assert (len(train), len(test), len(validate)) == (12, 4, 4)
    for part in (train, test, validate):
        ids = {e.feature.method_id for e in part}
        for other in (train, test, validate):
            if other is part:
                continue
            assert ids.isdisjoint({e.feature.method_id for e in other})
        # both rows of each group travel together
        for mid in ids:
            assert sum(1 for e in part if e.feature.method_id == mid) == 2


def test_split_input_order_irrelevant():
    examples = grouped_examples(12)
    shuffled = list(examples)
    random.Random(99).shuffle(shuffled)
    a = split_dataset(examples, seed=5)
    b = split_dataset(shuffled, seed=5)
    for part_a, part_b in zip(a, b):
        assert keys(part_a) == keys(part_b)


def test_split_seed_changes_membership():
    examples = singleton_examples(100)
    base = keys(split_dataset(examples, seed=0)[1])
    assert any(
        keys(split_dataset(examples, seed=s)[1]) != base for s in range(1, 6)
    )


def test_split_too_few():
    with pytest.raises(TooFewError):
        split_dataset(singleton_examples(4), seed=0)


# ---------------------------------------------------------------------------
# Serialization


def test_dataset_round_trip(tmp_path):
    examples = grouped_examples(4)
    path = tmp_path / "dataset.jsonl"
    write_dataset(path, examples)
    loaded = read_dataset(path)
    assert len(loaded) == len(examples)
    for orig, back in zip(examples, loaded):
        assert back.label == orig.label
        assert back.feature.method_id == orig.feature.method_id
        assert back.feature.class_id == orig.feature.class_id
        assert np.array_equal(back.feature.values, orig.feature.values)


def test_dataset_write_is_deterministic(tmp_path):
    examples = grouped_examples(3)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(a, examples)
    write_dataset(b, examples)
    assert a.read_bytes() == b.read_bytes()


def test_dataset_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format": "dataset", "version": 2}\n')
    with pytest.raises(DataError):
        read_dataset(path)
    path.write_text("")
    with pytest.raises(DataError):
        read_dataset(path)
    path.write_text("not json\n")
    with pytest.raises(DataError):
        read_dataset(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("feature", [float("nan"), 0.0, 0.0]),
        ("method_id", 7),
        ("class_id", None),
        ("label", 0.9),
        ("label", "1"),
    ],
)
def test_dataset_rejects_malformed_row_values(tmp_path, key, value):
    path = tmp_path / "dataset.jsonl"
    write_dataset(path, grouped_examples(2))
    lines = path.read_text().splitlines()
    row = json.loads(lines[2])
    row[key] = value
    lines[2] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=":3: "):
        read_dataset(path)


def test_ground_truth_round_trip(tmp_path):
    entries = [
        GroundTruthEntry("b.java::B::m/2", "A", "B"),
        GroundTruthEntry("c.java::C::n/1", "A", "C"),
    ]
    path = tmp_path / "gt.jsonl"
    write_ground_truth(path, entries)
    assert read_ground_truth(path) == entries


def test_ground_truth_rejects_wrong_kind(tmp_path):
    path = tmp_path / "gt.jsonl"
    write_dataset(path, grouped_examples(2))
    with pytest.raises(DataError):
        read_ground_truth(path)
