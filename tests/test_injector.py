"""Movable-method detection, move rewriting, injection and dataset prep.

The main fixture is hand-labeled: every Wallet method is annotated with
the exact filter that should keep it out (or with its expected targets),
so the enumeration tests assert complete sets rather than spot checks.
"""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest

from pathmove.bundle import load_bundle, save_bundle
from pathmove.embed import CodeVector
from pathmove.errors import DataError
from pathmove.frontend import find_enclosing, parse_unit, print_unit
from pathmove.injector import (
    CandidateMove,
    GroundTruthEntry,
    LabeledExample,
    NotMovableError,
    build_class_index,
    build_dataset,
    corpora_equal,
    find_movable,
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


# ---------------------------------------------------------------------------
# State-touching methods are candidates like any other: a move requalifies
# their bare origin members through the one origin-typed parameter, and
# leaves every other name as written


def test_state_touch_bare_field():
    # audit reads bare `balance` and has no Wallet parameter to carry it
    units = fixture_units()
    audit_id = method_of(units, "Wallet", "audit")[1].id
    assert audit_id in {c.method_id for c in find_movable(units)}
    with pytest.raises(NotMovableError, match="to requalify origin members"):
        perform_move(units, audit_id, "Ledger")


def test_state_touch_ignores_qualified_refs():
    # members reached through a parameter need no carrier, even where
    # one exists (check's `home`)
    units = fixture_units()
    for cand in find_movable(units):
        if cand.method_id.endswith("::audit/2"):
            continue
        for target in cand.target_class_ids:
            mutated, entry = perform_move(units, cand.method_id, target)
            body = find_enclosing(mutated, entry.moved_method_id)[1].body
            assert all(n.token != "home" for n in body.walk()), cand.method_id


def test_state_touch_unknown_bare_call():
    # `post` is no member of Wallet, so nothing requalifies it
    units = _two_class_corpus(
        "    int ping(Wallet home, Ledger ledger, int k) {\n"
        "        int x = post(k);\n"
        "        return x + ledger.total;\n    }"
    )
    mutated, _ = perform_move(units, units[0].classes[0].methods[0].id, "Ledger")
    text = print_unit(build_class_index(mutated)["Ledger"][0])
    assert "x = post(k);" in text
    assert "return x + total;" in text


@pytest.mark.parametrize(
    "body",
    ["        int x = post(k);\n        return x + ledger.total;\n",
     "        return level + ledger.total;\n"],
    ids=["call", "field"],
)
def test_move_refuses_to_bind_an_undeclared_name_to_a_target_member(body):
    # Wallet declares no `post` or `level` and Ledger declares both: left
    # as written, the moved name would reach Ledger's member
    units = _two_class_corpus(
        "    int ping(Wallet home, Ledger ledger, int k) {\n" + body + "    }",
        "    int level;\n    int post(int v) { return v; }\n",
    )
    with pytest.raises(NotMovableError, match="would bind to Ledger's"):
        perform_move(units, units[0].classes[0].methods[0].id, "Ledger")
    assert inject_feature_envy(units, seed=0)[1] == []


def test_move_keeps_a_local_named_like_a_target_field():
    units = _two_class_corpus(
        "    int ping(Wallet home, Ledger ledger, int k) {\n"
        "        int level = k;\n        return level + ledger.total;\n    }",
        "    int level;\n",
    )
    mutated, _ = perform_move(units, units[0].classes[0].methods[0].id, "Ledger")
    assert "return level + total;" in print_unit(build_class_index(mutated)["Ledger"][0])


def test_state_touch_param_shadows_field():
    # the parameter `balance` shadows Wallet's field: no carrier needed
    units = _two_class_corpus(
        "    int probe(Ledger ledger, int balance) {\n"
        "        return balance + ledger.total;\n    }"
    )
    mutated, _ = perform_move(units, units[0].classes[0].methods[0].id, "Ledger")
    assert "return balance + total;" in print_unit(build_class_index(mutated)["Ledger"][0])


def test_state_touch_self_recursion_allowed():
    # the recursive call moves with the method: no carrier needed
    units = _two_class_corpus(
        "    int down(Ledger ledger, int n) {\n"
        "        if (n > 0) {\n"
        "            return down(ledger, n - 1);\n"
        "        }\n"
        "        return ledger.total;\n    }"
    )
    mutated, _ = perform_move(units, units[0].classes[0].methods[0].id, "Ledger")
    text = print_unit(build_class_index(mutated)["Ledger"][0])
    assert "return down(ledger, n - 1);" in text
    assert "return total;" in text


def test_state_touch_bare_call_as_receiver():
    units = _two_class_corpus(
        "    int helper(int n) {\n        return n * 2;\n    }\n"
        "    int peek(Wallet own, Ledger ledger, int n) {\n"
        "        return helper(n).total + ledger.total;\n    }"
    )
    peek_id = method_of(units, "Wallet", "peek")[1].id
    mutated, _ = perform_move(units, peek_id, "Ledger")
    text = print_unit(build_class_index(mutated)["Ledger"][0])
    assert "return own.helper(n).total + total;" in text


# ---------------------------------------------------------------------------
# Enumeration


def test_find_movable_exact_set():
    units = fixture_units()
    movable = find_movable(units)
    by_name = {c.method_id.split("::")[-1]: c for c in movable}
    # audit reads Wallet's own `balance` bare, and is a candidate all the same
    assert sorted(by_name) == ["audit/2", "check/4", "describe/2", "merge/2", "spread/3"]
    assert by_name["audit/2"].target_class_ids == ["Ledger"]
    assert by_name["merge/2"].target_class_ids == ["Ledger"]
    assert by_name["check/4"].target_class_ids == ["Ledger", "Report"]
    assert by_name["describe/2"].target_class_ids == ["Report"]
    assert by_name["spread/3"].target_class_ids == ["Ledger"]
    assert all(c.origin_class_id == "Wallet" for c in movable)
    assert [c.method_id for c in movable] == sorted(c.method_id for c in movable)


def test_targetless_methods_not_scoreable():
    # plain and header pass every filter but have no class-typed params
    names = {c.method_id.split("::")[-1] for c in find_movable(fixture_units())}
    assert "plain/2" not in names
    assert "header/1" not in names


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
    with pytest.raises(NotMovableError, match="target class 'Ghost' not in corpus"):
        perform_move(units, merge_id, "Ghost")


def test_move_rejects_own_class():
    units = fixture_units()
    merge_id = method_of(units, "Wallet", "merge")[1].id
    with pytest.raises(NotMovableError, match="target equals origin class"):
        perform_move(units, merge_id, "Wallet")


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
    # a moved method touches its new home's members bare, and is a
    # candidate again, with the class it came from among its targets
    units = envy_units()
    mutated, entries = inject_feature_envy(units, seed=7)
    candidates = {c.method_id: c for c in find_movable(mutated)}
    for entry in entries:
        cand = candidates[entry.moved_method_id]
        assert cand.origin_class_id == entry.injected_class_id
        assert entry.original_class_id in cand.target_class_ids


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


TARGET_SRC = """
class Target {
    int count;
    int getCount() {
        return count;
    }
}
"""


@pytest.mark.parametrize(
    "method, scoreable, undoable",
    [
        # a setter once unqualified, which find_movable drops
        ("void put(Target t, int v) {\n        t.count = v;\n    }", False, False),
        ("void put(Origin o, Target t, int v) {\n        t.count = v;\n    }", False, True),
        # no class-typed parameter but Target's own: nothing to carry it back
        ("int take(Target t, int v) {\n        int w = v + 1;\n        return t.count + w;\n    }",
         False, False),
        # two Origin parameters: a move back cannot pick a qualifier
        ("int pair(Origin a, Origin b, Target t) {\n        int w = t.count + 1;\n"
         "        return w * 2;\n    }", True, False),
    ],
    ids=["setter", "setter-with-origin-param", "no-origin-param", "two-origin-params"],
)
def test_inject_plants_only_moves_it_can_score_and_undo(method, scoreable, undoable):
    origin = f"""
class Origin {{
    int level;
    int getLevel() {{
        return level;
    }}
    {method}
}}
"""
    units = [parse_unit(origin, "Origin.java"), parse_unit(TARGET_SRC, "Target.java")]
    (candidate,) = find_movable(units)
    moved, entry = perform_move(units, candidate.method_id, "Target")
    assert (entry.moved_method_id in {c.method_id for c in find_movable(moved)}) == scoreable
    try:
        perform_move(moved, entry.moved_method_id, "Origin")
    except NotMovableError:
        assert not undoable
    else:
        assert undoable
    for seed in range(4):
        mutated, entries = inject_feature_envy(units, seed)
        assert entries == []
        assert mutated is units


SETTLE_BODY = """ {
        int due = balance + k;
        return due * ledger.total;
    }"""


def test_inject_plants_state_touching_method_through_its_carrier():
    units = _two_class_corpus("    int settle(Wallet home, Ledger ledger, int k)" + SETTLE_BODY)
    mutated, entries = inject_feature_envy(units, seed=0)
    assert entries == [GroundTruthEntry("Ledger.java::Ledger::settle/3", "Wallet", "Ledger")]
    text = print_unit(build_class_index(mutated)["Ledger"][0])
    assert "due = home.balance + k;" in text
    assert "return due * total;" in text
    restored, _ = perform_move(mutated, entries[0].moved_method_id, "Wallet")
    assert corpora_equal(units, restored)


def test_inject_never_plants_state_touching_method_without_carrier():
    units = _two_class_corpus("    int settle(Ledger ledger, int k)" + SETTLE_BODY)
    assert find_movable(units)  # scored and trained on all the same
    for seed in range(4):
        mutated, entries = inject_feature_envy(units, seed)
        assert entries == []
        assert mutated is units


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
    # without Gamma, drift is the only candidate; Delta takes no part
    alpha, beta, _ = envy_units()
    units = [alpha, beta, parse_unit("class Delta {\n    int d;\n}\n", "Delta.java")]
    mutated, entries = inject_feature_envy(units, seed=7)
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

    # check has two targets, the rest one each: 6 pairs, 12 rows
    assert len(examples) == 12
    labels = [e.label for e in examples]
    assert labels.count(0) == labels.count(1) == 6
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
    assert len(examples) == 8
    labels = [e.label for e in examples]
    assert labels.count(0) == labels.count(1) == 4
    assert all(e.feature.class_id != "Report" for e in examples if e.label == 0)


def test_dataset_skips_method_without_embedding():
    units = fixture_units()
    embeddings = fake_embeddings(units, omit=("merge",))
    examples = build_dataset(units, embeddings, find_movable(units))
    merge_id = method_of(units, "Wallet", "merge")[1].id
    assert len(examples) == 10
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


def grouped_examples(n_groups, dim=3):
    rng = np.random.default_rng(0)
    out = []
    for i in range(n_groups):
        for cls, label in (("A", 1), ("B", 0)):
            out.append(
                LabeledExample(
                    FeatureVector(rng.standard_normal(dim), f"m{i:03d}", cls, "raw"),
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
    with pytest.raises(DataError, match="test or validation split empty"):
        split_dataset(singleton_examples(4), seed=0)


def test_split_leaves_no_split_empty():
    """Four methods of six rows each: no method fits the four-row test
    quota, so the split would leave test and validation empty."""
    examples = [e for _ in range(3) for e in grouped_examples(4)]
    with pytest.raises(DataError, match="test or validation split empty"):
        split_dataset(examples, seed=0)


# ---------------------------------------------------------------------------
# Serialization


def dataset_splits():
    """The train and validation splits, the two that a dataset stores, of
    pairs 4 wide: a method half and a class half of 2 values each."""
    train, _, validate = split_dataset(grouped_examples(10, dim=4), seed=1)
    return train, validate


def assert_same_rows(loaded, splits):
    assert [len(split) for split in loaded] == [len(split) for split in splits]
    for orig, back in zip((e for split in splits for e in split),
                          (e for split in loaded for e in split)):
        assert back.label == orig.label
        assert back.feature.method_id == orig.feature.method_id
        assert back.feature.class_id == orig.feature.class_id
        assert back.feature.values.tobytes() == orig.feature.values.tobytes()


def test_dataset_round_trip(tmp_path):
    splits = dataset_splits()
    path = tmp_path / "dataset.pmb"
    write_dataset(path, splits)
    assert [len(split) for split in splits] == [12, 4]
    assert_same_rows(read_dataset(path), splits)


def test_dataset_stores_each_half_once_and_keeps_signed_zeros(tmp_path):
    """Halves repeat across rows, as a candidate's method vector does across
    its classes; 0.0 and -0.0 are different halves, stored apart."""
    zero, minus_zero = [0.0, 1.5], [-0.0, 1.5]
    rows = [(zero, [2.0, 3.0], "m1", "A", 1), (zero, [4.0, -0.0], "m1", "B", 0),
            (minus_zero, [2.0, 3.0], "m2", "A", 0), (zero, [4.0, 0.0], "m1", "C", 0),
            (minus_zero, [4.0, -0.0], "m2", "B", 1)]
    examples = [LabeledExample(FeatureVector(np.array(m + c), mid, cid, "raw"), label)
                for m, c, mid, cid, label in rows]
    splits = (examples[:3], examples[3:])
    path = tmp_path / "dataset.pmb"
    write_dataset(path, splits)
    _, arrays = load_bundle(path, expect_kind="dataset")
    assert arrays["method_halves"].tolist() == [zero, minus_zero]
    assert np.signbit(arrays["method_halves"][:, 0]).tolist() == [False, True]
    assert arrays["method_index"].tolist() == [0, 0, 1, 0, 1]
    assert np.signbit(arrays["class_halves"][:, 1]).tolist() == [False, True, False]
    assert arrays["class_index"].tolist() == [0, 1, 0, 2, 1]
    # every value fits float32, so the rows read back as float32
    for orig, back in zip(examples, (e for split in read_dataset(path) for e in split)):
        assert back.feature.values.dtype == np.float32
        assert np.array_equal(back.feature.values, orig.feature.values)
        assert np.signbit(back.feature.values).tolist() == np.signbit(orig.feature.values).tolist()
        assert (back.label, back.feature.method_id, back.feature.class_id) == (
            orig.label, orig.feature.method_id, orig.feature.class_id)


def test_dataset_stores_float32_pairs_as_float32_and_reads_them_back(tmp_path):
    """Pairs of float32 code vectors, as build-dataset makes them: both
    half tables are stored as float32, and every row reads back with the
    values it was written with."""
    splits = tuple(
        [LabeledExample(FeatureVector(e.feature.values.astype(np.float32), e.feature.method_id,
                                      e.feature.class_id, "raw"), e.label) for e in split]
        for split in dataset_splits()
    )
    path = tmp_path / "dataset.pmb"
    write_dataset(path, splits)
    header, _ = load_bundle(path, expect_kind="dataset")
    stored = {entry["name"]: entry["dtype"] for entry in header["arrays"]}
    assert stored["method_halves"] == stored["class_halves"] == "float32"
    loaded = read_dataset(path)
    assert [len(split) for split in loaded] == [len(split) for split in splits]
    for orig, back in zip((e for split in splits for e in split),
                          (e for split in loaded for e in split)):
        assert (back.label, back.feature.method_id, back.feature.class_id) == (
            orig.label, orig.feature.method_id, orig.feature.class_id)
        assert np.array_equal(back.feature.values, orig.feature.values)


def test_dataset_write_is_deterministic(tmp_path):
    a, b = tmp_path / "a.pmb", tmp_path / "b.pmb"
    write_dataset(a, dataset_splits())
    write_dataset(b, dataset_splits())
    assert a.read_bytes() == b.read_bytes()


def test_dataset_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.pmb"
    save_bundle(path, "model", {}, {})
    with pytest.raises(DataError):
        read_dataset(path)
    path.write_text("")
    with pytest.raises(DataError):
        read_dataset(path)
    path.write_text("not json\n")
    with pytest.raises(DataError):
        read_dataset(path)


def rewrite_dataset(path, edit):
    header, arrays = load_bundle(path, expect_kind="dataset")
    edit(header["meta"], arrays)
    save_bundle(path, "dataset", header["meta"], arrays)


@pytest.mark.parametrize(
    "key, value",
    [
        ("feature", [float("nan"), 0.0]),
        ("method_id", 7),
        ("class_id", None),
        ("label", 0.9),
        ("label", 2),
    ],
)
def test_dataset_rejects_malformed_row_values(tmp_path, key, value):
    """The second training row gets a bad feature, id or label."""

    def edit(meta, arrays):
        if key == "feature":
            arrays["class_halves"][arrays["class_index"][1]] = value
        elif key == "label":
            arrays["labels"] = arrays["labels"].astype(type(value))
            arrays["labels"][1] = value
        else:
            meta["train"][1][("method_id", "class_id").index(key)] = value

    path = tmp_path / "dataset.pmb"
    write_dataset(path, dataset_splits())
    rewrite_dataset(path, edit)
    with pytest.raises(DataError, match="dataset.pmb: "):
        read_dataset(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda meta, arrays: meta["validate"].pop(),
        lambda meta, arrays: arrays.update(method_index=arrays["method_index"][:-1]),
        lambda meta, arrays: arrays.update(labels=arrays["labels"][:-1]),
        lambda meta, arrays: meta["validate"].append(meta["validate"][0]),
    ],
    ids=["fewer-ids", "fewer-rows", "fewer-labels", "more-ids"],
)
def test_dataset_rejects_counts_that_disagree(tmp_path, edit):
    path = tmp_path / "dataset.pmb"
    write_dataset(path, dataset_splits())
    rewrite_dataset(path, edit)
    with pytest.raises(DataError, match="ids, features"):
        read_dataset(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda arrays: arrays.update(method_halves=arrays["method_halves"].ravel()),
         "method_halves of shape \\(\\d+,\\) is not a matrix"),
        (lambda arrays: arrays.update(class_halves=arrays["class_halves"][:, 1:]),
         "method halves 2 wide, class halves 1"),
        (lambda arrays: arrays["method_index"].__setitem__(0, len(arrays["method_halves"])),
         "method_index leaves the"),
        (lambda arrays: arrays["class_index"].__setitem__(2, -1), "class_index leaves the"),
        (lambda arrays: arrays.update(class_index=arrays["class_index"].astype(float)),
         "class_index leaves the"),
        (lambda arrays: arrays.update(class_index=arrays["class_index"][:, None]),
         "16 ids, features indexed \\(16, 1\\) by class_index"),
    ],
    ids=["flat-halves", "narrow-class-halves", "index-past-end", "negative-index",
         "float-index", "2d-index"],
)
def test_dataset_rejects_malformed_halves_and_indices(tmp_path, edit, message):
    path = tmp_path / "dataset.pmb"
    write_dataset(path, dataset_splits())
    rewrite_dataset(path, lambda meta, arrays: edit(arrays))
    with pytest.raises(DataError, match="dataset.pmb: bad dataset bundle: " + message):
        read_dataset(path)


def test_ground_truth_round_trip(tmp_path):
    gt_by_project = {
        "eval/proj-01": [
            GroundTruthEntry("eval/proj-01/b.java::B::m/2", "A", "B"),
            GroundTruthEntry("eval/proj-01/c.java::C::n/1", "A", "C"),
        ],
        "eval/proj-02": [GroundTruthEntry("eval/proj-02/a.java::A::p/1", "D", "A")],
    }
    path = tmp_path / "gt.jsonl"
    write_ground_truth(path, gt_by_project)
    assert read_ground_truth(path) == gt_by_project


def test_ground_truth_writes_projects_in_sorted_order(tmp_path):
    later = [GroundTruthEntry("eval/proj-02/a.java::A::p/1", "D", "A")]
    earlier = [GroundTruthEntry("eval/proj-01/b.java::B::m/2", "A", "B")]
    write_ground_truth(tmp_path / "a.jsonl", {"eval/proj-02": later, "eval/proj-01": earlier})
    write_ground_truth(tmp_path / "b.jsonl", {"eval/proj-01": earlier, "eval/proj-02": later})
    text = (tmp_path / "a.jsonl").read_text()
    assert text == (tmp_path / "b.jsonl").read_text()
    assert text.index("eval/proj-01/") < text.index("eval/proj-02/")


def test_read_ground_truth_groups_rows_by_project(tmp_path):
    """Rows that interleave two projects are grouped by project, each
    project's entries in file order."""
    path = tmp_path / "gt.jsonl"
    path.write_text(
        '{"format": "ground-truth", "version": 1}\n'
        '{"injected_class_id": "A", "moved_method_id": "eval/proj-04/A.java::A::m/2", '
        '"original_class_id": "B"}\n'
        '{"injected_class_id": "C", "moved_method_id": "eval/proj-05/C.java::C::p/3", '
        '"original_class_id": "D"}\n'
        '{"injected_class_id": "B", "moved_method_id": "eval/proj-04/B.java::B::n/1", '
        '"original_class_id": "A"}\n'
    )
    assert read_ground_truth(path) == {
        "eval/proj-04": [
            GroundTruthEntry("eval/proj-04/A.java::A::m/2", "B", "A"),
            GroundTruthEntry("eval/proj-04/B.java::B::n/1", "A", "B"),
        ],
        "eval/proj-05": [GroundTruthEntry("eval/proj-05/C.java::C::p/3", "D", "C")],
    }


def test_ground_truth_rejects_wrong_kind(tmp_path):
    path = tmp_path / "gt.jsonl"
    path.write_text('{"format": "recommendations", "version": 2}\n')
    with pytest.raises(DataError):
        read_ground_truth(path)


def test_ground_truth_rejects_id_outside_a_project(tmp_path):
    # Keyed so that the project-less row is written second, on line 3.
    gt_by_project = {
        "eval/proj-01": [GroundTruthEntry("eval/proj-01/b.java::B::m/2", "A", "B")],
        "none": [GroundTruthEntry("b.java::B::n/1", "A", "B")],
    }
    path = tmp_path / "gt.jsonl"
    write_ground_truth(path, gt_by_project)
    with pytest.raises(DataError, match="gt.jsonl:3: .*project directory"):
        read_ground_truth(path)
