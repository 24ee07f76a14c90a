"""Path-context extraction tests.

The completeness oracle is an independent brute-force walker built on a
parent map; the main extractor uses ancestor chains instead, so agreement
between the two is meaningful.
"""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_method_source
from pathmove.errors import DataError
from pathmove.frontend import AstNode, parse_unit
from pathmove.pathctx import (
    METHOD_NAME_PLACEHOLDER,
    ContextBag,
    ExtractionLimits,
    PathContext,
    context_to_string,
    dump_bags,
    extract_contexts,
    load_bags,
    normalize_token,
)

WIDE = ExtractionLimits(max_length=10**6, max_width=10**6, max_contexts=10**6)


def method_of(src: str, index: int = 0):
    return parse_unit(src, "T.java").classes[0].methods[index]


def test_conditional_through_parentheses():
    # return (a > b) ? a : b; pairs the condition's name with the branch
    # name through four interior hops.
    method = method_of("class T { int pick(int a, int b) { return (a > b) ? a : b; } }")
    bag = extract_contexts(method, ExtractionLimits())
    strings = [context_to_string(c) for c in bag.contexts]
    assert (
        "a,Name↑BinaryExpression↑EnclosedExpression"
        "↑ConditionalExpression↓Name,a" in strings
    )


def test_minimal_shared_parent():
    method = method_of("class T { void f(int x, int y) { x = y; } }")
    bag = extract_contexts(method, WIDE)
    assert [context_to_string(c) for c in bag.contexts] == [
        "x,Name↑Assignment↓Name,y"
    ]
    assert bag.contexts[0] == PathContext("x", "Name↑Assignment↓Name", "y")


def path_nodes(path: str) -> int:
    return 1 + path.count("↑") + path.count("↓")


def test_directions_up_then_down():
    rng = random.Random(7)
    for _ in range(25):
        method = method_of(random_method_source(rng))
        for ctx in extract_contexts(method, WIDE).contexts:
            arrows = [ch for ch in ctx.path if ch in "↑↓"]
            flips = sum(1 for a, b in zip(arrows, arrows[1:]) if a != b)
            assert arrows[0] == "↑" and arrows[-1] == "↓" and flips == 1


def _brute_force_strings(body: AstNode) -> list[str]:
    """All-pairs walker over an explicit parent map."""
    parents: dict[int, AstNode | None] = {id(body): None}
    order: list[AstNode] = []
    queue = [body]
    while queue:
        node = queue.pop(0)
        for child in node.children:
            parents[id(child)] = node
            queue.append(child)
    # leaves in source order come from a separate recursive pass
    def leaves_of(node: AstNode):
        if node.is_leaf:
            order.append(node)
        for child in node.children:
            leaves_of(child)

    leaves_of(body)

    def ancestors(node: AstNode) -> list[AstNode]:
        chain = [node]
        while parents[id(chain[-1])] is not None:
            chain.append(parents[id(chain[-1])])
        return chain  # leaf first, root last

    out = []
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            up = ancestors(order[i])
            down = ancestors(order[j])
            down_ids = {id(n): k for k, n in enumerate(down)}
            rise = 0
            while id(up[rise]) not in down_ids:
                rise += 1
            lca_pos = down_ids[id(up[rise])]
            labels = [n.label for n in up[: rise + 1]]
            arrows = ["↑"] * (len(labels) - 1)
            for n in reversed(down[:lca_pos]):
                labels.append(n.label)
                arrows.append("↓")
            text = labels[0] + "".join(a + l for a, l in zip(arrows, labels[1:]))
            start, end = normalize_token(order[i]), normalize_token(order[j])
            out.append(f"{start},{text},{end}")
    return out


def test_completeness_against_brute_force():
    # 50 random bodies: same multiset of contexts, count C(n, 2).
    rng = random.Random(20260201)
    checked_pairs = 0
    for case in range(50):
        method = method_of(random_method_source(rng, name="zeta"))
        bag = extract_contexts(method, WIDE)
        expected = _brute_force_strings(method.body)
        got = [context_to_string(c) for c in bag.contexts]
        n = sum(1 for node in method.body.walk() if node.is_leaf)
        assert len(expected) == n * (n - 1) // 2
        assert sorted(got) == sorted(expected), f"case {case}"
        checked_pairs += len(expected)
    assert checked_pairs > 1000  # the corpus was not degenerate


def test_limit_monotonicity():
    rng = random.Random(31)
    for _ in range(20):
        method = method_of(random_method_source(rng))
        loose = extract_contexts(method, WIDE)
        for max_length, max_width in [(3, 10**6), (10**6, 1), (5, 2), (8, 2)]:
            limits = ExtractionLimits(max_length, max_width, 10**6)
            tight = extract_contexts(method, limits)
            loose_strings = [context_to_string(c) for c in loose.contexts]
            for ctx in tight.contexts:
                assert context_to_string(ctx) in loose_strings
            assert len(tight.contexts) <= len(loose.contexts)
            for ctx in tight.contexts:
                assert path_nodes(ctx.path) <= max_length


def test_width_by_hand():
    # g(a, b, c); leaves g,a,b,c under one MethodCall; widths:
    # (g,a)=1 (g,b)=2 (g,c)=3 (a,b)=1 (a,c)=2 (b,c)=1
    src = "class T { void f(int a, int b, int c) { g(a, b, c); } }"
    method = method_of(src)
    by_width = {
        1: 3,  # three pairs at distance 1
        2: 5,  # plus two more at distance 2
        3: 6,  # all pairs
    }
    for max_width, expected in by_width.items():
        limits = ExtractionLimits(max_length=10**6, max_width=max_width, max_contexts=10**6)
        assert len(extract_contexts(method, limits).contexts) == expected


def test_length_boundary():
    method = method_of("class T { void f(int x, int y) { x = y; } }")
    keep = ExtractionLimits(max_length=3, max_width=5, max_contexts=10)
    drop = ExtractionLimits(max_length=2, max_width=5, max_contexts=10)
    assert len(extract_contexts(method, keep).contexts) == 1
    assert extract_contexts(method, drop).contexts == []


def test_own_name_masked():
    src = "class T { int fact(int n) { return n < 2 ? 1 : n * fact(n - 1); } }"
    bag = extract_contexts(method_of(src), WIDE)
    tokens = {c.start_token for c in bag.contexts} | {c.end_token for c in bag.contexts}
    assert METHOD_NAME_PLACEHOLDER in tokens
    assert "fact" not in tokens
    assert "n" in tokens  # other names untouched


def test_normalize_token():
    assert normalize_token(AstNode("Name", token="index")) == "index"
    assert normalize_token(AstNode("Literal", token="42")) == "NUM"
    assert normalize_token(AstNode("Literal", token="4.5")) == "NUM"
    assert normalize_token(AstNode("Literal", token='"abc"')) == "STR"
    assert normalize_token(AstNode("Literal", token="true")) == "true"
    with pytest.raises(ValueError):
        normalize_token(AstNode("Block"))


def test_empty_and_tiny_bodies():
    empty = extract_contexts(method_of("class T { void f() { } }"), WIDE)
    assert empty.contexts == []
    single = extract_contexts(method_of("class T { int f(int x) { return x; } }"), WIDE)
    assert single.contexts == []
    pair = extract_contexts(method_of("class T { int f(int x) { return x + 1; } }"), WIDE)
    assert len(pair.contexts) == 1


def test_sampling_cap_and_determinism():
    rng = random.Random(5)
    src = random_method_source(rng, max_stmts=8)
    method = method_of(src)
    full = extract_contexts(method, WIDE)
    assert len(full.contexts) > 40  # enough to force sampling below
    limits = ExtractionLimits(max_length=10**6, max_width=10**6, max_contexts=40, seed=3)
    once = extract_contexts(method, limits)
    twice = extract_contexts(method, limits)
    assert len(once.contexts) == 40
    assert once == twice
    other_seed = ExtractionLimits(max_length=10**6, max_width=10**6, max_contexts=40, seed=4)
    assert extract_contexts(method, other_seed) != once
    # sampling preserves source-position order: the kept contexts appear
    # in the same relative order as in the full bag
    full_strings = [context_to_string(c) for c in full.contexts]
    positions = []
    cursor = 0
    for ctx in once.contexts:
        cursor = full_strings.index(context_to_string(ctx), cursor)
        positions.append(cursor)
        cursor += 1
    assert positions == sorted(positions)


def test_dump_and_load_round_trip():
    rng = random.Random(11)
    bags = []
    for i in range(5):
        method = method_of(random_method_source(rng), index=0)
        bag = extract_contexts(method, ExtractionLimits())
        bag.method_id = f"T.java::Gen::run/{i}"
        bags.append(bag)
    bags.append(ContextBag("T.java::Gen::empty/0", []))
    lines = dump_bags(bags).splitlines()
    assert len(lines) == len(bags)
    for line, bag in zip(lines, bags):
        assert line.split("\t") == [bag.method_id] + [
            context_to_string(c) for c in bag.contexts
        ]
    assert lines[-1] == "T.java::Gen::empty/0"


def test_limits_validation():
    with pytest.raises(ValueError):
        ExtractionLimits(max_length=0)
    with pytest.raises(ValueError):
        ExtractionLimits(max_contexts=-1)


def test_structured_load_round_trip():
    rng = random.Random(23)
    bags = []
    for i in range(6):
        method = method_of(random_method_source(rng), index=0)
        bag = extract_contexts(method, ExtractionLimits())
        bag.method_id = f"T.java::Gen::run/{i}"
        bags.append(bag)
    bags.append(ContextBag("T.java::Gen::empty/0", []))
    loaded = load_bags(dump_bags(bags))
    assert loaded == bags
    # and dumping the reloaded bags is byte-identical
    assert dump_bags(loaded) == dump_bags(bags)


GOOD_CELL = "x,Name↑Assignment↓Name,y"


def test_load_bags_keeps_each_distinct_string_once():
    f, g = load_bags(f"T.java::T::f/0\t{GOOD_CELL}\nT.java::T::g/0\t{GOOD_CELL}\n")
    assert f.contexts == g.contexts
    assert all(a is b for a, b in zip(f.contexts[0], g.contexts[0]))


def test_load_bags_rejects_junk():
    assert load_bags(f"T.java::T::f/0\t{GOOD_CELL}\nT.java::T::g/0\n") == [
        ContextBag("T.java::T::f/0", [PathContext("x", "Name↑Assignment↓Name", "y")]),
        ContextBag("T.java::T::g/0", []),
    ]
    junk = [
        "",
        "x,Name,y",
        "x,Name↓X↑Y,y",
        "x,Name↑X↑Y,y",
        "x,Name↓X↓Y,y",
        "x,Name↑↑Name,y",
        "x,Name↑↑Name↓Name,y",
        "x,↑Assignment↓Name,y",
        "x,Name↑Assignment↓,y",
        ",Name↑Assignment↓Name,y",
        "x,Name↑Assignment↓Name,",
        "x,Name↑Assignment↓Name",
        "x,Name↑Assignment↓Name,y,z",
        "x↑,Name↑Assignment↓Name,y",
    ]
    for cell in junk:
        with pytest.raises(DataError, match="^2: "):
            load_bags(f"T.java::T::f/0\t{GOOD_CELL}\nT.java::T::g/0\t{GOOD_CELL}\t{cell}\n")


# Text over the dump's alphabet: free-form, and built line by line from
# cells shaped like start,label↑label↓label,end whose pieces may carry
# separators, so that well-formed and near-miss cells both come up often.
BAG_ALPHABET = string.ascii_letters + string.digits + ".:/_\t,↑↓\n"
BAG_PIECE = st.one_of(
    st.sampled_from(["Name", "x", "T.java::T::f/0"]),
    st.text(alphabet=BAG_ALPHABET, min_size=1, max_size=3),
)
BAG_CELL = st.builds(
    lambda start, up, down, end: f"{start},{'↑'.join(up)}↓{'↓'.join(down)},{end}",
    BAG_PIECE,
    st.lists(BAG_PIECE, min_size=2, max_size=3),
    st.lists(BAG_PIECE, min_size=1, max_size=2),
    BAG_PIECE,
)
BAG_LINE = st.builds(
    lambda method_id, cells: "\t".join([method_id, *cells]),
    BAG_PIECE,
    st.lists(BAG_CELL, max_size=3),
)
BAG_TEXT = st.one_of(
    st.text(alphabet=BAG_ALPHABET),
    st.lists(BAG_LINE, max_size=4).map("\n".join),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(BAG_TEXT)
def test_load_bags_round_trips_or_rejects(text):
    try:
        bags = load_bags(text)
    except DataError:
        return
    assert load_bags(dump_bags(bags)) == bags
