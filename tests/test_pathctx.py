"""Path-context extraction tests.

Two oracles check the extractor.  A brute-force walker built on a parent
map checks completeness as a multiset.  The all-pairs extractor that the
one-pass scan replaced checks the exact bag, in order, so a reordering
that changes the down-sample cannot pass.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_method_source
from pathmove.codegen import GenConfig, generate_corpus
from pathmove.errors import DataError
from pathmove.frontend import AstNode, parse_unit
from pathmove.injector import inject_feature_envy
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


def _pair_path(chain_a, chain_b, limits: ExtractionLimits) -> str | None:
    """Path string from leaf a to leaf b, or None when it exceeds the
    length limit (nodes on the path) or the width limit (index distance
    between the two children of the lowest common ancestor that the
    leaves descend through)."""
    shared = 0
    limit = min(len(chain_a), len(chain_b))
    while shared < limit and chain_a[shared] is chain_b[shared]:
        shared += 1
    if len(chain_a) + len(chain_b) - 2 * shared + 1 > limits.max_length:
        return None
    child_a = chain_a[shared]
    child_b = chain_b[shared]
    siblings = chain_a[shared - 1].children
    pos_a = next(k for k, c in enumerate(siblings) if c is child_a)
    pos_b = next(k for k, c in enumerate(siblings) if c is child_b)
    if abs(pos_b - pos_a) > limits.max_width:
        return None
    rising = "↑".join([n.label for n in reversed(chain_a[shared - 1 :])])
    return rising + "↓" + "↓".join([n.label for n in chain_b[shared:]])


def _reference_bag(method, limits: ExtractionLimits) -> ContextBag:
    """Every leaf pair in source order, each path built from both whole
    ancestor chains, then the seeded down-sample."""
    chains = []

    def visit(node: AstNode, chain: tuple):
        chain = chain + (node,)
        if node.is_leaf:
            chains.append(chain)
        for child in node.children:
            visit(child, chain)

    visit(method.body, ())
    tokens = []
    for chain in chains:
        text = normalize_token(chain[-1])
        if chain[-1].label == "Name" and text == method.name:
            text = METHOD_NAME_PLACEHOLDER
        tokens.append(text)
    contexts = []
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            path = _pair_path(chains[i], chains[j], limits)
            if path is not None:
                contexts.append(PathContext(tokens[i], path, tokens[j]))
    if len(contexts) > limits.max_contexts:
        digest = hashlib.sha256(f"{limits.seed}:{method.id}".encode()).digest()
        rng = random.Random(int.from_bytes(digest[:8], "little"))
        keep = sorted(rng.sample(range(len(contexts)), limits.max_contexts))
        contexts = [contexts[k] for k in keep]
    return ContextBag(method.id, contexts)


LIMIT_GRID = [(1, 1), (2, 5), (3, 1), (5, 2), (8, 2), (10**6, 10**6)]


def test_same_bags_in_order_on_a_generated_corpus():
    files = generate_corpus(GenConfig(n_projects=3, eval_projects=1, seed=11))
    projects: dict[str, list] = {}
    for path, text in files.items():
        projects.setdefault(path.rsplit("/", 1)[0], []).append(parse_unit(text, path))
    units = [u for project in projects.values() for u in project]
    for project in projects.values():
        units += inject_feature_envy(project, 5)[0]  # bodies the injector rewrote
    methods = [m for u in units for c in u.classes for m in c.methods]
    assert len(methods) > 100
    for method in methods:
        for limits in (ExtractionLimits(), ExtractionLimits(max_contexts=20, seed=3)):
            assert extract_contexts(method, limits) == _reference_bag(method, limits), method.id


@pytest.mark.parametrize("max_length, max_width", LIMIT_GRID)
def test_same_bags_in_order_on_random_bodies(max_length, max_width):
    rng = random.Random(max_length * 31 + max_width)
    limits = ExtractionLimits(max_length, max_width, 10**6)
    for _ in range(30):
        method = method_of(random_method_source(rng, name="beta", max_stmts=7))
        assert extract_contexts(method, limits) == _reference_bag(method, limits)


DEEP = (
    "class T { int f(int a, int b) { if (a > b) { while (a < b) { if (a == b) {"
    " while (b > 0) { return a > b ? a < b ? a : b > a ? b : a + (b * (a - b))"
    " : g(a, h(b, a.c)); } } } } return 0; } }"
)
WIDE_CALL = "class T { void f(int a, int b) { g(a, b, c, d, e, f); } }"


@pytest.mark.parametrize("src", [DEEP, WIDE_CALL], ids=["deep", "wide-call"])
@pytest.mark.parametrize("max_length, max_width", LIMIT_GRID)
def test_same_bags_in_order_on_deep_and_wide_bodies(src, max_length, max_width):
    method = method_of(src)
    limits = ExtractionLimits(max_length, max_width, 10**6)
    assert extract_contexts(method, limits) == _reference_bag(method, limits)


def test_deep_body_has_paths_longer_than_the_default_limit():
    paths = _reference_bag(method_of(DEEP), WIDE).contexts
    assert max(path_nodes(c.path) for c in paths) > ExtractionLimits().max_length


def test_same_down_sample_as_the_reference():
    rng = random.Random(42)
    method = method_of(random_method_source(rng, max_stmts=12))
    limits = ExtractionLimits()
    full = _reference_bag(method, ExtractionLimits(max_contexts=10**6))
    assert len(full.contexts) > limits.max_contexts  # the sample has to choose
    for seed in range(3):
        limits = ExtractionLimits(seed=seed)
        bag = extract_contexts(method, limits)
        assert len(bag.contexts) == limits.max_contexts
        assert bag == _reference_bag(method, limits)


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
    header, *lines = dump_bags(bags).splitlines()
    tables = json.loads(header)
    assert tables["methods"] == len(lines) == len(bags)
    tokens, paths = tables["tokens"], tables["paths"]
    for line, bag in zip(lines, bags):
        method_id, *cells = line.split("\t")
        assert method_id == bag.method_id
        spelled = []
        for cell in cells:
            start, path, end = map(int, cell.split(","))
            spelled.append(f"{tokens[start]},{paths[path]},{tokens[end]}")
        assert spelled == [context_to_string(c) for c in bag.contexts]
    assert lines[-1] == "T.java::Gen::empty/0"


def test_dump_of_the_desk_corpus_writes_each_string_once():
    """Every distinct token and path is spelled once, in the header, and
    each context is three indices: the dump takes under a quarter of the
    bytes that spelling every context out would."""
    files = generate_corpus(GenConfig(n_projects=20, eval_projects=5, seed=0))
    bags = [
        extract_contexts(method, ExtractionLimits())
        for path, source in sorted(files.items()) if path.startswith("train/")
        for cls in parse_unit(source, path).classes for method in cls.methods
    ]
    text = dump_bags(bags)
    header, *lines = text.splitlines()
    tables = json.loads(header)
    contexts = [c for bag in bags for c in bag.contexts]
    assert sorted(tables["tokens"]) == sorted({t for c in contexts for t in (c[0], c[2])})
    assert sorted(tables["paths"]) == sorted({c.path for c in contexts})
    assert len(lines) == len(bags) > 500
    cells = [cell for line in lines for cell in line.split("\t")[1:]]
    assert len(cells) == len(contexts)
    assert all(re.fullmatch(r"[0-9]+,[0-9]+,[0-9]+", cell) for cell in cells)
    spelled = "".join(
        "\t".join([bag.method_id, *map(context_to_string, bag.contexts)]) + "\n" for bag in bags
    )
    assert 4 * len(text.encode()) < len(spelled.encode())
    assert load_bags(text) == bags


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


GOOD_PATH = "Name↑Assignment↓Name"


def bags_text(lines, tokens=("x", "y"), paths=(GOOD_PATH,), methods=None, **header):
    """A dump with the given method lines under a header holding the
    tables, the method count (default: the number of lines) and `header`."""
    fields = {"format": "bags", "version": 2, "methods": len(lines) if methods is None else methods,
              "tokens": tokens, "paths": paths, **header}
    return "\n".join([json.dumps(fields, ensure_ascii=False, sort_keys=True), *lines]) + "\n"


def respelled(text, reverse=False, **options):
    """`text` with its header line written again by `json.dumps(**options)`,
    its keys in reverse order if `reverse`."""
    header, rest = text.split("\n", 1)
    fields = json.loads(header)
    if reverse:
        fields = dict(reversed(fields.items()))
    return json.dumps(fields, **options) + "\n" + rest


# What load_bags says of a file that is not the text dump_bags writes for it.
NOT_AS_WRITTEN = "^1: the header is not the one 'extract' writes for these path-contexts"


def test_load_bags_keeps_each_distinct_string_once():
    f, g = load_bags(bags_text(["T.java::T::f/0\t0,0,1\t1,0,1", "T.java::T::g/0\t0,0,1"]))
    assert f.contexts[0] == g.contexts[0] == PathContext("x", GOOD_PATH, "y")
    assert f.contexts[0] is g.contexts[0]  # equal cells load as one object
    assert f.contexts[1] is not f.contexts[0]
    assert all(a is b for a, b in zip(f.contexts[0][1:], f.contexts[1][1:]))


def test_load_bags_rejects_junk():
    assert load_bags(bags_text(["T.java::T::f/0\t0,0,1", "T.java::T::g/0"])) == [
        ContextBag("T.java::T::f/0", [PathContext("x", GOOD_PATH, "y")]),
        ContextBag("T.java::T::g/0", []),
    ]
    junk_tokens = ["", "x,", "x\ty", "x↑", "↓y", 3, None]
    for token in junk_tokens:
        with pytest.raises(DataError, match="^1: malformed entry 1 of tokens"):
            load_bags(bags_text(["T.java::T::f/0\t0,0,1"], tokens=["x", token]))
    junk_paths = [
        "",
        "Name",
        "Name↓X↑Y",
        "Name↑X↑Y",
        "Name↓X↓Y",
        "Name↑↑Name",
        "Name↑↑Name↓Name",
        "↑Assignment↓Name",
        "Name↑Assignment↓",
        "Name↑Assign,ment↓Name",
        "Name↑Assign\tment↓Name",
        ["Name↑Assignment↓Name"],
    ]
    for path in junk_paths:
        with pytest.raises(DataError, match="^1: malformed entry 1 of paths"):
            load_bags(bags_text(["T.java::T::f/0\t0,0,1\t0,1,1"], paths=[GOOD_PATH, path]))
    junk_cells = [
        "",
        "0,0",
        "0,0,1,1",
        "0,0,2",
        "0,1,1",
        "-1,0,1",
        "00,0,1",
        "+0,0,1",
        " 0,0,1",
        "0,0,1 ",
        "0_0,0,1",
        "٠,0,1",
        "x,0,1",
        "x,Name↑Assignment↓Name,y",
        "9" * 5000 + ",0,1",
    ]
    for cell in junk_cells:
        with pytest.raises(DataError, match="^3: malformed path-context"):
            load_bags(bags_text(["T.java::T::f/0\t0,0,1", f"T.java::T::g/0\t0,0,1\t{cell}"]))


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("", "^1: expected a version-2 bags header", id="empty"),
        pytest.param(f"T.java::T::f/0\tx,{GOOD_PATH},y\n",
                     "^1: expected .* run 'extract' again", id="old-layout"),
        pytest.param(bags_text([], version=1), "^1: expected a version-2", id="version-1"),
        pytest.param(bags_text([], format="ground-truth"), "^1: expected a version-2",
                     id="foreign-format"),
        pytest.param('["bags", 2]\n', "^1: expected a version-2", id="not-an-object"),
        pytest.param("[" * 100_000 + "\n", "^1: expected a version-2", id="deeply-nested"),
        pytest.param(bags_text([], extra=1), "^1: bags header keys", id="extra-key"),
        pytest.param(bags_text([], methods=-1), "^1: bags header method count", id="count-negative"),
        pytest.param(bags_text([], methods=True), "^1: bags header method count", id="count-bool"),
        pytest.param(bags_text([], methods=0.0), "^1: bags header method count", id="count-float"),
        pytest.param(bags_text([], tokens="xy"), "^1: bags header tokens is not a list",
                     id="tokens-string"),
        pytest.param(bags_text(["T.java::T::f/0\t0,0,1"], tokens=["x", "x"]),
                     NOT_AS_WRITTEN, id="token-repeated"),
        pytest.param(bags_text(["T.java::T::f/0\t0,0,1\t0,1,1"], paths=[GOOD_PATH, GOOD_PATH]),
                     NOT_AS_WRITTEN, id="path-repeated"),
        pytest.param(bags_text(["T.java::T::f/0"], methods=2),
                     "^1: the header counts 2 methods, the file holds 1", id="fewer-methods"),
        pytest.param(bags_text(["T.java::T::f/0", "T.java::T::g/0"], methods=1),
                     "^1: the header counts 1 methods, the file holds 2", id="more-methods"),
        pytest.param(bags_text(["T.java::T::f/0\t0,0,1"]) + "\n",
                     "^1: the header counts 1 methods, the file holds 2", id="blank-line"),
        pytest.param(bags_text(["T.java::T::f/0"])[:-1], "^2: no newline at the end",
                     id="cut-inside-a-line"),
        pytest.param(bags_text(["T.java::T::f/0\t0,0,1", "T.java::T::g/0", "T.java::T::f/0"]),
                     "^4: method 'T.java::T::f/0' repeats line 2", id="method-repeated"),
        pytest.param(bags_text(["T.java::T::f/0\t1,0,0"]),
                     NOT_AS_WRITTEN, id="token-order"),
        pytest.param(bags_text(["T.java::T::f/0\t0,1,1\t0,0,1"], paths=[GOOD_PATH, "A↑B↓C"]),
                     NOT_AS_WRITTEN, id="path-order"),
        pytest.param(bags_text(["T.java::T::f/0\t0,0,1"], tokens=["x", "y", "z"]),
                     NOT_AS_WRITTEN, id="unused-token"),
        pytest.param(respelled(bags_text(["T.java::T::f/0\t0,0,1"]), ensure_ascii=False,
                               sort_keys=True, separators=(",", ":")),
                     NOT_AS_WRITTEN, id="compact-header"),
        pytest.param(respelled(bags_text(["T.java::T::f/0\t0,0,1"]), sort_keys=True),
                     NOT_AS_WRITTEN, id="escaped-arrows"),
        pytest.param(respelled(bags_text(["T.java::T::f/0\t0,0,1"]), reverse=True,
                               ensure_ascii=False),
                     NOT_AS_WRITTEN, id="unsorted-keys"),
    ],
)
def test_load_bags_rejects_a_malformed_file(text, message):
    with pytest.raises(DataError, match=message):
        load_bags(text)


# Dumps over a small alphabet: mostly well-formed, but any method id,
# table entry, cell, table length or method count may be a near miss
# (junk, a repeat, an index out of range or out of first-seen order), so
# that accepted and rejected files both come up often.  Well-formed
# method ids and tokens vary too, so that accepted files seldom repeat.
BAG_ALPHABET = string.ascii_letters + string.digits + ".:/_\t,↑↓\n"
BAG_PIECE = st.one_of(
    st.sampled_from(["Name", "x", "T.java::T::f/0"]),
    st.text(alphabet=BAG_ALPHABET, min_size=1, max_size=3),
)
BAG_PATH = st.builds(
    lambda up, down: f"{'↑'.join(up)}↓{'↓'.join(down)}",
    st.lists(BAG_PIECE, min_size=2, max_size=3),
    st.lists(BAG_PIECE, min_size=1, max_size=2),
)
BAG_INDEX = st.integers(min_value=0, max_value=3)
BAG_JUNK_CELL = st.text(alphabet="0123,-", max_size=6)


@st.composite
def bag_texts(draw):
    def mostly(good, near_miss):
        # the near miss is the largest draw: Hypothesis leans to small ones
        return draw(near_miss) if draw(st.integers(0, 11)) == 11 else good

    renumber = mostly(True, st.just(False))  # tables in first-seen order
    tokens: dict[int, int] = {}
    paths: dict[int, int] = {}
    rows = []
    for k in range(mostly(draw(st.integers(1, 4)), st.just(0))):
        row = [mostly(f"T.java::T::m{k}/{draw(st.integers(0, 9))}", BAG_PIECE)]
        for _ in range(draw(st.integers(0, 3))):
            start, path, end = draw(st.tuples(BAG_INDEX, BAG_INDEX, BAG_INDEX))
            if renumber:
                start = tokens.setdefault(start, len(tokens))
                path = paths.setdefault(path, len(paths))
                end = tokens.setdefault(end, len(tokens))
            row.append(mostly(f"{start},{path},{end}", BAG_JUNK_CELL))
        rows.append("\t".join(row))
    n_tokens = mostly(len(tokens), BAG_INDEX)
    n_paths = mostly(len(paths), BAG_INDEX)
    return bags_text(
        rows,
        tokens=[mostly(f"{draw(st.sampled_from('tuv'))}{k}", BAG_PIECE) for k in range(n_tokens)],
        paths=[mostly(f"A↑B{k}↓C", BAG_PATH) for k in range(n_paths)],
        methods=mostly(len(rows), BAG_INDEX),
    )


def test_load_bags_round_trips_or_rejects():
    """Whatever load_bags accepts dumps back to the same text and loads
    again to equal bags, and many distinct texts get that far."""
    loaded = {}  # accepted text -> its number of path-contexts

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.text(alphabet=BAG_ALPHABET), bag_texts()))
    def check(text):
        try:
            bags = load_bags(text)
        except DataError:
            return
        assert dump_bags(bags) == text
        assert load_bags(dump_bags(bags)) == bags
        loaded[text] = sum(len(bag.contexts) for bag in bags)

    check()
    assert len(loaded) >= 100 and sum(n > 0 for n in loaded.values()) >= 50
