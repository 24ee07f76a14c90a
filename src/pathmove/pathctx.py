"""Path-context extraction over method bodies.

A path-context is a triple of strings (start token, path, end token) for
a pair of leaves in the body AST.  The path walks from the first leaf up
to the lowest common ancestor and down to the second leaf; it joins the
node labels with `↑` up to the ancestor and `↓` after it, as in
`Name↑Assignment↓Name`.  Labels hold no arrows, so the path is a
vocabulary key and nothing more is kept of its structure.  A method is
represented by the bag of all such triples that fit the length/width
limits, down-sampled to a cap.  Pairs are visited in source order, and a
leaf's scan over the later leaves stops as soon as their common ancestor
lies so far up that the path up to it alone leaves no room to go down.

A bag dump has one line per method: the method id, then one
tab-separated `start,path,end` cell per context.  A method with no
contexts is a line holding only its id.
"""

from __future__ import annotations

import hashlib
import random
import re
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DataError
from .frontend import AstNode, MethodDecl

METHOD_NAME_PLACEHOLDER = "METHOD_NAME"


class PathContext(NamedTuple):
    start_token: str
    path: str
    end_token: str


@dataclass
class ExtractionLimits:
    max_length: int = 8
    max_width: int = 2
    max_contexts: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.max_length <= 0 or self.max_width <= 0 or self.max_contexts <= 0:
            raise ValueError("extraction limits must be positive")


@dataclass
class ContextBag:
    method_id: str
    contexts: list[PathContext] = field(default_factory=list)


class EmptyBagError(DataError):
    """A method bag holds no contexts where at least one is required."""


def normalize_token(leaf: AstNode) -> str:
    """Collapse literal classes; keep identifiers and booleans verbatim."""
    if leaf.token is None:
        raise ValueError("normalize_token requires a token-bearing leaf")
    if leaf.label == "Name":
        return leaf.token
    if leaf.token in ("true", "false"):
        return leaf.token
    if leaf.token.startswith('"'):
        return "STR"
    return "NUM"


def context_to_string(ctx: PathContext) -> str:
    return f"{ctx.start_token},{ctx.path},{ctx.end_token}"


def _collect_leaves(root: AstNode) -> list[tuple[AstNode, tuple, tuple, int]]:
    """Token-bearing leaves in source order, each as (leaf, labels, where,
    shared).  `labels` are the node labels from the root down to the
    leaf, `where[k]` is the index among its parent's children of the
    chain node at depth k + 1, and `shared` is the depth of the deepest
    node the leaf shares with the leaf before it (the root has depth 0;
    -1 for the first leaf)."""
    found = []
    shared = -1

    def visit(node: AstNode, labels: tuple, where: tuple):
        nonlocal shared
        labels = labels + (node.label,)
        if node.is_leaf:
            found.append((node, labels, where, shared))
            shared = len(where)
            return
        for k, child in enumerate(node.children):
            visit(child, labels, where + (k,))
            # Every later leaf branches off at this node or above it.
            shared = min(shared, len(where))

    visit(root, (), ())
    return found


def _label_runs(labels: tuple, max_length: int) -> tuple[list, list]:
    """A leaf's two path pieces per depth s of a lowest common ancestor
    that can fit: rise[s] joins the labels from the leaf up to depth s
    with `↑`, and fall[s] is the labels below depth s, each after a `↓`.
    The path from leaf a down to leaf b is rise_a[s] + fall_b[s]."""
    depth = len(labels) - 1
    rise: list = [None] * depth
    fall: list = [None] * depth
    up = labels[depth]
    down = ""
    for s in range(depth - 1, max(0, depth - max_length + 2) - 1, -1):
        up = up + "↑" + labels[s]
        down = "↓" + labels[s + 1] + down
        rise[s] = up
        fall[s] = down
    return rise, fall


def _bag_rng(seed: int, method_id: str) -> random.Random:
    """Per-method RNG that is stable across runs and process restarts."""
    digest = hashlib.sha256(f"{seed}:{method_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def extract_contexts(method: MethodDecl, limits: ExtractionLimits) -> ContextBag:
    """Enumerate leaf pairs in source order, keep those within limits and
    down-sample to max_contexts.

    Name leaves matching the method's own name are replaced by a
    placeholder so a name-prediction objective cannot see its answer.
    Bodies with fewer than two leaves yield an empty bag, not an error.
    Tokens and paths repeat across a corpus, so each string is interned.
    """
    found = _collect_leaves(method.body)
    if len(found) < 2:
        return ContextBag(method.id, [])
    leaves, chains, wheres, shared = zip(*found)
    tokens = []
    for leaf in leaves:
        text = normalize_token(leaf)
        if leaf.label == "Name" and text == method.name:
            text = METHOD_NAME_PLACEHOLDER
        tokens.append(sys.intern(text))

    max_length = limits.max_length
    max_width = limits.max_width
    depths = [len(where) for where in wheres]
    runs = [_label_runs(labels, max_length) for labels in chains]
    contexts: list[PathContext] = []
    for i in range(len(leaves) - 1):
        depth_i = depths[i]
        where_i = wheres[i]
        rise_i = runs[i][0]
        s = depth_i
        for j in range(i + 1, len(leaves)):
            # Leaves i and j share the shallowest ancestor that any two
            # neighbours between them share.
            if shared[j] < s:
                s = shared[j]
                # Leaf j and every later leaf sit below depth s, so once
                # the rise alone leaves no room for a fall, stop.
                if depth_i - s + 2 > max_length:
                    break
            if depth_i + depths[j] - 2 * s + 1 > max_length:
                continue
            if wheres[j][s] - where_i[s] > max_width:
                continue
            path = sys.intern(rise_i[s] + runs[j][1][s])
            contexts.append(PathContext._make((tokens[i], path, tokens[j])))

    if len(contexts) > limits.max_contexts:
        rng = _bag_rng(limits.seed, method.id)
        keep = sorted(rng.sample(range(len(contexts)), limits.max_contexts))
        contexts = [contexts[k] for k in keep]
    return ContextBag(method.id, contexts)


# ---------------------------------------------------------------------------
# Bag serialization (one method per line, tab-separated contexts)

# start,path,end as extraction writes them: tokens and labels are
# non-empty and free of commas and arrows, and a path rises at least once
# and then falls at least once.
_CONTEXT_CELL = re.compile(r"([^,↑↓]+),([^,↑↓]+(?:↑[^,↑↓]+)+(?:↓[^,↑↓]+)+),([^,↑↓]+)")


def dump_bags(bags: list[ContextBag]) -> str:
    lines = []
    for bag in bags:
        cells = [bag.method_id] + [context_to_string(c) for c in bag.contexts]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def load_bags(text: str) -> list[ContextBag]:
    """Read a dump back into bags; a malformed cell raises DataError
    naming its line as `LINE: ...`.  Tokens and paths repeat across the
    corpus, so each distinct string is kept once."""
    bags = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        method_id, *cells = line.split("\t")
        contexts = []
        for cell in cells:
            match = _CONTEXT_CELL.fullmatch(cell)
            if match is None:
                raise DataError(f"{lineno}: malformed path-context {cell!r}")
            contexts.append(PathContext(*map(sys.intern, match.groups())))
        bags.append(ContextBag(method_id, contexts))
    return bags
