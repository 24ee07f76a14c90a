"""Path-context extraction over method bodies.

A path-context is a triple of strings (start token, path, end token) for
a pair of leaves in the body AST.  The path walks from the first leaf up
to the lowest common ancestor and down to the second leaf; it joins the
node labels with `↑` up to the ancestor and `↓` after it, as in
`Name↑Assignment↓Name`.  Labels hold no arrows, so the path is a
vocabulary key and nothing more is kept of its structure.  A method is
represented by the bag of all such triples that fit the length/width
limits, down-sampled to a cap.

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


def _collect_leaves(root: AstNode) -> list[tuple[AstNode, tuple[AstNode, ...]]]:
    """Token-bearing leaves in source order, each with its ancestor chain
    from the root down to the leaf itself."""
    found: list[tuple[AstNode, tuple[AstNode, ...]]] = []

    def visit(node: AstNode, chain: tuple[AstNode, ...]):
        chain = chain + (node,)
        if node.is_leaf:
            found.append((node, chain))
        for child in node.children:
            visit(child, chain)

    visit(root, ())
    return found


def _pair_path(
    chain_a: tuple[AstNode, ...], chain_b: tuple[AstNode, ...], limits: ExtractionLimits
) -> str | None:
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
    leaves = _collect_leaves(method.body)
    tokens = []
    for leaf, _ in leaves:
        text = normalize_token(leaf)
        if leaf.label == "Name" and text == method.name:
            text = METHOD_NAME_PLACEHOLDER
        tokens.append(sys.intern(text))

    contexts: list[PathContext] = []
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            path = _pair_path(leaves[i][1], leaves[j][1], limits)
            if path is not None:
                contexts.append(PathContext(tokens[i], sys.intern(path), tokens[j]))

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
