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

A bag dump starts with a JSON header line that holds the method count
and two tables, the distinct tokens and the distinct paths, each in the
order the dump first uses it.  One line per method follows: the method
id, then one tab-separated `s,p,e` cell per context, the decimal indices
of its start token, path and end token in those tables.  A method with
no contexts is a line holding only its id.  `dump_bags` alone defines
this layout: `load_bags` accepts a text only if dumping the bags it
read gives that text back.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from .bundle import decode_json
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
# Bag serialization (a header with the string tables, then one method per line)

BAGS_FORMAT = {"format": "bags", "version": 2}

# Tokens and labels as extraction writes them: non-empty and free of tabs,
# commas and arrows; a path rises at least once and then falls at least once.
_TOKEN = re.compile(r"[^\t,↑↓]+")
_PATH = re.compile(r"[^\t,↑↓]+(?:↑[^\t,↑↓]+)+(?:↓[^\t,↑↓]+)+")


def dump_bags(bags: list[ContextBag]) -> str:
    tokens: dict[str, int] = {}
    paths: dict[str, int] = {}
    cells: dict[PathContext, str] = {}
    lines = []
    for bag in bags:
        line = [bag.method_id]
        for ctx in bag.contexts:
            cell = cells.get(ctx)
            if cell is None:
                start = tokens.setdefault(ctx.start_token, len(tokens))
                path = paths.setdefault(ctx.path, len(paths))
                end = tokens.setdefault(ctx.end_token, len(tokens))
                cell = cells[ctx] = f"{start},{path},{end}"
            line.append(cell)
        lines.append("\t".join(line))
    header = {**BAGS_FORMAT, "methods": len(bags), "tokens": list(tokens), "paths": list(paths)}
    return "\n".join([json.dumps(header, ensure_ascii=False, sort_keys=True), *lines]) + "\n"


def _bags_header(line: str) -> tuple[int, list[str], list[str]]:
    """The method count and the token and path tables of a header line."""
    try:
        header = decode_json(line)
    except ValueError:  # also an int of too many digits, or deep nesting
        header = None
    if not isinstance(header, dict) or any(header.get(k) != v for k, v in BAGS_FORMAT.items()):
        raise DataError(f"1: expected a version-2 bags header, found {line[:80]!r}; "
                        "run 'extract' again")
    if set(header) != {*BAGS_FORMAT, "methods", "tokens", "paths"}:
        raise DataError(f"1: bags header keys {sorted(header)}")
    methods = header["methods"]
    if type(methods) is not int or methods < 0:
        raise DataError(f"1: bags header method count {methods!r}")
    for name, grammar in (("tokens", _TOKEN), ("paths", _PATH)):
        table = header[name]
        if not isinstance(table, list):
            raise DataError(f"1: bags header {name} is not a list")
        for k, entry in enumerate(table):
            if not isinstance(entry, str) or grammar.fullmatch(entry) is None:
                raise DataError(f"1: malformed entry {k} of {name}: {entry!r}")
    return methods, header["tokens"], header["paths"]


def load_bags(text: str) -> list[ContextBag]:
    """Read a dump back into bags; a malformed header or cell, a repeated
    method id or a method count other than the header's raises DataError
    naming its line as `LINE: ...`.  So does a text other than the one
    `dump_bags` writes for these bags, such as tables out of first-use
    order or a header spelled another way; only its header line can
    differ then.  Equal cells load as one shared PathContext."""
    bags = _parse_bags(text)
    if dump_bags(bags) != text:
        raise DataError("1: the header is not the one 'extract' writes for these "
                        "path-contexts; run 'extract' again")
    return bags


def _parse_bags(text: str) -> list[ContextBag]:
    """The bags a dump spells; a function of its own so that its lookup
    tables are freed before load_bags dumps the bags again."""
    lines = text.split("\n")
    methods, tokens, paths = _bags_header(lines[0])
    if lines[-1]:
        raise DataError(f"{len(lines)}: no newline at the end; the file was cut short")
    if len(lines) != methods + 2:
        raise DataError(f"1: the header counts {methods} methods, the file holds "
                        f"{len(lines) - 2}; run 'extract' again")
    known: dict[str, PathContext] = {}
    first_line: dict[str, int] = {}
    bags = []
    for lineno, line in enumerate(lines[1:-1], 2):
        method_id, *cells = line.split("\t")
        if first_line.setdefault(method_id, lineno) != lineno:
            raise DataError(f"{lineno}: method {method_id!r} repeats line "
                            f"{first_line[method_id]}")
        contexts = []
        for cell in cells:
            ctx = known.get(cell)
            if ctx is None:
                try:  # three table indices in plain decimal
                    start, path, end = map(int, cell.split(","))
                    if f"{start},{path},{end}" != cell or min(start, path, end) < 0:
                        raise ValueError(cell)
                    ctx = known[cell] = PathContext(tokens[start], paths[path], tokens[end])
                except (ValueError, IndexError):  # also an int of more digits than Python parses
                    raise DataError(f"{lineno}: malformed path-context {cell!r}") from None
            contexts.append(ctx)
        bags.append(ContextBag(method_id, contexts))
    return bags
