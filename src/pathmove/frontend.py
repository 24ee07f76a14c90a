"""Parser and printer for a small Java-like class language.

The supported subset covers exactly what the rest of the toolkit needs:
top-level classes containing typed fields and methods, structured
statements (block, local declaration, assignment, if/else, while, return,
expression statement) and a conventional expression grammar (literals,
names, field access, calls, binary operators, ternary conditional,
parentheses).  Anything outside the subset is rejected loudly with a
position so corpus authors notice immediately; nothing is skipped or
guessed at.

ASTs use a closed set of node labels.  Expression and statement structure
lives in `AstNode` trees; classes, fields and method signatures are kept
as structured declarations around the body tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError

# Closed node-label vocabulary. Parsers and printers agree on these names
# and the path extractor treats them as opaque labels.
NODE_LABELS = frozenset(
    {
        "ClassDeclaration",
        "MethodDeclaration",
        "Parameter",
        "Block",
        "ReturnStatement",
        "IfStatement",
        "WhileStatement",
        "ExpressionStatement",
        "Assignment",
        "BinaryExpression",
        "ConditionalExpression",
        "EnclosedExpression",
        "MethodCall",
        "FieldAccess",
        "Name",
        "Literal",
    }
)

# Labels whose nodes carry a token and never have children.
TOKEN_LABELS = frozenset({"Name", "Literal"})

KEYWORDS = frozenset({"class", "static", "if", "else", "while", "return", "true", "false"})

# Recognized Java keywords outside the subset; rejected with a pointed
# message instead of a generic parse error.
UNSUPPORTED_KEYWORDS = frozenset(
    {
        "abstract", "assert", "break", "byte", "case", "catch", "char", "const",
        "continue", "default", "do", "enum", "extends", "final", "finally", "for",
        "goto", "implements", "import", "instanceof", "interface", "native", "new",
        "package", "private", "protected", "public", "strictfp", "super", "switch",
        "synchronized", "this", "throw", "throws", "transient", "try", "volatile",
    }
)


class ParseError(DataError):
    """Source text outside the supported subset."""

    def __init__(self, message: str, file_path: str, line: int, col: int):
        super().__init__(f"{file_path}:{line}:{col}: {message}")
        self.file_path = file_path
        self.line = line
        self.col = col


@dataclass
class AstNode:
    """One node of the expression/statement tree.

    `token` is set exactly on Name and Literal leaves.  `op` is the
    operator text of a BinaryExpression and is ignored by path extraction
    (the label alone identifies the node kind there).  Parsed trees are
    never mutated: rewrites build new nodes, so corpora share untouched
    subtrees.
    """

    label: str
    children: list["AstNode"] = field(default_factory=list)
    token: str | None = None
    op: str | None = None

    def __post_init__(self):
        if self.label not in NODE_LABELS:
            raise ValueError(f"unknown node label {self.label!r}")
        if self.label in TOKEN_LABELS:
            if self.token is None or self.children:
                raise ValueError(f"{self.label} nodes must be childless and carry a token")
        elif self.token is not None:
            raise ValueError(f"{self.label} nodes cannot carry a token")

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    def walk(self):
        """Yield this node and all descendants in depth-first source order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass
class MethodDecl:
    name: str
    params: list[tuple[str, str]]  # (name, type-name) in source order
    return_type: str
    is_static: bool
    body: AstNode
    id: str

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def param_names(self) -> list[str]:
        return [name for name, _ in self.params]


@dataclass
class ClassDecl:
    name: str
    fields: list[tuple[str, str]]  # (name, type-name) in source order
    methods: list[MethodDecl]

    @property
    def field_names(self) -> set[str]:
        return {name for name, _ in self.fields}

    @property
    def method_names(self) -> set[str]:
        return {m.name for m in self.methods}


@dataclass
class SourceUnit:
    file_path: str
    classes: list[ClassDecl]


def make_method_id(file_path: str, class_name: str, method_name: str, arity: int) -> str:
    """Deterministic globally-unique method key."""
    return f"{file_path}::{class_name}::{method_name}/{arity}"


def split_method_id(method_id: str) -> tuple[str, str, str, int]:
    """Inverse of make_method_id: (file_path, class_name, method_name, arity)."""
    try:
        file_path, class_name, sig = method_id.rsplit("::", 2)
        name, arity = sig.rsplit("/", 1)
        return file_path, class_name, name, int(arity)
    except ValueError as exc:
        raise DataError(f"malformed method id {method_id!r}") from exc


def method_project(method_id: str) -> str:
    """Project directory (group/name) a method id's file path sits in."""
    parts = Path(method_id.split("::", 1)[0]).parts
    if len(parts) < 3:
        raise DataError(f"method id {method_id!r} does not sit inside a project directory")
    return f"{parts[0]}/{parts[1]}"


# ---------------------------------------------------------------------------
# Lexer


@dataclass
class _Token:
    kind: str  # 'ident', 'number', 'string', 'punct', 'keyword', 'eof'
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<linecomment>//[^\n]*)
  | (?P<blockcomment>/\*.*?\*/)
  | (?P<number>\d+(\.\d+)?)
  | (?P<string>"(\\.|[^"\\\n])*")
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>\|\||&&|==|!=|<=|>=|[{}()\[\];,.=<>+\-*/%?:])
    """,
    re.VERBOSE | re.DOTALL,
)


def _lex(source: str, file_path: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(source):
        if m.start() != pos:
            break  # the search skipped a character no token starts with
        kind = m.lastgroup
        text = m.group()
        if kind not in ("ws", "linecomment", "blockcomment"):
            col = pos - line_start + 1
            if kind == "ident":
                if text in KEYWORDS:
                    kind = "keyword"
                elif text in UNSUPPORTED_KEYWORDS:
                    raise ParseError(
                        f"unsupported Java construct {text!r}", file_path, line, col
                    )
            tokens.append(_Token(kind, text, line, col))
        if "\n" in text:  # whitespace, a block comment or a string
            line += text.count("\n")
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    if pos < len(source):
        col = pos - line_start + 1
        raise ParseError(f"unexpected character {source[pos]!r}", file_path, line, col)
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token], file_path: str):
        self.tokens = tokens
        self.file_path = file_path
        self.i = 0

    # token helpers

    def peek(self, offset: int = 0) -> _Token:
        if offset == 0:  # the list ends in eof, which advance never passes
            return self.tokens[self.i]
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.file_path, tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            got = tok.text or "end of file"
            raise self.error(f"expected {text!r}, got {got!r}")
        return self.advance()

    def expect_ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            got = tok.text or "end of file"
            raise self.error(f"expected {what}, got {got!r}")
        return self.advance()

    def at(self, text: str) -> bool:
        return self.tokens[self.i].text == text

    # grammar

    def parse_unit(self) -> SourceUnit:
        classes: list[ClassDecl] = []
        seen: set[str] = set()
        while self.peek().kind != "eof":
            cls = self.parse_class()
            if cls.name in seen:
                raise self.error(f"duplicate class {cls.name!r} in unit")
            seen.add(cls.name)
            classes.append(cls)
        return SourceUnit(self.file_path, classes)

    def parse_class(self) -> ClassDecl:
        self.expect("class")
        name = self.expect_ident("class name").text
        self.expect("{")
        fields: list[tuple[str, str]] = []
        methods: list[MethodDecl] = []
        signatures: set[tuple[str, int]] = set()
        while not self.at("}"):
            start = self.peek()
            member = self.parse_member(name)
            if isinstance(member, MethodDecl):
                sig = (member.name, member.arity)
                if sig in signatures:
                    raise ParseError(
                        f"duplicate method {member.name}/{member.arity} in class {name}",
                        self.file_path,
                        start.line,
                        start.col,
                    )
                signatures.add(sig)
                methods.append(member)
            else:
                fields.append(member)
        self.expect("}")
        return ClassDecl(name, fields, methods)

    def parse_member(self, class_name: str):
        start = self.peek()
        is_static = False
        if self.at("static"):
            is_static = True
            self.advance()
        type_name = self.expect_ident("type name").text
        member_name = self.expect_ident("member name").text
        if self.at("("):
            params = self.parse_params()
            body = self.parse_block()
            method_id = make_method_id(self.file_path, class_name, member_name, len(params))
            return MethodDecl(member_name, params, type_name, is_static, body, method_id)
        if is_static:
            raise self.error("static fields are not supported", start)
        self.expect(";")
        return (member_name, type_name)

    def parse_params(self) -> list[tuple[str, str]]:
        self.expect("(")
        params: list[tuple[str, str]] = []
        if not self.at(")"):
            while True:
                type_name = self.expect_ident("parameter type").text
                param_name = self.expect_ident("parameter name").text
                params.append((param_name, type_name))
                if self.at(","):
                    self.advance()
                else:
                    break
        self.expect(")")
        return params

    def parse_block(self) -> AstNode:
        self.expect("{")
        stmts: list[AstNode] = []
        while not self.at("}"):
            stmts.append(self.parse_statement())
        self.expect("}")
        return AstNode("Block", stmts)

    def parse_statement(self) -> AstNode:
        tok = self.peek()
        if tok.text == "{":
            return self.parse_block()
        if tok.text == "if":
            self.advance()
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            then = self.parse_statement()
            children = [cond, then]
            if self.at("else"):
                self.advance()
                children.append(self.parse_statement())
            return AstNode("IfStatement", children)
        if tok.text == "while":
            self.advance()
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            body = self.parse_statement()
            return AstNode("WhileStatement", [cond, body])
        if tok.text == "return":
            self.advance()
            children = []
            if not self.at(";"):
                children.append(self.parse_expression())
            self.expect(";")
            return AstNode("ReturnStatement", children)
        # Local declaration: two identifiers in a row ("Type name = expr;").
        # The declared type only scopes the name; the statement is modeled as
        # a plain assignment so the node vocabulary stays closed.
        if tok.kind == "ident" and self.peek(1).kind == "ident":
            self.advance()
            name_tok = self.advance()
            if not self.at("="):
                raise self.error("local declarations require an initializer", name_tok)
            self.advance()
            value = self.parse_expression()
            self.expect(";")
            lhs = AstNode("Name", token=name_tok.text)
            return AstNode("Assignment", [lhs, value])
        expr = self.parse_expression()
        if self.at("="):
            if expr.label not in ("Name", "FieldAccess"):
                raise self.error("left side of assignment must be a name or field access", tok)
            self.advance()
            value = self.parse_expression()
            self.expect(";")
            return AstNode("Assignment", [expr, value])
        self.expect(";")
        return AstNode("ExpressionStatement", [expr])

    # expression grammar, lowest precedence first

    def parse_expression(self) -> AstNode:
        return self.parse_ternary()

    def parse_ternary(self) -> AstNode:
        cond = self.parse_binary(0)
        if self.at("?"):
            self.advance()
            then = self.parse_ternary()
            self.expect(":")
            other = self.parse_ternary()
            return AstNode("ConditionalExpression", [cond, then, other])
        return cond

    _PRECEDENCE = (("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="), ("+", "-"), ("*", "/", "%"))

    def parse_binary(self, level: int) -> AstNode:
        if level >= len(self._PRECEDENCE):
            return self.parse_postfix()
        node = self.parse_binary(level + 1)
        while self.peek().text in self._PRECEDENCE[level]:
            op_tok = self.advance()
            right = self.parse_binary(level + 1)
            node = AstNode("BinaryExpression", [node, right], op=op_tok.text)
        return node

    def parse_postfix(self) -> AstNode:
        node = self.parse_primary()
        while self.at("."):
            self.advance()
            name_tok = self.expect_ident("member name")
            member = AstNode("Name", token=name_tok.text)
            access = AstNode("FieldAccess", [node, member])
            if self.at("("):
                args = self.parse_args()
                node = AstNode("MethodCall", [access] + args)
            else:
                node = access
        return node

    def parse_primary(self) -> AstNode:
        tok = self.peek()
        if tok.kind in ("number", "string") or tok.text in ("true", "false"):
            self.advance()
            return AstNode("Literal", token=tok.text)
        if tok.kind == "ident":
            self.advance()
            name = AstNode("Name", token=tok.text)
            if self.at("("):
                args = self.parse_args()
                return AstNode("MethodCall", [name] + args)
            return name
        if tok.text == "(":
            self.advance()
            inner = self.parse_expression()
            self.expect(")")
            return AstNode("EnclosedExpression", [inner])
        got = tok.text or "end of file"
        raise self.error(f"expected an expression, got {got!r}")

    def parse_args(self) -> list[AstNode]:
        self.expect("(")
        args: list[AstNode] = []
        if not self.at(")"):
            while True:
                args.append(self.parse_expression())
                if self.at(","):
                    self.advance()
                else:
                    break
        self.expect(")")
        return args


def parse_unit(source_text: str, file_path: str) -> SourceUnit:
    """Parse one source file into a SourceUnit.

    Raises ParseError (with file:line:col) on anything outside the subset,
    a class that repeats a name/arity pair included.
    """
    tokens = _lex(source_text, file_path)
    return _Parser(tokens, file_path).parse_unit()


# ---------------------------------------------------------------------------
# Printer

_INDENT = "    "


def print_unit(unit: SourceUnit) -> str:
    """Render a unit back to source. Output re-parses to an equal AST."""
    parts = [_print_class(cls) for cls in unit.classes]
    return "\n\n".join(parts) + "\n"


def _print_class(cls: ClassDecl) -> str:
    lines = [f"class {cls.name} {{"]
    for name, type_name in cls.fields:
        lines.append(f"{_INDENT}{type_name} {name};")
    for method in cls.methods:
        if cls.fields or method is not cls.methods[0]:
            lines.append("")
        lines.extend(_print_method(method))
    lines.append("}")
    return "\n".join(lines)


def _print_method(method: MethodDecl) -> list[str]:
    params = ", ".join(f"{t} {n}" for n, t in method.params)
    prefix = "static " if method.is_static else ""
    return _print_nested(f"{_INDENT}{prefix}{method.return_type} {method.name}({params})",
                         method.body, 1)


def _print_statement(node: AstNode, depth: int) -> list[str]:
    pad = _INDENT * depth
    if node.label == "Block":
        lines = [f"{pad}{{"]
        for child in node.children:
            lines.extend(_print_statement(child, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if node.label == "IfStatement":
        cond = print_expression(node.children[0])
        lines = _print_nested(f"{pad}if ({cond})", node.children[1], depth)
        if len(node.children) == 3:
            if node.children[1].label == "Block":
                closing = lines.pop()
                lines.extend(_print_nested(f"{closing} else", node.children[2], depth))
            else:
                lines.extend(_print_nested(f"{pad}else", node.children[2], depth))
        return lines
    if node.label == "WhileStatement":
        cond = print_expression(node.children[0])
        return _print_nested(f"{pad}while ({cond})", node.children[1], depth)
    if node.label == "ReturnStatement":
        if node.children:
            return [f"{pad}return {print_expression(node.children[0])};"]
        return [f"{pad}return;"]
    if node.label == "Assignment":
        lhs = print_expression(node.children[0])
        rhs = print_expression(node.children[1])
        return [f"{pad}{lhs} = {rhs};"]
    if node.label == "ExpressionStatement":
        return [f"{pad}{print_expression(node.children[0])};"]
    raise ValueError(f"not a statement node: {node.label}")


def _print_nested(header: str, body: AstNode, depth: int) -> list[str]:
    """Attach a statement to a method, if or while header, braced bodies inline."""
    if body.label == "Block":
        lines = _print_statement(body, depth)
        lines[0] = f"{header} {{"
        return lines
    return [header, *_print_statement(body, depth + 1)]


def print_expression(node: AstNode) -> str:
    label = node.label
    if label in ("Name", "Literal"):
        return node.token
    if label == "FieldAccess":
        return f"{print_expression(node.children[0])}.{node.children[1].token}"
    if label == "MethodCall":
        callee = print_expression(node.children[0])
        args = ", ".join(print_expression(a) for a in node.children[1:])
        return f"{callee}({args})"
    if label == "BinaryExpression":
        left = print_expression(node.children[0])
        right = print_expression(node.children[1])
        return f"{left} {node.op} {right}"
    if label == "ConditionalExpression":
        cond, then, other = (print_expression(c) for c in node.children)
        return f"{cond} ? {then} : {other}"
    if label == "EnclosedExpression":
        return f"({print_expression(node.children[0])})"
    raise ValueError(f"not an expression node: {label}")


# ---------------------------------------------------------------------------
# Lookup


def find_enclosing(units: list[SourceUnit], method_id: str) -> tuple[ClassDecl, MethodDecl]:
    """Resolve a method id to its owning (class, method) pair."""
    file_path, class_name, name, arity = split_method_id(method_id)
    for unit in units:
        if unit.file_path != file_path:
            continue
        for cls in unit.classes:
            if cls.name != class_name:
                continue
            for method in cls.methods:
                if method.name == name and method.arity == arity:
                    return cls, method
    raise DataError(f"method id {method_id!r} not found")
