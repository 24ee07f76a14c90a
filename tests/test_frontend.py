"""Parser, printer and lookup tests for the class-language frontend."""

from __future__ import annotations

import random

import pytest

from helpers import random_method_source
from pathmove.errors import DataError
from pathmove.frontend import (
    AstNode,
    ParseError,
    find_enclosing,
    make_method_id,
    parse_unit,
    print_unit,
    split_method_id,
)

FIXTURE = """
class Account {
    int balance;
    String owner;

    int getBalance() {
        return balance;
    }

    void deposit(int amount) {
        balance = balance + amount;
    }

    void transfer(Account other, int amount) {
        if (amount > 0) {
            balance = balance - amount;
            other.deposit(amount);
        }
    }
}

class Ledger {
    int total;

    void record(Account account) {
        total = total + account.getBalance();
    }

    static int zero() {
        return 0;
    }
}

class Audit {
    boolean check(Ledger ledger, int limit) {
        int seen = ledger.total;
        while (seen > limit) {
            seen = seen - limit;
        }
        return seen == 0 ? true : false;
    }

    void log(String message) {
        message;
    }
}
"""


def test_fixture_shape():
    unit = parse_unit(FIXTURE, "Bank.java")
    assert [c.name for c in unit.classes] == ["Account", "Ledger", "Audit"]
    account, ledger, audit = unit.classes
    assert account.fields == [("balance", "int"), ("owner", "String")]
    assert [m.name for m in account.methods] == ["getBalance", "deposit", "transfer"]
    assert account.methods[2].params == [("other", "Account"), ("amount", "int")]
    assert ledger.methods[1].is_static
    assert audit.methods[0].return_type == "boolean"
    assert audit.methods[0].id == "Bank.java::Audit::check/2"


def test_node_counts_by_label():
    # Hand-counted over the one-statement body of Ledger.record:
    # total = total + account.getBalance();
    unit = parse_unit(FIXTURE, "Bank.java")
    record = unit.classes[1].methods[0]
    labels = [n.label for n in record.body.walk()]
    assert labels.count("Assignment") == 1
    assert labels.count("BinaryExpression") == 1
    assert labels.count("MethodCall") == 1
    assert labels.count("FieldAccess") == 1
    assert labels.count("Name") == 4  # total, total, account, getBalance
    assert labels.count("Literal") == 0


def test_conditional_and_enclosed_structure():
    unit = parse_unit("class A { int f(int x) { return (x + 1) * 2; } }", "A.java")
    ret = unit.classes[0].methods[0].body.children[0]
    mul = ret.children[0]
    assert mul.label == "BinaryExpression" and mul.op == "*"
    assert mul.children[0].label == "EnclosedExpression"
    inner = mul.children[0].children[0]
    assert inner.label == "BinaryExpression" and inner.op == "+"


def test_precedence_and_associativity():
    unit = parse_unit(
        "class A { int f(int a, int b, int c) { return a - b - c * a; } }", "A.java"
    )
    expr = unit.classes[0].methods[0].body.children[0].children[0]
    # Left-assoc subtraction: (a - b) - (c * a)
    assert expr.op == "-"
    assert expr.children[0].op == "-"
    assert expr.children[1].op == "*"


def test_ternary_right_associative():
    unit = parse_unit(
        "class A { int f(int a) { return a > 0 ? 1 : a > 1 ? 2 : 3; } }", "A.java"
    )
    expr = unit.classes[0].methods[0].body.children[0].children[0]
    assert expr.label == "ConditionalExpression"
    assert expr.children[2].label == "ConditionalExpression"


def test_local_declaration_becomes_assignment():
    unit = parse_unit("class A { int f() { int x = 3; return x; } }", "A.java")
    stmt = unit.classes[0].methods[0].body.children[0]
    assert stmt.label == "Assignment"
    assert stmt.children[0].token == "x"
    assert stmt.children[1].token == "3"


def test_string_literals_and_comments():
    src = (
        "class A { // trailing\n"
        "  /* block\n comment */ String f() { return \"a \\\"b\\\" c\"; } }"
    )
    unit = parse_unit(src, "A.java")
    lit = unit.classes[0].methods[0].body.children[0].children[0]
    assert lit.label == "Literal"
    assert lit.token == '"a \\"b\\" c"'


@pytest.mark.parametrize(
    "src, fragment",
    [
        ("class A { void f() { x += 1; } }", "expected"),
        ("class A { public void f() { } }", "unsupported Java construct 'public'"),
        ("class A { void f() { this.x = 1; } }", "unsupported Java construct 'this'"),
        ("class A { void f() { A a = new A(); } }", "unsupported Java construct 'new'"),
        ("class A extends B { }", "unsupported Java construct 'extends'"),
        ("class A { void f() { for (;;) {} } }", "unsupported Java construct 'for'"),
        ("class A { int x }", "expected"),
        ("class 5 { }", "expected class name, got '5'"),
        ("class A { void f() { int x; } }", "local declarations require an initializer"),
        ("class A { void f() { 1 = 2; } }", "left side of assignment"),
        ("class A { void f() { @ } }", "unexpected character"),
        ("class A { static int x; }", "static fields are not supported"),
    ],
)
def test_rejects_out_of_subset(src, fragment):
    with pytest.raises(ParseError) as exc_info:
        parse_unit(src, "A.java")
    assert fragment in str(exc_info.value)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc_info:
        parse_unit("class A {\n  void f() {\n    %;\n  }\n}", "Pos.java")
    err = exc_info.value
    assert err.file_path == "Pos.java"
    assert err.line == 3
    assert "Pos.java:3:" in str(err)


@pytest.mark.parametrize(
    "source, message",
    [
        ("class A {\n  /* one\n     two */ int x; #\n}\n",
         "P.java:3:20: unexpected character '#'"),
        ("class A { // note\n  int x;   // more\n     @ }\n",
         "P.java:3:6: unexpected character '@'"),
        ('class A {\n  int f() {\n    g("a\\\n  b"); $\n  }\n}\n',
         "P.java:4:8: unexpected character '$'"),
        ("class A {\n  int x;\n}\n#", "P.java:4:1: unexpected character '#'"),
        ("class A {\n  A f() {\n    /* x */ return new A();\n  }\n}\n",
         "P.java:3:20: unsupported Java construct 'new'"),
        # a class or block body only ends at its `}`, so end of file
        # surfaces as the next token another rule expects
        ("class A {\n  int f() {\n    return g(1,\n      2 /* end\n */  ",
         "P.java:5:6: expected ')', got 'end of file'"),
    ],
    ids=["after-block-comment", "after-line-comment", "after-string-continuation",
         "last-character", "unsupported-keyword", "end-of-file"],
)
def test_parse_error_line_and_column(source, message):
    with pytest.raises(ParseError) as exc_info:
        parse_unit(source, "P.java")
    assert str(exc_info.value) == message


def test_duplicate_signature_rejected():
    src = "class A { int f(int a) { return a; } int f(int b) { return b; } }"
    with pytest.raises(ParseError, match="duplicate method f/1") as caught:
        parse_unit(src, "A.java")
    # the second declaration's first token
    assert (caught.value.line, caught.value.col) == (1, 38)
    assert str(caught.value).startswith("A.java:1:38: duplicate method f/1")
    src = "class A {\n    int f(int a) { return a; }\n    static int f(int b) { return b; }\n}"
    with pytest.raises(ParseError, match="duplicate method f/1") as caught:
        parse_unit(src, "A.java")
    assert (caught.value.line, caught.value.col) == (3, 5)
    # Same name, different arity is allowed.
    ok = "class A { int f(int a) { return a; } int f(int a, int b) { return a; } }"
    assert len(parse_unit(ok, "A.java").classes[0].methods) == 2


def test_duplicate_class_rejected():
    with pytest.raises(ParseError):
        parse_unit("class A { } class A { }", "A.java")


def test_print_round_trip_fixture():
    unit = parse_unit(FIXTURE, "Bank.java")
    text = print_unit(unit)
    again = parse_unit(text, "Bank.java")
    assert again == unit
    # Printing is a fixed point after one normalization pass.
    assert print_unit(again) == text


def test_print_round_trip_generated():
    # Property: parse(print(parse(s))) == parse(s) across 100 random units.
    rng = random.Random(20260816)
    for case in range(100):
        src = random_method_source(rng)
        unit = parse_unit(src, "Gen.java")
        text = print_unit(unit)
        assert parse_unit(text, "Gen.java") == unit, f"case {case}: {src!r}"


def test_printer_preserves_unbraced_bodies():
    src = "class A { void f(int x) { if (x > 0) x = 1; else x = 2; while (x > 0) x = x - 1; } }"
    unit = parse_unit(src, "A.java")
    assert parse_unit(print_unit(unit), "A.java") == unit


def test_dangling_else_binds_inner():
    src = "class A { void f(int x) { if (x > 0) if (x > 1) x = 1; else x = 2; } }"
    unit = parse_unit(src, "A.java")
    outer = unit.classes[0].methods[0].body.children[0]
    assert len(outer.children) == 2  # no else on the outer if
    inner = outer.children[1]
    assert inner.label == "IfStatement" and len(inner.children) == 3
    assert parse_unit(print_unit(unit), "A.java") == unit


def test_structural_equality_ignores_position():
    a = parse_unit("class A { int f() { return 1; } }", "A.java")
    b = parse_unit("class A {\n\n  int f() {\n    return 1;\n  }\n}", "A.java")
    assert a.classes[0].methods[0].body == b.classes[0].methods[0].body


def test_method_id_round_trip():
    mid = make_method_id("dir/Bank.java", "Account", "transfer", 2)
    assert mid == "dir/Bank.java::Account::transfer/2"
    assert split_method_id(mid) == ("dir/Bank.java", "Account", "transfer", 2)


def test_find_enclosing():
    unit = parse_unit(FIXTURE, "Bank.java")
    cls, method = find_enclosing([unit], "Bank.java::Audit::check/2")
    assert cls.name == "Audit"
    assert method.name == "check" and method.arity == 2
    with pytest.raises(DataError, match="method id 'Bank.java::Audit::check/3' not found"):
        find_enclosing([unit], "Bank.java::Audit::check/3")
    with pytest.raises(DataError, match="malformed method id 'not-an-id'"):
        find_enclosing([unit], "not-an-id")


def test_ast_node_invariants():
    with pytest.raises(ValueError):
        AstNode("Name")  # token required
    with pytest.raises(ValueError):
        AstNode("Block", token="x")  # non-leaf cannot carry a token
    with pytest.raises(ValueError):
        AstNode("Bogus")
