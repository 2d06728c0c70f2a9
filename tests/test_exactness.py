"""The exactness invariant, read off the source: sympl computes with ints
and Fractions only, so no float can enter through its own code.

No module of src/sympl holds a float or complex literal or calls float()
or round(), and the only true divisions are the two that divide
RationalFunctions in lfactors; every other quotient is a Fraction or an
integer division.
"""

import ast
from pathlib import Path

import sympl

SOURCE = Path(sympl.__file__).resolve().parent

# (module, enclosing function) of each `/`; both operands are RationalFunctions there
RATIONAL_FUNCTION_DIVISIONS = [
    ("lfactors", "RationalFunction.__eq__"),  # self / other
    ("lfactors", "gk_value"),  # xi(...) / xi(...)
]


def is_float_literal(node):
    return isinstance(node, ast.Constant) and type(node.value) in (float, complex)


def is_float_or_round_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "round")


def is_division(node):
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)


def scan(module, tree, check):
    """(module, enclosing function) of each node of tree that check accepts."""
    found, stack = [], [(tree, "")]
    while stack:
        node, scope = stack.pop()
        if check(node):
            found.append((module, scope))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return found


def scan_source(check):
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) >= 14  # every module of the package, __init__ included
    return sorted(hit for path in modules for hit in scan(path.stem, ast.parse(path.read_text("utf-8")), check))


def test_no_float_literal():
    assert scan_source(is_float_literal) == []


def test_no_float_or_round_call():
    assert scan_source(is_float_or_round_call) == []


def test_only_rational_function_divisions():
    assert scan_source(is_division) == sorted(RATIONAL_FUNCTION_DIVISIONS)


def test_each_check_sees_a_planted_offence():
    planted = ast.parse("class C:\n    def f(a, b):\n        a /= 2\n        return float(a) + 1.5 + 2j + round(b) + a / b\n")
    assert scan("m", planted, is_float_literal) == [("m", "C.f")] * 2
    assert scan("m", planted, is_float_or_round_call) == [("m", "C.f")] * 2
    assert scan("m", planted, is_division) == [("m", "C.f")] * 2
