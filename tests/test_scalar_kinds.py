"""Scalar arithmetic holds no branch on the field's kind.

Scalar's +, -, *, /, negation, inverse, power and zero test are calls
into the field's ring view (`value_add` and the rest), where each
fraction body is written once.  This `ast` check fails if one of those
methods reads `.kind` or a field-kind constant again, as the per-kind
bodies did.  Coercion of the other operand is written once per operator
that needs it: a second check fails if any other method reaches
`_coerce` or `Field.scalar`.
"""

import ast
from pathlib import Path

FIELDS = Path(__file__).resolve().parent.parent / "src" / "skewplus" / "fields.py"
ARITHMETIC = ("is_zero", "__bool__", "__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
              "inv", "__truediv__", "__rtruediv__", "__pow__")
KIND_NAMES = {"RATIONALS", "PRIME", "FUNCTION_FIELD"}
# subtraction is addition of the negation, and coerces through __add__
COERCING = {"__add__", "__mul__", "__truediv__", "__rtruediv__", "__eq__"}


def _methods(tree, cls):
    """The methods of class `cls` defined at the top level of `tree`, by name."""
    return {fn.name: fn for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls
            for fn in node.body if isinstance(fn, ast.FunctionDef)}


def _kind_reads(methods):
    """(method, line) for every read of `.kind` or of a kind constant in
    the arithmetic methods among `methods`."""
    return sorted({(name, node.lineno) for name, fn in methods.items() if name in ARITHMETIC
                   for node in ast.walk(fn)
                   if (isinstance(node, ast.Attribute) and node.attr == "kind")
                   or (isinstance(node, ast.Name) and node.id in KIND_NAMES)})


def test_scalar_arithmetic_reads_no_field_kind():
    methods = _methods(ast.parse(FIELDS.read_text()), "Scalar")
    assert set(ARITHMETIC) <= set(methods)
    assert _kind_reads(methods) == []


def test_the_check_sees_a_kind_branch():
    source = ("class Scalar:\n"
              "    def __add__(self, other):\n"
              "        if self.field.kind == RATIONALS:\n"
              "            return other\n"
              "    def inv(self):\n"
              "        return (lambda: PRIME)()\n"
              "    def literal(self):\n"
              "        return self.field.kind\n")
    assert _kind_reads(_methods(ast.parse(source), "Scalar")) == [("__add__", 3), ("inv", 6)]


def _coercions(methods):
    """The methods among `methods`, `_coerce` itself aside, that call
    `_coerce` or `.scalar`."""
    return {name for name, fn in methods.items() if name != "_coerce"
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("_coerce", "scalar")}


def test_only_the_coercing_operators_reach_coerce():
    assert _coercions(_methods(ast.parse(FIELDS.read_text()), "Scalar")) == COERCING


def test_the_check_sees_a_coercion():
    source = ("class Scalar:\n"
              "    def _coerce(self, other):\n"
              "        return self.field.scalar(other)\n"
              "    def __sub__(self, other):\n"
              "        return self + (-self._coerce(other))\n"
              "    def __rsub__(self, other):\n"
              "        return self.field.scalar(other) - self\n"
              "    def __neg__(self):\n"
              "        return self\n")
    assert _coercions(_methods(ast.parse(source), "Scalar")) == {"__sub__", "__rsub__"}
