"""Small arithmetic expression language with symbolic differentiation.

Grammar (infix, ^ is right-associative power):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Known functions: sin, cos, exp, log, sqrt, abs, pow. Known constants: pi, e.
Any other NAME is a free variable (state symbols x1..xn and time t, in this
toolkit). Python's own parser reads the text, with ^ as ** (same precedence
and associativity), and its tree is checked node by node against the grammar.
Parsed expressions are ``ast`` trees in which ^ is a pow() call and pi and e
are constants. They differentiate symbolically except through abs, which
reports itself as non-differentiable so callers can fall back to finite
differences; constants are folded as the derivative is built, so a partial
derivative that is structurally zero is the constant 0 whatever the signs of
the coefficients. compile_expression generates one Python function for one
expression, or for a whole list (field, perturbation) or list of lists
(Jacobian) of them, from the one printer ``to_source``: over math-module
functions for one point, over numpy's for the columns of a stack of points, or
over math's at every entry for a vector of times, which keeps one point's bits.
"""

from __future__ import annotations

import ast
import math
import re

import numpy as np

from .errors import LogstabError

FUNCTIONS_1 = ("sin", "cos", "exp", "log", "sqrt", "abs")
FUNCTIONS_2 = ("pow",)
CONSTANTS = {"pi": math.pi, "e": math.e}
# Deepest tree parse_expression accepts. differentiate and to_source recurse
# over the tree, and a derivative is a few times deeper than the expression, so
# this keeps each of them well inside Python's limits. A chain of sums and
# differences counts as one level and is walked in a loop, so it is capped by
# its length instead.
MAX_DEPTH = 40
MAX_TERMS = 200

_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


class ExprSyntaxError(LogstabError):
    """Expression failed to parse; carries the character position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class NonDifferentiableError(LogstabError):
    """The expression contains a node with no symbolic derivative (abs)."""


def _call(fn: str, *args: ast.expr) -> ast.Call:
    return ast.Call(ast.Name(fn, ast.Load()), list(args), [])


_SUMS = (ast.Add, ast.Sub)
_PRODUCTS = (ast.Mult, ast.Div)


def _chain(node: ast.expr, ops: tuple) -> tuple[list, list]:
    """Flatten the left-nested chain a op b op c ... of operators in ``ops``.

    Returns the operands [a, b, c, ...] and the operators between them.
    """
    operands, between = [], []
    while isinstance(node, ast.BinOp) and isinstance(node.op, ops):
        operands.append(node.right)
        between.append(node.op)
        node = node.left
    operands.append(node)
    return operands[::-1], between[::-1]


def parse_expression(text: str) -> ast.expr:
    """Parse ``text`` in the grammar above into a tree of ``ast`` nodes."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    if "**" in text:
        raise ExprSyntaxError("'**' is not an operator; write a power with '^'", text.index("**"))
    # Python source on one line, and the index in ``text`` of each of its characters
    chars, where = [], []
    for i, ch in enumerate(text):
        if ch.isspace():
            if not chars:  # Python would read leading space as indentation
                continue
            ch = " "
        elif ch == "^":
            ch = "**"
        elif not (ch.isalnum() or ch in "_.+-*/(),"):
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
        chars.append(ch)
        where += [i] * len(ch)
    where.append(len(text))
    source = "".join(chars)
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as exc:  # offset is 1-based; 0 marks the end of the input
        raise ExprSyntaxError(exc.msg, where[min(exc.offset - 1 if exc.offset else len(source), len(source))]) from None
    except (RecursionError, MemoryError):  # how Python's parser reports running out of stack
        raise ExprSyntaxError(f"expression nested more than {MAX_DEPTH} levels deep", 0) from None
    encoded = source.encode()  # ast positions are UTF-8 byte offsets

    def typed(node):
        return encoded[node.col_offset : node.end_col_offset].decode()

    def fail(message, node):
        raise ExprSyntaxError(message, where[len(encoded[: node.col_offset].decode())])

    def check(node, depth):
        if depth > MAX_DEPTH:
            fail(f"expression nested more than {MAX_DEPTH} levels deep", node)
        if isinstance(node, ast.Constant):
            literal = typed(node)
            if not _NUMBER.fullmatch(literal):
                fail(f"bad number {literal!r}", node)
            if not math.isfinite(float(literal)):
                fail(f"number must be finite, got {literal!r}", node)
            return ast.Constant(float(literal))
        if isinstance(node, ast.Name):
            # Python NFKC-normalizes identifiers; a name must read as typed
            if typed(node) != node.id:
                fail(f"unexpected name {typed(node)!r}", node)
            if node.id in CONSTANTS:
                return ast.Constant(CONSTANTS[node.id])
            return ast.Name(node.id, ast.Load())
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            operand = check(node.operand, depth + 1)
            return operand if isinstance(node.op, ast.UAdd) else ast.UnaryOp(ast.USub(), operand)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SUMS):  # one level for the whole chain
            terms, ops = _chain(node, _SUMS)
            if len(terms) > MAX_TERMS:
                fail(f"a sum has more than {MAX_TERMS} terms", node)
            out = check(terms[0], depth + 1)
            for op, term in zip(ops, terms[1:]):
                out = ast.BinOp(out, op, check(term, depth + 1))
            return out
        if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
            left, right = check(node.left, depth + 1), check(node.right, depth + 1)
            return _call("pow", left, right) if isinstance(node.op, ast.Pow) else ast.BinOp(left, node.op, right)
        # a call is NAME '(' ... ')', not '(' NAME ')' '(' ... ')'
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.col_offset == node.col_offset:
            fn = typed(node.func)
            if fn not in FUNCTIONS_1 + FUNCTIONS_2:
                fail(f"unknown function {fn!r}", node)
            if len(node.args) != (1 if fn in FUNCTIONS_1 else 2):
                fail(f"{fn} takes {'one argument' if fn in FUNCTIONS_1 else 'two arguments'}", node)
            if b"," in encoded[node.args[-1].end_col_offset : node.end_col_offset]:
                fail("unexpected ',' before ')'", node)
            return _call(fn, *(check(arg, depth + 1) for arg in node.args))
        fail(f"unexpected {typed(node)!r}", node)

    return check(tree, 1)


def free_variables(node: ast.expr) -> set[str]:
    nodes = list(ast.walk(node))
    functions = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
    return {n.id for n in nodes if isinstance(n, ast.Name) and id(n) not in functions}


def _is_num(node, value=None):
    return isinstance(node, ast.Constant) and (value is None or node.value == value)


def _neg(a):
    if _is_num(a):
        return ast.Constant(-a.value if a.value else 0.0)
    return ast.UnaryOp(ast.USub(), a)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return ast.Constant(a.value + b.value)
    return ast.BinOp(a, ast.Add(), b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return ast.Constant(a.value - b.value)
    if _is_num(a, 0.0):
        return _neg(b)
    return ast.BinOp(a, ast.Sub(), b)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return ast.Constant(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return ast.Constant(a.value * b.value)
    return ast.BinOp(a, ast.Mult(), b)


def _div(a, b):
    if _is_num(a, 0.0):
        return ast.Constant(0.0)
    return ast.BinOp(a, ast.Div(), b)


def differentiate(node: ast.expr, var: str) -> ast.expr:
    """Symbolic derivative of the expression with respect to ``var``."""
    if isinstance(node, ast.Constant):
        return ast.Constant(0.0)
    if isinstance(node, ast.Name):
        return ast.Constant(1.0 if node.id == var else 0.0)
    if isinstance(node, ast.UnaryOp):
        return _neg(differentiate(node.operand, var))
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SUMS):  # walked in a loop, like parsing
        terms, ops = _chain(node, _SUMS)
        out = differentiate(terms[0], var)
        for op, term in zip(ops, terms[1:]):
            out = (_add if isinstance(op, ast.Add) else _sub)(out, differentiate(term, var))
        return out
    if isinstance(node, ast.BinOp):
        a, b = node.left, node.right
        da, db = differentiate(a, var), differentiate(b, var)
        if isinstance(node.op, ast.Mult):
            return _add(_mul(da, b), _mul(a, db))
        return _div(_sub(_mul(da, b), _mul(a, db)), _call("pow", b, ast.Constant(2.0)))
    fn, args = node.func.id, node.args
    if fn == "pow":
        u, v = args
        return _diff_power(u, v, differentiate(u, var), differentiate(v, var))
    (u,) = args
    du = differentiate(u, var)
    if fn == "sin":
        return _mul(_call("cos", u), du)
    if fn == "cos":
        return _neg(_mul(_call("sin", u), du))
    if fn == "exp":
        return _mul(_call("exp", u), du)
    if fn == "log":
        return _div(du, u)
    if fn == "sqrt":
        return _div(du, _mul(ast.Constant(2.0), _call("sqrt", u)))
    raise NonDifferentiableError("abs has no symbolic derivative at 0")


def _diff_power(u: ast.expr, v: ast.expr, du: ast.expr, dv: ast.expr) -> ast.expr:
    if _is_num(v):
        c = v.value
        if c == 0.0:
            return ast.Constant(0.0)
        return _mul(_mul(ast.Constant(c), _call("pow", u, ast.Constant(c - 1.0))), du)
    # general u^v: u^v * (dv*log(u) + v*du/u)
    inner = _add(_mul(dv, _call("log", u)), _mul(v, _div(du, u)))
    return _mul(_call("pow", u, v), inner)


def _math_or_array(fn: str, at_each: bool):
    """The numpy namespace's ``fn``, or with ``at_each`` the vector namespace's: math's on Python floats.

    On anything else it is numpy's ``fn``, or with ``at_each`` math's at every entry.
    """
    by_math = getattr(math, fn)
    if at_each:
        each = np.frompyfunc(by_math, 2 if fn == "pow" else 1, 1)
        by_array = lambda *args: np.asarray(each(*args), dtype=float)
    else:
        by_array = getattr(np, "power" if fn == "pow" else fn)

    def either(*args):
        return by_math(*args) if all(type(a) is float for a in args) else by_array(*args)

    return either


_ROUTINES = [fn for fn in FUNCTIONS_1 + FUNCTIONS_2 if fn != "abs"]
# what compiled expressions call, per namespace: every known function (abs is the builtin,
# which takes floats and arrays alike), and what each namespace needs for its undefined case
_NAMESPACES = {
    "math": {**{fn: getattr(math, fn) for fn in _ROUTINES}, "abs": abs, "_nan": math.nan},
    "numpy": {**{fn: _math_or_array(fn, False) for fn in _ROUTINES}, "abs": abs, "_errstate": np.errstate},
    "vector": {**{fn: _math_or_array(fn, True) for fn in _ROUTINES}, "abs": abs, "_errstate": np.errstate},
}


_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def _binding(node: ast.expr) -> int:
    """How tightly the rendered node binds: 0 for a sum, 1 for a product, 2 for anything else."""
    if isinstance(node, ast.BinOp):
        return 0 if isinstance(node.op, _SUMS) else 1
    return 2


def to_source(node: ast.expr) -> str:
    """Render the expression back in the grammar (powers as pow() calls).

    The text parses to the same tree as that of ast.unparse, but a chain of
    sums or of products is rendered in a loop, so only real nesting costs
    stack depth.
    """
    if isinstance(node, (ast.Constant, ast.Name)):
        return ast.unparse(node)
    if isinstance(node, ast.UnaryOp):
        operand = to_source(node.operand)
        return f"-({operand})" if _binding(node.operand) < 2 else f"-{operand}"
    if isinstance(node, ast.Call):
        return f"{node.func.id}({', '.join(to_source(arg) for arg in node.args)})"
    level = _binding(node)
    operands, ops = _chain(node, _SUMS if level == 0 else _PRODUCTS)
    parts = []
    for i, operand in enumerate(operands):
        text = to_source(operand)
        # left-associative: a right operand that binds no tighter than the chain needs parentheses
        if _binding(operand) < level or (i > 0 and _binding(operand) == level):
            text = f"({text})"
        parts.append(text if i == 0 else f"{_SYMBOLS[type(ops[i - 1])]} {text}")
    return " ".join(parts)


def _leaves(tree) -> list[ast.expr]:
    """The nodes of a node or of a nested list of nodes, in order."""
    if isinstance(tree, ast.expr):
        return [tree]
    return [leaf for item in tree for leaf in _leaves(item)]


def _render(tree, leaf) -> str:
    """Source of a node, or of a list display of the same nesting, with ``leaf`` rendering each node."""
    if isinstance(tree, ast.expr):
        return leaf(tree)
    return f"[{', '.join(_render(item, leaf) for item in tree)}]"


def compile_expression(tree, arg_names: list[str], namespace: str = "math"):
    """Compile an expression, or a nested list of them, to one Python function.

    ``tree`` is one node, giving a function that returns one value, or a list
    (or a list of lists) of nodes, giving a function that returns a list (or
    a list of lists) of values of the same shape: a whole field, Jacobian or
    perturbation is one call. Rejects free variables outside ``arg_names``,
    and argument names that would hide a name the function uses. The
    generated source only ever contains to_source of the parsed trees, so
    exec here is a code generator, not an evaluator of user text. Powers are
    real (math.pow, numpy.power).

    ``namespace`` names what the printed text is evaluated with, and each
    namespace decides its own undefined case:

    - ``"math"``: the math module, on Python floats. Every entry is
      evaluated inside one ``try``, so if any of them is undefined at a point
      (log of a negative number, division by zero, overflow), the whole
      result is NaN, of the same shape, and the callers' finiteness checks
      report it. Call the function with Python floats: on numpy scalars a
      division by zero gives inf and a warning, not an error.
    - ``"numpy"``: each function is math's when all its arguments are
      Python floats and numpy's otherwise, so the arguments may be arrays of
      one shape, and a subtree of Python floats (constants, t) gives the
      math namespace's bits. The function runs under
      ``np.errstate(all="raise")``, so where an entry is undefined, overflows
      or underflows it raises ArithmeticError (or ValueError, from math)
      instead of returning a value; the caller decides what that means. An
      entry that depends on no array argument is a Python float.
    - ``"vector"``: as ``"numpy"``, but each function is math's at every
      entry of an array too (through ``np.frompyfunc``). The four arithmetic
      operators round alike on Python floats and on float64 arrays, so every
      entry of the result has the bits of the ``"math"`` function at that
      entry's arguments. Slower than ``"numpy"`` per entry; meant for a
      vector of times, where a few hundred entries are evaluated at once.
    """
    unknown = set().union(*map(free_variables, _leaves(tree))) - set(arg_names)
    if unknown:
        raise ExprSyntaxError(f"unknown symbol(s) {sorted(unknown)}; declared: {arg_names}", 0)
    names = _NAMESPACES[namespace]
    hidden = set(arg_names) & names.keys()
    if hidden:
        raise ExprSyntaxError(f"argument name(s) {sorted(hidden)} would hide a name the function uses", 0)
    value = _render(tree, to_source)
    if namespace == "math":
        body = (
            f"    try:\n        return {value}\n"
            "    except (ArithmeticError, ValueError):\n"
            f"        return {_render(tree, lambda node: '_nan')}\n"
        )
    else:
        body = f'    with _errstate(all="raise"):\n        return {value}\n'
    scope = dict(names)
    exec(compile(f"def _compiled({', '.join(arg_names)}):\n{body}", "<expression>", "exec"), scope)
    return scope["_compiled"]
