"""Small arithmetic expression language with symbolic differentiation.

Grammar (infix, ^ is right-associative power):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Known functions: sin, cos, exp, log, sqrt, abs, pow. Known constants: pi, e.
Any other NAME is a free variable (state symbols x1..xn and time t, in this
toolkit). Parsed expressions compile to plain Python closures over math-module
functions, and differentiate symbolically except through abs, which reports
itself as non-differentiable so callers can fall back to finite differences.
"""

from __future__ import annotations

import math

from .errors import LogstabError

FUNCTIONS_1 = ("sin", "cos", "exp", "log", "sqrt", "abs")
FUNCTIONS_2 = ("pow",)
CONSTANTS = {"pi": math.pi, "e": math.e}


class ExprSyntaxError(LogstabError):
    """Expression failed to parse; carries the character position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class NonDifferentiableError(LogstabError):
    """The expression contains a node with no symbolic derivative (abs)."""


class Node:
    __slots__ = ()


class Num(Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def __repr__(self):
        return f"Num({self.value})"


class Var(Node):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"Var({self.name!r})"


class Bin(Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self):
        return f"Bin({self.op!r}, {self.left!r}, {self.right!r})"


class Neg(Node):
    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def __repr__(self):
        return f"Neg({self.child!r})"


class Call(Node):
    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = tuple(args)

    def __repr__(self):
        return f"Call({self.fn!r}, {self.args!r})"


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                seen_e = False
                while j < n and (text[j].isdigit() or text[j] == "." or text[j] in "eE" or (seen_e and text[j] in "+-")):
                    if text[j] in "eE":
                        if seen_e:
                            break
                        # only exponent 'e' followed by digit or sign counts
                        if j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-"):
                            seen_e = True
                        else:
                            break
                    elif text[j] in "+-":
                        if not (text[j - 1] in "eE"):
                            break
                    j += 1
                try:
                    value = float(text[i:j])
                except ValueError:
                    raise ExprSyntaxError(f"bad number {text[i:j]!r}", i)
                self.tokens.append(("num", value, i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^(),":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok


class _Parser:
    def __init__(self, text):
        self.toks = _Tokenizer(text)

    def parse(self) -> Node:
        node = self._expr()
        kind, _, pos = self.toks.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input", pos)
        return node

    def _expr(self) -> Node:
        node = self._term()
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            rhs = self._term()
            node = Bin(op, node, rhs)
        return node

    def _term(self) -> Node:
        node = self._unary()
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.next()[0]
            rhs = self._unary()
            node = Bin(op, node, rhs)
        return node

    def _unary(self) -> Node:
        kind, _, _ = self.toks.peek()
        if kind == "-":
            self.toks.next()
            return Neg(self._unary())
        if kind == "+":
            self.toks.next()
            return self._unary()
        return self._power()

    def _power(self) -> Node:
        base = self._atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            return Bin("^", base, self._unary())
        return base

    def _atom(self) -> Node:
        kind, value, pos = self.toks.next()
        if kind == "num":
            return Num(value)
        if kind == "name":
            if self.toks.peek()[0] == "(":
                self.toks.next()
                args = [self._expr()]
                while self.toks.peek()[0] == ",":
                    self.toks.next()
                    args.append(self._expr())
                if self.toks.peek()[0] != ")":
                    raise ExprSyntaxError("expected ')'", self.toks.peek()[2])
                self.toks.next()
                if value in FUNCTIONS_1:
                    if len(args) != 1:
                        raise ExprSyntaxError(f"{value} takes one argument", pos)
                elif value in FUNCTIONS_2:
                    if len(args) != 2:
                        raise ExprSyntaxError(f"{value} takes two arguments", pos)
                else:
                    raise ExprSyntaxError(f"unknown function {value!r}", pos)
                return Call(value, args)
            if value in CONSTANTS:
                return Num(CONSTANTS[value])
            return Var(value)
        if kind == "(":
            node = self._expr()
            if self.toks.peek()[0] != ")":
                raise ExprSyntaxError("expected ')'", self.toks.peek()[2])
            self.toks.next()
            return node
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)


def parse_expression(text: str) -> Node:
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


def free_variables(node: Node) -> set[str]:
    out = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            out.add(cur.name)
        elif isinstance(cur, Bin):
            stack.extend((cur.left, cur.right))
        elif isinstance(cur, Neg):
            stack.append(cur.child)
        elif isinstance(cur, Call):
            stack.extend(cur.args)
    return out


def _is_num(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    return Bin("+", a, b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(a, 0.0):
        return Neg(b)
    return Bin("-", a, b)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    return Bin("*", a, b)


def _div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return Bin("/", a, b)


def differentiate(node: Node, var: str) -> Node:
    """Symbolic derivative of the expression with respect to ``var``."""
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return Neg(differentiate(node.child, var))
    if isinstance(node, Bin):
        da = differentiate(node.left, var)
        db = differentiate(node.right, var)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, node.right), _mul(node.left, db))
        if node.op == "/":
            num = _sub(_mul(da, node.right), _mul(node.left, db))
            return _div(num, Bin("^", node.right, Num(2.0)))
        if node.op == "^":
            return _diff_power(node.left, node.right, da, db)
        raise AssertionError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        if node.fn == "pow":
            u, v = node.args
            return _diff_power(u, v, differentiate(u, var), differentiate(v, var))
        (u,) = node.args
        du = differentiate(u, var)
        if node.fn == "sin":
            return _mul(Call("cos", [u]), du)
        if node.fn == "cos":
            return Neg(_mul(Call("sin", [u]), du))
        if node.fn == "exp":
            return _mul(Call("exp", [u]), du)
        if node.fn == "log":
            return _div(du, u)
        if node.fn == "sqrt":
            return _div(du, _mul(Num(2.0), Call("sqrt", [u])))
        if node.fn == "abs":
            raise NonDifferentiableError("abs has no symbolic derivative at 0")
        raise AssertionError(f"unknown function {node.fn!r}")
    raise AssertionError(f"unknown node {node!r}")


def _diff_power(u: Node, v: Node, du: Node, dv: Node) -> Node:
    if _is_num(v):
        c = v.value
        if c == 0.0:
            return Num(0.0)
        return _mul(_mul(Num(c), Bin("^", u, Num(c - 1.0))), du)
    # general u^v: u^v * (dv*log(u) + v*du/u)
    inner = _add(_mul(dv, Call("log", [u])), _mul(v, _div(du, u)))
    return _mul(Bin("^", u, v), inner)


# what compiled expressions call: _<fn> for every known function, and _nan
_NAMESPACE = {f"_{fn}": getattr(math, fn) for fn in FUNCTIONS_1 + FUNCTIONS_2 if fn != "abs"}
_NAMESPACE.update(_abs=abs, _nan=math.nan)


def to_source(node: Node) -> str:
    """Render the expression back in the grammar (fully parenthesized)."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_source(node.child)})"
    if isinstance(node, Bin):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, Call):
        args = ", ".join(to_source(a) for a in node.args)
        return f"{node.fn}({args})"
    raise AssertionError(f"unknown node {node!r}")


def _to_python(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_to_python(node.child)})"
    if isinstance(node, Bin):
        if node.op == "^":
            return f"_pow({_to_python(node.left)}, {_to_python(node.right)})"
        return f"({_to_python(node.left)} {node.op} {_to_python(node.right)})"
    if isinstance(node, Call):
        args = ", ".join(_to_python(a) for a in node.args)
        return f"_{node.fn}({args})"
    raise AssertionError(f"unknown node {node!r}")


def compile_expression(node: Node, arg_names: list[str]):
    """Compile the expression to a Python closure over the given arguments.

    Rejects free variables outside ``arg_names``. The generated source only
    ever contains our own rendering of the parsed tree, so exec here is a
    code generator, not an evaluator of user text. Powers are real
    (math.pow), and a point where the expression is undefined (log of a
    negative number, division by zero, overflow) evaluates to NaN, so the
    callers' finiteness checks report it.
    """
    unknown = free_variables(node) - set(arg_names)
    if unknown:
        raise ExprSyntaxError(f"unknown symbol(s) {sorted(unknown)}; declared: {arg_names}", 0)
    src = (
        f"def _compiled({', '.join(arg_names)}):\n"
        f"    try:\n        return {_to_python(node)}\n"
        "    except (ArithmeticError, ValueError):\n        return _nan\n"
    )
    namespace = dict(_NAMESPACE)
    exec(compile(src, "<expression>", "exec"), namespace)
    return namespace["_compiled"]
