"""Property test: parse -> serialize -> parse is the identity for every scenario key."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logstab.config import SCHEMA, parse_config, serialize_config
from logstab.linalg import NormKind

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
names = st.text("abcxyz019_./-", max_size=12)
t_expressions = st.sampled_from(["0", "t", "0.5 + t^3", "exp(-t) * sin(t)^2", "pow(t, 2) + 1", "-6 - t^3"])


def cased(words):
    return st.sampled_from(words).flatmap(lambda w: st.sampled_from([w, w.upper(), w.capitalize()]))


def numbers(dim):
    return st.lists(finite, min_size=dim, max_size=dim).map(lambda v: ", ".join(repr(x) for x in v))


def matrix(rows):
    return "; ".join(" ".join(repr(v) for v in row) for row in rows)


# (section, key) -> dim -> strategy for the value text; must cover SCHEMA exactly
KEY_VALUES = {
    ("norm", "kind"): lambda dim: cased(NormKind.TAGS),
    ("norm", "weight"): lambda dim: st.lists(st.lists(finite, min_size=dim, max_size=dim), min_size=dim, max_size=dim).map(matrix),
    ("norm", "weight_file"): lambda dim: names,
    ("domain", "lower"): numbers,
    ("domain", "upper"): numbers,
    ("domain", "t_lo"): lambda dim: finite.map(repr),
    ("domain", "t_hi"): lambda dim: finite.map(repr),
    ("sampling", "n_space"): lambda dim: st.integers(1, 10**6).map(str),
    ("sampling", "n_time"): lambda dim: st.integers(1, 10**6).map(str),
    ("sampling", "scheme"): lambda dim: st.sampled_from(["uniform_grid", "latin_hypercube", "uniform_random"]),
    ("sampling", "seed"): lambda dim: st.integers(0, 2**63).map(str),
    ("integrator", "method"): lambda dim: cased(["auto", "rk4", "ndf"]),
    ("integrator", "step"): lambda dim: positive.map(repr),
    ("integrator", "rel_tol"): lambda dim: positive.map(repr),
    ("integrator", "abs_tol"): lambda dim: positive.map(repr),
    ("integrator", "max_step"): lambda dim: positive.map(repr),
    ("integrator", "max_steps"): lambda dim: st.integers(1, 10**9).map(str),
    ("integrator", "tf"): lambda dim: finite.map(repr),
    ("certify", "alpha"): lambda dim: t_expressions,
    ("output", "dir"): lambda dim: names,
}


def test_every_schema_key_has_a_strategy():
    assert set(KEY_VALUES) == {(section, key) for section, keys in SCHEMA.items() for key in keys}


@st.composite
def system_lines(draw):
    if draw(st.booleans()):
        dim = 2
        lines = ["type = builtin", "name = example1"]
        if draw(st.booleans()):
            lines.append(f"b = {draw(finite)!r}")
        if draw(st.booleans()):
            lines.append(f"phi = {draw(t_expressions)}")
    else:
        dim = draw(st.integers(1, 3))
        lines = ["type = expression", f"dim = {dim}"]
        lines += [f"f{i + 1} = -x{i + 1} + sin(x{dim}) * t" for i in range(dim)]
    for i in range(dim):
        if draw(st.booleans()):
            lines.append(f"delta{i + 1} = {draw(t_expressions)}")
    if draw(st.booleans()):
        lines.append(f"x0 = {draw(numbers(dim))}")
    if draw(st.booleans()):
        lines.append(f"t0 = {draw(finite)!r}")
    return dim, lines


@st.composite
def scenarios(draw):
    dim, lines = draw(system_lines())
    text = ["[system]", *lines]
    has_box = draw(st.booleans())
    for section, keys in SCHEMA.items():
        body = []
        for key in keys:
            if key in ("lower", "upper"):
                present = has_box
            elif section == "norm" and key == "weight":
                present = True  # a weighted kind needs it; other kinds ignore it
            else:
                present = draw(st.booleans())
            if present:
                body.append(f"{key} = {draw(KEY_VALUES[section, key](dim))}")
        if body or draw(st.booleans()):
            text += ["", f"[{section}]", *body]
    return "\n".join(text) + "\n"


@settings(max_examples=300, deadline=None)
@given(scenarios())
@example("[system]\ntype = expression\ndim = 1\nf1 = -x1\ndelta1 = 0\n")
@example("[system]\ntype = builtin\nname = example1\n\n[domain]\nt_hi = 5\n")
def test_parse_serialize_parse_is_identity(text):
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg
