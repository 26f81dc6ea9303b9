import numpy as np
import pytest

import run
import workloads
from workloads import WORKLOADS, build_workload, mu_stack, ring_system


def _shapes(value):
    if isinstance(value, dict):
        return {k: _shapes(v) for k, v in value.items()}
    if isinstance(value, list):
        return ("list", np.shape(value)) if value and not isinstance(value[0], str) else ("list", len(value))
    if isinstance(value, str):
        return ("str", value.count("\n"))
    return type(value).__name__


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_text() for p in sorted((root / "inputs").rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    a = build_workload(name, 7, tmp_path / "a")
    b = build_workload(name, 7, tmp_path / "b")
    assert [op.inputs for op in a] == [op.inputs for op in b]
    assert [op.trajectory for op in a] == [op.trajectory for op in b]
    files_a, files_b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert files_a.keys() == files_b.keys()
    for key in files_a:
        assert files_a[key].replace(str(tmp_path / "a"), "") == files_b[key].replace(str(tmp_path / "b"), "")


@pytest.mark.parametrize("name", WORKLOADS)
def test_other_seed_gives_same_mix_and_sizes_with_other_values(name, tmp_path):
    a = build_workload(name, 7, tmp_path / "a")
    b = build_workload(name, 8, tmp_path / "b")
    assert [(op.label, op.kind, op.samples, op.warm) for op in a] == [(op.label, op.kind, op.samples, op.warm) for op in b]
    assert [_shapes(op.inputs) for op in a] == [_shapes(op.inputs) for op in b]
    assert all(op_a.inputs != op_b.inputs for op_a, op_b in zip(a, b))


@pytest.mark.parametrize("n, with_abs", [(2, False), (4, True), (8, False)])
def test_ring_bounds_hold_at_random_points(n, with_abs):
    rng = np.random.default_rng(n)
    lines, bounds = ring_system(rng, n, with_abs)
    coef = {}
    for line in lines[2:]:
        key, expr = line.split(" = ", 1)
        coef[key] = expr
    assert all(v < 0.0 for v in bounds.values())
    # rebuild the Jacobian from the generated text's numbers and check each bound
    a = np.array([float(coef[f"f{i + 1}"].split("(")[1].split(" + ")[0]) for i in range(n)])
    parts = [coef[f"f{i + 1}"].split(" + ") for i in range(n)]
    e = np.array([float(p[2].split("*")[0]) for p in parts])
    c = np.array([float(p[3].split("*")[0]) for p in parts])
    g = np.array([float(p[4].split("*")[0]) for p in parts]) if with_abs else np.zeros(n)
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0, n)
        t = rng.uniform(0.0, 1.0)
        j = np.zeros((n, n))
        for i in range(n):
            j[i, i] += -(a[i] + t * t) + e[i] * np.cos(x[i])
            j[i, (i + 1) % n] += c[i] * np.cos(x[(i + 1) % n])
            j[i, (i - 1) % n] += g[i] * np.sign(x[(i - 1) % n])
        for tag in ("l1", "l2", "linf"):
            assert mu_stack(j, tag) <= bounds[tag] + 1e-12


@pytest.mark.parametrize(
    "name, kinds",
    [
        ("certify-sweep", ("certify.ring2.l1", "certify.malformed", "certify.expanding")),
        ("stiff-trajectory", ("api.verify_incremental_bound.expanding",)),
        ("ltv-envelope", ("api.check_transition_bounds.n2.l1", "api.check_transition_bounds.n2.weighted", "cli.lognorm.n2")),
    ],
)
def test_cheap_operations_pass_their_checks(name, kinds, tmp_path):
    first = {}
    for op in build_workload(name, 3, tmp_path):
        first.setdefault(op.kind, op)
    ops = [first[kind] for kind in kinds]
    for op in ops:
        if op.oracle is not None:
            op.expected = op.oracle()
        seconds, failure, _, _ = run.run_op(op)
        assert failure is None, (op.label, failure)
        assert seconds > 0.0


def test_a_wrong_answer_is_reported(tmp_path):
    (op,) = [op for op in build_workload("ltv-envelope", 3, tmp_path) if op.kind == "cli.lognorm.n2"]
    expected = op.oracle()
    expected["l2"] += 1e-3
    op.expected = expected
    _, failure, _, _ = run.run_op(op)
    assert failure and "l2" in failure


def test_runner_and_generators_name_the_same_workloads():
    assert run.WORKLOAD_NAMES == WORKLOADS
