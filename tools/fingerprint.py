"""Fingerprint logstab's numerical output: one SHA-256 line per record of a fixed corpus.

Usage:
    python tools/fingerprint.py                 # this tree
    python tools/fingerprint.py --against REV   # this tree against the committed tree of REV

A record is one call of the library on fixed inputs. Its line holds the
record's name and a SHA-256 of what the call returns; a call that raises one
of logstab's errors is recorded by that error. One walker, ``_leaves``, takes
a record apart into (path, leaf) pairs: a dataclass adds its type name and
field name to the path, a list or tuple the item's index and its own length,
and every other value is a leaf. The hash takes each path with its leaf's raw
bytes (an array's after its dtype and shape), float hex or repr. Runs that
``auto`` handed to NDF also show the switch time. Where scipy is installed,
every demo run also shows its worst error against the LSODA reference of
``perfbench/reference.py``, at the run's own times and relative to
max(1, |x|), and the last line names the worst of them. A run whose exact
solution is known shows its worst error against that instead, in the same
measure (``exact=``).

The corpus: the demo field (fig1 and fig2 from (-2, 5)) under ``auto``, ``ndf``
and ``rk4``, on the integrator's grid and sampled every 0.05, to tf = 3 and 20;
``auto`` sampled to tf = 1 and 6 from the six starts of the tf = 1 no-switch tests;
those six starts of fig1 as one ``integrate_many`` ensemble run, under ``auto`` and
``ndf`` to tf = 6 and under ``rk4`` to tf = 3, sampled every 0.05 (a tree without
``integrate_many`` runs them one at a time);
fig1 from (-2, 5) under ``auto`` and ``ndf`` to tf = 6, sampled at the nodes of
its own grid run and at their midpoints (the ``auto`` run crosses its hand-off);
Prothero-Robinson (lambda = -1e4, solution sin t) under ``ndf`` to tf = 10 at
``rel_tol`` 1e-6 and 1e-9, on the grid and at 201 samples; ``integrate_fundamental`` of a
quadratic A(t) at n = 2, 4 and 8, and of a stiff constant 3x3 A (eigenvalues -2000, -1
and -0.5) under ``ndf`` to tf = 1, on the grid and at 21 samples, whose NDF steps invert
one 3x3 block, and of that quadratic A(t) at n = 20 at the 21 samples;
``check_transition_bounds`` on the n = 2, 4 and 8 systems
under four norms, and on two whose envelopes overflow and underflow (the
rotation [[0, 1000], [-1000, 0]] under l1 with 200 pairs, diag(-1000, -1)
under l2); the demo field without delta under ``auto`` to tf = 6, across its
hand-off; x' = -x from (1, 1) with f and delta returning float32, under
``rk4`` to tf = 1; acceptance criterion 04's two reports; the demo's forcing-ratio
report (fig1, the demo rate, t in [0, 20]); the forcing-ratio reports of config-built
systems, whose f(0, t), delta and alpha take the whole grid in one call each: the fig2
config text under l2, and a field, delta and alpha in exp, log, sqrt and pow of t with a
constant delta entry under l1, l2, linf and a weighted norm; the same reports where
callables are plain wrappers without ``origin`` or ``stack``: fig1 with plain f and
delta, and the fig2 config with a plain f and its stacked delta; the demo's Demidovich reports (fig1,
the demo config's domain and plan, with P = I and P = [[2, 0.3], [0.3, 1.5]]);
the contraction certificate of fig1 with the demo rate on that domain under
l1, l2, linf and the weighted norm of that P, each on the demo's 41x41x5 grid
and on a 2000-point Latin hypercube (5 slices, seed 3); the certificates of
two expression systems, whose numpy stacks take each slice, under l1, l2 and
linf on a 1000-point Latin hypercube of [-3, 3]^n (4 slices on [0, 1], seed
11): certify-sweep's ring shape at n = 4 (sin terms and a t^2 diagonal) and a
planar field with exp and pow of the state; the certificates, with the demo
rate, of rings of that shape whose coefficients come from a seeded generator,
at n = 4 and 8 and at n = 4 with an abs term (finite differences), each under
l1, l2, linf and a weighted norm, on a 500-point Latin hypercube (4 slices on
[0, 1]);
the Demidovich report (P = I, 3x3 grid on [-1, 1]^2, two time slices) and the
quadratic-form log norm (P = I) of the constant J = [[-1e308, 1.5e308],
[1.5e308, -1e308]], whose P J + J^T P overflows; the limit-route tables of that
J and of J2 = [[-3e300, 1e300], [2e300, -5e300]] under l1, l2 and linf, and of a
3x3 matrix with entries near 1e5, the one table on ordinary entries that is
scaled (by 2^6), under the same three; the files
of the two demo variants; the exit code, stdout, stderr and files of
``logstab certify`` on the fig1 demo config and on an expression config whose
``abs`` leaves finite differences to the sweep, of ``logstab certify`` and a
``logstab simulate`` to tf = 2 on a builtin config with b = -2.5 and
phi = -4 - t, and of ``logstab simulate`` on
the demo field from (-2, 5) to tf = 20 under ``ndf`` and under ``rk4``, which
blows up near t = 9.31, and to tf = 9 under ``auto``; those of
``logstab lognorm`` on a 3x3 and a 2x2 matrix, each under l2 and a weighted
norm read from a file; ``log_norm`` of [[-1.7e308, 0], [1e308, 0]] under l1
and of its transpose under linf, whose whole first column (row) overflows in
absolute sum; four inputs that the array rule of arguments refuses: a
complex x0 under ``integrate``, a NaN second state in pair 0 and a 3-vector in
pair 4 under ``verify_incremental_bound``, and a 3-D domain in the
contraction sweep of the 2-D demo system; and two ``ndf`` runs whose first
iteration matrix is singular, a 2x2 one and a 3x3 one that LAPACK refuses.

``--against REV`` exports REV with ``git archive`` into a temporary directory
(nothing is registered in the repository) and runs the corpus on both trees at
once, each in a spawned worker of its own, which hands back its rows and its
records' float leaves. The workers' stdout and stderr (numpy's warnings, say)
are discarded; a worker that raises passes its traceback on, and one that dies
breaks the pool, so the tool stops rather than waits. It prints per record whether the two are bit-identical,
with the switch times and LSODA errors of both, and the size of the move: the
largest |x - y| / max(1, |y|) over the float arrays and numbers that both
trees return (x this tree's, y REV's, paired by their path in the record, such
as ``Trajectory.states`` or ``[0/2]IncrementalBoundReport.tolerance``, so a
field that only one tree has moves nothing; a value that is not finite in one
tree only moves by inf), 0 for an identical record and ``-`` where either
tree raised or no arrays pair up. Both trees run this file's corpus, so REV
also runs a record added since, and no record reads as new. The last line
reads "N records: k bit-identical, N-k differ".
The hashes compare two trees on one machine: another numpy build may round
differently, so none is kept. The exit code is 0 unless the tool itself fails
on a tree.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import hashlib
import importlib
import io
import multiprocessing
import os
import runpy
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
STARTS = ((5.0, 5.0), (-5.0, -5.0), (5.0, -5.0), (-5.0, 5.0), (-2.0, 5.0), (0.0, 0.0))
# abs has no symbolic derivative, so the certify sweep takes finite differences of f
ABS_CONFIG = """[system]
type = expression
dim = 2
f1 = -3*x1 + sin(x2) + 0.5*abs(x1)
f2 = -2*x2 + 0.5*sin(x1)
x0 = 1, -1
[domain]
lower = -3, -3
upper = 3, 3
t_lo = 0
t_hi = 1
"""
# expression systems for the certificate: certify-sweep's ring shape at n = 4 (sin terms and a
# t^2 diagonal), and a planar field with exp and pow of the state
RING4_CONFIG = """[system]
type = expression
dim = 4
f1 = -(2.9 + t^2)*x1 + 0.45*sin(x1) + 1.2*sin(x2)
f2 = -(3.4 + t^2)*x2 - 0.8*sin(x2) - 0.7*sin(x3)
f3 = -(2.2 + t^2)*x3 + 0.3*sin(x3) + 1.5*sin(x4)
f4 = -(3.1 + t^2)*x4 - 0.6*sin(x4) + 0.9*sin(x1)
"""
EXP_POW_CONFIG = """[system]
type = expression
dim = 2
f1 = -3*x1 + 0.5*exp(-x1^2/4) + 0.2*pow(2 + cos(x2), 1.5)
f2 = -2*x2 + 0.25*exp(sin(x1)) - 0.1*pow(1.5, x1)*x2
"""


def _ring_config(rng, n: int, with_abs: bool) -> str:
    """certify-sweep's ring shape, f_i = -(a_i + t^2) x_i + e_i sin(x_i) + c_i sin(x_{i+1}) [+ g_i abs(x_{i-1})], from rng."""
    c, e, g = (np.round(rng.uniform(-2.0, 2.0, n), 6) for _ in range(3))
    a = np.round(rng.uniform(3.0, 6.0, n), 6)
    lines = ["[system]", "type = expression", f"dim = {n}"]
    for i in range(n):
        term = f"-({a[i]} + t^2)*x{i + 1} + {e[i]}*sin(x{i + 1}) + {c[i]}*sin(x{(i + 1) % n + 1})"
        lines.append(f"f{i + 1} = {term}" + (f" + {g[i]}*abs(x{(i - 1) % n + 1})" if with_abs else ""))
    return "\n".join(lines) + "\n"


# a forcing ratio whose f(0, t), delta and alpha use exp, log, sqrt and pow of t, and a constant delta entry
TIME_CONFIG = """[system]
type = expression
dim = 2
f1 = -(2 + t^2)*x1 + sin(x2) + exp(-t)*cos(3*t)
f2 = -3*x2 + 0.5*sin(x1) - pow(t, 1.5)/(1 + t^2)
delta1 = sqrt(t)*exp(-0.25*t) + log(1 + t^3)
delta2 = 2
[certify]
alpha = pow(t, 3) + 0.5*exp(-t) + log(2 + t)
"""
# the stiff demo field, which simulate takes from (-2, 5) under each [integrator] method
DEMO_FIELD_CONFIG = """[system]
type = builtin
name = example1
delta1 = 5*sin(t)^2
delta2 = t
x0 = -2, 5
[integrator]
method = {method}
"""
# the builtin off the demo's parameters, which certify on a box and simulate from x0
EXAMPLE1_PARAMS_CONFIG = """[system]
type = builtin
name = example1
b = -2.5
phi = -4 - t
x0 = 1.5, -3
[domain]
lower = -4, -4
upper = 4, 4
t_lo = 0
t_hi = 1
[sampling]
n_space = 21
n_time = 3
"""


def _leaves(obj, path=""):
    """(path, leaf) per value that obj holds, depth first.

    A dataclass adds its type name and field name to the path, a list or tuple
    the item's index and its own length, so the paths also fix the record's
    shape. Anything else, an array among them, is a leaf.
    """
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, field.name), f"{path}{type(obj).__name__}.{field.name}")
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}/{len(obj)}]")
    else:
        yield path, obj


def _digest(leaves) -> str:
    """SHA-256 of each path with its leaf's raw bytes (an array, after its dtype and shape), float hex or repr."""
    h = hashlib.sha256()
    for path, leaf in leaves:
        h.update(path.encode())
        if isinstance(leaf, np.ndarray):
            h.update(f"{leaf.dtype.str}{leaf.shape}".encode())
            h.update(np.ascontiguousarray(leaf).tobytes())
        else:
            h.update((leaf.hex() if isinstance(leaf, float) else repr(leaf)).encode())
    return h.hexdigest()


def _floats(leaves) -> dict:
    """The float arrays and numbers among the leaves, by path, each as an array."""
    return {
        path: np.asarray(leaf)
        for path, leaf in leaves
        if isinstance(leaf, float) or (isinstance(leaf, np.ndarray) and leaf.dtype.kind == "f")
    }


def _rel_move(x: np.ndarray, y: np.ndarray) -> float:
    """The largest |x - y| / max(1, |y|); 0 where x and y are equal or both NaN, inf where one only is not finite."""
    with np.errstate(invalid="ignore"):
        rel = np.abs(x - y) / np.maximum(1.0, np.abs(y))  # NaN where x or y is NaN, or y is infinite
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    return float(np.max(np.where(same, 0.0, np.where(np.isnan(rel), np.inf, rel)), initial=0.0))


def _move(ours: dict, theirs: dict) -> str:
    """The largest ``_rel_move`` of this tree's (x) and REV's (y) arrays at a path and shape both have."""
    moves = [
        _rel_move(x, theirs[path]) for path, x in ours.items() if path in theirs and x.shape == theirs[path].shape
    ]
    return f"{max(moves):.2e}" if moves else "-"


def _corpus(logstab):
    """(name, call, reference) per record.

    reference is (variant, x0) for a demo run, a function of the run's times
    giving the exact states for a run with a known solution, else None.
    """
    from logstab.cli import main
    from logstab.config import build_system, parse_config
    from logstab.demos import (
        DEMO_CONFIGS,
        build_example1,
        default_rate,
        delta_admissible,
        delta_borderline,
        run_demo_example1,
    )

    demo = {"fig1": build_example1(delta=delta_admissible), "fig2": build_example1(delta=delta_borderline)}

    def run(variant, x0, tf, method, sampled):
        grid = np.linspace(0.0, tf, int(round(tf / 0.05)) + 1) if sampled else None
        cfg = logstab.IntegratorConfig(method=method)
        return lambda: logstab.integrate(demo[variant], np.array(x0), 0.0, tf, cfg, sample_times=grid)

    def on_own_grid(method, at):
        """fig1 from (-2, 5) to tf = 6 sampled at the nodes of its own grid run, or at their midpoints."""
        cfg = logstab.IntegratorConfig(method=method)
        nodes = logstab.integrate(demo["fig1"], np.array([-2.0, 5.0]), 0.0, 6.0, cfg).times
        ts = nodes if at == "nodes" else 0.5 * (nodes[:-1] + nodes[1:])
        return logstab.integrate(demo["fig1"], np.array([-2.0, 5.0]), 0.0, 6.0, cfg, sample_times=ts)

    for variant in demo:
        for method in ("auto", "ndf", "rk4"):
            for tf in (3.0, 20.0):
                for sampled in (False, True):
                    name = f"demo/{variant}/{method}/{'sampled' if sampled else 'grid'}/tf{tf:g}"
                    yield name, run(variant, (-2.0, 5.0), tf, method, sampled), (variant, (-2.0, 5.0))
        for tf in (1.0, 6.0):
            for x0 in STARTS:
                name = f"demo/{variant}/auto/sampled/tf{tf:g}/x0={x0[0]:g},{x0[1]:g}"
                yield name, run(variant, x0, tf, "auto", True), (variant, x0)

    def ensemble(method, tf):
        """fig1's six starts to tf as one ensemble run sampled every 0.05, or one run each without ``integrate_many``."""
        grid = np.linspace(0.0, tf, int(round(tf / 0.05)) + 1)
        cfg = logstab.IntegratorConfig(method=method)
        many = getattr(importlib.import_module("logstab.integrate"), "integrate_many", None)
        if many is None:
            return [logstab.integrate(demo["fig1"], np.array(x0), 0.0, tf, cfg, sample_times=grid) for x0 in STARTS]
        return many(demo["fig1"], np.array(STARTS), 0.0, tf, cfg, sample_times=grid)

    for method, tf in (("auto", 6.0), ("ndf", 6.0), ("rk4", 3.0)):
        yield f"ensemble/demo/{method}/tf{tf:g}", lambda method=method, tf=tf: ensemble(method, tf), None
    for method in ("auto", "ndf"):
        for at in ("nodes", "midpoints"):
            yield f"demo/fig1/{method}/{at}/tf6", (
                lambda method=method, at=at: on_own_grid(method, at)
            ), ("fig1", (-2.0, 5.0))

    lam = -1e4
    prothero_robinson = logstab.SystemSpec(
        dim=1, f=lambda x, t: lam * (x - np.sin(t)) + np.cos(t), jac=lambda x, t: np.array([[lam]])
    )
    for rel_tol in (1e-6, 1e-9):
        for sampled in (False, True):
            cfg = logstab.IntegratorConfig(method="ndf", rel_tol=rel_tol)
            grid = np.linspace(0.0, 10.0, 201) if sampled else None
            name = f"prothero_robinson/ndf/{'sampled' if sampled else 'grid'}/tf10/rtol{rel_tol:g}"
            yield name, (
                lambda cfg=cfg, grid=grid: logstab.integrate(
                    prothero_robinson, np.zeros(1), 0.0, 10.0, cfg, sample_times=grid
                )
            ), lambda times: np.sin(times)[:, None]

    def quadratic(n):
        """A(t) = C0 + t C1 + t^2 C2 and a weight P, each from the generator seeded [n, 3]."""
        rng = np.random.default_rng([n, 3])
        c0, c1, c2 = [c * np.sqrt(n) / np.linalg.norm(c) for c in rng.normal(size=(3, n, n))]
        m = rng.normal(size=(n, n))
        return (lambda t: c0 + t * c1 + (t * t) * c2), m @ m.T + n * np.eye(n)

    kinds = ("l1", "l2", "linf", "weighted")
    ts = np.linspace(0.0, 1.0, 21)
    for n in (2, 4, 8):
        a_fn, weight = quadratic(n)
        yield f"fundamental/n={n}/grid", lambda a_fn=a_fn: logstab.integrate_fundamental(a_fn, 0.0, 1.0), None
        yield f"fundamental/n={n}/sampled", (
            lambda a_fn=a_fn: logstab.integrate_fundamental(a_fn, 0.0, 1.0, sample_times=ts)
        ), None
        for tag in kinds:
            kind = logstab.NormKind.weighted(weight) if tag == "weighted" else logstab.NormKind(tag)
            yield f"transition_bounds/n={n}/{tag}", (
                lambda a_fn=a_fn, kind=kind: logstab.check_transition_bounds(a_fn, kind, 0.0, 1.0, seed=n)
            ), None
    a_fn, _ = quadratic(20)
    yield "fundamental/n=20/sampled", lambda: logstab.integrate_fundamental(a_fn, 0.0, 1.0, sample_times=ts), None

    # a stiff 3x3 A under ndf, against its exact Phi(t) = W exp(t Lambda) W^-1, row-major
    v = np.eye(3) + 0.3 * np.random.default_rng(5).normal(size=(3, 3))
    stiff3 = v @ np.diag([-2000.0, -1.0, -0.5]) @ np.linalg.inv(v)
    lam3, w3 = np.linalg.eig(stiff3)

    def stiff3_phi(times):
        return np.real(np.stack([(w3 * np.exp(lam3 * t)) @ np.linalg.inv(w3) for t in times])).reshape(-1, 9)

    ndf = logstab.IntegratorConfig(method="ndf")
    for sampled in (False, True):
        ts = np.linspace(0.0, 1.0, 21) if sampled else None
        yield f"fundamental/stiff3/ndf/{'sampled' if sampled else 'grid'}", (
            lambda ts=ts: logstab.integrate_fundamental(lambda t: stiff3, 0.0, 1.0, ndf, sample_times=ts)
        ), stiff3_phi

    # envelopes that overflow and underflow: mu1 of the rotation and mu2 of -diag(-1000, -1) are 1000
    rotation, damped = np.array([[0.0, 1000.0], [-1000.0, 0.0]]), np.diag([-1000.0, -1.0])
    yield "transition_bounds/rotation1000/l1", (
        lambda: logstab.check_transition_bounds(lambda t: rotation, logstab.NormKind.l1(), 0.0, 1.0, n_pairs=200)
    ), None
    yield "transition_bounds/damped1000/l2", (
        lambda: logstab.check_transition_bounds(lambda t: damped, logstab.NormKind.l2(), 0.0, 1.0)
    ), None
    # the demo field without delta, which auto hands to ndf near t = 2.1
    yield "demo/no_delta/auto/grid/tf6", (
        lambda: logstab.integrate(build_example1(), np.array([-2.0, 5.0]), 0.0, 6.0)
    ), None
    # float32 outputs of f and delta, each taken as float64: x' = -x, x(t) = exp(-t)
    float32 = logstab.SystemSpec(
        dim=2, f=lambda x, t: (-x).astype(np.float32), delta=lambda t: np.zeros(2, dtype=np.float32)
    )
    yield "float32/rk4/grid/tf1", (
        lambda: logstab.integrate(float32, np.ones(2), 0.0, 1.0, logstab.IntegratorConfig(method="rk4"))
    ), lambda times: np.exp(-times)[:, None] * np.ones(2)

    def criterion_04():
        # the pairs, window and norm of acceptance criterion 04
        rng = np.random.default_rng(12345)
        pairs = [(rng.uniform(-5.0, 5.0, size=2), rng.uniform(-5.0, 5.0, size=2)) for _ in range(20)]
        rep = logstab.verify_incremental_bound(demo["fig1"], pairs, 0.0, 6.0, 0.5, logstab.NormKind.l2(), n_output=241)
        expanding = logstab.SystemSpec(dim=1, f=lambda x, t: x.copy(), jac=lambda x, t: np.eye(1))
        rep_bad = logstab.verify_incremental_bound(
            expanding, [(np.array([1.0]), np.array([2.0]))], 0.0, 3.0, 0.5, logstab.NormKind.l2()
        )
        return rep, rep_bad

    yield "criterion_04", criterion_04, None
    yield "forcing_ratio/fig1", lambda: logstab.check_forcing_ratio(demo["fig1"], default_rate, 0.0, 20.0), None

    def config_ratio(text, kind, wrap=lambda system: system):
        """The forcing ratio of a config text's system, through ``wrap``, and [certify] alpha, from its t0 to its tf."""
        cfg = parse_config(text)
        alpha = importlib.import_module("logstab.config")._function_of_t(cfg.alpha_expr)
        return logstab.check_forcing_ratio(wrap(build_system(cfg)), alpha, cfg.t0, cfg.tf, kind=kind)

    ratio_weight = np.array([[2.0, 0.3], [0.3, 1.5]])
    yield "forcing_ratio/fig2_config", lambda: config_ratio(DEMO_CONFIGS["fig2"], logstab.NormKind.l2()), None
    # plain wrappers carry no origin or stack: f(0, t), and delta(t) too in the first, are taken one t at a time
    fig1 = demo["fig1"]
    fig1_plain = logstab.SystemSpec(dim=2, f=lambda x, t: fig1.f(x, t), delta=lambda t: fig1.delta(t))
    yield "forcing_ratio/fig1_plain", lambda: logstab.check_forcing_ratio(fig1_plain, default_rate, 0.0, 20.0), None
    plain_f = lambda system: logstab.SystemSpec(dim=system.dim, f=lambda x, t: system.f(x, t), delta=system.delta)
    yield "forcing_ratio/fig2_plain_f", (
        lambda: config_ratio(DEMO_CONFIGS["fig2"], logstab.NormKind.l2(), plain_f)
    ), None
    for tag in kinds:
        kind = logstab.NormKind.weighted(ratio_weight) if tag == "weighted" else logstab.NormKind(tag)
        yield f"forcing_ratio/exp_log_pow/{tag}", lambda kind=kind: config_ratio(TIME_CONFIG, kind), None

    demo_cfg = parse_config(DEMO_CONFIGS["fig1"])
    demo_box = logstab.Domain(
        np.array(demo_cfg.domain_lower), np.array(demo_cfg.domain_upper), demo_cfg.t_lo, demo_cfg.t_hi
    )
    demo_weight = np.array([[2.0, 0.3], [0.3, 1.5]])
    yield "demidovich/fig1", lambda: logstab.check_demidovich(demo["fig1"], np.eye(2), demo_box, demo_cfg.plan), None
    yield "demidovich/weighted", (
        lambda: logstab.check_demidovich(demo["fig1"], demo_weight, demo_box, demo_cfg.plan)
    ), None
    # the example1 certificate, with the demo's rate, under each norm on the demo's grid and on a Latin hypercube
    lhs = logstab.SamplingPlan(n_space=2000, n_time=5, scheme="latin_hypercube", seed=3)
    for tag in kinds:
        kind = logstab.NormKind.weighted(demo_weight) if tag == "weighted" else logstab.NormKind(tag)
        for plan_name, plan in (("grid", demo_cfg.plan), ("lhs", lhs)):
            yield f"certify/example1/{tag}/{plan_name}", (
                lambda kind=kind, plan=plan: logstab.estimate_contraction_rate(
                    demo["fig1"], demo_box, kind, plan, default_rate
                )
            ), None
    # the two expression systems' certificates, under each unweighted norm, on a Latin hypercube of [-3, 3]^n
    expression = [build_system(parse_config(text)) for text in (RING4_CONFIG, EXP_POW_CONFIG)]
    lhs = logstab.SamplingPlan(n_space=1000, n_time=4, scheme="latin_hypercube", seed=11)
    for tag in kinds[:3]:
        yield f"certify/expression/{tag}", (
            lambda tag=tag: [
                logstab.estimate_contraction_rate(
                    sys, logstab.Domain(-3.0 * np.ones(sys.dim), 3.0 * np.ones(sys.dim), 0.0, 1.0), logstab.NormKind(tag), lhs
                )
                for sys in expression
            ]
        ), None
    # seeded rings under every kind: under l2 and the weighted norm each slice's sup comes from the samples whose
    # Gershgorin bound can reach it; l1 and linf add no draw, so the other records keep their inputs
    rng = np.random.default_rng(5)
    lhs = logstab.SamplingPlan(n_space=500, n_time=4, scheme="latin_hypercube", seed=11)
    for n, with_abs in ((4, False), (8, False), (4, True)):
        ring = build_system(parse_config(_ring_config(rng, n, with_abs)))
        ring_box = logstab.Domain(-3.0 * np.ones(n), 3.0 * np.ones(n), 0.0, 1.0)
        q = rng.normal(size=(n, n))
        weighted = logstab.NormKind.weighted(q @ q.T + n * np.eye(n))
        for kind in (logstab.NormKind.l1(), logstab.NormKind.l2(), logstab.NormKind.linf(), weighted):
            yield f"certify/ring{n}{'-abs' if with_abs else ''}/{kind.tag}", (
                lambda ring=ring, ring_box=ring_box, kind=kind: logstab.estimate_contraction_rate(
                    ring, ring_box, kind, lhs, default_rate
                )
            ), None
    # P J + J^T P overflows for P = I, though its top eigenvalue, 5e307, is finite
    huge_j = np.array([[-1e308, 1.5e308], [1.5e308, -1e308]])
    constant_huge = logstab.SystemSpec(dim=2, f=lambda x, t: np.zeros(2), jac=lambda x, t: huge_j)
    box2, plan2 = logstab.Domain(-np.ones(2), np.ones(2), 0.0, 1.0), logstab.SamplingPlan(n_space=3, n_time=2)
    yield "demidovich/huge", lambda: logstab.check_demidovich(constant_huge, np.eye(2), box2, plan2), None
    yield "lognorm/quadratic_form_huge", lambda: logstab.log_norm_quadratic_form(huge_j, np.eye(2)), None
    # the limit route on huge_j, whose I + 0.1 J overflows, and on a J whose I + 1e-7 J reads ||J||, not mu[J]
    huge_j2 = np.array([[-3e300, 1e300], [2e300, -5e300]])
    kinds3 = [logstab.NormKind(tag) for tag in ("l1", "l2", "linf")]
    yield "lognorm/limit_huge", (
        lambda: [logstab.log_norm_limit_table(a, kind) for a in (huge_j, huge_j2) for kind in kinds3]
    ), None
    scaled_b = 1e5 * np.array([[-3.5, 1.0, 0.5], [2.0, -1.0, 0.25], [0.3, 1.5, -2.0]])
    yield "lognorm/limit_scaled", lambda: [logstab.log_norm_limit_table(scaled_b, kind) for kind in kinds3], None

    def demo_files(variant):
        with tempfile.TemporaryDirectory() as out:
            run_demo_example1(variant, out)
            return [(p.name, p.read_bytes()) for p in sorted(Path(out).rglob("*")) if p.is_file()]

    for variant in demo:
        yield f"demo_files/{variant}", lambda variant=variant: demo_files(variant), None

    def command(argv, inputs):
        """Exit code, stdout, stderr and written files of ``logstab argv`` in a new directory {dir} of ``inputs``."""
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in inputs.items():
                Path(tmp, name).write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([arg.format(dir=tmp) for arg in argv])
            files = [(p.name, p.read_bytes()) for p in sorted(Path(tmp, "out").rglob("*")) if p.is_file()]
            return code, out.getvalue().replace(tmp, "{dir}"), err.getvalue().replace(tmp, "{dir}"), files

    certify = ["certify", "--config", "{dir}/scenario.cfg", "--out", "{dir}/out"]
    yield "cli/certify/fig1", lambda: command(certify, {"scenario.cfg": DEMO_CONFIGS["fig1"]}), None
    yield "cli/certify/abs", lambda: command(certify, {"scenario.cfg": ABS_CONFIG}), None
    simulate = ["simulate", "--config", "{dir}/scenario.cfg", "--out", "{dir}/out", "--tf", "20"]
    yield "cli/example1/b=-2.5,phi=-4-t", (
        lambda: [
            command(argv, {"scenario.cfg": EXAMPLE1_PARAMS_CONFIG}) for argv in (certify, simulate[:-1] + ["2"])
        ]
    ), None
    for method in ("ndf", "rk4"):  # rk4 blows up near t = 9.31 and exits 3
        yield f"cli/simulate/{method}", (
            lambda method=method: command(simulate, {"scenario.cfg": DEMO_FIELD_CONFIG.format(method=method)})
        ), None
    # the default method to tf = 9, the shape of most simulate runs in perfbench's stiff-trajectory workload
    yield "cli/simulate/auto", (
        lambda: command(simulate[:-1] + ["9"], {"scenario.cfg": DEMO_FIELD_CONFIG.format(method="auto")})
    ), None
    lognorm = ["lognorm", "--inline", "-2 1 0; 0.5 -3 1; 0 2 -4", "--norm", "l2", "--norm", "weighted:{dir}/P.txt"]
    yield "cli/lognorm/weighted", lambda: command(lognorm, {"P.txt": "4 1 0\n1 3 1\n0 1 2\n"}), None
    lognorm_2x2 = ["lognorm", "--inline", "-2 1; 0 -3", "--norm", "l2", "--norm", "weighted:{dir}/P.txt"]
    yield "cli/lognorm/2x2", lambda: command(lognorm_2x2, {"P.txt": "2 0.5\n0.5 1\n"}), None
    # |d| plus the off-diagonal sum of the first column (row) overflows, though mu is 0
    huge = np.array([[-1.7e308, 0.0], [1e308, 0.0]])
    yield "lognorm/l1_linf_overflow", (
        lambda: (logstab.log_norm(huge, logstab.NormKind.l1()), logstab.log_norm(huge.T, logstab.NormKind.linf()))
    ), None

    # the array rule of arguments: each input is refused before any run
    complex_x0 = np.array([-2.0 + 1j, 5.0])
    yield "rule/integrate/complex_x0", lambda: logstab.integrate(demo["fig1"], complex_x0, 0.0, 1.0), None
    pairs = [(np.array([x, 1.0]), np.array([1.0, x])) for x in (-2.0, -1.0, 0.0, 1.0, 2.0)]

    def incremental(pair0, pair4):
        return logstab.verify_incremental_bound(demo["fig1"], [pair0] + pairs[1:4] + [pair4], 0.0, 1.0, 0.5)

    yield "rule/incremental/nan_state_in_pair0", (
        lambda: incremental((np.array([-2.0, 1.0]), np.array([np.nan, 1.0])), pairs[4])
    ), None
    yield "rule/incremental/3_vector_in_pair4", (
        lambda: incremental(pairs[0], (np.array([2.0, 1.0]), np.array([1.0, 2.0, 3.0])))
    ), None
    box3, plan3 = logstab.Domain(-np.ones(3), np.ones(3), 0.0, 1.0), logstab.SamplingPlan(n_space=3)
    yield "rule/certify/3d_domain", (
        lambda: logstab.estimate_contraction_rate(demo["fig1"], box3, logstab.NormKind.l2(), plan3)
    ), None
    # f vanishes at x0, so ndf's first step has order 1 and h = max_step = 0.1, where I - h/alpha_1 J has a zero row
    ndf_alpha1 = importlib.import_module("logstab.integrate")._NDF_ALPHA[1]
    singular_j = np.diag([ndf_alpha1 / 0.1, 0.0])
    singular = logstab.SystemSpec(dim=2, f=lambda x, t: singular_j @ x, jac=lambda x, t: singular_j)
    yield "rule/ndf/singular_iteration_matrix", (
        lambda: logstab.integrate(
            singular, np.array([0.0, 1.0]), 0.0, 1.0, logstab.IntegratorConfig(method="ndf", max_step=0.1)
        )
    ), None
    # the same with c = h/alpha_1 = 0.125 exactly: I - c J has a zero pivot, and LAPACK's inverse raises
    singular_j3 = np.diag([8.0, 0.0, 0.0])
    singular3 = logstab.SystemSpec(dim=3, f=lambda x, t: singular_j3 @ x, jac=lambda x, t: singular_j3)
    yield "rule/ndf/singular_iteration_matrix_3x3", (
        lambda: logstab.integrate(
            singular3,
            np.array([0.0, 1.0, 1.0]),
            0.0,
            1.0,
            logstab.IntegratorConfig(method="ndf", max_step=0.125 * ndf_alpha1),
        )
    ), None


def _reference():
    """perfbench/reference.py's ``reference_states``, or None without scipy."""
    try:
        return runpy.run_path(str(REPO / "perfbench" / "reference.py"))["reference_states"]
    except ImportError:
        return None


def listing(src: Path) -> tuple[list[tuple[str, str, str, str]], dict]:
    """(name, sha256, switch time, error) per record, with logstab imported from src, and the records' floats.

    The error is ``lsoda=<worst>`` against the LSODA reference, ``exact=<worst>``
    against a known solution, or ``-``. The floats are each record's
    ``_floats`` under its name, None where the call raised.
    """
    sys.path.insert(0, str(src))
    import logstab

    if Path(logstab.__file__).resolve().parent != (src / "logstab").resolve():
        raise RuntimeError(f"logstab was imported from {logstab.__file__}, not from {src}")
    reference = _reference()
    rows, arrays = [], {}
    for name, call, ref in _corpus(logstab):
        try:
            out = call()
        except logstab.LogstabError as exc:
            error = (type(exc).__name__, str(exc), getattr(exc, "last_time", None))
            rows.append((name, _digest(_leaves(error)), "-", "-"))
            arrays[name] = None
            continue
        leaves = list(_leaves(out))
        arrays[name] = _floats(leaves)
        switch = getattr(out, "stiff_from", None)
        err, want = "-", None
        if callable(ref):
            tag, want = "exact", ref(out.times)
        elif ref is not None and reference is not None:
            tag, want = "lsoda", np.array(reference({"delta": ref[0], "x0": list(ref[1]), "times": out.times.tolist()}))
        if want is not None:
            err = f"{tag}={float((np.abs(out.states - want) / np.maximum(1.0, np.abs(want))).max()):.2e}"
        rows.append((name, _digest(leaves), "-" if switch is None else f"{switch:.4f}", err))
    return rows, arrays


def _print_listing(rows) -> None:
    for name, sha, switch, err in rows:
        print(f"{name:<40} {sha} switch={switch} {err}")
    errs = [(float(err.removeprefix("lsoda=")), name) for name, _, _, err in rows if err.startswith("lsoda=")]
    if errs:
        print("worst LSODA error: {:.2e} ({})".format(*max(errs)))


def _quiet() -> None:
    sys.stdout = sys.stderr = open(os.devnull, "w")


def against(rev: str) -> None:
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev], capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        extra = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(tmp, **extra)
        # two logstab packages cannot share an interpreter, so each tree gets a fresh one
        with concurrent.futures.ProcessPoolExecutor(
            2, multiprocessing.get_context("spawn"), _quiet, max_tasks_per_child=1
        ) as pool:
            (their_rows, their_arrays), (ours, our_arrays) = pool.map(listing, [Path(tmp) / "src", REPO / "src"])
    theirs = {row[0]: row[1:] for row in their_rows}
    same = 0
    print(f"{'record':<40} {'vs ' + rev:<14} switch (rev -> this)   error (rev -> this)          move")
    for name, sha, switch, err in ours:
        their_sha, their_switch, their_err = theirs[name]
        same += sha == their_sha
        verdict = "identical" if sha == their_sha else "differs"
        if our_arrays[name] is None or their_arrays[name] is None:
            move = "-"
        else:
            move = "0" if sha == their_sha else _move(our_arrays[name], their_arrays[name])
        print(f"{name:<40} {verdict:<14} {their_switch:>8} -> {switch:<8}   {their_err:>14} -> {err:<14} {move:>8}")
    print(f"{len(ours)} records: {same} bit-identical, {len(ours) - same} differ")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="compare this tree with the committed tree of REV")
    args = parser.parse_args(argv)
    if args.against:
        against(args.against)
    else:
        _print_listing(listing(REPO / "src")[0])


if __name__ == "__main__":
    main()
