"""Workloads: seeded inputs, the operations run on them, and output checks.

Each workload is one cycle of operations that the runner repeats in a closed
loop with a single client. ``build_workload(name, seed, workdir)`` writes the
generated input files under ``workdir`` and returns the cycle. Every input
value comes from ``seed``: the same seed gives identical inputs, and another
seed gives the same mix of operations and sizes with different values.

Operations call ``logstab.cli.main(argv)`` in process for the CLI paths and
the public API (``verify_incremental_bound``, ``check_transition_bounds``,
``check_demidovich``) where there is no CLI. logstab functions are looked up
on their modules at call time, so the tracer's wrappers see every call.

The expected answers (oracles) are computed with numpy alone, or by
``reference.py`` for trajectories, never with logstab.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

# import_module, because the package re-exports a function named `integrate`
# that shadows the submodule of that name as a package attribute
certify_mod = import_module("logstab.certify")
cli_mod = import_module("logstab.cli")
demos_mod = import_module("logstab.demos")
integrate_mod = import_module("logstab.integrate")
linalg_mod = import_module("logstab.linalg")
system_mod = import_module("logstab.system")

WORKLOADS = ("certify-sweep", "stiff-trajectory", "ltv-envelope")

# hand-maximized sup of the demo field's l2 log norm on the demo box
DEMO_MU_SUP = -4.0 + 0.5 * math.sqrt(29.0)
DEMO_MU_SUP_TOL = 0.002
# sampled states of trajectories against the reference: |x - ref| <= TOL * max(1, |ref|)
TRAJ_TOL = 1e-6
# limit-definition route of the log norm against the closed form (criterion 05's bound)
LIMIT_ROUTE_TOL = 1e-6
# closed forms against the numpy oracle, relative to max(1, |value|)
CLOSED_FORM_TOL = 1e-9

DEMO_BOX = ((-10.0, -10.0), (10.0, 10.0), 0.0, 2.0)


@dataclass
class Op:
    """One operation of a workload cycle.

    ``run`` performs it and returns the raw output; ``check(output, expected)``
    returns None when the output is right and a message otherwise. ``oracle``
    computes ``expected`` once, before timing starts; trajectory operations
    instead carry a ``trajectory`` request that ``reference.py`` answers.
    ``samples`` counts the points at which the operation checks a bound.
    """

    label: str
    kind: str
    inputs: dict
    run: Callable[[], Any]
    check: Callable[[Any, Any], Optional[str]]
    samples: int = 0
    oracle: Optional[Callable[[], Any]] = None
    trajectory: Optional[dict] = None
    warm: bool = False
    expected: Any = None


@dataclass
class CliRun:
    code: int
    out: str
    err: str
    out_dir: Optional[Path] = None
    traj_err: Optional[float] = None  # set by the trajectory check


def run_cli(argv: list[str], out_dir: Optional[Path] = None) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_mod.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue(), out_dir)


def read_report(path: Path) -> dict[str, str]:
    """Scalar `key,value` rows of a report CSV written by logstab."""
    rows = {}
    for line in path.read_text().splitlines():
        if line.startswith("["):
            break
        if "," in line and not line.startswith("#"):
            key, value = line.split(",", 1)
            rows[key] = value
    return rows


def read_trajectory(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:]


def close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def fmt(v: float) -> str:
    return f"{v:.6f}"


def matrix_text(m: np.ndarray) -> str:
    return "; ".join(" ".join(repr(float(v)) for v in row) for row in m)


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Seeded SPD weight with eigenvalues of at least 1, rounded to 6 decimals."""
    q = rng.normal(size=(n, n)) / math.sqrt(n)
    p = q.T @ q + np.eye(n)
    return np.round(0.5 * (p + p.T), 6)


# -- numpy oracles -------------------------------------------------------------


def mu_stack(j: np.ndarray, tag: str, p: Optional[np.ndarray] = None) -> np.ndarray:
    """Log norms of a stack of matrices (..., n, n), computed with numpy alone."""
    d = np.diagonal(j, axis1=-2, axis2=-1)
    a = np.abs(j)
    if tag == "l1":
        return (d + a.sum(axis=-2) - np.abs(d)).max(axis=-1)
    if tag == "linf":
        return (d + a.sum(axis=-1) - np.abs(d)).max(axis=-1)
    if tag == "weighted":
        w, v = np.linalg.eigh(p)
        root = (v * np.sqrt(w)) @ v.T
        inv_root = (v / np.sqrt(w)) @ v.T
        j = root @ j @ inv_root
    return 0.5 * np.linalg.eigvalsh(j + np.swapaxes(j, -1, -2))[..., -1]


def example1_jacobians(n_space: int, n_time: int, b: float = 5.0) -> np.ndarray:
    """Jacobians of the demo field on the uniform demo-box grid, shape (N, 2, 2)."""
    (lo1, lo2), (hi1, hi2), t_lo, t_hi = DEMO_BOX
    x1, x2 = np.meshgrid(np.linspace(lo1, hi1, n_space), np.linspace(lo2, hi2, n_space), indexing="ij")
    ts = np.linspace(t_lo, t_hi, n_time) if n_time > 1 else np.array([t_lo])
    p = (-6.0 - ts**3)[:, None]
    c1 = np.cos(x1.ravel())[None, :]
    c2 = np.cos(x2.ravel())[None, :]
    j = np.zeros((ts.size, c1.size, 2, 2))
    j[..., 0, 0] = p + c1
    j[..., 1, 0] = b
    j[..., 1, 1] = 2.0 + p + c2
    return j.reshape(-1, 2, 2)


# -- certify-sweep -------------------------------------------------------------


def _config(system: list[str], norm: list[str], domain, sampling, extra: list[str] = ()) -> str:
    lower, upper, t_lo, t_hi = domain
    n_space, n_time, scheme, seed = sampling
    lines = ["[system]", *system, "", "[norm]", *norm, "", "[domain]"]
    lines += [
        "lower = " + ", ".join(fmt(v) for v in lower),
        "upper = " + ", ".join(fmt(v) for v in upper),
        f"t_lo = {t_lo}",
        f"t_hi = {t_hi}",
        "",
        "[sampling]",
        f"n_space = {n_space}",
        f"n_time = {n_time}",
        f"scheme = {scheme}",
        f"seed = {seed}",
        *extra,
        "",
    ]
    return "\n".join(lines)


def ring_system(rng: np.random.Generator, n: int, with_abs: bool = False) -> tuple[list[str], dict]:
    """A ring system that contracts by diagonal dominance, and its bounds.

    f_i = -(a_i + t^2) x_i + e_i sin(x_i) + c_i sin(x_{i+1}) [+ g_i abs(x_{i-1})]

    J_ii = -(a_i + t^2) + e_i cos(x_i), J_{i,i+1} = c_i cos(x_{i+1}) and
    J_{i,i-1} = g_i sign(x_{i-1}); with t >= 0 the row, column and
    Gershgorin sums give upper bounds on mu_inf, mu_1 and mu_2.
    """
    c = np.round(rng.uniform(-2.0, 2.0, n), 6)
    e = np.round(rng.uniform(-1.0, 1.0, n), 6)
    g = np.round(rng.uniform(-1.0, 1.0, n), 6) if with_abs else np.zeros(n)
    ac, ae, ag = np.abs(c), np.abs(e), np.abs(g)
    prev = lambda v: np.roll(v, 1)  # v[i-1]
    nxt = lambda v: np.roll(v, -1)  # v[i+1]
    a = np.round(ae + ac + prev(ac) + ag + nxt(ag) + rng.uniform(0.2, 1.0, n), 6)
    bounds = {
        "linf": float(np.max(-a + ae + ac + ag)),
        "l1": float(np.max(-a + ae + prev(ac) + nxt(ag))),
        "l2": float(np.max(-a + ae + 0.5 * (ac + prev(ac) + ag + nxt(ag)))),
    }
    lines = ["type = expression", f"dim = {n}"]
    for i in range(n):
        j_next, j_prev = (i + 1) % n + 1, (i - 1) % n + 1
        terms = f"-({fmt(a[i])} + t^2)*x{i + 1} + {fmt(e[i])}*sin(x{i + 1}) + {fmt(c[i])}*sin(x{j_next})"
        if with_abs:
            terms += f" + {fmt(g[i])}*abs(x{j_prev})"
        lines.append(f"f{i + 1} = {terms}")
    return lines, bounds


def expanding_ring(rng: np.random.Generator, n: int) -> tuple[list[str], float]:
    """A ring whose diagonal is positive everywhere, so mu >= min_i b_i > 0."""
    b = np.round(rng.uniform(0.5, 1.5, n), 6)
    c = np.round(rng.uniform(-2.0, 2.0, n), 6)
    lines = ["type = expression", f"dim = {n}"]
    for i in range(n):
        lines.append(f"f{i + 1} = ({fmt(b[i])} + t^2)*x{i + 1} + {fmt(c[i])}*sin(x{(i + 1) % n + 1})")
    return lines, float(b.max())


def _certify_op(label, kind, workdir: Path, index: int, text: str, samples: int, check, oracle=None, warm=False):
    cfg_path = workdir / "inputs" / f"op{index:02d}.cfg"
    cfg_path.write_text(text)
    out_dir = workdir / "out" / f"op{index:02d}"
    argv = ["certify", "--config", str(cfg_path), "--out", str(out_dir)]
    return Op(
        label=label,
        kind=kind,
        inputs={"config": text},
        run=lambda: run_cli(argv, out_dir),
        check=check,
        samples=samples,
        oracle=oracle,
        warm=warm,
    )


def _certificate(res: CliRun, n_samples: int) -> tuple[Optional[dict], Optional[str]]:
    path = res.out_dir / "certificate.csv"
    if not path.exists():
        return None, f"exit {res.code}, no certificate.csv: {res.err.strip()[:200]}"
    cert = read_report(path)
    if int(cert.get("n_samples", -1)) != n_samples:
        return None, f"certificate has n_samples={cert.get('n_samples')}, expected {n_samples}"
    return cert, None


def _expect_sweep(n_samples: int, bound_check):
    """Check a certify run: ``bound_check(mu_sup, expected)`` returns a failure
    message, or whether the sweep should be certified; the exit code and the
    verdict must follow."""

    def check(res: CliRun, expected) -> Optional[str]:
        cert, problem = _certificate(res, n_samples)
        if problem:
            return problem
        mu = float(cert["mu_sup"])
        certified = bound_check(mu, expected)
        if isinstance(certified, str):
            return certified
        want_code, want_verdict = (0, "certified_on_domain") if certified else (1, "not_certified")
        if res.code != want_code or cert["verdict"] != want_verdict:
            return f"mu_sup={mu!r}: exit {res.code} verdict {cert['verdict']}, expected {want_code} {want_verdict}"
        return None

    return check


def build_certify_sweep(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops: list[Op] = []
    demo_system = ["type = builtin", "name = example1", "x0 = -2, 5"]
    grid = (41, 5)
    n_demo = grid[0] ** 2 * grid[1]
    weight = random_spd(rng, 2)
    norms = {
        "l2": ["kind = l2"],
        "l1": ["kind = l1"],
        "linf": ["kind = linf"],
        "weighted": ["kind = weighted", f"weight = {matrix_text(weight)}"],
    }
    for tag, norm_lines in norms.items():
        text = _config(
            demo_system,
            norm_lines,
            DEMO_BOX,
            (*grid, "uniform_grid", int(rng.integers(1 << 30))),
            ["", "[certify]", "alpha = 0.5 + t^3"],
        )
        p = weight if tag == "weighted" else None

        def oracle(tag=tag, p=p):
            return float(mu_stack(example1_jacobians(*grid), tag, p).max())

        def bound_check(mu, expected, tag=tag):
            if not close(mu, expected, CLOSED_FORM_TOL):
                return f"mu_sup={mu!r}, numpy oracle {expected!r}"
            if tag == "l2" and abs(mu - DEMO_MU_SUP) > DEMO_MU_SUP_TOL:
                return f"l2 mu_sup={mu!r} is not within {DEMO_MU_SUP_TOL} of {DEMO_MU_SUP!r}"
            return expected < 0.0

        ops.append(
            _certify_op(
                f"certify example1 {tag} 41x5",
                f"certify.example1.{tag}",
                workdir,
                len(ops),
                text,
                n_demo,
                _expect_sweep(n_demo, bound_check),
                oracle,
            )
        )

    box = lambda n: ([-3.0] * n, [3.0] * n, 0.0, 1.0)
    rings = (  # (n, norm, n_space, n_time, uses abs)
        (2, "l1", 3000, 5, False),
        (2, "l2", 1200, 5, False),
        (4, "linf", 2500, 4, False),
        (8, "l2", 300, 4, False),
        (8, "linf", 1500, 4, False),
        (4, "l2", 450, 4, True),
    )
    for n, tag, n_space, n_time, with_abs in rings:
        lines, bounds = ring_system(rng, n, with_abs)
        text = _config(lines, [f"kind = {tag}"], box(n), (n_space, n_time, "latin_hypercube", int(rng.integers(1 << 30))))
        bound = bounds[tag]

        def bound_check(mu, expected, bound=bound):
            if mu > bound + 1e-9 * max(1.0, abs(bound)):
                return f"mu_sup={mu!r} exceeds the analytic bound {bound!r}"
            return True

        suffix = " abs/fd" if with_abs else ""
        ops.append(
            _certify_op(
                f"certify ring n={n} {tag}{suffix} {n_space}x{n_time}",
                f"certify.ring{n}.{tag}{'.fd' if with_abs else ''}",
                workdir,
                len(ops),
                text,
                n_space * n_time,
                _expect_sweep(n_space * n_time, bound_check),
            )
        )
        ops[-1].inputs["bound"] = bound

    lines, floor = expanding_ring(rng, 4)
    text = _config(lines, ["kind = l2"], box(4), (1000, 4, "latin_hypercube", int(rng.integers(1 << 30))))

    def floor_check(mu, expected, floor=floor):
        if mu < floor:
            return f"mu_sup={mu!r} is below the diagonal floor {floor!r}"
        return False

    ops.append(
        _certify_op(
            "certify expanding ring n=4 l2 1000x4",
            "certify.expanding",
            workdir,
            len(ops),
            text,
            4000,
            _expect_sweep(4000, floor_check),
        )
    )

    coeff = fmt(rng.uniform(0.5, 2.0))
    bad = "\n".join(["[system]", "type = expression", "dim = 2", f"f1 = -{coeff}*x1 +", "f2 = -x2", ""])

    def expect_usage_error(res: CliRun, expected) -> Optional[str]:
        if res.code != 2 or "error" not in res.err:
            return f"malformed config gave exit {res.code}, expected 2 with an error message"
        return None

    ops.append(_certify_op("certify malformed config", "certify.malformed", workdir, len(ops), bad, 0, expect_usage_error, warm=True))

    ops.append(_demidovich_op(rng))
    return ops


def _demidovich_op(rng: np.random.Generator) -> Op:
    p = random_spd(rng, 2)
    n_space, n_time = 41, 5
    lower, upper, t_lo, t_hi = DEMO_BOX

    def run():
        system = demos_mod.build_example1(delta=demos_mod.delta_admissible)
        domain = certify_mod.Domain(np.array(lower), np.array(upper), t_lo, t_hi)
        plan = certify_mod.SamplingPlan(n_space=n_space, n_time=n_time, scheme="uniform_grid")
        return certify_mod.check_demidovich(system, p, domain, plan)

    def oracle():
        j = example1_jacobians(n_space, n_time)
        pencil = p @ j
        return float(np.linalg.eigvalsh(0.5 * (pencil + np.swapaxes(pencil, -1, -2)))[:, -1].max())

    def check(rep, expected) -> Optional[str]:
        if rep.n_samples != n_space**2 * n_time:
            return f"n_samples={rep.n_samples}"
        if not close(rep.max_eigenvalue, expected, CLOSED_FORM_TOL):
            return f"max_eigenvalue={rep.max_eigenvalue!r}, numpy oracle {expected!r}"
        if rep.passed != (expected < 0.0) or not rep.sign_agreement_ok:
            return f"passed={rep.passed} sign_agreement_ok={rep.sign_agreement_ok}, oracle max eig {expected!r}"
        return None

    return Op(
        label=f"check_demidovich example1 {n_space}x{n_time}",
        kind="api.check_demidovich",
        inputs={"weight": p.tolist()},
        run=run,
        check=check,
        samples=n_space**2 * n_time,
        oracle=oracle,
    )


# -- stiff-trajectory ----------------------------------------------------------

DEMO_TF = 20.0
# The cycle's cost order puts a cluster of like operations at each percentile
# the metrics read (p50: the verify pairs; p75: the tf = 9 runs), so a small
# shift in cost cannot move a percentile from one kind of operation to another.
SIM_TFS = (1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 20.0)
VERIFY_PAIRS = 6
DELTA_TEXT = {"fig1": ("5*sin(t)^2", "t"), "fig2": ("5*sin(t)^2", "4*t^3")}


def output_grid(tf: float) -> list[float]:
    """The sample grid the demo and simulate commands write (step 0.05)."""
    return np.linspace(0.0, tf, max(2, int(round(tf / 0.05)) + 1)).tolist()


def _trajectory_check(res: CliRun, expected, extra: Optional[str] = None) -> Optional[str]:
    if res.code != 0:
        return f"exit {res.code}: {res.err.strip()[:200]}"
    if extra and extra not in res.out:
        return f"output lacks {extra!r}"
    times, states = read_trajectory(res.out_dir / "trajectory.csv")
    ref_times, ref_states = np.asarray(expected["times"]), np.asarray(expected["states"])
    if times.shape != ref_times.shape or np.abs(times - ref_times).max() > 1e-12:
        return f"trajectory.csv has {times.size} sample times, expected {ref_times.size} on the 0.05 grid"
    err = float((np.abs(states - ref_states) / np.maximum(1.0, np.abs(ref_states))).max())
    res.traj_err = err
    if err > TRAJ_TOL:
        return f"sampled states deviate from the reference by {err:.3e} > {TRAJ_TOL}"
    return None


def build_stiff_trajectory(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops: list[Op] = []
    for variant in ("fig1", "fig2"):
        out_dir = workdir / "out" / f"op{len(ops):02d}"
        argv = ["demo", "example1", "--variant", variant, "--out", str(out_dir), "--tf", repr(DEMO_TF), "--seed", str(int(rng.integers(1 << 30)))]
        ops.append(
            Op(
                label=f"demo example1 {variant} tf={DEMO_TF:g}",
                kind=f"cli.demo.{variant}",
                inputs={"argv": argv[:4] + argv[6:]},
                run=lambda argv=argv, out_dir=out_dir: run_cli(argv, out_dir),
                check=lambda res, expected: _trajectory_check(res, expected, "expected outcome held: True"),
                samples=41 * 41 * 5,
                trajectory={"delta": variant, "x0": [-2.0, 5.0], "times": output_grid(DEMO_TF)},
            )
        )

    for k, tf in enumerate(SIM_TFS):
        variant = ("fig1", "fig2")[k % 2]
        x0 = np.round(rng.uniform(-5.0, 5.0, 2), 6).tolist()
        d1, d2 = DELTA_TEXT[variant]
        text = "\n".join(
            ["[system]", "type = builtin", "name = example1", f"delta1 = {d1}", f"delta2 = {d2}", "x0 = " + ", ".join(fmt(v) for v in x0), ""]
        )
        cfg_path = workdir / "inputs" / f"op{len(ops):02d}.cfg"
        cfg_path.write_text(text)
        out_dir = workdir / "out" / f"op{len(ops):02d}"
        argv = ["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--tf", repr(tf)]
        ops.append(
            Op(
                label=f"simulate example1 {variant} tf={tf:g}",
                kind=f"cli.simulate.tf{tf:g}",
                inputs={"config": text, "tf": tf},
                run=lambda argv=argv, out_dir=out_dir: run_cli(argv, out_dir),
                check=_trajectory_check,
                trajectory={"delta": variant, "x0": x0, "times": output_grid(tf)},
                warm=(tf == 1.0),
            )
        )

    n_output = 241
    for k in range(VERIFY_PAIRS):
        pair = [np.round(rng.uniform(-5.0, 5.0, 2), 6) for _ in range(2)]

        def run(pair=pair):
            system = demos_mod.build_example1(delta=demos_mod.delta_admissible)
            return certify_mod.verify_incremental_bound(
                system, [tuple(pair)], 0.0, 6.0, 0.5, linalg_mod.NormKind.l2(), n_output=n_output
            )

        def check(rep, expected) -> Optional[str]:
            if not rep.passed or rep.worst_violation > rep.tolerance:
                return f"contracting pair failed: worst violation {rep.worst_violation:.3e} > tol {rep.tolerance:.3e}"
            return None

        ops.append(
            Op(
                label="verify_incremental_bound example1 1 pair tf=6",
                kind="api.verify_incremental_bound",
                inputs={"pair": [v.tolist() for v in pair]},
                run=run,
                check=check,
                samples=n_output,
            )
        )

    for k in range(2):
        xa = float(np.round(rng.uniform(0.5, 2.0), 6))
        xb = float(np.round(xa + rng.uniform(0.5, 2.0), 6))

        def run(xa=xa, xb=xb):
            system = system_mod.SystemSpec(dim=1, f=lambda x, t: x.copy(), jac=lambda x, t: np.eye(1))
            return certify_mod.verify_incremental_bound(
                system, [(np.array([xa]), np.array([xb]))], 0.0, 3.0, 0.5, linalg_mod.NormKind.l2()
            )

        def check(rep, expected) -> Optional[str]:
            if rep.passed:
                return f"expanding system passed the contraction bound (worst violation {rep.worst_violation:.3e})"
            return None

        ops.append(
            Op(
                label="verify_incremental_bound expanding 1-D tf=3",
                kind="api.verify_incremental_bound.expanding",
                inputs={"pair": [xa, xb]},
                run=run,
                check=check,
                samples=200,
                warm=(k == 0),
            )
        )
    return ops


# -- ltv-envelope --------------------------------------------------------------

# n = 4 and 8 three times each, so that the median falls among the n = 4 checks
# and p90 among the n = 8 checks with the eigenvalue-bound l2 and weighted norms
LTV_SIZES = (2, 4, 4, 4, 8, 8, 8)
LTV_KINDS = ("l1", "l2", "linf", "weighted")
LOGNORM_SIZES = (2, 8, 32)


def _ltv_op(rng: np.random.Generator, n: int, tag: str) -> Op:
    # each coefficient has Frobenius norm sqrt(n), so the step count varies little with the seed
    coeffs = [rng.normal(size=(n, n)) for _ in range(3)]
    c0, c1, c2 = [c * math.sqrt(n) / np.linalg.norm(c) for c in coeffs]
    weight = random_spd(rng, n) if tag == "weighted" else None
    pick_seed = int(rng.integers(1 << 30))
    n_pairs, n_states = 20, 5

    def run():
        kind = linalg_mod.NormKind.weighted(weight) if tag == "weighted" else linalg_mod.NormKind(tag)
        return integrate_mod.check_transition_bounds(
            lambda t: c0 + t * c1 + (t * t) * c2, kind, 0.0, 1.0, n_pairs=n_pairs, n_states=n_states, seed=pick_seed
        )

    def check(rep, expected) -> Optional[str]:
        worst = max(
            rep.worst_upper_violation,
            rep.worst_lower_violation,
            rep.worst_state_upper_violation,
            rep.worst_state_lower_violation,
        )
        if not rep.passed or worst > rep.tolerance:
            return f"envelope violated: worst {worst:.3e} > tol {rep.tolerance:.3e}"
        return None

    inputs = {"C0": c0.tolist(), "C1": c1.tolist(), "C2": c2.tolist(), "kind": tag, "seed": pick_seed}
    if weight is not None:
        inputs["weight"] = weight.tolist()
    return Op(
        label=f"check_transition_bounds n={n} {tag}",
        kind=f"api.check_transition_bounds.n{n}.{tag}",
        inputs=inputs,
        run=run,
        check=check,
        samples=n_pairs + n_states * max(1, n_pairs // 2),
        warm=(n == 2 and tag == "l1"),
    )


def _lognorm_op(rng: np.random.Generator, n: int, workdir: Path, index: int) -> Op:
    a = rng.normal(size=(n, n))
    p = random_spd(rng, n)
    a_path = workdir / "inputs" / f"op{index:02d}_A.txt"
    p_path = workdir / "inputs" / f"op{index:02d}_P.txt"
    a_path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in a) + "\n")
    p_path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in p) + "\n")
    argv = ["lognorm", str(a_path), "--norm", "l1", "--norm", "l2", "--norm", "linf", "--norm", f"weighted:{p_path}"]

    def oracle():
        return {tag: float(mu_stack(a, tag, p if tag == "weighted" else None)) for tag in LTV_KINDS}

    def check(res: CliRun, expected) -> Optional[str]:
        if res.code != 0:
            return f"exit {res.code}: {res.err.strip()[:200]}"
        rows = [line.split() for line in res.out.splitlines()[1:] if line.strip()]
        want = [(tag, m) for tag in LTV_KINDS for m in ("closed_form", "limit_estimate")]
        want.append(("weighted", "quadratic_form"))
        if sorted((r[0], r[1]) for r in rows if len(r) == 3) != sorted(want):
            return f"unexpected route rows: {[r[:2] for r in rows]}"
        for tag, method, value in rows:
            tol = LIMIT_ROUTE_TOL if method == "limit_estimate" else CLOSED_FORM_TOL
            if not close(float(value), expected[tag], tol):
                return f"{tag} {method} = {value}, numpy oracle {expected[tag]!r}"
        return None

    return Op(
        label=f"lognorm n={n} all routes",
        kind=f"cli.lognorm.n{n}",
        inputs={"A": a.tolist(), "weight": p.tolist()},
        run=lambda: run_cli(argv),
        check=check,
        oracle=oracle,
        warm=(n == 2),
    )


def build_ltv_envelope(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = [_ltv_op(rng, n, tag) for n in LTV_SIZES for tag in LTV_KINDS]
    for n in LOGNORM_SIZES:
        ops.append(_lognorm_op(rng, n, workdir, len(ops)))
    return ops


GENERATORS = {
    "certify-sweep": build_certify_sweep,
    "stiff-trajectory": build_stiff_trajectory,
    "ltv-envelope": build_ltv_envelope,
}


def build_workload(name: str, seed: int, workdir: Path) -> list[Op]:
    """Write the inputs of one workload cycle under ``workdir`` and return its operations."""
    workdir = Path(workdir)
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](seed, workdir)
