"""Built-in demo scenarios for a planar system with a strongly decaying rate.

The demo field is

    f1 = phi(t)*x1 + sin(x1)
    f2 = b*x1 + (2 + phi(t))*x2 + sin(x2)

with b = 5 and phi(t) = -6 - t^3 by default. Two canned perturbations are
shipped: the "fig1" variant delta(t) = (5 sin(t)^2, t), under which every
solution is driven to the origin, and the "fig2" borderline variant
delta(t) = (5 sin(t)^2, 4 t^3), under which the second component settles at 4
instead. Both variants stay globally contracting; they differ only in whether
the forcing-to-rate ratio dies out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .certify import (
    ContractionCertificate,
    ConvergenceReport,
    Domain,
    OriginConvergenceReport,
    RATIO_PERSISTS,
    RATIO_VANISHES,
    SamplingPlan,
    check_forcing_ratio,
    estimate_contraction_rate,
    verify_origin_convergence,
)
from .csvio import export_component_csv, export_report_csv, export_trajectory_csv
from .errors import InvalidInputError
from .integrate import Trajectory, integrate
from .linalg import NormKind
from .system import SystemSpec

DEMO_VARIANTS = ("fig1", "fig2")


def default_rate(t: float) -> float:
    """The analytic contraction rate the default demo parameters satisfy."""
    return 0.5 + t**3


def default_phi(t: float) -> float:
    return -6.0 - t**3


def delta_admissible(t: float) -> np.ndarray:
    """Unbounded but sub-cubic perturbation; the origin stays attractive."""
    s = np.sin(t)
    return np.array([5.0 * s * s, t])


def delta_borderline(t: float) -> np.ndarray:
    """Cubic-order perturbation matching the rate; x2 settles at 4."""
    s = np.sin(t)
    return np.array([5.0 * s * s, 4.0 * t**3])


def build_example1(
    b: float = 5.0,
    phi: Callable[[float], float] | None = None,
    delta: Callable[[float], np.ndarray] | None = None,
    t0: float = 0.0,
) -> SystemSpec:
    """The planar demo system with its analytic Jacobian, per state and per stack of states."""
    if phi is None:
        phi = default_phi

    def f(x: np.ndarray, t: float) -> np.ndarray:
        p = phi(t)
        return np.array([p * x[0] + np.sin(x[0]), b * x[0] + (2.0 + p) * x[1] + np.sin(x[1])])

    def jac(x: np.ndarray, t: float) -> np.ndarray:
        p = phi(t)
        return np.array([[p + np.cos(x[0]), 0.0], [b, 2.0 + p + np.cos(x[1])]])

    def f_stack(xs: np.ndarray, t: float) -> np.ndarray:
        p = phi(t)
        x1, x2 = xs[:, 0], xs[:, 1]
        return np.stack([p * x1 + np.sin(x1), b * x1 + (2.0 + p) * x2 + np.sin(x2)], axis=1)

    def jac_stack(xs: np.ndarray, t: float) -> np.ndarray:
        p = phi(t)
        out = np.empty((len(xs), 2, 2))
        out[:, 0, 0] = p + np.cos(xs[:, 0])
        out[:, 0, 1] = 0.0
        out[:, 1, 0] = b
        out[:, 1, 1] = 2.0 + p + np.cos(xs[:, 1])
        return out

    f.stack, jac.stack = f_stack, jac_stack
    return SystemSpec(dim=2, f=f, jac=jac, delta=delta, t0=t0, name="example1")


@dataclass
class DemoResult:
    """Everything one demo run produced, plus the exit code the CLI reports."""

    variant: str
    certificate: ContractionCertificate
    ratio_report: ConvergenceReport
    convergence_report: OriginConvergenceReport
    trajectory: Trajectory
    final_state: np.ndarray
    expected_outcome_held: bool
    out_files: list = field(default_factory=list)
    exit_code: int = 0


def run_demo_example1(
    variant: str,
    out_dir,
    tf: float = 20.0,
    seed: int = 42,
) -> DemoResult:
    """Run one demo variant end to end and write its artifacts.

    Certifies the contraction rate on [-10, 10]^2 x [0, 2] (sampled; the
    certificate never claims more than the sampled domain), classifies the
    forcing ratio against the analytic rate, integrates from x0 = (-2, 5) on
    a fixed output grid under the default ``auto`` integrator, and checks the
    expected limit: the origin for fig1, (0, 4) for fig2. Writes
    trajectory/plot/report CSVs plus report.txt.
    """
    if variant not in DEMO_VARIANTS:
        raise InvalidInputError(f"unknown demo variant {variant!r}; expected one of {DEMO_VARIANTS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    delta = delta_admissible if variant == "fig1" else delta_borderline
    sys = build_example1(delta=delta)
    norm = NormKind.l2()

    domain = Domain(np.array([-10.0, -10.0]), np.array([10.0, 10.0]), 0.0, 2.0)
    plan = SamplingPlan(n_space=41, n_time=5, scheme="uniform_grid", seed=seed)
    certificate = estimate_contraction_rate(sys, domain, norm, plan, alpha_fn=default_rate)

    ratio_report = check_forcing_ratio(sys, default_rate, 0.0, tf, kind=norm)

    x0 = np.array([-2.0, 5.0])
    grid = np.linspace(0.0, tf, int(round(tf / 0.05)) + 1)
    trajectory = integrate(sys, x0, 0.0, tf, sample_times=grid)
    final_state = trajectory.states[-1]

    if variant == "fig1":
        convergence = verify_origin_convergence(trajectory, norm, tol=0.01)
        expected = (
            certificate.verdict == "certified_on_domain"
            and ratio_report.verdict == RATIO_VANISHES
            and convergence.converged
        )
    else:
        convergence = verify_origin_convergence(trajectory, norm, tol=0.05, target=np.array([0.0, 4.0]))
        # the settling value is checked where the transient has clearly died
        idx_mid = int(np.argmin(np.abs(trajectory.times - min(10.0, tf))))
        x2_settled = abs(trajectory.states[idx_mid, 1] - 4.0) < 0.05
        expected = (
            certificate.verdict == "certified_on_domain"
            and ratio_report.verdict == RATIO_PERSISTS
            and convergence.converged
            and x2_settled
        )

    files = [
        export_trajectory_csv(trajectory, out_dir / "trajectory.csv"),
        export_component_csv(trajectory, 0, out_dir / "x1.csv"),
        export_component_csv(trajectory, 1, out_dir / "x2.csv"),
        export_report_csv(certificate, out_dir / "certificate.csv", name="contraction certificate"),
        export_report_csv(ratio_report, out_dir / "ratio.csv", name="forcing ratio"),
        export_report_csv(convergence, out_dir / "convergence.csv", name="limit check"),
    ]
    files.append(_write_summary(out_dir / "report.txt", variant, certificate, ratio_report, convergence, trajectory, tf))

    return DemoResult(
        variant=variant,
        certificate=certificate,
        ratio_report=ratio_report,
        convergence_report=convergence,
        trajectory=trajectory,
        final_state=final_state,
        expected_outcome_held=bool(expected),
        out_files=[str(f) for f in files],
        exit_code=0 if expected else 1,
    )


def _integrator_path(traj: Trajectory) -> str:
    """One line naming where the auto run switched, and the step counts."""
    switch = "dop853 throughout" if traj.stiff_from is None else f"dop853 to t={traj.stiff_from:.2f} then ndf"
    return f"integrator: auto, {switch}; {traj.n_steps} accepted, {traj.n_rejected} rejected steps"


def _certificate_lines(cert: ContractionCertificate) -> list[str]:
    """The certificate in the words ``logstab certify`` prints and the demo's report.txt records."""
    lines = [
        f"contraction certificate: {cert.verdict}",
        f"  sampled sup of mu[J] = {cert.mu_sup:.7g} over {cert.n_samples} samples",
    ]
    if cert.alpha0_estimate is not None:
        lines.append(f"  empirical rate alpha0 = {cert.alpha0_estimate:.7g}")
    if cert.dominance_ok is not None:
        lines.append(f"  analytic-rate dominance: {cert.dominance_ok} (margin {cert.dominance_margin:.3e})")
    lines.append("  note: the certificate covers the sampled domain only; it is not a global proof.")
    return lines


def _write_summary(path: Path, variant, certificate, ratio_report, convergence, trajectory, tf) -> Path:
    limit = "the origin" if variant == "fig1" else "(0, 4)"
    final_state = trajectory.states[-1]
    lines = [
        f"demo example1 variant={variant}",
        "",
        *_certificate_lines(certificate),
        "",
        f"forcing ratio: {ratio_report.verdict}"
        f" (slope {ratio_report.trend_slope:.3f}, final {ratio_report.final_ratio:.3e})",
        "",
        f"trajectory to tf={tf}: final state {final_state.tolist()}",
        _integrator_path(trajectory),
        f"expected limit {limit}: converged={convergence.converged}"
        f" (tail max {convergence.tail_max:.3e}, tol {convergence.tol})",
        "",
    ]
    path.write_text("\n".join(lines))
    return path
