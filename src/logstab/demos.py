"""Built-in demo scenarios: the paper's two figures as scenario config texts.

Both run the builtin planar system ``example1`` (``config.build_example1``,
b = 5 and phi(t) = -6 - t^3) from x0 = (-2, 5) against the analytic rate
alpha(t) = 0.5 + t^3. Variant "fig1" has delta(t) = (5 sin(t)^2, t), under
which every solution is driven to the origin; the borderline "fig2" has
delta(t) = (5 sin(t)^2, 4 t^3), under which x2 settles at 4 instead. Both
stay globally contracting; they differ only in whether the forcing-to-rate
ratio dies out. Each runs through the certify and simulate steps of
``logstab certify`` and ``logstab simulate``; the demo adds the check of the
limit its figure shows, and report.txt.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .certify import CERTIFIED, RATIO_PERSISTS, RATIO_VANISHES, _tail_length, verify_origin_convergence
# build_example1 is bound here too: perfbench and the tests build the demo system from this module
from .config import build_example1, build_norm, build_system, parse_config  # noqa: F401
from .config import _output_grid, certificate_lines, certify_scenario, ratio_line, simulate_scenario
from .csvio import export_report_csv
from .errors import InvalidInputError


# sin(t)*sin(t) rounds exactly as delta_admissible and delta_borderline do; sin(t)^2 (a pow) does not
def _demo_config(figure: str, delta2: str) -> str:
    return f"""\
# {figure}
[system]
type = builtin
name = example1
delta1 = 5*sin(t)*sin(t)
delta2 = {delta2}
x0 = -2, 5

[domain]
lower = -10, -10
upper = 10, 10
t_lo = 0
t_hi = 2

[sampling]
n_space = 41
n_time = 5

[certify]
alpha = 0.5 + t^3
"""


DEMO_CONFIGS = {
    "fig1": _demo_config("fig1: an admissible perturbation; every solution tends to the origin", "t"),
    "fig2": _demo_config("fig2: a borderline perturbation; x2 settles at 4", "4*t^3"),
}
DEMO_VARIANTS = tuple(DEMO_CONFIGS)

# variant -> the forcing-ratio verdict, the limit (in words and as a point) and its tolerance
EXPECTED = {
    "fig1": (RATIO_VANISHES, "the origin", (0.0, 0.0), 0.01),
    "fig2": (RATIO_PERSISTS, "(0, 4)", (0.0, 4.0), 0.05),
}


def default_rate(t: float) -> float:
    """The analytic contraction rate the default demo parameters satisfy."""
    return 0.5 + t**3


def delta_admissible(t: float) -> np.ndarray:
    """Unbounded but sub-cubic perturbation; the origin stays attractive."""
    s = np.sin(t)
    return np.array([5.0 * s * s, t])


def delta_borderline(t: float) -> np.ndarray:
    """Cubic-order perturbation matching the rate; x2 settles at 4."""
    s = np.sin(t)
    return np.array([5.0 * s * s, 4.0 * t**3])


def run_demo_example1(variant: str, out_dir, tf: float = 20.0, seed: int = 42) -> tuple:
    """Run one demo variant end to end and write its artifacts.

    Runs the variant's config text, with ``tf``, ``seed`` and ``out_dir`` in
    place of its defaults, through the certify and simulate steps, then
    checks the limit the figure shows: the origin for fig1, (0, 4) for fig2,
    where x2 must also be near 4 at t = 10. Writes the steps' CSVs,
    convergence.csv and report.txt. Returns the certificate, the ratio
    report, the trajectory, the files written and whether the expected
    outcome held. A ``tf`` too short for the limit check's tail is an
    InvalidInputError naming tf, raised before any file is written.
    """
    if variant not in DEMO_CONFIGS:
        raise InvalidInputError(f"unknown demo variant {variant!r}; expected one of {DEMO_VARIANTS}")
    cfg = parse_config(DEMO_CONFIGS[variant])
    cfg = replace(cfg, plan=replace(cfg.plan, seed=seed), tf=tf, out_dir=str(out_dir))
    samples = len(_output_grid(cfg))
    _tail_length(samples, f"{samples} output samples from t0 = {cfg.t0} to tf = {tf}: raise tf")
    system, norm = build_system(cfg), build_norm(cfg)
    certificate, ratio, report_files = certify_scenario(cfg, system, norm)
    trajectory, trajectory_files = simulate_scenario(cfg, system)

    ratio_verdict, limit, target, tol = EXPECTED[variant]
    convergence = verify_origin_convergence(trajectory, norm, tol=tol, target=np.array(target))
    held = certificate.verdict == CERTIFIED and ratio.verdict == ratio_verdict and convergence.converged
    if variant == "fig2":
        # the settling value is checked where the transient has clearly died
        idx_mid = int(np.argmin(np.abs(trajectory.times - min(10.0, tf))))
        held = held and abs(trajectory.states[idx_mid, 1] - 4.0) < 0.05

    out_dir = Path(cfg.out_dir)
    convergence_file = export_report_csv(convergence, out_dir / "convergence.csv", name="limit check")
    stiff_from = trajectory.stiff_from
    switch = "dop853 throughout" if stiff_from is None else f"dop853 to t={stiff_from:.2f} then ndf"
    lines = [
        f"demo example1 variant={variant}",
        "",
        *certificate_lines(certificate),
        "",
        ratio_line(ratio),
        "",
        f"trajectory to tf={tf}: final state {trajectory.states[-1].tolist()}",
        f"integrator: auto, {switch}; {trajectory.n_steps} accepted, {trajectory.n_rejected} rejected steps",
        f"expected limit {limit}: converged={convergence.converged}"
        f" (tail max {convergence.tail_max:.3e}, tol {convergence.tol})",
        "",
    ]
    (out_dir / "report.txt").write_text("\n".join(lines))
    files = [*trajectory_files, *report_files, convergence_file, out_dir / "report.txt"]
    return certificate, ratio, trajectory, files, held

