"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines; each test also asserts, so the suite fails loudly. Frozen
expected values come from hand computations on the demo field (documented
where used) or from independent oracles evaluated in the test body.
"""

import time

import numpy as np
import pytest

from logstab.certify import (
    Domain,
    RATIO_PERSISTS,
    RATIO_VANISHES,
    SamplingPlan,
    check_demidovich,
    check_forcing_ratio,
    estimate_contraction_rate,
    verify_incremental_bound,
    verify_origin_convergence,
)
from logstab.integrate import IntegratorConfig, check_transition_bounds, integrate
from logstab.linalg import NormKind, induced_matrix_norm
from logstab.lognorm import log_norm, log_norm_limit_estimate, log_norm_quadratic_form
from logstab.system import QuadratureRule, SystemSpec, averaged_jacobian_residual
from logstab.demos import build_example1, default_rate, delta_admissible, delta_borderline

from conftest import random_spd

# hand-maximized supremum of the demo field's L2 log norm at t = 0:
# cos terms at their joint maximum 1 give -5 + 1 + (2 + sqrt(29))/2
DEMO_MU_SUP = -4.0 + 0.5 * np.sqrt(29.0)

ALL_KIND_TAGS = ("l1", "l2", "linf", "weighted")


def record(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def make_kind(tag: str, rng, n: int) -> NormKind:
    if tag == "weighted":
        return NormKind.weighted(random_spd(rng, n))
    return NormKind(tag)


def test_criterion_01_admissible_perturbation_reaches_origin():
    sys = build_example1(delta=delta_admissible)
    start = time.perf_counter()
    grid = np.linspace(0.0, 20.0, 401)
    traj = integrate(sys, np.array([-2.0, 5.0]), 0.0, 20.0, sample_times=grid)
    final_inf = float(np.abs(traj.states[-1]).max())
    conv = verify_origin_convergence(traj, NormKind.l2(), tol=0.01)
    elapsed = time.perf_counter() - start
    ok = final_inf < 0.01 and conv.converged and elapsed < 5.0
    record(
        1,
        ok,
        f"|x(20)|_inf = {final_inf:.5f} < 0.01, converged={conv.converged}, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_02_borderline_perturbation_settles_at_four():
    sys2 = build_example1(delta=delta_borderline)
    grid = np.linspace(0.0, 20.0, 401)
    traj = integrate(sys2, np.array([-2.0, 5.0]), 0.0, 20.0, sample_times=grid)
    x1_final = abs(float(traj.states[-1, 0]))
    i10 = int(np.argmin(np.abs(traj.times - 10.0)))
    x2_err = abs(float(traj.states[i10, 1]) - 4.0)
    ratio2 = check_forcing_ratio(sys2, default_rate, 0.0, 20.0)
    sys1 = build_example1(delta=delta_admissible)
    ratio1 = check_forcing_ratio(sys1, default_rate, 0.0, 20.0)
    ok = (
        x1_final < 0.01
        and x2_err < 0.05
        and ratio2.verdict == RATIO_PERSISTS
        and ratio1.verdict == RATIO_VANISHES
    )
    record(
        2,
        ok,
        f"|x1(20)| = {x1_final:.5f}, |x2(10) - 4| = {x2_err:.4f} < 0.05, "
        f"ratio verdicts {ratio1.verdict}/{ratio2.verdict}",
    )


def test_criterion_03_contraction_rate_supremum_and_dominance():
    sys = build_example1(delta=delta_admissible)
    box = Domain(np.array([-10.0, -10.0]), np.array([10.0, 10.0]), 0.0, 2.0)
    slice_plan = SamplingPlan(n_space=101, n_time=1, scheme="uniform_grid", seed=42)
    cert0 = estimate_contraction_rate(sys, box, NormKind.l2(), slice_plan)
    sup_err = abs(cert0.mu_sup - (-1.3074))
    near_max = bool(np.all(np.cos(cert0.argmax_state) > 0.999))
    window_plan = SamplingPlan(n_space=41, n_time=5, scheme="uniform_grid", seed=42)
    cert = estimate_contraction_rate(sys, box, NormKind.l2(), window_plan, alpha_fn=default_rate)
    ok = sup_err <= 0.002 and near_max and bool(cert.dominance_ok)
    record(
        3,
        ok,
        f"sup mu = {cert0.mu_sup:.7f} (= {DEMO_MU_SUP:.7f} hand value, |err| = {sup_err:.2e} <= 0.002), "
        f"argmax at cos ~ 1: {near_max}, rate dominance on window: {cert.dominance_ok}",
    )


def test_criterion_04_pairwise_bound_and_expanding_counterexample():
    sys = build_example1(delta=delta_admissible)
    rng = np.random.default_rng(12345)
    pairs = [(rng.uniform(-5.0, 5.0, size=2), rng.uniform(-5.0, 5.0, size=2)) for _ in range(20)]
    rep = verify_incremental_bound(sys, pairs, 0.0, 6.0, 0.5, NormKind.l2(), n_output=241)
    expanding = SystemSpec(dim=1, f=lambda x, t: x.copy(), jac=lambda x, t: np.eye(1))
    rep_bad = verify_incremental_bound(
        expanding, [(np.array([1.0]), np.array([2.0]))], 0.0, 3.0, 0.5, NormKind.l2()
    )
    ok = rep.passed and not rep_bad.passed
    record(
        4,
        ok,
        f"20 pairs: worst violation {rep.worst_violation:.2e} <= tol {rep.tolerance:.2e}; "
        f"expanding system fails: {not rep_bad.passed}",
    )


def test_criterion_05_log_norm_route_agreement():
    rng = np.random.default_rng(2025)
    worst_limit = {tag: 0.0 for tag in ALL_KIND_TAGS}
    worst_quad = 0.0
    for tag in ALL_KIND_TAGS:
        for _ in range(500):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n))
            kind = make_kind(tag, rng, n)
            cf = log_norm(a, kind)
            le = log_norm_limit_estimate(a, kind)
            rel = abs(cf - le) / max(1.0, abs(cf))
            worst_limit[tag] = max(worst_limit[tag], rel)
            if tag == "weighted":
                qf = log_norm_quadratic_form(a, kind.weight)
                worst_quad = max(worst_quad, abs(cf - qf) / max(1.0, abs(cf)))
    ok = max(worst_limit.values()) <= 1e-6 and worst_quad <= 1e-8
    record(
        5,
        ok,
        "closed form vs limit estimate, 500 matrices x 4 kinds: worst rel "
        + ", ".join(f"{tag}={v:.1e}" for tag, v in worst_limit.items())
        + f" (<= 1e-6); quadratic-form route {worst_quad:.1e} <= 1e-8",
    )


def test_criterion_06_convexity_and_lipschitz_inequalities():
    rng = np.random.default_rng(77)
    worst_convex = -np.inf
    worst_lip = -np.inf
    for tag in ALL_KIND_TAGS:
        kind = make_kind(tag, rng, 4)
        for _ in range(1000):
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4))
            c = rng.uniform()
            mu_a, mu_b = log_norm(a, kind), log_norm(b, kind)
            worst_convex = max(
                worst_convex, log_norm(c * a + (1 - c) * b, kind) - (c * mu_a + (1 - c) * mu_b)
            )
            worst_lip = max(worst_lip, abs(mu_a - mu_b) - induced_matrix_norm(a - b, kind))
    ok = worst_convex <= 1e-10 and worst_lip <= 1e-10
    record(
        6,
        ok,
        f"1000 triples/pairs x 4 kinds: convexity slack {worst_convex:.2e}, "
        f"Lipschitz slack {worst_lip:.2e} (both <= 1e-10)",
    )


def test_criterion_07_transition_matrix_and_state_norm_envelopes():
    rng = np.random.default_rng(31415)
    failures = []
    worst = -np.inf
    for i in range(100):
        n = int(rng.integers(2, 5))
        kind = make_kind(ALL_KIND_TAGS[i % 4], rng, n)
        coeffs = [0.7 * rng.normal(size=(n, n)) for _ in range(3)]

        def a_fn(t, c=coeffs):
            return c[0] + t * c[1] + t * t * c[2]

        rep = check_transition_bounds(a_fn, kind, 0.0, 1.0, n_pairs=20, seed=i)
        worst = max(
            worst,
            rep.worst_upper_violation,
            rep.worst_lower_violation,
            rep.worst_state_upper_violation,
            rep.worst_state_lower_violation,
        )
        if not rep.passed:
            failures.append(i)
    ok = not failures
    record(
        7,
        ok,
        f"100 random polynomial systems (n <= 4), 20 (tau, t) pairs each, kinds cycled: "
        f"{len(failures)} failures, worst relative violation {worst:.2e}",
    )


def test_criterion_08_segment_average_residuals():
    sys = build_example1(delta=delta_admissible)
    rule = QuadratureRule.gauss_legendre(16)
    rng = np.random.default_rng(99)
    worst_demo = 0.0
    for _ in range(1000):
        x_star = rng.uniform(-10.0, 10.0, size=2)
        x = rng.uniform(-10.0, 10.0, size=2)
        t = rng.uniform(0.0, 2.0)
        worst_demo = max(worst_demo, averaged_jacobian_residual(sys, x_star, x, t, rule))
    a = rng.normal(size=(3, 3))
    linear = SystemSpec(dim=3, f=lambda x, t: a @ x, jac=lambda x, t: a)
    worst_linear = 0.0
    for _ in range(200):
        worst_linear = max(
            worst_linear,
            averaged_jacobian_residual(linear, rng.normal(size=3), rng.normal(size=3), 0.0, rule),
        )
    ok = worst_demo < 1e-10 and worst_linear < 1e-14
    record(
        8,
        ok,
        f"1000 demo segments: worst residual {worst_demo:.2e} < 1e-10; "
        f"linear system {worst_linear:.2e} < 1e-14",
    )


def test_criterion_09_weighted_negative_definiteness_is_norm_dependent():
    j = np.array([[-1.0, 4.0], [0.0, -1.0]])
    sys = SystemSpec(dim=2, f=lambda x, t: j @ x, jac=lambda x, t: j)
    box = Domain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 0.0, 1.0)
    plan = SamplingPlan(n_space=3, n_time=2)
    rep_identity = check_demidovich(sys, np.eye(2), box, plan)
    rep_weighted = check_demidovich(sys, np.diag([1.0, 16.0]), box, plan)
    # hand values: mu_I = top eigenvalue of [[-1, 2], [2, -1]] = 1; the
    # weighted form [[-1, 2], [2, -16]] has top eigenvalue (-17 + sqrt(241))/2
    mu_identity_ok = abs(rep_identity.max_eigenvalue - 1.0) < 1e-12
    weighted_eig_ok = abs(rep_weighted.max_eigenvalue - (-17.0 + np.sqrt(241.0)) / 2.0) < 1e-12
    ok = (not rep_identity.passed) and rep_weighted.passed and mu_identity_ok and weighted_eig_ok
    record(
        9,
        ok,
        f"identity weight fails (max eig {rep_identity.max_eigenvalue:+.4f}), "
        f"diag(1,16) passes (max eig {rep_weighted.max_eigenvalue:+.4f})",
    )


def test_criterion_10_fixed_step_integrator_order():
    def endpoint_error(sys, x0, tf, exact, step):
        cfg = IntegratorConfig(method="rk4", step=step, max_step=1e9)
        traj = integrate(sys, x0, 0.0, tf, cfg)
        return np.abs(traj.states[-1] - exact).max()

    decay = SystemSpec(dim=1, f=lambda x, t: -x)
    r_decay = endpoint_error(decay, np.array([1.0]), 1.0, np.array([np.exp(-1.0)]), 0.1) / endpoint_error(
        decay, np.array([1.0]), 1.0, np.array([np.exp(-1.0)]), 0.05
    )
    harm = SystemSpec(dim=2, f=lambda x, t: np.array([x[1], -x[0]]))
    exact = np.array([np.cos(2.0), -np.sin(2.0)])
    r_harm = endpoint_error(harm, np.array([1.0, 0.0]), 2.0, exact, 0.05) / endpoint_error(
        harm, np.array([1.0, 0.0]), 2.0, exact, 0.025
    )
    ok = 12.0 <= r_decay <= 20.0 and 12.0 <= r_harm <= 20.0
    record(
        10,
        ok,
        f"step-halving error ratios: decay {r_decay:.1f}, harmonic {r_harm:.1f} (both in [12, 20])",
    )
