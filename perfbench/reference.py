"""Reference trajectories of the demo field, computed with scipy.

Usage: python3 reference.py REQUESTS.json RESULT.json

Each request names the perturbation (``fig1`` or ``fig2``), the initial state
``x0`` at t = 0 and the sample ``times``. The field is written out here from
its definition, independently of logstab:

    f1 = phi(t) x1 + sin(x1) + 5 sin(t)^2
    f2 = 5 x1 + (2 + phi(t)) x2 + sin(x2) + {t | 4 t^3}      phi(t) = -6 - t^3

It is integrated by LSODA (BDF when stiff) with the analytic Jacobian at
rtol 1e-12, atol 1e-14, three orders tighter than logstab's default
tolerances. The runner starts this script as a child process before timing,
so scipy never loads into the measured process.
"""

import json
import sys

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-12
ATOL = 1e-14


def demo_field(variant: str):
    cubic = variant == "fig2"

    def rhs(t, x):
        p = -6.0 - t**3
        s = np.sin(t)
        return [
            p * x[0] + np.sin(x[0]) + 5.0 * s * s,
            5.0 * x[0] + (2.0 + p) * x[1] + np.sin(x[1]) + (4.0 * t**3 if cubic else t),
        ]

    def jac(t, x):
        p = -6.0 - t**3
        return [[p + np.cos(x[0]), 0.0], [5.0, 2.0 + p + np.cos(x[1])]]

    return rhs, jac


def reference_states(request: dict) -> list[list[float]]:
    rhs, jac = demo_field(request["delta"])
    times = np.asarray(request["times"], dtype=float)
    sol = solve_ivp(
        rhs, (0.0, float(times[-1])), request["x0"], method="LSODA", t_eval=times, rtol=RTOL, atol=ATOL, jac=jac
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T.tolist()


def main(argv) -> int:
    requests = json.loads(open(argv[1]).read())
    states = [reference_states(r) for r in requests]
    with open(argv[2], "w") as fh:
        json.dump(states, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
