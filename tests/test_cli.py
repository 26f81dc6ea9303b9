import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logstab.cli import main
from logstab.csvio import load_trajectory_csv

CONFIG = """
[system]
type = builtin
name = example1
delta1 = 5*sin(t)^2
delta2 = t
x0 = -2, 5

[domain]
lower = -10, -10
upper = 10, 10
t_lo = 0
t_hi = 2

[sampling]
n_space = 21
n_time = 3

[integrator]
tf = 3

[certify]
alpha = 0.5 + t^3
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(CONFIG)
    return path


class TestLognormCommand:
    def test_inline_matrix_all_default_norms(self, capsys):
        assert main(["lognorm", "--inline", "-2 1; 0 -3"]) == 0
        out = capsys.readouterr().out
        assert "closed_form" in out and "limit_estimate" in out
        assert out.count("l2") >= 2

    def test_weighted_norm_from_file(self, tmp_path, capsys):
        mat = tmp_path / "A.txt"
        mat.write_text("-1 4\n0 -1\n")
        weight = tmp_path / "P.txt"
        weight.write_text("1 0\n0 16\n")
        assert main(["lognorm", str(mat), "--norm", f"weighted:{weight}"]) == 0
        assert "quadratic_form" in capsys.readouterr().out

    def test_weight_of_wrong_size_is_usage_error(self, tmp_path, capsys):
        weight = tmp_path / "P3.txt"
        weight.write_text("2 0 0\n0 2 0\n0 0 2\n")
        assert main(["lognorm", "--inline", "1 2; 3 4", "--norm", f"weighted:{weight}"]) == 2
        assert "weight is 3x3 but the dimension is 2" in capsys.readouterr().err

    @pytest.mark.parametrize("norm", ["weighted", "l3"], ids=["non-finite weight", "unknown tag"])
    def test_bad_later_norm_prints_nothing(self, tmp_path, capsys, norm):
        weight = tmp_path / "P.txt"
        weight.write_text("1 0\n0 nan\n")
        flag = f"weighted:{weight}" if norm == "weighted" else norm
        assert main(["lognorm", "--inline", "1 0; 0 1", "--norm", "l2", "--norm", flag]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1

    def test_missing_matrix_is_usage_error(self):
        assert main(["lognorm"]) == 2

    def test_unreadable_matrix_file(self, tmp_path):
        assert main(["lognorm", str(tmp_path / "nope.txt")]) == 3

    @pytest.mark.parametrize("route", ["inline", "file", "weight flag"])
    def test_non_numeric_matrix_entry_is_usage_error(self, tmp_path, capsys, route):
        (tmp_path / "A.txt").write_text("1 a\n2 3\n")
        argv = {
            "inline": ["lognorm", "--inline", "1 a; 2 3"],
            "file": ["lognorm", str(tmp_path / "A.txt")],
            "weight flag": ["lognorm", "--inline", "1 2; 3 4", "--norm", f"weighted:{tmp_path / 'A.txt'}"],
        }[route]
        assert main(argv) == 2
        assert "'a' is not a number" in capsys.readouterr().err


class TestCertifyCommand:
    def test_certified_scenario_exits_zero(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main(["certify", "--config", str(config_file), "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "certified_on_domain" in out
        assert (out_dir / "certificate.csv").exists()
        assert (out_dir / "ratio.csv").exists()

    def test_expanding_system_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[system]\ntype = expression\ndim = 1\nf1 = x1\n\n"
            "[domain]\nlower = -1\nupper = 1\nt_lo = 0\nt_hi = 1\n"
        )
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1

    def test_weight_of_wrong_size_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "weighted.cfg"
        cfg.write_text(CONFIG + "\n[norm]\nkind = weighted\nweight = 2 0 0; 0 2 0; 0 0 2\n")
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "weight is 3x3 but the dimension is 2" in capsys.readouterr().err

    def test_negative_seed_override_exits_two(self, config_file, tmp_path, capsys):
        argv = ["certify", "--config", str(config_file), "--out", str(tmp_path / "r"), "--seed", "-1"]
        assert main(argv) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "domain, line, message",
        [
            ("lower = 1, 1\nupper = 0, 0\n", 7, "domain requires lower < upper"),
            ("lower = -1, -1\nupper = 1, 1\nt_lo = 2\nt_hi = 2\n", 9, "need finite t_lo < t_hi"),
        ],
        ids=["lower above upper", "empty time window"],
    )
    def test_domain_that_cannot_form_a_box_names_its_line(self, tmp_path, capsys, domain, line, message):
        cfg = tmp_path / "box.cfg"
        cfg.write_text(f"[system]\ntype = builtin\nname = example1\nx0 = 1, 1\n[domain]\n{domain}")
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert f"line {line}: {message}" in capsys.readouterr().err
        # simulate never builds the box, so the same config still runs
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s"), "--tf", "0.5"]) == 0

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_weight_that_is_not_spd_exits_two(self, tmp_path, capsys, route):
        weight = tmp_path / "P.txt"
        weight.write_text("1 2\n2 1\n")
        argv = ["certify", "--config", str(tmp_path / "w.cfg"), "--out", str(tmp_path / "r")]
        text = CONFIG
        if route == "flag":
            argv += ["--norm", f"weighted:{weight}"]
        else:
            text += "\n[norm]\nkind = weighted\nweight_file = P.txt\n"
        (tmp_path / "w.cfg").write_text(text)
        assert main(argv) == 2
        assert "invalid weight matrix: matrix is not positive definite" in capsys.readouterr().err

    def test_non_numeric_weight_file_entry_exits_two(self, tmp_path, capsys):
        (tmp_path / "P.txt").write_text("1 0\n0 x\n")
        (tmp_path / "w.cfg").write_text(CONFIG + "\n[norm]\nkind = weighted\nweight_file = P.txt\n")
        assert main(["certify", "--config", str(tmp_path / "w.cfg"), "--out", str(tmp_path / "r")]) == 2
        assert "'x' is not a number" in capsys.readouterr().err

    def test_config_error_exits_two(self, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[system]\ntype = builtin\nname = unknown_demo\n")
        assert main(["certify", "--config", str(cfg)]) == 2


class TestUndefinedExpressions:
    """A field undefined at a point evaluates to NaN and exits 3, naming t."""

    def run(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "undefined.cfg"
        cfg.write_text(text)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--tf", "1"])
        return code, capsys.readouterr().err

    def test_log_of_negative_state(self, tmp_path, capsys):
        text = "[system]\ntype = expression\ndim = 1\nf1 = log(x1) - x1\nx0 = -1\n"
        code, err = self.run(tmp_path, capsys, "simulate", text)
        assert code == 3
        assert "non-finite" in err and "t=0" in err

    @pytest.mark.parametrize("command", ["certify", "simulate"])
    def test_overflow(self, tmp_path, capsys, command):
        text = (
            "[system]\ntype = expression\ndim = 1\nf1 = -x1 + exp(x1^2)\nx0 = 30\n\n"
            "[domain]\nlower = -30\nupper = 30\nt_lo = 0\nt_hi = 1\n"
        )
        code, err = self.run(tmp_path, capsys, command, text)
        assert code == 3
        assert "non-finite" in err and "t=0" in err

    def test_division_by_zero_in_delta(self, tmp_path, capsys):
        text = "[system]\ntype = builtin\nname = example1\ndelta1 = 1/t\nx0 = 1, 1\n"
        code, err = self.run(tmp_path, capsys, "simulate", text)
        assert code == 3
        assert "delta returned non-finite values at t=0" in err

    @pytest.mark.parametrize(
        "system, certify",
        [
            ("type = expression\ndim = 2\nf1 = -x1 + exp(-1/x2)\nf2 = -x2", ""),
            ("type = builtin\nname = example1\nphi = -6 - exp(-1/t)", ""),
            # the forcing-ratio check samples the rate up to tf = 2
            ("type = builtin\nname = example1", "\n[integrator]\ntf = 2\n\n[certify]\nalpha = 0.5 + exp(-1/((t - 2)*(t - 2)))\n"),
            ("type = expression\ndim = 2\nf1 = -x1 + exp(-1/x2) + 0.1*abs(x1)\nf2 = -x2", ""),
        ],
        ids=["field", "builtin phi", "rate", "finite-difference field"],
    )
    def test_division_by_zero_exits_three_without_warnings(self, tmp_path, system, certify):
        # in its own process, so a RuntimeWarning would reach stderr; the 3x2 grid samples x2 = 0 and t = 0
        cfg = tmp_path / "undefined.cfg"
        cfg.write_text(
            f"[system]\n{system}\n\n[domain]\nlower = -1, -1\nupper = 1, 1\nt_lo = 0\nt_hi = 1\n\n"
            f"[sampling]\nn_space = 3\nn_time = 2\n{certify}"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-W", "default::RuntimeWarning", "-m", "logstab.cli", "certify", "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert run.returncode == 3, run.stderr
        assert "RuntimeWarning" not in run.stderr
        assert "non-finite" in run.stderr

    @pytest.mark.parametrize(
        "f1",
        ["-x1 + exp(-1/x2)", "-x1 + x2*log(x1 + 2)", "-x1 + (x1 - 1)^0.5", "-x1 + exp(x2^2)", "-x1 + x2/x1"],
        ids=["exp(-1/x2) at x2 = 0", "log of a negative argument", "fractional power", "overflow", "division by zero"],
    )
    def test_finite_difference_certificate_exits_three_naming_x_and_t(self, tmp_path, capsys, f1):
        # abs leaves no symbolic Jacobian; the 9x9 grid on [-30, 30]^2 reaches 0 and -30 on each axis
        text = (
            f"[system]\ntype = expression\ndim = 2\nf1 = {f1} + 0.1*abs(x2)\nf2 = -x2\n\n"
            "[domain]\nlower = -30, -30\nupper = 30, 30\nt_lo = 0\nt_hi = 1\n\n[sampling]\nn_space = 9\nn_time = 2\n"
        )
        code, err = self.run(tmp_path, capsys, "certify", text)
        assert code == 3
        assert re.search(r"^error: f returned non-finite values at x=\[.+\], t=0\.0$", err, re.MULTILINE)

    def test_fractional_power_of_negative_base(self, tmp_path, capsys):
        # Python's ** would give a complex number here, silently truncated to its real part
        text = "[system]\ntype = builtin\nname = example1\ndelta1 = (t - 1)^0.5\nx0 = 1, 1\n"
        code, err = self.run(tmp_path, capsys, "simulate", text)
        assert code == 3
        assert "delta returned non-finite values at t=0" in err

    def test_undefined_rate(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, "certify", CONFIG.replace("alpha = 0.5 + t^3", "alpha = log(t - 1)"))
        assert code == 3
        assert "alpha returned non-finite values at t=0.0" in err


class TestExpressionConfigErrors:
    """Expressions the grammar cannot take are config errors naming their line."""

    @pytest.mark.parametrize(
        "f1",
        [
            "(" * 250 + "-x1" + ")" * 250,
            "-" * 1500 + "x1",
            "-x1 + 1e400",
            " + ".join(["-x1"] * 201),
            " * ".join(["x1"] * 41),
        ],
        ids=["250 parentheses", "1500 unary minus signs", "non-finite literal", "201-term sum", "41-factor product"],
    )
    def test_exits_two_naming_the_line(self, tmp_path, capsys, f1):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[system]\ntype = expression\ndim = 1\nf1 = {f1}\nx0 = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--tf", "1"]) == 2
        assert "line 4: bad expression" in capsys.readouterr().err

    @pytest.mark.parametrize("n_terms", [61, 200])
    def test_long_sum_is_no_config_error(self, tmp_path, n_terms):
        # x1' = -0.01 x1 written as n terms, so x1(1) = exp(-0.01 n)
        cfg = tmp_path / "sum.cfg"
        cfg.write_text(f"[system]\ntype = expression\ndim = 1\nf1 = {' + '.join(['-0.01*x1'] * n_terms)}\nx0 = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--tf", "1"]) == 0
        traj = load_trajectory_csv(tmp_path / "out" / "trajectory.csv")
        assert traj.states[-1, 0] == pytest.approx(np.exp(-0.01 * n_terms), rel=1e-8)


class TestSimulateCommand:
    @pytest.mark.parametrize("method", ["ndf", "auto", "rk4"])
    def test_step_budget_exhaustion_exits_three_naming_t(self, config_file, tmp_path, capsys, method):
        cfg = tmp_path / "budget.cfg"
        cfg.write_text(config_file.read_text().replace("tf = 3", f"tf = 3\nmethod = {method}\nmax_steps = 50"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 3
        expected = {
            "ndf": r"step budget 50 exhausted at t=0\.\d+",
            # auto does not turn stiff before its budget is spent, so it is dop853 throughout
            "auto": r"step budget 50 exhausted at t=2\.\d+",
            # a fixed-step run knows its step count, so it fails before the first step
            "rk4": r"fixed-step run needs 300 steps, budget is 50",
        }[method]
        assert re.search(expected, capsys.readouterr().err)

    def test_rk4_run_into_a_pole_exits_three_naming_t(self, tmp_path, capsys):
        # x1' = x1^2 from 1 has a pole at t = 1; the field overflows at the last node, t = 1.02
        cfg = tmp_path / "pole.cfg"
        cfg.write_text("[system]\ntype = expression\ndim = 1\nf1 = x1^2\nx0 = 1\n\n[integrator]\nmethod = rk4\ntf = 1.02\n")
        with np.errstate(over="ignore"):
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 3
        assert "field non-finite after step to t=1.02" in capsys.readouterr().err

    def test_writes_loadable_trajectory(self, config_file, tmp_path):
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_file), "--out", str(out_dir), "--tf", "2"]) == 0
        traj = load_trajectory_csv(out_dir / "trajectory.csv")
        assert traj.times[0] == 0.0 and traj.times[-1] == 2.0
        assert (out_dir / "x1.csv").exists() and (out_dir / "x2.csv").exists()


class TestDemoCommand:
    def test_fig1_variant_passes(self, tmp_path, capsys):
        code = main(["demo", "example1", "--variant", "fig1", "--tf", "15", "--out", str(tmp_path / "d")])
        out = capsys.readouterr().out
        assert code == 0
        assert "ratio_vanishes" in out
        report = (tmp_path / "d" / "report.txt").read_text()
        path = re.search(r"integrator: auto, dop853 to t=(\d+\.\d\d) then ndf; (\d+) accepted, \d+ rejected steps", report)
        assert path and 2.0 <= float(path[1]) <= 8.0 and int(path[2]) <= 2000, report

    def test_fig2_variant_settles_at_0_4(self, tmp_path, capsys):
        code = main(["demo", "example1", "--variant", "fig2", "--tf", "15", "--out", str(tmp_path / "d")])
        out = capsys.readouterr().out
        assert code == 0
        assert "forcing ratio: ratio_persists" in out and "expected outcome held: True" in out
        report = (tmp_path / "d" / "report.txt").read_text()
        assert "expected limit (0, 4): converged=True" in report, report

    def test_certify_prints_the_certificate_as_the_demo_reports_it(self, tmp_path, capsys):
        # the demo's sweep, written as a scenario: its box, grid and analytic rate
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(
            CONFIG.replace("n_space = 21\nn_time = 3", "n_space = 41\nn_time = 5").replace("tf = 3", "tf = 15")
        )
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        printed = capsys.readouterr().out
        assert main(["demo", "example1", "--variant", "fig1", "--tf", "15", "--out", str(tmp_path / "d")]) == 0
        report = (tmp_path / "d" / "report.txt").read_text()
        block = re.search(r"^contraction certificate: .*?\n  note: .*?\n", report, re.MULTILINE | re.DOTALL)
        assert block and block[0] in printed, (report, printed)
        assert "  empirical rate alpha0 = 1.307" in block[0]

    def test_unknown_demo_name(self, tmp_path):
        assert main(["demo", "other", "--out", str(tmp_path)]) == 2

    def test_usage_error_exit_code(self):
        assert main(["demo", "example1", "--variant", "fig9"]) == 2

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores directory permissions")
    def test_unwritable_out_dir(self, tmp_path):
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        try:
            code = main(["demo", "example1", "--variant", "fig1", "--tf", "15", "--out", str(locked / "sub")])
        finally:
            locked.chmod(stat.S_IRWXU)
        assert code == 3

    def test_out_dir_blocked_by_file(self, tmp_path):
        # a plain file where the directory should go fails for any user
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        code = main(["demo", "example1", "--variant", "fig1", "--tf", "15", "--out", str(blocker / "sub")])
        assert code == 3

    def test_deterministic_csv_bytes(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(["demo", "example1", "--variant", "fig1", "--tf", "15", "--out", str(a_dir)]) == 0
        assert main(["demo", "example1", "--variant", "fig1", "--tf", "15", "--out", str(b_dir)]) == 0
        for name in ("trajectory.csv", "x1.csv", "x2.csv", "certificate.csv", "ratio.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_seed_is_recorded_and_changes_nothing_else(self, tmp_path, capsys):
        # the demo samples on a uniform grid, which draws no random numbers
        assert main(["demo", "--help"]) == 0
        assert "the demo samples on a uniform grid" in " ".join(capsys.readouterr().out.split())
        runs = {seed: tmp_path / f"seed{seed}" for seed in (7, 42)}
        for seed, out in runs.items():
            assert main(["demo", "example1", "--tf", "15", "--seed", str(seed), "--out", str(out)]) == 0
        names = sorted(path.name for path in runs[7].iterdir())
        assert names == sorted(path.name for path in runs[42].iterdir())
        for name in names:
            a, b = ((out / name).read_text().splitlines() for out in runs.values())
            differ = [(x, y) for x, y in zip(a, b) if x != y]
            assert len(a) == len(b) and differ == ([("plan.seed,7", "plan.seed,42")] if name == "certificate.csv" else []), name


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("command", ["certify", "simulate", "demo"])
    @pytest.mark.parametrize("tf", ["nan", "inf", "-inf", "ten"])
    def test_time_flag_that_is_not_a_finite_number_exits_two(self, config_file, tmp_path, capsys, command, tf):
        head = ["demo", "example1"] if command == "demo" else [command, "--config", str(config_file)]
        assert main([*head, "--out", str(tmp_path / "out"), f"--tf={tf}"]) == 2
        assert "argument --tf:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
