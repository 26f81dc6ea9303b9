import os
import stat

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
        assert "weight is 3x3 but matrix is 2x2" in capsys.readouterr().err

    def test_missing_matrix_is_usage_error(self):
        assert main(["lognorm"]) == 2

    def test_unreadable_matrix_file(self, tmp_path):
        assert main(["lognorm", str(tmp_path / "nope.txt")]) == 3


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
        assert "weight is 3x3 but matrix is 2x2" in capsys.readouterr().err

    def test_config_error_exits_two(self, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[system]\ntype = builtin\nname = unknown_demo\n")
        assert main(["certify", "--config", str(cfg)]) == 2


class TestSimulateCommand:
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
        assert (tmp_path / "d" / "report.txt").exists()

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


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
