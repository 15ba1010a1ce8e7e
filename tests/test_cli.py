import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

BASE_CFG = """\
dim = 1
box_halfwidth = 5.0
cells = 120
chi = 1.0
eps = 0.0
t_end = 0.01
diag_stride = 10
ic = gaussian
ic_width = 1.0
ic_mass = 1.0
seed = 7
"""


def cli(*args, cwd):
    # the child runs in a temporary cwd, so a relative PYTHONPATH would not find src
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "fluxlim.cli", *args], cwd=cwd,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG)
    return path


class TestSimulate:
    def test_outputs_and_exit_code(self, tmp_path, cfg_file):
        out = tmp_path / "out"
        res = cli("simulate", "--config", str(cfg_file), "--out", str(out), cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert (out / "diagnostics.csv").exists()
        assert (out / "snapshot_initial.txt").exists()
        assert (out / "snapshot_final.txt").exists()
        head = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert head.startswith("time,mass,l1,l2")

    def test_byte_identical_reruns(self, tmp_path, cfg_file):
        a, b = tmp_path / "a", tmp_path / "b"
        r1 = cli("simulate", "--config", str(cfg_file), "--out", str(a), cwd=tmp_path)
        r2 = cli("simulate", "--config", str(cfg_file), "--out", str(b), cwd=tmp_path)
        assert r1.returncode == 0 and r2.returncode == 0
        assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()
        assert (a / "snapshot_final.txt").read_bytes() == (b / "snapshot_final.txt").read_bytes()

    def test_semi_implicit_scheme(self, tmp_path):
        path = tmp_path / "imp.cfg"
        path.write_text(BASE_CFG + "scheme = semi_implicit\ndt = 0.002\n")
        res = cli("simulate", "--config", str(path), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert res.returncode == 0, res.stderr

    def test_config_error_exit_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("chi = -1\n")
        res = cli("simulate", "--config", str(bad), cwd=tmp_path)
        assert res.returncode == 1
        assert "chi" in res.stderr

    def test_non_finite_exponent_exit_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(BASE_CFG + "p_set = 2 inf\n")
        res = cli("simulate", "--config", str(bad), cwd=tmp_path)
        assert res.returncode == 1
        assert res.stderr.startswith("config error:") and "p_set" in res.stderr

    def test_missing_config_exit_1(self, tmp_path):
        res = cli("simulate", "--config", str(tmp_path / "nope.cfg"), cwd=tmp_path)
        assert res.returncode == 1

    def test_cfl_violation_exit_2(self, tmp_path):
        path = tmp_path / "cfl.cfg"
        path.write_text(BASE_CFG + "dt = 0.1\n")
        res = cli("simulate", "--config", str(path), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert res.returncode == 2
        assert "numerical failure" in res.stderr


class TestStudies:
    def test_contraction_passes(self, tmp_path):
        c1 = tmp_path / "c1.cfg"
        c2 = tmp_path / "c2.cfg"
        c1.write_text(BASE_CFG.replace("ic_width = 1.0", "ic_width = 1.2") + "ic_center = -0.7\n")
        c2.write_text(BASE_CFG + "ic_center = 0.7\n")
        out = tmp_path / "out"
        res = cli("study", "contraction", "--config", str(c1), "--config2", str(c2),
                  "--out", str(out), cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        text = (out / "report.txt").read_text()
        assert "VERDICT contraction_H_nonincreasing PASS" in text
        assert "VERDICT contraction_dissipation_nonneg PASS" in text
        assert (out / "study.csv").read_text().splitlines()[0] == "time,H,D1,D2"

    def test_verdict_failure_exit_3(self, tmp_path):
        # a deliberately unconverged sweep: short horizon, coarse grid
        cfg = tmp_path / "v.cfg"
        cfg.write_text("""\
dim = 1
box_halfwidth = 6.0
cells = 120
chi = 2.0
t_end = 0.1
diag_stride = 1000000
ic = gaussian
ic_width = 0.3
ic_mass = 1.0
""")
        res = cli("study", "viscosity", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  cwd=tmp_path)
        assert res.returncode == 3
        assert "FAIL" in res.stdout

    def test_smoothing_wiring(self, tmp_path):
        cfg = tmp_path / "sm.cfg"
        cfg.write_text("""\
dim = 1
box_halfwidth = 5.0
cells = 256
chi = 1.0
t_end = 0.05
diag_stride = 50
ic = spike
spike_widths = 0.8 0.4
study_p = 4
""")
        out = tmp_path / "out"
        res = cli("study", "smoothing", "--config", str(cfg), "--out", str(out), cwd=tmp_path)
        assert res.returncode in (0, 3), res.stderr  # verdicts may fail at this coarse scale
        text = (out / "report.txt").read_text()
        assert "VERDICT smoothing_envelope_stable" in text
        assert "VERDICT smoothing_heat_slope" in text

    def test_report_grep_stable_verdicts(self, tmp_path):
        res = cli("check", "monotonicity", "--samples", "2000", "--seed", "1", cwd=tmp_path)
        assert res.returncode == 0
        lines = [l for l in res.stdout.splitlines() if l.startswith("VERDICT ")]
        assert len(lines) == 2
        for line in lines:
            assert line.split()[2] in ("PASS", "FAIL")


class TestSteadyCheck:
    def test_single_peak_passes(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("""\
dim = 1
box_halfwidth = 5.0
cells = 300
chi = 1.0
eps = 0.0
t_end = 0.05
ic = single_peak
ic_mass = 1.0
""")
        out = tmp_path / "out"
        res = cli("steady", "check", "--config", str(cfg), "--out", str(out), cwd=tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        text = (out / "report.txt").read_text()
        assert "VERDICT steady_drift_small PASS" in text
        assert "VERDICT steady_subcharacterization PASS" in text

    def test_rejects_non_steady_ic(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text(BASE_CFG)
        res = cli("steady", "check", "--config", str(cfg), cwd=tmp_path)
        assert res.returncode == 1
