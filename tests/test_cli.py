import ast
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fluxlim import cli as cli_module
from fluxlim.config import RunConfig
from fluxlim.diagnostics import record

SRC = str(Path(__file__).resolve().parents[1] / "src")

# a unit-mass Gaussian of width 1 by the defaults, which sets no ic_* key, so that
# switching ic to another kind leaves no key that kind does not read
BASE_CFG = """\
dim = 1
box_halfwidth = 5.0
cells = 120
chi = 1.0
eps = 0.0
t_end = 0.01
diag_stride = 10
ic = gaussian
"""


def cli(*args, cwd):
    # the child runs in a temporary cwd, so a relative PYTHONPATH would not find src
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "fluxlim.cli", *args], cwd=cwd,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def with_override(override: str) -> str:
    """BASE_CFG with the lines of ``override`` in place of those of its keys."""
    keys = {line.split("=")[0].strip() for line in override.splitlines()}
    kept = [line for line in BASE_CFG.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + override + "\n"


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
        bad.write_text(BASE_CFG.replace("ic = gaussian", "ic = spike") + "ic_p = nan\n")
        res = cli("simulate", "--config", str(bad), cwd=tmp_path)
        assert res.returncode == 1
        assert res.stderr.startswith("config error:") and "ic_p" in res.stderr

    @pytest.mark.parametrize("command,key", [(["simulate"], "ic_p"), (["study", "smoothing"], "ic_p")])
    def test_infinite_spike_exponent_exit_1(self, tmp_path, capsys, command, key):
        # ic_p = inf left the spike unnormalized (exit 0) and divided the smoothing study by zero
        cfg = tmp_path / "spike.cfg"
        cfg.write_text(BASE_CFG.replace("ic = gaussian", "ic = spike") + f"{key} = inf\n")
        code = cli_module.main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize("override", [
        "box_halfwidth = inf",
        "eps = 1e308",
        "dt = inf",
        "t_end = inf",
        "ic = snapshot\nic_path = missing_snapshot.txt",
        "ic = spike\nic_width = 0.01",  # narrower than one cell
        "cells = 100000000000",  # rejected by the work-size guard before allocating
        "t_end = 1e300",
        "box_halfwidth = 1e308\ncells = 60",  # the cell width overflows to inf
        "box_halfwidth = 1e9\ncells = 60",  # the Gaussian underflows to 0 on every cell
        "dim = 2\ncells = 20\nscheme = semi_implicit\ndt = 0.01",  # the scheme is 1D only
        "dim = 2\nbox_halfwidth = 1e200\ncells = 10\nic = uniform",  # the cell volume overflows
        "ic_mass = 1e308",  # the Lp norms and gradient norms overflow
        "box_halfwidth = 1e200\nic = single_peak",  # 0 * |x|^2 = nan in the second moment
        "ic = single_peak\nic_mass = 1.0\nic_amplitude = 2.0",  # rejected by build_problem
        "ic = uniform\nic_mass = 3.0",  # a key the uniform field does not read
    ])
    def test_bad_value_is_config_error(self, tmp_path, override):
        bad = tmp_path / "bad.cfg"
        bad.write_text(with_override(override))
        res = cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert res.returncode == 1
        assert res.stderr.startswith("config error:") and "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()  # the output directory is made after the build

    def test_snapshot_over_budget_is_config_error(self, tmp_path):
        from fluxlim.grid import Field, make_grid, save_snapshot

        save_snapshot(Field(make_grid(1, 5.0, 400), np.ones(400)), tmp_path / "snap.txt")
        bad = tmp_path / "bad.cfg"
        bad.write_text("ic = snapshot\nic_path = snap.txt\nt_end = 1e300\n")
        res = cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert res.returncode == 1
        assert res.stderr.startswith("config error:") and "cell-steps" in res.stderr

    def test_semi_implicit_on_2d_snapshot_is_config_error(self, tmp_path):
        # the grid comes from the file, so the default dim = 1 does not describe it
        from fluxlim.grid import Field, make_grid, save_snapshot

        save_snapshot(Field(make_grid(2, 5.0, 12), np.ones((12, 12))), tmp_path / "snap.txt")
        bad = tmp_path / "bad.cfg"
        bad.write_text("ic = snapshot\nic_path = snap.txt\nscheme = semi_implicit\ndt = 0.01\n")
        res = cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert res.returncode == 1
        assert res.stderr.startswith("config error:") and "1D only" in res.stderr

    def test_snapshot_with_unequal_spacings_is_config_error(self, tmp_path):
        (tmp_path / "snap.txt").write_text("2 4 4 0.5 0.25 -1.0 -1.0\n" + "1.0\n" * 16)
        bad = tmp_path / "bad.cfg"
        bad.write_text("ic = snapshot\nic_path = snap.txt\n")
        res = cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert res.returncode == 1
        assert res.stderr.startswith("config error: cannot build the initial condition: snap.txt: unequal spacings")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command,override,reason", [
        (("simulate",), "ic = gaussian\nic_width = 1e-200", "does not underflow"),
        (("simulate",), "ic = spike\nic_width = 1e-200", "does not underflow"),
        (("study", "smoothing"), "ic = spike\nspike_widths = 2 1e-200", "does not underflow"),
        # a subnormal square: the quotient overflows to inf, and no cell is inside the support
        (("study", "smoothing"), "ic = spike\nspike_widths = 2 1e-160", "widen it"),
    ], ids=["gaussian", "spike", "spike_widths", "subnormal_square"])
    def test_underflowing_width_is_config_error_without_warning(self, tmp_path, capsys, command, override,
                                                                 reason):
        # the width's square underflowed to 0 and the profile divided by it with a RuntimeWarning
        keys = {line.split("=")[0].strip() for line in override.splitlines()}
        kept = [line for line in BASE_CFG.splitlines() if line.split("=")[0].strip() not in keys]
        cfg = tmp_path / "w.cfg"
        cfg.write_text("\n".join(kept) + "\n" + override + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_module.main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and reason in err

    def test_missing_config_exit_1(self, tmp_path):
        res = cli("simulate", "--config", str(tmp_path / "nope.cfg"), cwd=tmp_path)
        assert res.returncode == 1

    def test_undecodable_config_exit_1(self, tmp_path, capsys):
        # a config that is not UTF-8 escaped as a UnicodeDecodeError
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(BASE_CFG.encode() + b"ic_mass = 1\xff\n")
        code = cli_module.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: cannot read config {bad}: 'utf-8' codec can't decode byte 0xff")
        assert not (tmp_path / "o").exists()

    def test_cfl_violation_exit_2(self, tmp_path):
        path = tmp_path / "cfl.cfg"
        path.write_text(BASE_CFG + "dt = 0.1\n")
        res = cli("simulate", "--config", str(path), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert res.returncode == 2
        assert "numerical failure" in res.stderr


    def test_picard_failure_names_step_and_time(self, tmp_path, capsys, monkeypatch):
        from fluxlim import stepping

        monkeypatch.setattr(stepping, "_PICARD_MAX_ITER", 1)
        path = tmp_path / "imp.cfg"
        path.write_text(BASE_CFG + "ic_width = 0.3\nscheme = semi_implicit\ndt = 0.002\n")
        code = cli_module.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("numerical failure: Picard iteration exceeded 1 sweeps")
        assert err.endswith(" (member 0, step 1, t = 0.002)\n")

    def test_import_loads_no_scipy(self, tmp_path):
        # nor does a semi-implicit simulate, run as python -m fluxlim.cli, which loads no study code
        # either; the commands that run a study or a check load it (TestStudies, TestSteadyCheck)
        cfg = tmp_path / "imp.cfg"
        cfg.write_text(BASE_CFG + "scheme = semi_implicit\ndt = 0.002\n")
        code = ("import runpy, sys\n"
                f"sys.argv = ['fluxlim', 'simulate', '--config', {str(cfg)!r}, '--out', 'o']\n"
                "try:\n"
                "    runpy.run_module('fluxlim.cli', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as done:\n"
                "    assert done.code == 0, done.code\n"
                "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'fluxlim.studies'))))")
        res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC})
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "o" / "diagnostics.csv").exists()

    def test_runtime_imports_are_stdlib_or_numpy(self):
        # numpy is the one runtime dependency, in the imports and in pyproject.toml
        tomllib = pytest.importorskip("tomllib")

        root = Path(__file__).resolve().parents[1]
        for path in sorted((root / "src" / "fluxlim").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level:
                    continue
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module] if isinstance(node, ast.ImportFrom) else [])
                for name in names:
                    top = name.partition(".")[0]
                    assert top in sys.stdlib_module_names or top in ("numpy", "fluxlim"), (path.name, name)
        project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
        assert [d.partition(">")[0].strip() for d in project["dependencies"]] == ["numpy"]

    def test_no_module_imports_a_private_name(self):
        # a rule lives behind its module: another module reads only its public names
        found = []
        for path in sorted((Path(SRC) / "fluxlim").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level:
                    found += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
        assert found == []

    def test_initial_record_computed_once(self, tmp_path, capsys, monkeypatch):
        # build_problem checks the t = 0 record and the run writes it: one record per row
        from fluxlim import config, stepping

        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("time", 0.0))
            return record(*args, **kwargs)

        monkeypatch.setattr(config, "record", counted)
        monkeypatch.setattr(stepping, "record", counted)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG.replace("diag_stride = 10", "diag_stride = 2"))
        assert cli_module.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "diagnostics.csv").read_text().splitlines()[1:]
        assert len(calls) == len(rows) > 2 and calls.count(0.0) == 1


CFL_UNDERFLOW = "the CFL step safety*h^2/(2d(1+eps)) underflows to 0 (h = 0.08333333333333333, eps = 1e+308)"


class TestConfigErrorMessages:
    # each rule is checked by its owner (Params, StepControls, the grid module, cfl_dt, a study)
    # in config's wording, which names the key; the exact texts are pinned, so that moving a
    # rule from one module to another cannot change what the command line prints
    @pytest.mark.parametrize("command,override,message", [
        ("simulate", "chi = -1", "invalid value for 'chi': must be finite and >= 0, got -1.0"),
        ("simulate", "chi = nan", "invalid value for 'chi': must be finite and >= 0, got nan"),
        ("simulate", "eps = -0.5", "invalid value for 'eps': must be finite and >= 0, got -0.5"),
        ("simulate", "eps = inf", "invalid value for 'eps': must be finite and >= 0, got inf"),
        ("simulate", "scheme = rk4", "invalid value for 'scheme': must be one of ('explicit', 'semi_implicit')"),
        ("simulate", "dt = 0", "invalid value for 'dt': must be finite and positive"),
        ("simulate", "dt = nan", "invalid value for 'dt': must be finite and positive"),
        ("simulate", "picard_tol = 0", "invalid value for 'picard_tol': must be finite and positive"),
        ("simulate", "picard_tol = nan", "invalid value for 'picard_tol': must be finite and positive"),
        ("simulate", "picard_tol = inf", "invalid value for 'picard_tol': must be finite and positive"),
        ("simulate", "eps = 1e308", CFL_UNDERFLOW),
        ("simulate", "dim = 3", "invalid value for 'dim': must be 1 or 2, got 3"),
        ("simulate", "box_halfwidth = -1",
         "invalid value for 'box_halfwidth': must be positive, with a finite cell width 2*box_halfwidth/cells"),
        ("study viscosity", "eps_list = 1e308 0", CFL_UNDERFLOW),
        ("study viscosity", "eps_list = 0.1 -0.1", "invalid value for 'eps_list': viscosities must be finite and >= 0"),
        ("study viscosity", "eps_list = 0.05 0.1",
         "invalid value for 'eps_list': must be strictly decreasing (no duplicates)"),
        ("study contraction", "eps = 0.1",
         "invalid value for 'eps': the contraction study runs inviscid, so eps must be 0"),
        ("study smoothing", "ic = spike\nspike_widths = 0.4 0.2\neps = 0.1",
         "invalid value for 'eps': the smoothing study runs inviscid, so eps must be 0"),
        ("study smoothing", "ic = spike\nspike_widths = 0.4",
         "invalid value for 'spike_widths': need at least two widths"),
        ("study smoothing", "ic = spike\nspike_widths = 0.2 0.4",
         "invalid value for 'spike_widths': must be strictly decreasing"),
        ("study smoothing", "ic = spike\nspike_widths = 0.4 -0.2",
         "invalid value for 'spike_widths': widths must be positive"),
        ("study smoothing", "ic = spike\nspike_widths = 0.4 nan",  # a NaN fails every comparison
         "invalid value for 'spike_widths': widths must be positive"),
    ])
    def test_exit_1_and_message(self, tmp_path, capsys, command, override, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(with_override(override))
        code = cli_module.main([*command.split(), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert (code, capsys.readouterr().err) == (1, f"config error: {message}\n")


class TestArgumentErrors:
    # exit 2 means numerical failure, so a bad command line is a configuration error
    @pytest.mark.parametrize("argv", [
        ["check", "monotonicity", "--samples", "0"],  # rejected by the probe itself
        ["check", "monotonicity", "--samples", "abc"],
        ["simulate", "--config", "CFG", "--seed", "3"],  # an unknown flag: --seed is gone
        ["study", "smoothing", "--config", "CFG", "--seed", "3"],
        ["steady", "check", "--out", "OUT"],  # --config is required
        ["study"],
        ["check", "monotonicity", "--samples", "10000000000000"],  # over the cap: no allocation
    ])
    def test_exit_1_with_config_error(self, tmp_path, cfg_file, capsys, argv):
        argv = [{"CFG": str(cfg_file), "OUT": str(tmp_path / "o")}.get(a, a) for a in argv]
        code = cli_module.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestUnwritableOutputs:
    # an --out that is a file, or lies below one, raised FileExistsError or NotADirectoryError
    @pytest.mark.parametrize("argv,out", [
        (["simulate", "--config", "CFG"], "file"),
        (["study", "viscosity", "--config", "CFG"], "file/sub"),
        (["check", "monotonicity", "--samples", "100"], "file"),
    ])
    def test_exit_1_with_config_error(self, tmp_path, cfg_file, argv, out):
        (tmp_path / "file").write_text("")
        argv = [str(cfg_file) if a == "CFG" else a for a in argv]
        res = cli(*argv, "--out", str(tmp_path / out), cwd=tmp_path)
        assert res.returncode == 1
        assert res.stderr.startswith("config error: cannot write outputs:") and "Traceback" not in res.stderr

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_simulate_not_run(self, tmp_path, cfg_file, monkeypatch, capsys, out):
        # simulate made its directory before it ran and printed the OS's text: [Errno 17] File
        # exists for "file", [Errno 20] Not a directory for "file/sub"
        def no_build(*args, **kwargs):
            raise AssertionError("simulate built its problem")

        monkeypatch.setattr(cli_module, "build_problem", no_build)
        (tmp_path / "file").write_text("")
        code = cli_module.main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert (code, err) == (1, f"config error: cannot write outputs: {tmp_path / 'file'} is not a directory\n")

    def test_numerical_failure_leaves_no_directory(self, tmp_path, capsys):
        # simulate made its output directory before it ran, so a failing run left it empty
        cfg = tmp_path / "cfl.cfg"
        cfg.write_text(BASE_CFG + "dt = 0.1\n")  # above the CFL ceiling
        code = cli_module.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o" / "sub")])
        assert code == 2 and capsys.readouterr().err.startswith("numerical failure:")
        assert not (tmp_path / "o").exists()

    def test_study_not_run(self, tmp_path, cfg_file, monkeypatch, capsys):
        # the study stepped all its members before the output directory failed
        from fluxlim import studies

        def no_study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(studies, "viscosity_study", no_study)
        (tmp_path / "file").write_text("")
        code = cli_module.main(["study", "viscosity", "--config", str(cfg_file),
                                "--out", str(tmp_path / "file" / "sub")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"config error: cannot write outputs: {tmp_path / 'file'} is not a directory\n"

    @pytest.mark.parametrize("command", [["simulate"], ["study", "viscosity"], ["study", "contraction"],
                                         ["study", "smoothing"], ["steady", "check"], ["check", "monotonicity"]])
    def test_out_with_nul_byte(self, tmp_path, capsys, monkeypatch, command):
        # the OS refuses such a path with a ValueError, which escaped as a traceback; Path.exists()
        # is False for it, so a study ran to its end before its output directory failed
        from fluxlim import studies

        def no_study(*args, **kwargs):
            raise AssertionError("the study ran")

        for name in ("viscosity_study", "contraction_study", "smoothing_study", "steady_study",
                     "monotonicity_test"):
            monkeypatch.setattr(studies, name, no_study)
        out, cfg = f"{tmp_path / 'o'}\0ut", tmp_path / "nul.cfg"
        cfg.write_text(BASE_CFG + f"out = {out}\n")
        args = ["--out", out] if command[0] == "check" else ["--config", str(cfg)]
        code = cli_module.main([*command, *args])
        assert code == 1
        assert capsys.readouterr().err == "config error: embedded null byte\n"
        assert list(tmp_path.iterdir()) == [cfg]


class TestStudies:
    def test_contraction_passes(self, tmp_path):
        c1 = tmp_path / "c1.cfg"
        c2 = tmp_path / "c2.cfg"
        c1.write_text(BASE_CFG + "ic_width = 1.2\nic_center = -0.7\n")
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

    @pytest.mark.parametrize("shape,cells", [((60,), "60"), ((40, 24), "40 24")])
    def test_viscosity_on_snapshot_reports_its_cells(self, tmp_path, shape, cells):
        # the report named the unread default cells = 512, not the snapshot's grid (the verdicts
        # of these short runs fail, exit 3)
        from fluxlim.grid import Field, Grid, save_snapshot

        rng, h = np.random.default_rng(4), 10.0 / shape[0]
        values = rng.random(shape) * (rng.random(shape) >= 0.3)  # 30% vacuum
        grid = Grid(dim=len(shape), shape=shape, h=h, origin=tuple(-0.5 * n * h for n in shape))
        save_snapshot(Field(grid, values), tmp_path / "snap.txt")
        cfg = tmp_path / "v.cfg"
        cfg.write_text(f"ic = snapshot\nic_path = {tmp_path / 'snap.txt'}\nchi = 2\nt_end = 0.05\n")
        code = cli_module.main(["study", "viscosity", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert f"\ninput cells = {cells}\n" in (tmp_path / "o" / "report.txt").read_text()

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
ic_p = 4
""")
        out = tmp_path / "out"
        res = cli("study", "smoothing", "--config", str(cfg), "--out", str(out), cwd=tmp_path)
        assert res.returncode in (0, 3), res.stderr  # verdicts may fail at this coarse scale
        text = (out / "report.txt").read_text()
        assert "VERDICT smoothing_envelope_stable" in text
        assert "VERDICT smoothing_heat_slope" in text

    def test_contraction_second_config_stepping_keys(self, tmp_path, capsys):
        # the study reads dt, t_end, diag_stride, chi and picard_tol from --config; a --config2
        # that sets others ran silently by the first's
        configs = Path(__file__).resolve().parents[1] / "configs"
        second = tmp_path / "b.cfg"
        second.write_text((configs / "contraction_b.cfg").read_text().replace("t_end = 0.05", "t_end = 0.01")
                          + "dt = 0.00001\n")
        code = cli_module.main(["study", "contraction", "--config", str(configs / "contraction_a.cfg"),
                                "--config2", str(second), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == ("config error: invalid value for 'dt': the contraction study runs "
                                           "both configs with one dt, but they set None and 1e-05\n")
        assert not (tmp_path / "o").exists()

    def test_contraction_second_config_chi(self, tmp_path, capsys):
        # a --config2 at chi = 3 ran, and was probed, at the first config's chi = 1, and passed
        configs = Path(__file__).resolve().parents[1] / "configs"
        second = tmp_path / "b.cfg"
        second.write_text((configs / "contraction_b.cfg").read_text().replace("chi = 1.0", "chi = 3.0"))
        code = cli_module.main(["study", "contraction", "--config", str(configs / "contraction_a.cfg"),
                                "--config2", str(second), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == ("config error: invalid value for 'chi': the contraction study runs "
                                           "both configs with one chi, but they set 1.0 and 3.0\n")
        assert not (tmp_path / "o").exists()

    def test_viscosity_eps_is_config_error(self, tmp_path, capsys):
        # the sweep takes eps_list; eps = 0.3 ran the same sweep and wrote the same study.csv
        cfg = tmp_path / "v.cfg"
        cfg.write_text(Path(__file__).resolve().parents[1].joinpath("configs", "viscosity.cfg").read_text()
                       .replace("eps = 0.0", "eps = 0.3"))
        code = cli_module.main(["study", "viscosity", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == ("config error: invalid value for 'eps': the viscosity study sweeps "
                                           "eps_list, so eps must be 0\n")
        assert not (tmp_path / "o").exists()

    def test_smoothing_ic_width_is_config_error(self, tmp_path, capsys):
        # the family takes spike_widths; ic_width changed nothing but the spike build_problem checks
        cfg = tmp_path / "s.cfg"
        cfg.write_text(Path(__file__).resolve().parents[1].joinpath("configs", "smoothing.cfg").read_text()
                       + "ic_width = 0.3\n")
        code = cli_module.main(["study", "smoothing", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: invalid value for 'ic_width':") and "'spike_widths'" in err

    @pytest.mark.parametrize("kind,override", [
        ("viscosity", "eps_list = 0.1"),
        ("viscosity", "eps_list = 0.1 0.2"),
        ("viscosity", "eps_list = 1e308 0"),  # the CFL step underflows to 0
        ("smoothing", "spike_widths = 0.2 0.4"),
    ])
    def test_bad_study_input_is_config_error(self, tmp_path, kind, override):
        bad = tmp_path / "bad.cfg"
        bad.write_text(BASE_CFG + override + "\n")
        res = cli("study", kind, "--config", str(bad), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert res.returncode == 1
        assert res.stderr.startswith("config error:") and "Traceback" not in res.stderr

    @pytest.mark.parametrize("kind,ic,extra", [
        ("contraction", "gaussian", ""),
        ("smoothing", "spike", "spike_widths = 2 1\n"),
    ], ids=["contraction", "smoothing"])
    def test_semi_implicit_study_runs(self, tmp_path, capsys, kind, ic, extra):
        # both studies rejected scheme = semi_implicit as a config error
        cfg = tmp_path / "si.cfg"
        cfg.write_text(BASE_CFG.replace("ic = gaussian", f"ic = {ic}") + "scheme = semi_implicit\ndt = 0.002\n"
                       + extra)
        code = cli_module.main(["study", kind, "--config", str(cfg), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0 and "input dt = 0.002" in out
        assert out.count("VERDICT") == out.count(" PASS (") >= 2

    def test_semi_implicit_smoothing_at_ten_cfl_steps(self, tmp_path, capsys):
        # diag_stride counted steps of 10x the CFL step, so the first record came after the
        # narrow spikes' sup ratio peaked and the envelope spread was 2.67
        from fluxlim.grid import make_grid
        from fluxlim.stepping import cfl_dt

        dt = 10.0 * cfl_dt(make_grid(1, 6.0, 512), 0.0)
        cfg = tmp_path / "s.cfg"
        cfg.write_text(Path(__file__).resolve().parents[1].joinpath("configs", "smoothing.cfg").read_text()
                       .replace("cells = 1024", "cells = 512") + f"scheme = semi_implicit\ndt = {dt!r}\n")
        code = cli_module.main(["study", "smoothing", "--config", str(cfg), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("VERDICT") == out.count(" PASS (") == 2

    @pytest.mark.parametrize("kind,ic,extra,members", [
        ("viscosity", "gaussian", "eps_list = 0.1 0.05 0.025 0\n", 4),
        ("smoothing", "spike", "spike_widths = 2 1\n", 4),  # 2 spikes and 2 heat controls
        ("contraction", "gaussian", "", 2),
    ], ids=["viscosity", "smoothing", "contraction"])
    def test_batch_over_cell_limit_is_config_error(self, tmp_path, monkeypatch, capsys, kind, ic, extra, members):
        # each run of 120 cells is within a limit of 200, but the batch stacks its members at once
        from fluxlim import config, studies

        def no_stepping(*args, **kwargs):
            raise AssertionError("the study started stepping")

        monkeypatch.setattr(config, "_MAX_CELLS", 200)
        monkeypatch.setattr(studies, "run", no_stepping)
        monkeypatch.setattr(studies, "march", no_stepping)
        cfg = tmp_path / "b.cfg"
        cfg.write_text(BASE_CFG.replace("ic = gaussian", f"ic = {ic}") + extra)
        code = cli_module.main(["study", kind, "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: invalid value for 'cells': {members} x 120 cells exceed the limit of 200")

    def test_long_viscosity_list_is_config_error(self, tmp_path, capsys):
        # the pair table grows with the square of len(eps_list): 101 entries are 5,050 pairs
        cfg = tmp_path / "v.cfg"
        eps_list = " ".join(repr(e / 1000) for e in range(100, -1, -1))
        cfg.write_text(BASE_CFG.replace("cells = 120", "cells = 16") + f"eps_list = {eps_list}\n")
        code = cli_module.main(["study", "viscosity", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: invalid value for 'eps_list'") and "got 101" in err
        assert not (tmp_path / "o").exists()

    def test_viscosity_sweep_over_budget_is_config_error(self, tmp_path, monkeypatch, capsys):
        # eps = 10000 sets the sweep's CFL step: 2 runs x 400 cells x 2.5e7 steps
        from fluxlim import cli as cli_module, studies

        def no_stepping(*args, **kwargs):
            raise AssertionError("the sweep started stepping")

        monkeypatch.setattr(studies, "run", no_stepping)
        cfg = tmp_path / "v.cfg"
        cfg.write_text(Path(__file__).resolve().parents[1].joinpath("configs", "viscosity.cfg").read_text()
                       .replace("eps_list = 0.1 0.05 0.025 0", "eps_list = 10000 0"))
        code = cli_module.main(["study", "viscosity", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "cell-steps" in err

    def test_smoothing_family_over_budget_is_config_error(self, tmp_path, monkeypatch, capsys):
        # the heat controls run to t = w^2: 1024 cells x 4e8 steps at the CFL step
        from fluxlim import cli as cli_module, studies

        def no_stepping(*args, **kwargs):
            raise AssertionError("the smoothing study started stepping")

        monkeypatch.setattr(studies, "run", no_stepping)
        cfg = tmp_path / "s.cfg"
        cfg.write_text(Path(__file__).resolve().parents[1].joinpath("configs", "smoothing.cfg").read_text()
                       .replace("spike_widths = 0.8 0.4 0.2", "spike_widths = 100 50"))
        code = cli_module.main(["study", "smoothing", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "cell-steps" in err

    def test_smoothing_with_zero_horizon_is_config_error(self, tmp_path, monkeypatch, capsys):
        # every envelope constant was 0 at t_end = 0, and their ratio divided by zero
        from fluxlim import studies

        def no_stepping(*args, **kwargs):
            raise AssertionError("the smoothing study started stepping")

        monkeypatch.setattr(studies, "run", no_stepping)
        cfg = tmp_path / "s.cfg"
        cfg.write_text(BASE_CFG.replace("cells = 120", "cells = 16").replace("t_end = 0.01", "t_end = 0")
                       .replace("ic = gaussian", "ic = spike") + "spike_widths = 2 1\n")
        code = cli_module.main(["study", "smoothing", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "t_end" in err

    @pytest.mark.parametrize("command", [["study", "contraction"], ["simulate"]])
    @pytest.mark.parametrize("dt", ["", "dt = 1.0\n"])  # 1.0 is far above the CFL ceiling
    def test_zero_horizon_takes_no_step(self, tmp_path, capsys, command, dt):
        # the contraction study took one step of 0.0 at t_end = 0 (steps = 1, two equal rows),
        # where simulate took none; the ceiling binds no member that takes no step
        cfg = tmp_path / "z.cfg"
        cfg.write_text(with_override("t_end = 0") + dt)
        code = cli_module.main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        if command[0] == "study":
            assert "input steps = 0\n" in out
            assert [line for line in out.splitlines() if line.startswith("row ")] == ["row 0.0,0.0,0.0,0.0"]
            assert (tmp_path / "o" / "study.csv").read_text() == "time,H,D1,D2\n0.0,0.0,0.0,0.0\n"
        else:
            assert len((tmp_path / "o" / "diagnostics.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("kind,extra,members", [
        ("viscosity", "eps_list = 0.1 0.05 0\n", 3),
        ("viscosity", "eps_list = 0.1 0.05 0\ndt = 0.0013\n", 3),
        ("smoothing", "ic = spike\nspike_widths = 2 1\n", 2),  # the limited family; the heat controls
        ("smoothing", "ic = spike\nspike_widths = 2 1\ndt = 0.0013\n", 2),  # run to t = w^2
    ])
    def test_input_dt_is_the_stepped_step(self, tmp_path, monkeypatch, capsys, kind, extra, members):
        # the reports printed the requested step, which time_mesh shrinks to a divisor of t_end
        from fluxlim import stepping

        meshes, march = [], stepping.march

        def recording(initials, params, dts, n_steps, *args, **kwargs):
            meshes.extend(zip(dts, n_steps))
            return march(initials, params, dts, n_steps, *args, **kwargs)

        monkeypatch.setattr(stepping, "march", recording)
        cfg = tmp_path / "d.cfg"
        cfg.write_text(with_override(extra.strip()))
        cli_module.main(["study", kind, "--config", str(cfg), "--out", str(tmp_path / "o")])
        inputs = dict(line[len("input "):].split(" = ") for line in capsys.readouterr().out.splitlines()
                      if line.startswith("input "))
        dt, t_end = float(inputs["dt"]), float(inputs["t_end"])
        n = round(t_end / dt)
        assert dt == t_end / n
        assert meshes.count((dt, n)) == members

    @pytest.mark.parametrize("kind", ["contraction", "viscosity"])
    def test_cfl_violation_exit_2(self, tmp_path, kind):
        path = tmp_path / "cfl.cfg"
        path.write_text(BASE_CFG + "dt = 0.1\n")
        res = cli("study", kind, "--config", str(path), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith("numerical failure:") and "CFL ceiling" in res.stderr
        assert not (tmp_path / "o").exists()

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

    def test_overflowing_bound_is_config_error(self, tmp_path, capsys):
        # chi (1 + (chi h)^2) overflowed a Python float power into an OverflowError
        cfg = tmp_path / "s.cfg"
        cfg.write_text(BASE_CFG.replace("cells = 120", "cells = 16").replace("chi = 1.0", "chi = 1e308")
                       .replace("ic = gaussian", "ic = single_peak"))
        code = cli_module.main(["steady", "check", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "chi" in err

    def test_semi_implicit_drift(self, tmp_path, capsys):
        # the check stepped explicitly whatever the scheme, so dt = 0.001 broke the CFL ceiling
        cfg = tmp_path / "s.cfg"
        cfg.write_text(Path(__file__).resolve().parents[1].joinpath("configs", "steady.cfg").read_text()
                       + "scheme = semi_implicit\ndt = 0.001\n")
        code = cli_module.main(["steady", "check", "--config", str(cfg), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert "row drift_rate,0.0\n" in out

    def test_rejects_non_steady_ic(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text(BASE_CFG)
        res = cli("steady", "check", "--config", str(cfg), cwd=tmp_path)
        assert res.returncode == 1


class TestConfigFuzz:
    # one to three known keys of a small working config get extreme, non-finite or
    # malformed values; every command must answer with an exit code, never an exception
    VALUES = ["0", "-1", "1e308", "-1e308", "5e-324", "nan", "inf", "-inf", "", "text", "0.5 2"]
    # the 2D bases (8x8 cells) take hostile values into the 2D step kernel
    BASES = [
        (("simulate",), ""),
        (("study", "viscosity"), "eps_list = 0.1 0.05 0.025 0"),
        (("study", "contraction"), ""),
        (("study", "smoothing"), "ic = spike\nspike_widths = 2 1"),
        (("steady", "check"), "ic = single_peak"),
        (("simulate",), "dim = 2\ncells = 8"),
        (("study", "contraction"), "dim = 2\ncells = 8"),
        (("simulate",), "scheme = semi_implicit\ndt = 0.002"),
        (("steady", "check"), "dim = 2\ncells = 8\nic = single_peak"),
        (("steady", "check"), "ic = multi_peak\nic_centers = -1 2\nic_amplitudes = 1 0.5"),
        (("simulate",), "dim = 2\ncells = 8\nic = factorized"),
    ]

    def test_exit_codes(self, tmp_path, capsys):
        keys = [f.name for f in fields(RunConfig)]
        rng = np.random.default_rng(2026)
        small = BASE_CFG.replace("cells = 120", "cells = 16")
        for case in range(30 * len(self.BASES)):
            command, base = self.BASES[case % len(self.BASES)]
            entries = dict(line.split(" = ") for line in (small + base).splitlines())
            for key in rng.choice(keys, size=rng.integers(1, 4), replace=False):
                entries[key] = self.VALUES[rng.integers(len(self.VALUES))]
            text = "".join(f"{key} = {value}\n" for key, value in entries.items())
            cfg = tmp_path / f"fuzz{case}.cfg"
            cfg.write_text(text)
            code = cli_module.main([*command, "--config", str(cfg), "--out", str(tmp_path / f"o{case}")])
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (command, text)
            assert code != 1 or err.startswith("config error:"), (command, text, err)
