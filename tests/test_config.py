import ast
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fluxlim import cli
from fluxlim.config import ConfigError, RunConfig, build_controls, build_problem, parse_config
from fluxlim.diagnostics import record
from fluxlim.grid import integrate, save_snapshot
from fluxlim.limiter import Params
from fluxlim.stepping import StepControls


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config("chi = 1.0\n")
        assert cfg.picard_tol == 1e-10
        assert cfg.diag_stride == 10
        assert cfg.scheme == "explicit"
        assert cfg.dim == 1

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nchi = 2.0  # trailing\n\n")
        assert cfg.chi == 2.0

    def test_negative_chi_names_key(self):
        with pytest.raises(ConfigError, match="chi"):
            parse_config("chi = -1\n")

    def test_duplicate_key_is_parse_error(self):
        with pytest.raises(ConfigError, match=r"line 2: duplicate key 'chi'"):
            parse_config("chi = 1\nchi = 2\n")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match=r"line 3: unknown key 'chli'"):
            parse_config("chi = 1\n\nchli = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    def test_unparsable_value(self):
        with pytest.raises(ConfigError, match=r"line 1: cannot parse value for 'cells'"):
            parse_config("cells = many\n")

    @pytest.mark.parametrize("line,key", [
        ("eps = -0.5", "eps"),
        ("scheme = rk4", "scheme"),
        ("diag_stride = 0", "diag_stride"),
        ("ic = wave", "ic"),
        ("t_end = -1", "t_end"),
        ("dim = 3", "dim"),
        ("ic = spike\nic_p = 0.5", "ic_p"),
        ("cells = 100000000000", "cells"),
        ("dim = 2\ncells = 5000", "cells"),
        ("t_end = 1e300", "t_end"),
        ("cells = 4000\nt_end = 1e4", "t_end"),
        ("ic = multi_peak\nic_centers = 0 1\nic_amplitudes = 1 -0.5", "ic_amplitudes"),
        ("ic = multi_peak\nic_centers = 0 1\nic_amplitudes = 1 nan", "ic_amplitudes"),
        ("ic = multi_peak\nic_centers = 0\nic_amplitudes = inf", "ic_amplitudes"),
        ("dim = 2\ncells = 8\nic = multi_peak\nic_centers = 0\nic_amplitudes = 1", "dim"),
        ("chi = 0\nbox_halfwidth = 5\nic = single_peak", "chi"),
        ("chi = 0\nbox_halfwidth = 5\nic = factorized", "chi"),
        ("ic = multi_peak\nic_centers = 0\nic_amplitudes = 1\nic_amplitude = 7", "ic_amplitude"),
        # an ic_* key the chosen kind does not read
        ("ic = uniform\nic_mass = 3.0", "'ic_mass': ic = uniform does not read it"),
        ("ic = single_peak\nic_width = 7\nic_amplitudes = 3 4", "'ic_width': ic = single_peak"),
        ("ic_amplitudes = 3 4", "'ic_amplitudes': ic = gaussian"),
        ("ic = spike\nic_mass = 2", "'ic_mass': ic = spike"),
        ("ic = snapshot\nic_path = s.txt\nic_center = 1", "'ic_center': ic = snapshot"),
        # nor a grid key beside a snapshot, which brings its own grid
        ("ic = snapshot\nic_path = s.txt\ndim = 2", "'dim': ic = snapshot does not read it"),
        ("cells = 64\nic = snapshot\nic_path = s.txt", "'cells': ic = snapshot does not read it"),
        ("ic = snapshot\nic_path = s.txt\nbox_halfwidth = 100", "'box_halfwidth': ic = snapshot"),
        # the diagnostics exponents are constants: a config that sets them names an unknown key
        ("grad_p_set = inf", "grad_p_set"),
        ("p_set = 0.5", "p_set"),
        ("p_set = 2 inf", "p_set"),
    ])
    def test_validation_names_key(self, line, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(line + "\n")

    @pytest.mark.parametrize("text", [
        *(p.read_text() for p in sorted(Path(__file__).resolve().parents[1].glob("configs/*.cfg"))),
        "dim = 2\nbox_halfwidth = 5\ncells = 512\nt_end = 0.008\n",  # 512^2 bump, 7e7 cell-steps
        "dim = 2\nbox_halfwidth = 5\ncells = 4096\nt_end = 1e-5\n",  # at the cell limit
    ])
    def test_shipped_work_sizes_pass_the_guard(self, text):
        parse_config(text)

    def test_float_lists(self):
        cfg = parse_config("eps_list = 0.2 0.1 0.05\nspike_widths = 2, 1, 0.5\n")
        assert cfg.eps_list == (0.2, 0.1, 0.05)
        assert cfg.spike_widths == (2.0, 1.0, 0.5)

    def test_multi_peak_requires_centers(self):
        with pytest.raises(ConfigError, match="ic_centers"):
            parse_config("ic = multi_peak\n")


ROOT = Path(__file__).resolve().parents[1]
# a valid non-default value per annotated type; the fields whose checks reject it get their own
SAMPLE_BY_TYPE = {"int": "3", "float": "1.5", "str": "results", "tuple[float, ...]": "3 5"}
SAMPLE_BY_KEY = {"dim": "2", "scheme": "semi_implicit", "ic": "spike"}
# the ic kind, and its required keys, under which a config may set each ic_* key the Gaussian does not read
IC_BY_KEY = {"ic_centers": "ic = multi_peak\nic_amplitudes = 1 2\n",
             "ic_amplitudes": "ic = multi_peak\nic_centers = 0 1\n",
             "ic_p": "ic = spike\n", "ic_pnorm": "ic = spike\n", "ic_path": "ic = snapshot\n"}


class TestKeyTable:
    @pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
    def test_every_field_parses_to_its_annotated_type(self, field):
        kind = field.type.removesuffix(" | None")
        raw = SAMPLE_BY_KEY.get(field.name, SAMPLE_BY_TYPE[kind])
        value = getattr(parse_config(f"{IC_BY_KEY.get(field.name, '')}{field.name} = {raw}\n"), field.name)
        if kind == "tuple[float, ...]":
            assert type(value) is tuple and all(type(x) is float for x in value)
            assert value == tuple(float(x) for x in raw.split())
        else:
            assert type(value).__name__ == kind
            assert value == {"int": int, "float": float, "str": str}[kind](raw)
        assert value != getattr(RunConfig(), field.name)

    def test_seed_key_is_unknown(self, tmp_path, capsys):
        # as are the stepping constants cfl_safety and picard_max_iter, and study_p (it is ic_p)
        path = tmp_path / "run.cfg"
        for key, value in [("seed", "0"), ("cfl_safety", "0.45"), ("picard_max_iter", "200"), ("study_p", "4")]:
            path.write_text(f"cells = 40\nt_end = 0.001\n{key} = {value}\n")
            code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
            assert code == 1
            assert capsys.readouterr().err == f"config error: line 3: unknown key '{key}'\n"

    @pytest.mark.parametrize("key,value", [("p_set", "2 4"), ("grad_p_set", "2"), ("sigma_rel", "1e-12")])
    def test_fixed_diagnostics_and_floor_keys_are_unknown(self, tmp_path, capsys, key, value):
        # the diagnostics exponents and the relative-entropy floor are constants, not keys
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\ncells = 40\n")
        code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"config error: line 1: unknown key '{key}'\n"
        assert not (tmp_path / "o").exists()

    def test_readme_key_table_lists_the_fields(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        keys = [line.split("`")[1] for line in table.splitlines() if line.startswith("| `")]
        assert keys == [f.name for f in fields(RunConfig)]


def test_setup_probe_reads_the_shipped_configs(tmp_path):
    # perfbench's set-up probe reaches parse_config and build_problem through the package namespace
    configs = sorted(str(p) for p in (ROOT / "configs").glob("*.cfg"))
    res = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), *configs],
                         cwd=tmp_path, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert res.returncode == 0, res.stderr
    times = json.loads(res.stdout)
    assert set(times) == {"import_s", "parse_config_s", "build_problem_s"}
    assert all(t > 0.0 for t in times.values())


def test_every_public_name_is_used_in_the_package():
    # a public name that only tests call is a parallel implementation: its callers belong on
    # the kernel underneath. Every name in a module's __all__, and every public method and
    # property of such a class, must be referenced somewhere in the package outside its own
    # definition (an import counts).
    exported, methods, used = {}, [], set()

    def collect(node, own=()):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = (*own, node.name)
        names = [getattr(node, "id", None), getattr(node, "attr", None)]
        names += [a.name for a in getattr(node, "names", ()) if isinstance(a, ast.alias)]
        used.update(n for n in names if n is not None and n not in own)
        for child in ast.iter_child_nodes(node):
            collect(child, own)

    for path in sorted((ROOT / "src" / "fluxlim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
                exported[path.stem] = ast.literal_eval(stmt.value)
            if isinstance(stmt, ast.ClassDef):
                methods += [(path.stem, stmt.name, f.name) for f in stmt.body
                            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not f.name.startswith("_")]
        collect(tree)
    assert exported and methods
    unused = [f"{m}.{n}" for m, names in exported.items() for n in names if n not in used]
    unused += [f"{m}.{c}.{n}" for m, c, n in methods if c in exported.get(m, ()) and n not in used]
    assert unused == []


class TestBuildProblem:
    def test_gaussian_default_mass(self):
        cfg = parse_config("dim = 1\nbox_halfwidth = 5\ncells = 100\nic = gaussian\n")
        grid, field, _ = build_problem(cfg)
        assert grid.shape == (100,)
        assert integrate(field) == pytest.approx(1.0, rel=1e-13)

    def test_box_default_scales_with_chi(self):
        cfg = parse_config("chi = 2.0\ncells = 50\n")
        grid, _, _ = build_problem(cfg)
        assert grid.origin[0] == pytest.approx(-2.5)

    def test_uniform(self):
        cfg = parse_config("ic = uniform\nic_amplitude = 0.5\ncells = 40\n")
        _, field, _ = build_problem(cfg)
        assert np.all(field.values == 0.5)

    def test_spike_norm(self):
        cfg = parse_config("ic = spike\nic_width = 0.5\nic_p = 4\nic_pnorm = 2\ncells = 400\n")
        grid, field, _ = build_problem(cfg)
        lp = (np.sum(field.values**4) * grid.cell_volume) ** 0.25
        assert lp == pytest.approx(2.0, rel=1e-12)

    def test_single_peak_mass(self):
        cfg = parse_config("ic = single_peak\nic_mass = 2.0\ncells = 128\n")
        _, field, _ = build_problem(cfg)
        assert integrate(field) == pytest.approx(2.0, rel=1e-13)

    def test_multi_peak(self):
        cfg = parse_config(
            "ic = multi_peak\nic_amplitudes = 1.0 0.5\nic_centers = -1.0 2.0\ncells = 128\n"
        )
        _, field, _ = build_problem(cfg)
        assert field.values.max() == pytest.approx(1.0, rel=1e-12)

    def test_center_broadcast_2d(self):
        cfg = parse_config("dim = 2\ncells = 16\nic = gaussian\nic_center = 0.5\n")
        grid, field, _ = build_problem(cfg)
        assert grid.dim == 2
        assert integrate(field) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_mass_and_amplitude_conflict(self):
        cfg = parse_config("ic = gaussian\nic_mass = 1.0\nic_amplitude = 1.0\ncells = 32\n")
        with pytest.raises(ConfigError, match="not both"):
            build_problem(cfg)

    @pytest.mark.parametrize("ic", ["single_peak", "factorized"])
    def test_peak_mass_and_amplitude_conflict(self, ic):
        # the mass rescaling would undo the amplitude to the last ulp
        cfg = parse_config(f"ic = {ic}\nic_mass = 3.0\nic_amplitude = 2.5\ncells = 32\n")
        with pytest.raises(ConfigError, match="'ic_amplitude'.*not both"):
            build_problem(cfg)

    @pytest.mark.parametrize("ic", ["single_peak", "factorized"])
    def test_peak_amplitude_without_mass(self, ic):
        cfg = parse_config(f"dim = 2\nbox_halfwidth = 5\nic = {ic}\nic_amplitude = 2.5\ncells = 32\n")
        _, field, _ = build_problem(cfg)
        assert field.values.max() == 2.5  # the kink is snapped onto a cell center

    def test_snapshot_roundtrip(self, tmp_path):
        cfg0 = parse_config("cells = 64\nic = gaussian\n")
        grid, field, _ = build_problem(cfg0)
        path = tmp_path / "ic.txt"
        save_snapshot(field, path)
        cfg = parse_config(f"ic = snapshot\nic_path = {path}\n")
        grid2, field2, _ = build_problem(cfg)
        assert grid2 == grid
        assert np.array_equal(field2.values, field.values)

    def test_returns_the_checked_initial_record(self):
        _, field, first = build_problem(parse_config("cells = 64\n"))
        assert first == record(field) and first.time == 0.0

    def test_snapshot_requires_path(self):
        with pytest.raises(ConfigError, match="ic_path"):
            parse_config("ic = snapshot\n")


class TestBuilders:
    def test_params_and_controls(self):
        cfg = parse_config("chi = 1.5\neps = 0.25\nscheme = semi_implicit\ndt = 0.001\npicard_tol = 1e-8\n")
        p = Params(cfg.chi, cfg.eps)
        assert p.chi == 1.5 and p.eps == 0.25
        c = build_controls(cfg)
        assert c == StepControls(scheme="semi_implicit", dt=0.001, picard_tol=1e-8)
        assert [f.name for f in fields(StepControls)] == ["scheme", "dt", "picard_tol"]
