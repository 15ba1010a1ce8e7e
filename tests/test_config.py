import numpy as np
import pytest

from fluxlim.config import ConfigError, build_controls, build_params, build_problem, parse_config
from fluxlim.grid import integrate, save_snapshot


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config("chi = 1.0\n")
        assert cfg.cfl_safety == 0.45
        assert cfg.diag_stride == 10
        assert cfg.scheme == "explicit"
        assert cfg.dim == 1
        assert cfg.p_set == (2.0, 4.0)

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
        ("cfl_safety = 2", "cfl_safety"),
        ("diag_stride = 0", "diag_stride"),
        ("ic = wave", "ic"),
        ("t_end = -1", "t_end"),
        ("dim = 3", "dim"),
        ("p_set = 0.5", "p_set"),
        ("p_set = 2 inf", "p_set"),
        ("grad_p_set = inf", "grad_p_set"),
    ])
    def test_validation_names_key(self, line, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(line + "\n")

    def test_float_lists(self):
        cfg = parse_config("eps_list = 0.2 0.1 0.05\np_set = 2, 3, 4\n")
        assert cfg.eps_list == (0.2, 0.1, 0.05)
        assert cfg.p_set == (2.0, 3.0, 4.0)

    def test_multi_peak_requires_centers(self):
        with pytest.raises(ConfigError, match="ic_centers"):
            parse_config("ic = multi_peak\n")


class TestBuildProblem:
    def test_gaussian_default_mass(self):
        cfg = parse_config("dim = 1\nbox_halfwidth = 5\ncells = 100\nic = gaussian\n")
        grid, field = build_problem(cfg)
        assert grid.shape == (100,)
        assert integrate(field) == pytest.approx(1.0, rel=1e-13)

    def test_box_default_scales_with_chi(self):
        cfg = parse_config("chi = 2.0\ncells = 50\n")
        grid, _ = build_problem(cfg)
        assert grid.origin[0] == pytest.approx(-2.5)

    def test_uniform(self):
        cfg = parse_config("ic = uniform\nic_amplitude = 0.5\ncells = 40\n")
        _, field = build_problem(cfg)
        assert np.all(field.values == 0.5)

    def test_spike_norm(self):
        cfg = parse_config("ic = spike\nic_width = 0.5\nic_p = 4\nic_pnorm = 2\ncells = 400\n")
        grid, field = build_problem(cfg)
        lp = (np.sum(field.values**4) * grid.cell_volume) ** 0.25
        assert lp == pytest.approx(2.0, rel=1e-12)

    def test_single_peak_mass(self):
        cfg = parse_config("ic = single_peak\nic_mass = 2.0\ncells = 128\n")
        _, field = build_problem(cfg)
        assert integrate(field) == pytest.approx(2.0, rel=1e-13)

    def test_multi_peak(self):
        cfg = parse_config(
            "ic = multi_peak\nic_amplitudes = 1.0 0.5\nic_centers = -1.0 2.0\ncells = 128\n"
        )
        _, field = build_problem(cfg)
        assert field.values.max() == pytest.approx(1.0, rel=1e-12)

    def test_center_broadcast_2d(self):
        cfg = parse_config("dim = 2\ncells = 16\nic = gaussian\nic_center = 0.5\n")
        grid, field = build_problem(cfg)
        assert grid.dim == 2
        assert integrate(field) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_mass_and_amplitude_conflict(self):
        cfg = parse_config("ic = gaussian\nic_mass = 1.0\nic_amplitude = 1.0\ncells = 32\n")
        with pytest.raises(ConfigError, match="not both"):
            build_problem(cfg)

    def test_snapshot_roundtrip(self, tmp_path):
        cfg0 = parse_config("cells = 64\nic = gaussian\n")
        grid, field = build_problem(cfg0)
        path = tmp_path / "ic.txt"
        save_snapshot(field, path)
        cfg = parse_config(f"ic = snapshot\nic_path = {path}\n")
        grid2, field2 = build_problem(cfg)
        assert grid2 == grid
        assert np.array_equal(field2.values, field.values)

    def test_snapshot_requires_path(self):
        with pytest.raises(ConfigError, match="ic_path"):
            parse_config("ic = snapshot\n")


class TestBuilders:
    def test_params_and_controls(self):
        cfg = parse_config("chi = 1.5\neps = 0.25\ndt = 0.001\npicard_tol = 1e-8\n")
        p = build_params(cfg)
        assert p.chi == 1.5 and p.eps == 0.25
        c = build_controls(cfg)
        assert c.dt == 0.001 and c.picard_tol == 1e-8
