import numpy as np
import pytest

from fluxlim.config import ConfigError, build_problem, parse_config
from fluxlim.grid import integrate, make_grid
from fluxlim.profiles import gaussian_bump, poly_spike


class TestGaussianBump:
    def test_mass_normalization_exact(self):
        g = make_grid(1, 5.0, 256)
        f = gaussian_bump(g, 1.0, mass=1.0)
        assert integrate(f) == pytest.approx(1.0, rel=1e-14)
        assert f.values.min() > 0.0

    def test_amplitude_mode(self):
        g = make_grid(1, 5.0, 257)
        f = gaussian_bump(g, 1.0, amplitude=2.0)
        assert f.values.max() == pytest.approx(2.0, rel=1e-12)

    def test_exclusive_scale_arguments(self):
        g = make_grid(1, 5.0, 64)
        with pytest.raises(ValueError, match="exactly one"):
            gaussian_bump(g, 1.0, mass=1.0, amplitude=1.0)
        with pytest.raises(ValueError, match="exactly one"):
            gaussian_bump(g, 1.0)

    def test_2d_center(self):
        g = make_grid(2, 3.0, 33)
        f = gaussian_bump(g, 0.5, center=(1.0, -1.0), mass=2.0)
        assert integrate(f) == pytest.approx(2.0, rel=1e-13)
        idx = np.unravel_index(np.argmax(f.values), f.values.shape)
        X, Y = g.centers()
        assert abs(X[idx] - 1.0) <= g.spacing[0]
        assert abs(Y[idx] + 1.0) <= g.spacing[1]


class TestPolySpike:
    def test_compact_support(self):
        g = make_grid(1, 5.0, 512)
        f = poly_spike(g, 0.5, p=4.0)
        x, = g.centers()
        assert np.all(f.values[np.abs(x) >= 0.5] == 0.0)
        assert np.any(f.values > 0.0)

    def test_lp_normalization_exact(self):
        g = make_grid(1, 5.0, 512)
        for w in (0.8, 0.4, 0.2):
            f = poly_spike(g, w, p=4.0, p_norm=1.0)
            lp = (np.sum(f.values**4) * g.cell_volume) ** 0.25
            assert lp == pytest.approx(1.0, rel=1e-13)

    def test_too_narrow_spike_rejected(self):
        g = make_grid(1, 5.0, 10)
        with pytest.raises(ValueError, match="support"):
            poly_spike(g, 1e-4, p=4.0)

    def test_narrower_is_taller(self):
        g = make_grid(1, 5.0, 2048)
        s1 = poly_spike(g, 0.8, p=4.0)
        s2 = poly_spike(g, 0.4, p=4.0)
        assert s2.values.max() > s1.values.max()


class TestUniformField:
    def test_value(self):
        cfg = parse_config("dim = 2\nbox_halfwidth = 1\ncells = 8\nic = uniform\nic_amplitude = 0.75\n")
        _, f, _ = build_problem(cfg)
        assert f.values.shape == (8, 8) and np.all(f.values == 0.75)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="ic_amplitude"):
            parse_config("ic = uniform\nic_amplitude = -0.1\n")
