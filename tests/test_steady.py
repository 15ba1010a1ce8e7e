"""The stationary peaks: their sampling (``fluxlim.profiles``), their config checks, and the
eikonal residual and drift that ``steady_study`` reports."""

import numpy as np
import pytest

from fluxlim.config import ConfigError, RunConfig, parse_config
from fluxlim.diagnostics import l1_distance
from fluxlim.grid import (Field, central_gradient, gradient_norm, integrate, load_snapshot, make_grid,
                          save_snapshot)
from fluxlim.limiter import Params
from fluxlim.profiles import factorized, multi_peak, single_peak
from fluxlim.stepping import StepControls, run
from fluxlim.studies import steady_study


def drift_rate(field, chi, t_probe):
    # L1 distance travelled per unit time by the inviscid explicit flow, as steady_study measures it
    traj, = run([field], [Params(chi=chi)], StepControls(), [t_probe], diag_stride=10**9)
    return l1_distance(traj.final, field) / t_probe


def study_drift(**kw):
    base = dict(dim=1, box_halfwidth=5.0, chi=1.0, ic="single_peak", ic_mass=1.0)
    rep = steady_study(RunConfig(**{**base, **kw}))
    return dict(rep.rows)["drift_rate"]


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="'ic'"):
            parse_config("ic = plateau\n")

    def test_nonpositive_chi(self):
        with pytest.raises(ConfigError, match="'chi'"):
            parse_config("chi = 0\nbox_halfwidth = 5\nic = single_peak\n")

    def test_nonpositive_amplitude(self):
        with pytest.raises(ConfigError, match="'ic_amplitudes'"):
            parse_config("ic = multi_peak\nic_centers = 0 1\nic_amplitudes = 1 0\n")

    def test_multi_peak_needs_1d(self):
        with pytest.raises(ConfigError, match="'dim'.*one-dimensional"):
            parse_config("dim = 2\ncells = 8\nic = multi_peak\nic_centers = 0 1\nic_amplitudes = 1 2\n")

    def test_center_dimension_mismatch(self):
        g = make_grid(2, 2.0, 8)
        with pytest.raises(ValueError, match="center"):
            factorized(g, 1.0, (0.0,))


class TestSample:
    def test_target_mass_exact(self):
        g = make_grid(1, 5.0, 777)
        f = single_peak(g, 1.0, 0.0, mass=2.5)
        assert integrate(f) == pytest.approx(2.5, rel=1e-13)

    def test_amplitude_approaches_half_sensitivity(self):
        # mass-one normalization drives the amplitude to chi/2 as the box
        # grows and the grid refines
        g = make_grid(1, 12.0, 4801)
        f = single_peak(g, 1.0, 0.0, mass=1.0)
        assert f.values.max() == pytest.approx(0.5, abs=5e-4)

    def test_multi_peak_singleton_matches_single_peak(self):
        g = make_grid(1, 5.0, 200)
        single = single_peak(g, 1.0, 0.0)
        multi = multi_peak(g, 1.0, (0.0,), (1.0,))
        assert np.array_equal(single.values, multi.values)

    def test_multi_peak_dominates_constituents(self):
        g = make_grid(1, 5.0, 300)
        amps, centers = (0.8, 1.0, 0.3), (-2.0, 0.5, 3.0)
        multi = multi_peak(g, 1.0, centers, amps)
        for amp, c in zip(amps, centers):
            single = single_peak(g, 1.0, c, amplitude=amp)
            assert np.all(multi.values >= single.values - 1e-15)

    def test_factorized_reduces_to_single_peak_in_1d(self):
        g = make_grid(1, 5.0, 128)
        f1 = single_peak(g, 1.0, 0.0)
        f2 = factorized(g, 1.0, 0.0)
        assert np.allclose(f1.values, f2.values, rtol=1e-15)

    def test_factorized_axis_rate(self):
        # chi = sqrt(2) in 2D gives per-axis decay rate exactly 1
        chi = np.sqrt(2.0)
        g = make_grid(2, 3.0, 33)
        f = factorized(g, chi, (0.0, 0.0))
        h = g.h
        mid = 16
        col = f.values[mid:, mid]
        assert np.allclose(col[1:] / col[:-1], np.exp(-h), rtol=1e-12)

    def test_center_snapping_default(self):
        # with an even cell count the requested center is not a node; the
        # sampled peak still tops out at the full amplitude
        g = make_grid(1, 5.0, 200)
        f = single_peak(g, 1.0, 0.0, amplitude=2.0)
        assert f.values.max() == 2.0

    def test_snapshot_roundtrip(self, tmp_path):
        g = make_grid(1, 5.0, 64)
        f = single_peak(g, 1.0, 0.0, mass=1.0)
        save_snapshot(f, tmp_path / "peak.txt")
        back = load_snapshot(tmp_path / "peak.txt")
        assert np.array_equal(back.values, f.values)


def residual(field, chi):
    # the cellwise residual | |grad rho| - chi rho | that steady_study reports
    return np.abs(gradient_norm(field) - chi * field.values)


class TestEikonalResidual:
    def test_constant_field_residual(self):
        g = make_grid(1, 5.0, 100)
        res = residual(Field(g, np.full(100, 3.0)), chi=2.0)
        assert np.allclose(res, 6.0, rtol=1e-12)

    def test_single_peak_smooth_region_second_order(self):
        chi = 1.0
        worst = {}
        for n in (500, 1000):
            g = make_grid(1, 5.0, n)
            f = single_peak(g, chi, 0.0)
            res = residual(f, chi)
            x, = g.centers()
            away = np.abs(x) > 2 * g.h
            worst[n] = np.max(res[away] / (chi**2 * f.values[away] * g.h ** 2))
        assert worst[500] <= 2.0
        assert worst[1000] <= 2.0  # the h^2-normalized ratio stays bounded under refinement
        rep = steady_study(RunConfig(box_halfwidth=5.0, cells=500, chi=chi, ic="single_peak",
                                     ic_amplitude=1.0, t_end=0.01))
        g = make_grid(1, 5.0, 500)
        assert dict(rep.rows)["residual_max"] == residual(single_peak(g, chi, 0.0), chi).max()

    def test_factorized_2d_residual_small_off_axes(self):
        chi = np.sqrt(2.0)
        g = make_grid(2, 3.0, 49)
        f = factorized(g, chi, (0.0, 0.0))
        res = residual(f, chi)
        X, Y = g.centers()
        h = g.h
        smooth = (np.abs(X) > 2 * h) & (np.abs(Y) > 2 * h)
        rel = res[smooth] / (chi**2 * f.values[smooth])
        assert rel.max() <= 2.0 * h**2

    def test_log_gradient_subcharacterization(self):
        # every sampled stationary profile satisfies |grad rho| <= chi rho
        # up to the centered-stencil overshoot
        chi = 1.0
        g = make_grid(1, 5.0, 400)
        h = g.h
        profiles = [single_peak(g, chi, 0.0), multi_peak(g, chi, (-2.0, 0.5), (0.8, 1.0)),
                    factorized(g, chi, 0.0)]
        for f in profiles:
            gn = np.abs(central_gradient(f.values, 0, h))
            assert np.all(gn <= chi * f.values * (1.0 + (chi * h) ** 2))


class TestStationarityDrift:
    def test_requires_inviscid(self):
        with pytest.raises(ValueError, match="eps"):
            study_drift(cells=64, eps=0.1, t_end=0.01)

    def test_subcritical_profile_zero_exact(self):
        g = make_grid(1, 5.0, 300)
        x, = g.centers()
        f = Field.density(g, np.exp(-0.5 * np.abs(x)))
        assert drift_rate(f, 1.0, 0.01) == 0.0

    def test_vacuum_zero(self):
        g = make_grid(1, 5.0, 64)
        f = Field.density(g, np.zeros(64))
        assert drift_rate(f, 1.0, 0.01) == 0.0

    def test_single_peak_exact_fixed_point(self):
        # discrete face quotients of the exponential peak stay strictly below
        # the threshold (tanh u < u), so the sampled profile never moves
        assert study_drift(cells=500, t_end=0.02) == 0.0

    def test_factorized_2d_refinement(self):
        # in 2D the tangential reconstruction overshoots by O(h^2), so the
        # profile drifts at second order; the rate must drop ~4x per halving
        chi = np.sqrt(2.0)
        drifts = {n: study_drift(dim=2, box_halfwidth=4.0, cells=n, chi=chi, ic="factorized", t_end=0.01)
                  for n in (48, 96)}
        assert drifts[96] > 0.0
        assert 2.5 <= drifts[48] / drifts[96] <= 6.0
        h = 8.0 / 48
        assert drifts[48] <= chi * 1.0 * h  # well under a first-order allowance
