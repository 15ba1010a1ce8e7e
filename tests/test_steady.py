import numpy as np
import pytest

from fluxlim.grid import Field, central_gradient, integrate, load_snapshot, make_grid, save_snapshot
from fluxlim.limiter import Params
from fluxlim.steady import SteadyProfileSpec, eikonal_residual, sample, stationarity_drift
from fluxlim.stepping import StepControls


def peak_spec(chi=1.0, center=0.0, mass=1.0, amp=1.0, **kw):
    return SteadyProfileSpec("single_peak", chi, ((amp, (center,)),), mass, **kw)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SteadyProfileSpec("plateau", 1.0, ((1.0, (0.0,)),))

    def test_nonpositive_chi(self):
        with pytest.raises(ValueError, match="chi"):
            SteadyProfileSpec("single_peak", 0.0, ((1.0, (0.0,)),))

    def test_nonpositive_amplitude(self):
        with pytest.raises(ValueError, match="amplitude"):
            SteadyProfileSpec("single_peak", 1.0, ((0.0, (0.0,)),))

    def test_multi_peak_needs_1d(self):
        g = make_grid(2, 2.0, 8)
        spec = SteadyProfileSpec("multi_peak", 1.0, ((1.0, (0.0,)), (2.0, (1.0,))))
        with pytest.raises(ValueError, match="one-dimensional"):
            sample(spec, g)

    def test_center_dimension_mismatch(self):
        g = make_grid(2, 2.0, 8)
        with pytest.raises(ValueError, match="center"):
            sample(SteadyProfileSpec("factorized", 1.0, ((1.0, (0.0,)),)), g)


class TestSample:
    def test_target_mass_exact(self):
        g = make_grid(1, 5.0, 777)
        f = sample(peak_spec(mass=2.5), g)
        assert integrate(f) == pytest.approx(2.5, rel=1e-13)

    def test_amplitude_approaches_half_sensitivity(self):
        # mass-one normalization drives the amplitude to chi/2 as the box
        # grows and the grid refines
        g = make_grid(1, 12.0, 4801)
        f = sample(peak_spec(chi=1.0, mass=1.0), g)
        assert f.values.max() == pytest.approx(0.5, abs=5e-4)

    def test_multi_peak_singleton_matches_single_peak(self):
        g = make_grid(1, 5.0, 200)
        single = sample(peak_spec(mass=None), g)
        multi = sample(SteadyProfileSpec("multi_peak", 1.0, ((1.0, (0.0,)),)), g)
        assert np.array_equal(single.values, multi.values)

    def test_multi_peak_dominates_constituents(self):
        g = make_grid(1, 5.0, 300)
        peaks = ((0.8, (-2.0,)), (1.0, (0.5,)), (0.3, (3.0,)))
        multi = sample(SteadyProfileSpec("multi_peak", 1.0, peaks), g)
        for amp, c in peaks:
            single = sample(SteadyProfileSpec("single_peak", 1.0, ((amp, c),)), g)
            assert np.all(multi.values >= single.values - 1e-15)

    def test_factorized_reduces_to_single_peak_in_1d(self):
        g = make_grid(1, 5.0, 128)
        f1 = sample(peak_spec(mass=None), g)
        f2 = sample(SteadyProfileSpec("factorized", 1.0, ((1.0, (0.0,)),)), g)
        assert np.allclose(f1.values, f2.values, rtol=1e-15)

    def test_factorized_axis_rate(self):
        # chi = sqrt(2) in 2D gives per-axis decay rate exactly 1
        chi = np.sqrt(2.0)
        g = make_grid(2, 3.0, 33)
        f = sample(SteadyProfileSpec("factorized", chi, ((1.0, (0.0, 0.0)),)), g)
        h = g.spacing[0]
        mid = 16
        col = f.values[mid:, mid]
        assert np.allclose(col[1:] / col[:-1], np.exp(-h), rtol=1e-12)

    def test_center_snapping_default(self):
        # with an even cell count the requested center is not a node; the
        # sampled peak still tops out at the full amplitude
        g = make_grid(1, 5.0, 200)
        f = sample(peak_spec(mass=None, amp=2.0), g)
        assert f.values.max() == 2.0

    def test_snapshot_roundtrip(self, tmp_path):
        g = make_grid(1, 5.0, 64)
        f = sample(peak_spec(), g)
        save_snapshot(f, tmp_path / "peak.txt")
        back = load_snapshot(tmp_path / "peak.txt")
        assert np.array_equal(back.values, f.values)


class TestEikonalResidual:
    def test_constant_field_residual(self):
        g = make_grid(1, 5.0, 100)
        res = eikonal_residual(Field(g, np.full(100, 3.0)), chi=2.0)
        assert np.allclose(res.values, 6.0, rtol=1e-12)

    def test_single_peak_smooth_region_second_order(self):
        chi = 1.0
        worst = {}
        for n in (500, 1000):
            g = make_grid(1, 5.0, n)
            f = sample(peak_spec(chi=chi, mass=None), g)
            res = eikonal_residual(f, chi)
            x, = g.centers()
            away = np.abs(x) > 2 * g.spacing[0]
            worst[n] = np.max(res.values[away] / (chi**2 * f.values[away] * g.spacing[0] ** 2))
        assert worst[500] <= 2.0
        assert worst[1000] <= 2.0  # the h^2-normalized ratio stays bounded under refinement

    def test_factorized_2d_residual_small_off_axes(self):
        chi = np.sqrt(2.0)
        g = make_grid(2, 3.0, 49)
        f = sample(SteadyProfileSpec("factorized", chi, ((1.0, (0.0, 0.0)),)), g)
        res = eikonal_residual(f, chi)
        X, Y = g.centers()
        h = g.spacing[0]
        smooth = (np.abs(X) > 2 * h) & (np.abs(Y) > 2 * h)
        rel = res.values[smooth] / (chi**2 * f.values[smooth])
        assert rel.max() <= 2.0 * h**2

    def test_log_gradient_subcharacterization(self):
        # every sampled stationary profile satisfies |grad rho| <= chi rho
        # up to the centered-stencil overshoot
        g = make_grid(1, 5.0, 400)
        h = g.spacing[0]
        specs = [
            peak_spec(mass=None),
            SteadyProfileSpec("multi_peak", 1.0, ((0.8, (-2.0,)), (1.0, (0.5,)))),
            SteadyProfileSpec("factorized", 1.0, ((1.0, (0.0,)),)),
        ]
        for spec in specs:
            f = sample(spec, g)
            gn = np.abs(central_gradient(f.values, 0, h))
            assert np.all(gn <= spec.chi * f.values * (1.0 + (spec.chi * h) ** 2))


class TestStationarityDrift:
    def test_requires_inviscid(self):
        g = make_grid(1, 5.0, 64)
        f = sample(peak_spec(), g)
        with pytest.raises(ValueError, match="eps"):
            stationarity_drift(f, Params(chi=1.0, eps=0.1), StepControls(), 0.01)

    def test_subcritical_profile_zero_exact(self):
        g = make_grid(1, 5.0, 300)
        x, = g.centers()
        f = Field.density(g, np.exp(-0.5 * np.abs(x)))
        assert stationarity_drift(f, Params(chi=1.0), StepControls(), 0.01) == 0.0

    def test_vacuum_zero(self):
        g = make_grid(1, 5.0, 64)
        f = Field.density(g, np.zeros(64))
        assert stationarity_drift(f, Params(chi=1.0), StepControls(), 0.01) == 0.0

    def test_single_peak_exact_fixed_point(self):
        # discrete face quotients of the exponential peak stay strictly below
        # the threshold (tanh u < u), so the sampled profile never moves
        g = make_grid(1, 5.0, 500)
        f = sample(peak_spec(), g)
        assert stationarity_drift(f, Params(chi=1.0), StepControls(), 0.02) == 0.0

    def test_factorized_2d_refinement(self):
        # in 2D the tangential reconstruction overshoots by O(h^2), so the
        # profile drifts at second order; the rate must drop ~4x per halving
        chi = np.sqrt(2.0)
        drifts = {}
        for n in (48, 96):
            g = make_grid(2, 4.0, n)
            f = sample(SteadyProfileSpec("factorized", chi, ((1.0, (0.0, 0.0)),), 1.0), g)
            drifts[n] = stationarity_drift(f, Params(chi=chi), StepControls(), 0.01)
        assert drifts[96] > 0.0
        assert 2.5 <= drifts[48] / drifts[96] <= 6.0
        h = 8.0 / 48
        assert drifts[48] <= chi * 1.0 * h  # well under a first-order allowance
