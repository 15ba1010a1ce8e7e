import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlim import stepping
from fluxlim.grid import Field, make_grid
from fluxlim.limiter import Params, limiter
from fluxlim.profiles import gaussian_bump, poly_spike, uniform_field
from fluxlim.steady import SteadyProfileSpec, sample
from fluxlim.stepping import (
    CflViolationError,
    NumericalFailureError,
    PicardDivergenceError,
    StepControls,
    _div_coeff_grad,
    _face_coefficients,
    _finalize,
    _Workspace,
    _active_set_solve,
    cfl_dt,
    march,
    run,
    run_batch,
    step_explicit,
    step_semi_implicit,
)


@pytest.fixture()
def grid1d():
    return make_grid(1, 5.0, 200)


class TestCflDt:
    def test_1d_formula(self):
        g = make_grid(1, 5.0, 1000)
        assert cfl_dt(g, 0.0, 1.0) == pytest.approx(5e-5)

    def test_2d_formula(self):
        g = make_grid(2, 0.1 * 64, 128)  # h = 0.1
        assert cfl_dt(g, 1.0, 0.5) == pytest.approx(6.25e-4)

    def test_zero_safety_rejected(self):
        g = make_grid(1, 1.0, 10)
        with pytest.raises(ValueError, match="safety"):
            cfl_dt(g, 0.0, 0.0)


class TestStepControls:
    def test_defaults(self):
        c = StepControls()
        assert c.cfl_safety == 0.45
        assert c.picard_tol == 1e-10
        assert c.picard_max_iter == 200

    @pytest.mark.parametrize("kw", [dict(dt=-1.0), dict(cfl_safety=1.5), dict(cfl_safety=0.0),
                                    dict(picard_tol=0.0), dict(picard_max_iter=0)])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            StepControls(**kw)


class TestStepExplicit:
    def test_uniform_invariant_bitwise(self, grid1d):
        f = uniform_field(grid1d, 1.7)
        out = step_explicit(f, Params(chi=1.0), StepControls(dt=cfl_dt(grid1d, 0.0)))
        assert np.array_equal(out.values, f.values)

    def test_uniform_absorption_exact(self, grid1d):
        eps, dt = 0.8, 1e-4
        f = uniform_field(grid1d, 2.5)
        out = step_explicit(f, Params(chi=1.0, eps=eps), StepControls(dt=dt))
        assert np.allclose(out.values, 2.5 * (1.0 - eps * dt), rtol=1e-15)

    def test_subcritical_profile_frozen_bitwise(self, grid1d):
        # pre-check: every face of the half-rate exponential is sub-critical
        x, = grid1d.centers()
        chi = 1.0
        vals = np.exp(-0.5 * chi * np.abs(x))
        g = np.abs(np.diff(vals)) / grid1d.spacing[0]
        rho_face = 0.5 * (vals[1:] + vals[:-1])
        assert np.all(g <= chi * rho_face)
        assert np.all(limiter(rho_face, g, chi) == 0.0)
        f = Field.density(grid1d, vals)
        out = step_explicit(f, Params(chi=chi), StepControls(dt=cfl_dt(grid1d, 0.0)))
        assert np.array_equal(out.values, f.values)

    def test_cfl_violation_raises(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        too_big = 2.0 * cfl_dt(grid1d, 0.0, 0.45)
        with pytest.raises(CflViolationError):
            step_explicit(f, Params(chi=1.0), StepControls(dt=too_big))

    def test_dt_required(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        with pytest.raises(ValueError, match="dt"):
            step_explicit(f, Params(chi=1.0), StepControls())

    def test_positivity_on_random_data(self, grid1d):
        rng = np.random.default_rng(11)
        dt = cfl_dt(grid1d, 0.5, 0.45)
        params = Params(chi=1.0, eps=0.5)
        for _ in range(20):
            vals = rng.uniform(0.0, 1.0, grid1d.shape)
            vals[rng.uniform(size=grid1d.shape) < 0.3] = 0.0  # vacuum patches
            out = step_explicit(Field.density(grid1d, vals), params, StepControls(dt=dt))
            assert out.values.min() >= 0.0

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_lp_never_increases_single_step(self, grid1d, p):
        rng = np.random.default_rng(5)
        dt = cfl_dt(grid1d, 0.0, 0.45)
        for _ in range(10):
            vals = rng.uniform(0.0, 1.0, grid1d.shape)
            before = np.sum(vals**p)
            out = step_explicit(Field.density(grid1d, vals), Params(chi=0.7), StepControls(dt=dt))
            after = np.sum(out.values**p)
            assert after <= before * (1 + 1e-12)

    def test_mass_conserved_per_step(self, grid1d):
        f = gaussian_bump(grid1d, 0.8, mass=1.0)
        out = step_explicit(f, Params(chi=1.0), StepControls(dt=cfl_dt(grid1d, 0.0)))
        assert np.sum(out.values) == pytest.approx(np.sum(f.values), rel=1e-14)


class TestFinalizePolicy:
    def test_nan_raises(self):
        with pytest.raises(NumericalFailureError, match="non-finite"):
            _finalize(np.array([[1.0, np.nan, 0.0, 0.0]]), neg_tol=1e-13)

    def test_true_negativity_raises(self):
        with pytest.raises(NumericalFailureError, match="negative"):
            _finalize(np.array([[1.0, -0.5, 0.0, 0.0]]), neg_tol=1e-13)

    def test_roundoff_negativity_floored(self):
        out = _finalize(np.array([[1.0, -1e-16, 0.0, 0.0]]), neg_tol=1e-13)
        assert out.min() == 0.0


def reference_step(field, params, dt):
    """The explicit update written plainly, one member, in the kernel's operation order.

    The limiter sees the face-mean density and the face gradient norm: the two-point
    difference across the face and, in 2D, the mean of the two adjacent central
    differences along it."""
    v, g = field.values, field.grid
    central = [np.gradient(v, h, axis=k, edge_order=2) for k, h in enumerate(g.spacing)]
    acc = np.zeros(g.shape)
    for axis, h in enumerate(g.spacing):
        lo = [slice(None)] * g.dim
        hi = [slice(None)] * g.dim
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        normal = np.diff(v, axis=axis) / h
        squared = normal * normal
        for other in set(range(g.dim)) - {axis}:
            tang = 0.5 * (central[other][lo] + central[other][hi])
            squared = squared + tang * tang
        coeff = limiter(0.5 * (v[lo] + v[hi]), np.sqrt(squared), params.chi) + params.eps
        flux = coeff * normal / h
        acc[lo] += flux
        acc[hi] -= flux
    new = v + dt * acc - (dt * params.eps) * v
    return np.maximum(new, 0.0) if new.min() < 0.0 else new


@st.composite
def batches(draw):
    dim = draw(st.sampled_from([1, 2]))
    cells = draw(st.integers(3, 24 if dim == 1 else 9))
    grid = make_grid(dim, draw(st.sampled_from([1.0, 3.0])), cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(draw(st.integers(1, 4))):
        vals = rng.uniform(0.0, 1.0, grid.shape)
        vals[rng.uniform(size=grid.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
        params = Params(chi=draw(st.sampled_from([0.0, 0.4, 1.0, 3.0])),
                        eps=draw(st.sampled_from([0.0, 0.1, 0.7])))
        dt = cfl_dt(grid, params.eps) * draw(st.sampled_from([0.3, 1.0]))
        members.append((Field.density(grid, vals), params, dt))
    return members


class TestBatchedKernel:
    @settings(max_examples=60, deadline=None)
    @given(batches())
    def test_batch_rows_equal_single_member_steps(self, members):
        fields, params, dts = zip(*members)
        ((k, state),) = march(fields, params, dts, [1] * len(fields))
        assert k == 1 and state.shape == (len(fields), *fields[0].grid.shape)
        for row, f, p, dt in zip(state, fields, params, dts):
            alone = step_explicit(f, p, StepControls(dt=dt))
            assert np.array_equal(row, alone.values)
            assert np.array_equal(row, reference_step(f, p, dt))

    def test_2d_peak_fixed_beside_moving_gaussian(self):
        grid = make_grid(2, 3.0, 24)
        # half-rate single peak: every face sub-critical for chi = 1
        peak = sample(SteadyProfileSpec("single_peak", 0.5, ((1.0, (0.0, 0.0)),)), grid)
        bump = gaussian_bump(grid, 0.4, mass=1.0)
        params = [Params(chi=1.0), Params(chi=1.0, eps=0.2)]
        dts = [cfl_dt(grid, 0.2)] * 2
        last = None
        for k, state in march([peak, bump], params, dts, [20, 20]):
            assert np.array_equal(state[0], peak.values)
            last = state[1].copy()
        assert not np.array_equal(last, bump.values)

    def test_members_stop_at_their_own_step_count(self):
        grid = make_grid(1, 5.0, 60)
        f = gaussian_bump(grid, 1.0, mass=1.0)
        dt = cfl_dt(grid, 0.0)
        seen = [(k, len(state)) for k, state in march([f, f, f], [Params(chi=1.0)] * 3,
                                                       [dt] * 3, [5, 3, 3])]
        assert seen == [(1, 3), (2, 3), (3, 3), (4, 1), (5, 1)]

    def test_run_batch_matches_runs(self):
        grid = make_grid(1, 5.0, 80)
        fields = [gaussian_bump(grid, w, mass=1.0) for w in (1.0, 0.5, 0.8)]
        params = [Params(chi=1.0), Params(chi=0.0), Params(chi=2.0, eps=0.3)]
        t_ends = [0.01, 0.03, 0.0]
        trajs = run_batch(fields, params, StepControls(), t_ends, diag_stride=[4, 1000, 2])
        for traj, f, p, t_end, stride in zip(trajs, fields, params, t_ends, [4, 1000, 2]):
            alone = run(f, p, StepControls(), t_end, diag_stride=stride)
            assert [r.time for r in traj.records] == [r.time for r in alone.records]
            assert [r.sup_norm for r in traj.records] == [r.sup_norm for r in alone.records]
            assert np.array_equal(traj.final.values, alone.final.values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_member_named(self, bad):
        values = np.array([[1.0, 0.5, 0.0], [1.0, bad, 0.0], [0.2, 0.1, 0.0]])
        with pytest.raises(NumericalFailureError, match=r"non-finite.*member 4, step 7"):
            _finalize(values, 1e-13, step=7, members=[3, 4, 5])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_member_fails_with_its_step(self):
        grid = make_grid(1, 1.0, 20)  # h = 0.1, so a 1e308 jump overflows the gradient
        calm = gaussian_bump(grid, 0.3, mass=1.0)
        wild = Field.density(grid, np.where(np.arange(20) == 10, 1e308, 0.0))
        with pytest.raises(NumericalFailureError, match=r"non-finite.*member 1, step 1"):
            run_batch([calm, wild], [Params(chi=1.0)] * 2, StepControls(), [0.01, 0.01])

    def test_roundoff_negative_clamped_in_own_row_only(self):
        values = np.array([[1.0, -1e-16, 0.5], [2.0, 0.25, 1e-300]])
        out = _finalize(values, 1e-13, step=1)
        assert np.array_equal(out[0], [1.0, 0.0, 0.5])
        assert np.array_equal(out[1], values[1])
        assert values[0, 1] == -1e-16  # the raw step output is left as it was

    def test_negativity_floor_is_per_member(self):
        # -1e-8 is roundoff beside 1e6 but not beside 1.0
        values = np.array([[1e6, -1e-8], [1.0, -1e-12]])
        with pytest.raises(NumericalFailureError, match=r"negative.*member 1, step 2"):
            _finalize(values, 1e-13, step=2)

    def test_cfl_violation_by_any_member(self):
        grid = make_grid(1, 5.0, 50)
        f = gaussian_bump(grid, 1.0, mass=1.0)
        dt = cfl_dt(grid, 0.0)  # within the inviscid ceiling, above the viscous one
        with pytest.raises(CflViolationError, match="member 1"):
            next(march([f, f], [Params(chi=1.0), Params(chi=1.0, eps=1.0)], [dt, dt], [3, 3]))
        with pytest.raises(CflViolationError):
            run_batch([f, f], [Params(chi=1.0), Params(chi=1.0, eps=1.0)],
                      StepControls(dt=dt), [0.01, 0.01])

    def test_step_count_order_enforced(self):
        grid = make_grid(1, 5.0, 50)
        f = gaussian_bump(grid, 1.0, mass=1.0)
        with pytest.raises(ValueError, match="non-increasing"):
            next(march([f, f], [Params(chi=1.0)] * 2, [1e-4] * 2, [2, 3]))


class TestStepSemiImplicit:
    def test_uniform_fixed_point_value(self, grid1d):
        eps, dt = 0.5, 0.1
        f = uniform_field(grid1d, 2.0)
        out, trace = step_semi_implicit(f, Params(chi=1.0, eps=eps), StepControls(dt=dt),
                                        with_info=True)
        assert np.allclose(out.values, 2.0 / (1.0 + eps * dt), rtol=1e-11)
        assert len(trace) <= 3  # hits the fixed point after one pass

    def test_small_dt_consistency(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        out = step_semi_implicit(f, Params(chi=1.0), StepControls(dt=1e-8))
        rel = np.sum(np.abs(out.values - f.values)) / np.sum(f.values)
        assert rel <= 1e-6

    def test_cross_scheme_consistency(self, grid1d):
        # one step at dt = cfl/4 on a smooth supercritical bump
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        dt = cfl_dt(grid1d, 0.0, 0.45) / 4.0
        ctr = StepControls(dt=dt)
        e = step_explicit(f, Params(chi=1.0), ctr)
        s = step_semi_implicit(f, Params(chi=1.0), ctr)
        rel = np.sum(np.abs(e.values - s.values)) * grid1d.cell_volume
        assert rel <= 10.0 * dt

    def test_monotone_residual_on_standard_bump(self):
        # regression: residual trace strictly decreasing at dt = 10*cfl
        grid = make_grid(1, 5.0, 400)
        bump = gaussian_bump(grid, 0.5, mass=1.0)
        dt = 10.0 * cfl_dt(grid, 0.0, 0.45)
        out, trace = step_semi_implicit(bump, Params(chi=1.0), StepControls(dt=dt), with_info=True)
        assert trace[-1] <= 1e-10
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert out.values.min() >= 0.0

    def test_divergence_reported(self, grid1d):
        f = gaussian_bump(grid1d, 0.5, mass=1.0)
        dt = 10.0 * cfl_dt(grid1d, 0.0, 0.45)
        with pytest.raises(PicardDivergenceError) as err:
            step_semi_implicit(f, Params(chi=1.0), StepControls(dt=dt, picard_max_iter=1))
        assert err.value.last_residual > 0.0
        assert err.value.trace[-1] == err.value.last_residual and len(err.value.trace) == 2
        assert err.value.step is None

    def test_run_locates_failure(self, grid1d):
        f = gaussian_bump(grid1d, 0.5, mass=1.0)
        dt = 10.0 * cfl_dt(grid1d, 0.0, 0.45)
        with pytest.raises(PicardDivergenceError) as err:
            run(f, Params(chi=1.0), StepControls(dt=dt, picard_max_iter=1), t_end=5 * dt,
                scheme="semi_implicit")
        exc = err.value
        assert (exc.step, exc.time) == (1, pytest.approx(dt, rel=1e-12))
        assert exc.last_residual > 0.0 and exc.trace[-1] == exc.last_residual
        assert str(exc).endswith(f"at step 1, t = {exc.time!r}")
        assert isinstance(exc, NumericalFailureError)

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_tridiagonal_solve_is_exact(self, eps):
        # the backward-Euler operator linearized at z, applied face by face, returns rho
        grid = make_grid(1, 5.0, 400)
        h, chi = grid.spacing[0], 1.0
        rho = gaussian_bump(grid, 0.5, mass=1.0).values
        z = poly_spike(grid, 1.5, 2.0).values + 0.1 * rho  # linearize at another state
        dt = 20.0 * cfl_dt(grid, eps, 0.45)
        ws = _Workspace(grid, 1)
        (lim,) = _face_coefficients(z[None], ws, chi, 0.0)
        active = lim[0] > 0.0
        assert 0 < active.sum() < active.size
        u = _active_set_solve(lim[0], z, rho, chi, eps, dt, h)
        g, rho_face = np.diff(u) / h, 0.5 * (u[1:] + u[:-1])
        flux = np.where(active, (1.0 + eps) * g - chi * np.sign(np.diff(z)) * rho_face, eps * g)
        div = np.diff(flux, prepend=0.0, append=0.0) / h
        applied = (1.0 + eps * dt) * u - dt * div
        assert np.abs(applied - rho).max() <= 1e-12 * np.abs(rho).max()

    def test_tridiagonal_solve_rejects_indefinite_matrix(self):
        # eps = -1/2 on three cells: eigenvalues 0.5, 0 and -1, exact in floating point
        with pytest.raises(NumericalFailureError, match=r"dgtsv info = \d"):
            _active_set_solve(np.zeros(2), np.ones(3), np.ones(3), 1.0, -0.5, 1.0, 1.0)

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_converged_step_is_exact_nonlinear_solve(self, eps):
        # a fixed point of the active-set sweep solves the nonlinear equation itself
        grid = make_grid(1, 5.0, 400)
        rho = gaussian_bump(grid, 0.5, mass=1.0).values
        dt = 20.0 * cfl_dt(grid, eps, 0.45)
        u = step_semi_implicit(Field.density(grid, rho), Params(chi=1.0, eps=eps),
                               StepControls(dt=dt)).values
        ws = _Workspace(grid, 1)
        coeffs = _face_coefficients(u[None], ws, 1.0, eps)
        div = _div_coeff_grad(u[None], ws, coeffs, ws.cells)[0]
        applied = (1.0 + eps * dt) * u - dt * div
        assert np.abs(applied - rho).max() <= 1e-12 * np.abs(rho).max()

    @pytest.mark.parametrize("multiple", [50, 100, 1000])
    def test_large_dt_converges(self, multiple):
        # the frozen-coefficient Picard iteration stalled above tolerance at all three
        grid = make_grid(1, 5.0, 1000)
        f = gaussian_bump(grid, 1.0, mass=1.0)
        ctr = StepControls(dt=multiple * cfl_dt(grid, 0.0, 0.45))
        out, trace = step_semi_implicit(f, Params(chi=1.0), ctr, with_info=True)
        assert trace[-1] <= ctr.picard_tol and len(trace) <= 30
        assert out.values.min() >= 0.0
        assert out.values.sum() == pytest.approx(f.values.sum(), rel=1e-12)

    def test_few_sweeps_per_step(self, monkeypatch):
        # 2000 cells at 10x CFL to t = 0.01: 178 steps
        solves = []

        def counted(*args):
            solves.append(1)
            return _active_set_solve(*args)

        monkeypatch.setattr(stepping, "_active_set_solve", counted)
        grid = make_grid(1, 5.0, 2000)
        dt = 10.0 * cfl_dt(grid, 0.0, 0.45)
        run(gaussian_bump(grid, 1.0, mass=1.0), Params(chi=1.0), StepControls(dt=dt), t_end=0.01,
            diag_stride=10**9, scheme="semi_implicit")
        assert len(solves) <= 4 * 178

    def test_coarse_grid_stays_nonnegative(self):
        # chi*h = 3 > 2: no face of a nonnegative state can be active
        grid = make_grid(1, 5.0, 10)
        rng = np.random.default_rng(3)
        for eps in (0.0, 0.1):
            for _ in range(10):
                vals = rng.uniform(0.0, 1.0, grid.shape) * (rng.uniform(size=grid.shape) < 0.5)
                f = Field.density(grid, vals)
                for multiple in (1.0, 100.0, 1000.0):
                    dt = multiple * cfl_dt(grid, eps, 0.45)
                    out = step_semi_implicit(f, Params(chi=3.0, eps=eps), StepControls(dt=dt))
                    assert out.values.min() >= 0.0

    def test_2d_field_rejected(self):
        f = gaussian_bump(make_grid(2, 5.0, 20), 0.5, mass=1.0)
        with pytest.raises(ValueError, match="1D only"):
            step_semi_implicit(f, Params(chi=1.0), StepControls(dt=0.01))
        with pytest.raises(ValueError, match="1D only"):
            run(f, Params(chi=1.0), StepControls(dt=0.01), t_end=0.02, scheme="semi_implicit")

    def test_spike_with_vacuum_stays_nonnegative(self):
        # the 1D matrix is an M-matrix: the exact solve needs no negativity allowance
        grid = make_grid(1, 5.0, 400)
        spike = poly_spike(grid, 0.5, 2.0)
        assert spike.values.min() == 0.0
        dt = 20.0 * cfl_dt(grid, 0.0, 0.45)
        ws = _Workspace(grid, 1)
        (lim,) = _face_coefficients(spike.values[None], ws, 1.0, 0.0)
        v = spike.values
        assert _active_set_solve(lim[0], v, v, 1.0, 0.0, dt, grid.spacing[0]).min() >= 0.0
        out = step_semi_implicit(spike, Params(chi=1.0), StepControls(dt=dt))
        assert out.values.min() >= 0.0
        assert out.values.sum() == pytest.approx(spike.values.sum(), rel=1e-12)


@st.composite
def implicit_steps(draw):
    grid = make_grid(1, draw(st.sampled_from([1.0, 5.0, 20.0])), draw(st.integers(10, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.uniform(0.0, 1.0, grid.shape) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    vals[rng.uniform(size=grid.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    params = Params(chi=draw(st.floats(0.0, 10.0)), eps=draw(st.sampled_from([0.0, 0.1, 0.7])))
    dt = cfl_dt(grid, params.eps, 0.45) * draw(st.floats(1.0, 1000.0))
    return Field.density(grid, vals), params, dt


@settings(max_examples=60, deadline=None)
@given(implicit_steps())
def test_semi_implicit_1d_structure(case):
    # mass follows 1/(1 + eps dt), positivity, and L2 never increases
    f, params, dt = case
    out = step_semi_implicit(f, params, StepControls(dt=dt)).values
    assert out.min() >= 0.0
    assert out.sum() == pytest.approx(f.values.sum() / (1.0 + params.eps * dt), rel=1e-12)
    assert np.sum(out**2) <= np.sum(f.values**2) * (1.0 + 1e-9)


@st.composite
def ordered_pairs(draw):
    # u <= v on a 1D grid with chi*h <= 2, where the face flux sign(g)(|g| - chi rho_face)_+
    # is monotone in both cells; vacuum patches of u alone and of both fields
    grid = make_grid(1, 5.0, draw(st.integers(10, 200)))
    n = grid.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniform(0.0, 1.0, n)
    gap = rng.uniform(0.0, 1.0, n) * draw(st.sampled_from([1e-3, 1.0]))
    for vals in (u, u, gap):
        start = rng.integers(n)
        vals[start:start + rng.integers(n // 2 + 1)] = 0.0
    both = rng.integers(n)
    u[both:both + n // 5] = gap[both:both + n // 5] = 0.0
    params = Params(chi=draw(st.floats(0.0, 2.0)) / grid.spacing[0], eps=draw(st.sampled_from([0.0, 0.1])))
    return Field.density(grid, u), Field.density(grid, u + gap), params


class TestComparisonPrinciple:
    @settings(max_examples=100, deadline=None)
    @given(ordered_pairs())
    def test_explicit_step_is_ordered_l1_contraction(self, case):
        u, v, params = case
        controls = StepControls(dt=cfl_dt(u.grid, params.eps))
        big_u, big_v = (step_explicit(f, params, controls).values for f in (u, v))
        roundoff = 1e-13 * (u.values.sum() + v.values.sum())
        assert np.all(big_u <= big_v + 1e-14 * v.values.max())
        factor = 1.0 - params.eps * controls.dt
        assert np.abs(big_v - big_u).sum() <= factor * np.abs(v.values - u.values).sum() + roundoff

    @settings(max_examples=60, deadline=None)
    @given(ordered_pairs())
    def test_semi_implicit_step_is_ordered_l1_contraction(self, case):
        # 20x the CFL step; each step is solved to picard_tol in the relative L2 residual
        u, v, params = case
        controls = StepControls(dt=20.0 * cfl_dt(u.grid, params.eps))
        big_u, big_v = (step_semi_implicit(f, params, controls).values for f in (u, v))
        slack = controls.picard_tol * (np.linalg.norm(big_u) + np.linalg.norm(big_v))
        assert np.all(big_u <= big_v + slack)
        factor = 1.0 / (1.0 + params.eps * controls.dt)
        assert np.abs(big_v - big_u).sum() <= factor * np.abs(v.values - u.values).sum() + slack * len(big_u)


class TestRun:
    def test_zero_horizon(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        traj = run(f, Params(chi=1.0), StepControls(), t_end=0.0)
        assert len(traj.snapshots) == 1
        assert len(traj.records) == 1
        assert traj.records[0].time == 0.0

    def test_times_strictly_increasing(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        traj = run(f, Params(chi=1.0), StepControls(), t_end=0.005, diag_stride=3)
        times = [r.time for r in traj.records]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[-1] == pytest.approx(0.005)

    def test_mass_product_law(self):
        grid = make_grid(1, 5.0, 100)
        f = gaussian_bump(grid, 1.0, mass=1.0)
        eps, dt, t_end = 0.5, 1e-3, 2.0
        traj = run(f, Params(chi=1.0, eps=eps), StepControls(dt=dt), t_end=t_end,
                   diag_stride=10**9)
        n = round(t_end / dt)
        expected = (1.0 - eps * dt) ** n
        assert traj.records[-1].mass == pytest.approx(expected, rel=1e-12)
        assert traj.records[-1].mass == pytest.approx(np.exp(-eps * t_end), abs=2 * eps * dt)

    def test_deterministic_bitwise(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        t1 = run(f, Params(chi=1.0), StepControls(), t_end=0.003, diag_stride=5)
        t2 = run(f, Params(chi=1.0), StepControls(), t_end=0.003, diag_stride=5)
        assert np.array_equal(t1.final.values, t2.final.values)
        assert [r.mass for r in t1.records] == [r.mass for r in t2.records]

    def test_semi_implicit_scheme(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        dt = 4.0 * cfl_dt(grid1d, 0.0, 0.45)
        traj = run(f, Params(chi=1.0), StepControls(dt=dt), t_end=8 * dt,
                   scheme="semi_implicit", diag_stride=2)
        assert traj.records[-1].mass == pytest.approx(1.0, rel=1e-9)
        l2 = [r.lp_norms[2.0] for r in traj.records]
        assert l2[-1] < l2[0]

    def test_snapshot_stride(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        traj = run(f, Params(chi=1.0), StepControls(), t_end=0.002, snapshot_stride=2)
        assert len(traj.snapshots) >= 3
        times = [t for t, _ in traj.snapshots]
        assert times[0] == 0.0 and times[-1] == pytest.approx(0.002)

    @pytest.mark.parametrize("kw,msg", [
        (dict(t_end=-1.0), "t_end"),
        (dict(t_end=1.0, diag_stride=0), "diag_stride"),
        (dict(t_end=1.0, scheme="magic"), "scheme"),
    ])
    def test_bad_arguments(self, grid1d, kw, msg):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        with pytest.raises(ValueError, match=msg):
            run(f, Params(chi=1.0), StepControls(), **kw)
