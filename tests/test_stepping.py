import contextlib
import re
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlim import stepping
from fluxlim.grid import Field, Grid, make_grid
from fluxlim.limiter import Params, limiter
from fluxlim.profiles import factorized, gaussian_bump, multi_peak, poly_spike, single_peak
from fluxlim.stepping import (
    CflViolationError,
    NumericalFailureError,
    PicardDivergenceError,
    StepControls,
    _finalize,
    _active_set_matrix,
    cfl_dt,
    march,
    run,
    step_semi_implicit,
    time_mesh,
)


def explicit_step(field, params, dt):
    """One forward-Euler step of a lone member through ``march``."""
    ((_, state),) = march([field], [params], [dt], [1])
    return state[0]


def implicit_step(field, params, dt, controls=StepControls("semi_implicit")):
    """One backward-Euler step of a lone member through ``march``."""
    ((_, state),) = march([field], [params], [dt], [1], controls)
    return state[0]


def implicit_solve(field, params, dt, controls=StepControls("semi_implicit")):
    """The solve of one backward-Euler step of a lone member, before ``march`` checks it,
    with its residual trace."""
    (out,), (trace,), _ = step_semi_implicit(field.values[None], params.chi, params.eps, dt,
                                             field.grid.h, controls, stepping._buffers(field.grid, 1))
    return out, trace


def active_set_solve(flux, rhs, chi, eps, dt, h):
    """The solve of the backward-Euler system linearized where ``_face_flux`` gave ``flux``."""
    return _active_set_matrix(stepping._faces(flux)[None], chi, eps, dt, h).solve(rhs[None])[0]


@pytest.fixture()
def grid1d():
    return make_grid(1, 5.0, 200)


class TestCflDt:
    def test_1d_formula(self):
        g = make_grid(1, 5.0, 1000)
        assert cfl_dt(g, 0.0) == pytest.approx(0.45 * 5e-5)

    def test_2d_formula(self):
        g = make_grid(2, 0.1 * 64, 128)  # h = 0.1
        assert cfl_dt(g, 1.0) == pytest.approx(0.45 * 1.25e-3)

    @pytest.mark.parametrize("eps", [-0.5, np.inf, np.nan])
    def test_bad_eps_rejected(self, eps):
        g = make_grid(1, 1.0, 10)
        with pytest.raises(ValueError, match="eps"):
            cfl_dt(g, eps)

    @pytest.mark.parametrize("extent,eps", [(1e-168, 0.0), (1.0, 1e308)])
    def test_underflowing_step_rejected(self, extent, eps):
        # h^2 underflows to 0, or 1 + eps overflows to inf
        with pytest.raises(ValueError, match=r"^the CFL step .* underflows to 0 \(h = "):
            cfl_dt(make_grid(1, extent, 10), eps)


class TestStepControls:
    def test_defaults(self):
        c = StepControls()
        assert c.scheme == "explicit"
        assert c.dt is None
        assert c.picard_tol == 1e-10

    @pytest.mark.parametrize("kw", [dict(dt=-1.0), dict(scheme="magic"), dict(dt=np.inf),
                                    dict(picard_tol=0.0), dict(picard_tol=np.inf), dict(scheme="rk4", dt=1e-3)])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            StepControls(**kw)


class TestStepExplicit:
    def test_uniform_invariant_bitwise(self, grid1d):
        f = Field.density(grid1d, np.full(grid1d.shape, 1.7))
        out = explicit_step(f, Params(chi=1.0), cfl_dt(grid1d, 0.0))
        assert np.array_equal(out, f.values)

    def test_uniform_absorption_exact(self, grid1d):
        eps, dt = 0.8, 1e-4
        f = Field.density(grid1d, np.full(grid1d.shape, 2.5))
        out = explicit_step(f, Params(chi=1.0, eps=eps), dt)
        assert np.allclose(out, 2.5 * (1.0 - eps * dt), rtol=1e-15)

    def test_subcritical_profile_frozen_bitwise(self, grid1d):
        # pre-check: every face of the half-rate exponential is sub-critical
        x, = grid1d.centers()
        chi = 1.0
        vals = np.exp(-0.5 * chi * np.abs(x))
        g = np.abs(np.diff(vals)) / grid1d.h
        rho_face = 0.5 * (vals[1:] + vals[:-1])
        assert np.all(g <= chi * rho_face)
        assert np.all(limiter(rho_face, g, chi) == 0.0)
        f = Field.density(grid1d, vals)
        out = explicit_step(f, Params(chi=chi), cfl_dt(grid1d, 0.0))
        assert np.array_equal(out, f.values)

    def test_cfl_violation_raises(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        too_big = 2.0 * cfl_dt(grid1d, 0.0)
        with pytest.raises(CflViolationError) as err:
            explicit_step(f, Params(chi=1.0), too_big)
        assert isinstance(err.value, NumericalFailureError)  # so the CLI exits 2 by its class

    def test_positivity_on_random_data(self, grid1d):
        rng = np.random.default_rng(11)
        dt = cfl_dt(grid1d, 0.5)
        params = Params(chi=1.0, eps=0.5)
        for _ in range(20):
            vals = rng.uniform(0.0, 1.0, grid1d.shape)
            vals[rng.uniform(size=grid1d.shape) < 0.3] = 0.0  # vacuum patches
            out = explicit_step(Field.density(grid1d, vals), params, dt)
            assert out.min() >= 0.0

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_lp_never_increases_single_step(self, grid1d, p):
        rng = np.random.default_rng(5)
        dt = cfl_dt(grid1d, 0.0)
        for _ in range(10):
            vals = rng.uniform(0.0, 1.0, grid1d.shape)
            before = np.sum(vals**p)
            out = explicit_step(Field.density(grid1d, vals), Params(chi=0.7), dt)
            after = np.sum(out**p)
            assert after <= before * (1 + 1e-12)

    def test_mass_conserved_per_step(self, grid1d):
        f = gaussian_bump(grid1d, 0.8, mass=1.0)
        out = explicit_step(f, Params(chi=1.0), cfl_dt(grid1d, 0.0))
        assert np.sum(out) == pytest.approx(np.sum(f.values), rel=1e-14)


class TestFinalizePolicy:
    def test_nan_raises(self):
        with pytest.raises(NumericalFailureError, match="non-finite"):
            _finalize(np.array([[1.0, np.nan, 0.0, 0.0]]))

    def test_true_negativity_raises(self):
        with pytest.raises(NumericalFailureError, match="negative"):
            _finalize(np.array([[1.0, -0.5, 0.0, 0.0]]))

    def test_roundoff_negativity_floored(self):
        out = _finalize(np.array([[1.0, -1e-16, 0.0, 0.0]]))
        assert out.min() == 0.0

    @pytest.mark.parametrize("value", [-0.0, np.inf, -np.inf, np.nan, -1e-16, 5e-324, 1.7976931348623157e308])
    def test_edge_values(self, value):
        # clean output is returned as it is (-0.0 and the extreme finite values included),
        # non-finite output fails, and a roundoff negative is clamped in a copy
        values = np.array([[1.0, 0.0, 0.5], [2.0, value, 0.25]])
        raw = values.copy()
        if not np.isfinite(value):
            with pytest.raises(NumericalFailureError, match=r"^non-finite value produced by a time step$") as err:
                _finalize(values)
            assert err.value.row == 1
            return
        out = _finalize(values)
        if value < 0.0:
            assert out is not values and out[1, 1] == 0.0 and not np.signbit(out[1, 1])
            assert np.array_equal(out[0], raw[0]) and out[1, 0] == 2.0
        else:
            assert out is values
        assert values.tobytes() == raw.tobytes()


def on_a_line(a: np.ndarray) -> bool:
    """Whether ``a`` starts on a 64-byte cache line."""
    return a.ctypes.data % 64 == 0


def threaded_axes():
    """A patch under which every 2D batch steps its second axis on a worker thread, on any host."""
    return mock.patch.multiple(stepping, _THREADED_CELLS=0, _cpus=lambda: 2)


@st.composite
def kernel_inputs(draw, dim):
    """A grid, a batch of member values with vacuum, and per-member chi columns."""
    grid = make_grid(dim, draw(st.sampled_from([1.0, 3.0])), draw(st.integers(3, 40 if dim == 1 else 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = draw(st.integers(1, 4))
    values = rng.uniform(0.0, 1.0, (members, *grid.shape)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    values[rng.uniform(size=values.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    chi = [draw(st.sampled_from([0.0, 0.4, 1.0, 3.0])) for _ in range(members)]
    return grid, values, np.array(chi).reshape((-1,) + (1,) * dim)


class TestAlignedBuffers:
    @pytest.mark.parametrize("grid, members, threaded", [
        (make_grid(1, 5.0, 1000), 1, False), (make_grid(1, 5.0, 1024), 6, False),
        (make_grid(1, 5.0, 121), 3, False),  # 363 doubles: not a whole number of lines
        (make_grid(2, 5.0, 128), 1, False), (Grid(dim=2, shape=(40, 24), h=0.25, origin=(-5.0, -3.0)), 2, False),
        (make_grid(2, 5.0, 128), 1, True), (Grid(dim=2, shape=(40, 24), h=0.25, origin=(-5.0, -3.0)), 2, True),
    ], ids=["1d-1x1000", "1d-6x1024", "1d-3x121", "2d-128^2", "2d-2x40x24", "2d-128^2-threaded",
            "2d-2x40x24-threaded"])
    def test_written_buffers_start_a_line(self, grid, members, threaded):
        # numpy aligns to 16 bytes only, and its vector loops store to an output off a 64-byte
        # line at about twice the cost: every buffer a step writes starts on a line, the
        # per-axis buffers of a threaded batch too
        written = [(cells, upper, sums, diff, pair)
                   for _, _, cells, diff, pair, upper, *_, sums, _, _ in stepping._buffers(grid, members, threaded)]
        assert all(on_a_line(a) for axis in written for a in axis)
        if threaded:
            first, second = written
            assert not any(np.shares_memory(a, b) for a in first for b in second)
        rng = np.random.default_rng(5)
        fields = [Field.density(grid, rng.uniform(0.5, 1.0, grid.shape)) for _ in range(members)]
        params = [Params(chi=1.0, eps=0.1 * i) for i in range(members)]
        dts = [cfl_dt(grid, p.eps) for p in params]
        ns = list(range(members + 1, 1, -1))  # each member ends its own block
        for scheme in ("explicit", "semi_implicit") if grid.dim == 1 else ("explicit",):
            with threaded_axes() if threaded else contextlib.nullcontext():
                for _, state in march(fields, params, dts, ns, StepControls(scheme)):
                    assert on_a_line(state)

    @pytest.mark.parametrize("scheme", ["explicit", "semi_implicit"])
    def test_clamped_state_stays_on_a_line(self, scheme, monkeypatch):
        # march takes the copy in which _finalize clamps a roundoff negative as its state, and
        # one swap later as the buffer its steps write: the copy starts on a line too
        grid = make_grid(1, 5.0, 400)
        f, finalize = gaussian_bump(grid, 0.5, mass=1.0), stepping._finalize

        def negative_edge(values):
            values[0, 0] = -1e-30  # within the roundoff floor
            out = finalize(values)
            assert out is not values
            return out

        monkeypatch.setattr(stepping, "_finalize", negative_edge)
        dt = cfl_dt(grid, 0.0) * (10.0 if scheme == "semi_implicit" else 1.0)
        for _, state in march([f], [Params(chi=1.0)], [dt], [5], StepControls(scheme)):
            assert state[0, 0] == 0.0 and on_a_line(state)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bits_do_not_depend_on_the_address(self, dim, eps, data):
        # the kernels and the divergence are elementwise IEEE arithmetic: the same layout
        # 8 bytes past a line gives the same bits
        grid, values, chi = data.draw(kernel_inputs(dim))
        kernel = stepping._face_flux if dim == 1 else stepping._coefficient_fluxes
        half_chi_h, e = 0.5 * grid.h * chi, eps * np.ones_like(chi) if eps else None
        aligned, seen = stepping._aligned, []
        for make in (aligned, lambda shape, offset=0: aligned(shape, offset - 1)):
            with mock.patch.object(stepping, "_aligned", make):
                bufs = stepping._buffers(grid, len(values))
            v, out = make(values.shape), make(values.shape)
            v[...] = values
            stepping._divergence(kernel(v, half_chi_h, e, bufs), out, bufs[0][2])
            seen.append((bufs[0][5].ctypes.data % 64, out.tobytes(), bufs[0][5].tobytes()))
        (line, *bits), (off, *shifted_bits) = seen
        assert (line, off) == (0, 8) and bits == shifted_bits


class TestThreadedAxes:
    # a 2D batch of at least _THREADED_CELLS cells, on a host with two CPUs, computes its second
    # axis's fluxes on a worker thread while the caller computes the first

    @staticmethod
    def marched(fields, params, ns, counts):
        """Copies of every state ``march`` yields, and the threads alive at each, in ``counts``."""
        dts = [cfl_dt(fields[0].grid, p.eps) for p in params]
        seen = []
        for k, state in march(fields, params, dts, ns):
            counts.append(threading.active_count())
            seen.append((k, state.tobytes()))
        return seen

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 14), st.integers(3, 14), st.booleans(), st.integers(1, 3), st.data())
    def test_threaded_march_equals_serial(self, n1, n2, square, members, data):
        h = 5.0 / n1
        shape = (n1, n1 if square else n2)
        grid = Grid(dim=2, shape=shape, h=h, origin=(-2.5, -0.5 * h * shape[1]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.uniform(0.0, 1.0, (members, *shape))
        values[rng.uniform(size=values.shape) < 0.3] = 0.0
        fields = [Field.density(grid, v) for v in values]
        params = [Params(chi=data.draw(st.sampled_from([0.0, 1.0, 3.0])), eps=data.draw(st.sampled_from([0.0, 0.3])))
                  for _ in range(members)]
        ns = sorted(data.draw(st.lists(st.integers(1, 4), min_size=members, max_size=members)), reverse=True)
        base, serial, threaded = threading.active_count(), [], []
        alone = self.marched(fields, params, ns, serial)
        with threaded_axes():
            both = self.marched(fields, params, ns, threaded)
        assert both == alone
        assert set(serial) == {base} and set(threaded) == {base + 1}
        assert threading.active_count() == base

    def test_concurrent_marches_stay_apart(self):
        # more marching threads than CPUs, each with its own worker, switching every microsecond:
        # a buffer or state that two marches or two axes shared would change some march's bits
        grid = Grid(dim=2, shape=(12, 9), h=0.5, origin=(-3.0, -2.25))
        rng = np.random.default_rng(11)
        runs = [([Field.density(grid, rng.uniform(0.0, 1.0, grid.shape)) for _ in range(2)],
                 [Params(chi=1.0), Params(chi=3.0, eps=0.3)], [6, 4]) for _ in range(4)]
        serial = [self.marched(*run, []) for run in runs]
        threaded = [None] * len(runs)

        def go(i):
            threaded[i] = self.marched(*runs[i], [])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with threaded_axes():
                threads = [threading.Thread(target=go, args=(i,)) for i in range(len(runs))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert threaded == serial

    def test_no_thread_outlives_march(self, monkeypatch):
        grid = make_grid(2, 5.0, 16)
        f, p, dt = gaussian_bump(grid, 1.0, mass=1.0), Params(chi=1.0), cfl_dt(grid, 0.0)
        base = threading.active_count()
        with threaded_axes():
            assert len(list(march([f], [p], [dt], [5]))) == 5  # exhausted
            assert threading.active_count() == base
            steps = march([f], [p], [dt], [5])
            next(steps)
            assert threading.active_count() == base + 1
            steps.close()  # closed early
            assert threading.active_count() == base
            finalize, calls = stepping._finalize, []

            def failing(values):
                calls.append(None)
                if len(calls) == 3:
                    raise stepping._failure("non-finite value produced by a time step", 0)
                return finalize(values)

            monkeypatch.setattr(stepping, "_finalize", failing)
            with pytest.raises(NumericalFailureError, match=r"\(member 0, step 3, "):  # failed mid-march
                for _ in march([f], [p], [dt], [5]):
                    assert threading.active_count() == base + 1
            assert threading.active_count() == base

    @pytest.mark.parametrize("grid, members, threads", [
        (make_grid(2, 5.0, 128), 3, 0),  # 49,152 cells
        (make_grid(2, 5.0, 192), 1, 0),  # 36,864 cells
        (make_grid(2, 5.0, 256), 1, 1),  # 65,536 cells, the threshold
        (make_grid(2, 5.0, 192), 2, 1),  # 73,728 cells
        (make_grid(1, 5.0, 1 << 16), 2, 0),  # the 1D kernel has one axis
    ], ids=["2d-3x128^2", "2d-192^2", "2d-256^2", "2d-2x192^2", "1d-2x65536"])
    def test_threshold(self, grid, members, threads, monkeypatch):
        monkeypatch.setattr(stepping, "_cpus", lambda: 2)  # as on a host with two CPUs
        f, base = gaussian_bump(grid, 1.0, mass=1.0), threading.active_count()
        params = [Params(chi=1.0)] * members
        for scheme in ("explicit", "semi_implicit") if grid.dim == 1 else ("explicit",):
            counts = []
            for _ in march([f] * members, params, [cfl_dt(grid, 0.0)] * members, [2] * members,
                           StepControls(scheme)):
                counts.append(threading.active_count())
            assert counts == [base + threads] * 2

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(stepping, "_cpus", lambda: 1)
        grid = make_grid(2, 5.0, 256)
        f, base = gaussian_bump(grid, 1.0, mass=1.0), threading.active_count()
        for _ in march([f], [Params(chi=1.0)], [cfl_dt(grid, 0.0)], [1]):
            assert threading.active_count() == base

    def test_worker_runs_in_the_callers_context(self):
        # np.errstate lives in a context variable, which a new thread starts without: the
        # worker's axis runs under the caller's, as the serial path does
        grid = make_grid(2, 5.0, 8)
        f, seen = gaussian_bump(grid, 1.0, mass=1.0), []

        def spy(*args, **kwargs):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()["under"]))
            return limiter(*args, **kwargs)

        with threaded_axes(), mock.patch.object(stepping, "limiter", spy), np.errstate(under="warn"):
            list(march([f], [Params(chi=1.0)], [cfl_dt(grid, 0.0)], [1]))
        assert sorted(seen) == [(False, "warn"), (True, "warn")]


def coefficient_divergence(v, g, chi, eps):
    """div(((1 - chi rho/|grad|)_+ + eps) grad v) in coefficient form, one member, written
    plainly from the difference quotients (the kernels reorder its arithmetic).

    The limiter sees the face-mean density and the face gradient norm: the two-point
    difference across the face and, in 2D, the mean of the two adjacent central
    differences along it."""
    h = g.h
    central = [np.gradient(v, h, axis=k, edge_order=2) for k in range(g.dim)]
    acc = np.zeros(g.shape)
    for axis in range(g.dim):
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
        coeff = limiter(0.5 * (v[lo] + v[hi]), np.sqrt(squared), chi) + eps
        flux = coeff * normal / h
        acc[lo] += flux
        acc[hi] -= flux
    return acc


def coefficient_step(field, params, dt):
    """The explicit update in coefficient form, one member (see ``coefficient_divergence``)."""
    v = field.values
    new = v + dt * coefficient_divergence(v, field.grid, params.chi, params.eps) - (dt * params.eps) * v
    return np.maximum(new, 0.0) if new.min() < 0.0 else new


def excess_flux(v, chi, eps, h):
    """h times the 1D face flux in excess form, sign(D) (|D| - chi h rho_face)_+ + eps D, with
    the threshold summed from cells scaled by chi h/2; returns it with the clamped excess."""
    d = v[1:] - v[:-1]
    scaled = (0.5 * h * chi) * v
    excess = np.maximum(np.abs(d) - (scaled[:-1] + scaled[1:]), 0.0)
    return np.copysign(excess + eps * np.abs(d), d), excess


def lean_2d_divergence(v, g, chi, eps):
    """h^2 times the 2D divergence of the face fluxes, in the kernel's operation order.

    Per axis, with D and P the difference and the sum of the two cells of a face: h times
    the tangential part is the central difference of P at spacing 2, N = sqrt(T^2 + D^2)
    is h |g|, and the flux is limiter(P, N, chi h/2) + eps times D; a face array padded by
    zero boundary fluxes gives the divergence by one difference per axis."""
    acc = None
    for axis in range(2):
        other = 1 - axis
        lo = (slice(None, -1), slice(None)) if axis == 0 else (slice(None), slice(None, -1))
        hi = (slice(1, None), slice(None)) if axis == 0 else (slice(None), slice(1, None))
        diff, pair = v[hi] - v[lo], v[lo] + v[hi]
        tang = np.gradient(pair, 2.0, axis=other, edge_order=2)
        coeff = limiter(pair, np.sqrt(tang * tang + diff * diff), 0.5 * g.h * chi) + eps
        flux = coeff * diff
        part = np.diff(np.pad(flux, [(1, 1) if k == axis else (0, 0) for k in range(2)]), axis=axis)
        acc = part if acc is None else acc + part
    return acc


def reference_step(field, params, dt):
    """The explicit update written plainly, one member, in the kernel's operation order:
    face fluxes h times too large (in 1D the excess form, in 2D those of
    ``lean_2d_divergence``), whose divergence is scaled by dt/h^2."""
    v, g = field.values, field.grid
    h = g.h
    if g.dim == 1:
        flux, _ = excess_flux(v, params.chi, params.eps, h)
        acc = np.zeros(g.shape)
        acc[:-1] += flux
        acc[1:] -= flux
    else:
        acc = lean_2d_divergence(v, g, params.chi, params.eps)
    new = v + (dt / (h * h)) * acc - (dt * params.eps) * v
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
            alone = explicit_step(f, p, dt)
            assert np.array_equal(row, alone)
            assert np.array_equal(row, reference_step(f, p, dt))
            # both kernels reorder the coefficient form's arithmetic, nothing more
            coef = coefficient_step(f, p, dt)
            assert np.abs(row - coef).max() <= 1e-13 * np.abs(coef).max()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 12), st.integers(3, 12), st.integers(0, 2**32 - 1))
    def test_2d_non_square_grid(self, n1, n2, seed):
        # a snapshot can give n1 != n2 cells of one width h
        h = 5.0 / n1
        grid = Grid(dim=2, shape=(n1, n2), h=h, origin=(-2.5, -0.5 * h * n2))
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1.0, (3, *grid.shape))
        values[rng.uniform(size=values.shape) < 0.3] = 0.0
        fields = [Field.density(grid, v) for v in values]
        params = [Params(chi=0.0), Params(chi=1.0, eps=0.1), Params(chi=3.0)]
        dts = [cfl_dt(grid, p.eps) for p in params]
        ((_, state),) = march(fields, params, dts, [1, 1, 1])
        for row, f, p, dt in zip(state, fields, params, dts):
            coef = coefficient_step(f, p, dt)
            assert np.abs(row - coef).max() <= 1e-13 * np.abs(coef).max()
            assert np.array_equal(row, reference_step(f, p, dt))

    def test_2d_peak_fixed_beside_moving_gaussian(self):
        grid = make_grid(2, 3.0, 24)
        # half-rate single peak: every face sub-critical for chi = 1
        peak = single_peak(grid, 0.5, (0.0, 0.0))
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

    def test_batch_members_match_lone_runs(self):
        grid = make_grid(1, 5.0, 80)
        fields = [gaussian_bump(grid, w, mass=1.0) for w in (1.0, 0.5, 0.8)]
        params = [Params(chi=1.0), Params(chi=0.0), Params(chi=2.0, eps=0.3)]
        t_ends = [0.01, 0.03, 0.0]
        trajs = run(fields, params, StepControls(), t_ends, diag_stride=[4, 1000, 2])
        for traj, f, p, t_end, stride in zip(trajs, fields, params, t_ends, [4, 1000, 2]):
            alone, = run([f], [p], StepControls(), [t_end], diag_stride=stride)
            assert [r.time for r in traj.records] == [r.time for r in alone.records]
            assert [r.sup_norm for r in traj.records] == [r.sup_norm for r in alone.records]
            assert np.array_equal(traj.final.values, alone.final.values)

    def test_run_refuses_an_underflowing_cfl_step(self):
        # run took the step of 0 into time_mesh, which divided t_end by it
        grid = make_grid(1, 1e-168, 10)
        with pytest.raises(ValueError, match="underflows to 0"):
            run([Field.density(grid, np.ones(10))], [Params(1.0)], StepControls(), [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_member_named(self, bad, monkeypatch):
        # the step-7 output of the second of members 3, 4 and 5 is spoiled before its check
        grid = make_grid(1, 1.0, 3)
        fields = [Field.density(grid, np.array(v)) for v in ([1.0, 0.5, 0.0], [1.0, 0.5, 0.0], [0.2, 0.1, 0.0])]
        dt, checks, finalize = cfl_dt(grid, 0.0), [], stepping._finalize

        def spoiled(values):
            checks.append(len(values))
            if len(checks) == 7:
                values[1, 1] = bad
            return finalize(values)

        monkeypatch.setattr(stepping, "_finalize", spoiled)
        with pytest.raises(NumericalFailureError) as err:
            list(march(fields, [Params(chi=1.0)] * 3, [dt] * 3, [9] * 3, members=[3, 4, 5]))
        exc = err.value
        assert (exc.row, exc.member, exc.step, exc.time) == (1, 4, 7, 7 * dt)
        assert str(exc) == f"non-finite value produced by a time step (member 4, step 7, t = {7 * dt!r})"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_member_fails_with_its_step(self):
        grid = make_grid(1, 1.0, 20)  # h = 0.1: the spike's two face fluxes sum past 1.8e308
        calm = gaussian_bump(grid, 0.3, mass=1.0)
        wild = Field.density(grid, np.where(np.arange(20) == 10, 1e308, 0.0))
        with pytest.raises(NumericalFailureError, match=r"non-finite.*member 1, step 1"):
            run([calm, wild], [Params(chi=1.0)] * 2, StepControls(), [0.01, 0.01])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_with_chi_zero_fails_with_its_step(self):
        # 1e308 beside 1.5e308 with chi = 0: the face mean overflows and the threshold must not
        # become inf*0 = NaN clamped to a zero flux; the overflowing cell sum fails the step
        grid = make_grid(1, 1.0, 20)
        calm = gaussian_bump(grid, 0.3, mass=1.0)
        vals = np.zeros(20)
        vals[9:11] = 1e308, 1.5e308
        with pytest.raises(NumericalFailureError, match=r"non-finite.*member 1, step 1"):
            run([calm, Field.density(grid, vals)], [Params(chi=0.0)] * 2, StepControls(), [0.01, 0.01])

    @pytest.mark.parametrize("chi", [0.0, 0.5])
    def test_huge_neighbours_keep_their_flux(self, chi):
        # every face mean overflows, but the threshold is summed from scaled cells, so with
        # chi = 0 it is 0 (not inf*0 = NaN, which a NaN-dropping clamp turns into a zero flux);
        # scaling by a power of two commutes with every rounding of the step
        grid = make_grid(1, 1.0, 4)
        vals, scale = np.array([1e308, 1.5e308, 1.5e308, 1e308]), 2.0**-1000
        dt = cfl_dt(grid, 0.0)
        (_, big), = march([Field.density(grid, vals)], [Params(chi=chi)], [dt], [1])
        (_, small), = march([Field.density(grid, vals * scale)], [Params(chi=chi)], [dt], [1])
        assert np.all(np.isfinite(big)) and big[0, 0] > vals[0]
        assert np.array_equal(big * scale, small)

    def test_non_finite_threshold_is_not_clamped_away(self):
        # chi = 0 beside an inf cell makes the threshold inf*0 = NaN; the clamp keeps it
        vals = np.array([[1.0, np.inf, 0.0]])
        bufs = stepping._buffers(make_grid(1, 1.0, 3), 1)
        with np.errstate(invalid="ignore"):
            (flux, _), = stepping._face_flux(vals, 0.0, None, bufs)
        clipped = bufs[0][4]  # the clip, in P's buffer
        assert np.isnan(flux[:, :-1]).all() and np.isnan(clipped[:, :-1]).all()

    @pytest.mark.parametrize("scheme,big", [("explicit", 1e300), ("semi_implicit", 1e150)])
    def test_members_apart_across_huge_jumps(self, scheme, big, monkeypatch):
        # the 1D kernel runs over the members end to end: zeros beside `big` and chi 3 beside
        # chi 0 at the faces between members, whose flux must be exactly 0 and leave every
        # row bitwise equal to its lone run
        grid, ramp = make_grid(1, 1.0, 12), np.linspace(1.0, 0.0, 12)
        fields = [Field.density(grid, v) for v in (ramp, big * (1.0 - 0.5 * ramp[::-1]), ramp[::-1])]
        params = [Params(chi=3.0, eps=0.2), Params(chi=0.0, eps=0.5), Params(chi=3.0)]
        multiple = 10.0 if scheme == "semi_implicit" else 1.0
        dts, n_steps = [multiple * cfl_dt(grid, p.eps) for p in params], [4, 3, 2]
        between, face_flux = [], stepping._face_flux

        def flux(values, half_chi_h, eps, out):
            result = face_flux(values, half_chi_h, eps, out)
            between.append(out[0][5][:-1, -1].copy())
            return result

        monkeypatch.setattr(stepping, "_face_flux", flux)
        rows = {(i, k): row.copy() for k, state in march(fields, params, dts, n_steps, StepControls(scheme))
                for i, row in enumerate(state)}
        assert between and all(np.array_equal(faces, np.zeros(faces.size)) for faces in between)
        for i, (f, p, dt, n) in enumerate(zip(fields, params, dts, n_steps)):
            for k, state in march([f], [p], [dt], [n], StepControls(scheme)):
                assert np.array_equal(rows[i, k], state[0])
        assert rows[1, 3].max() > 0.1 * big and rows[0, 4].max() < 1.0

    @pytest.mark.parametrize("first,second,chi,eps", [
        ([0.0, 0.0, 0.0, 1.5e308], [1.5e308, 0.0, 0.0, 0.0], 4.0, 0.0),  # threshold 3e308
        ([1e10] * 4, [0.0] * 4, 1.0, 1e299),  # eps |D| = 1e309
        # 2D on 12^2: the 2D kernel's passes run across the member boundary too, where D^2 is 1e310
        (np.full((12, 12), 1e155), 1e-3 * np.linspace(0.0, 1.0, 144).reshape(12, 12) ** 2, 1.0, 0.0),
    ])
    def test_members_apart_without_warning(self, first, second, chi, eps):
        # the face between the members overflows (in 1D h = 0.5, so chi 4 makes chi h/2 = 1),
        # but each member alone overflows nowhere, so the batch must not warn either
        grid, p = make_grid(np.ndim(first), 1.0, len(first)), Params(chi=chi, eps=eps)
        fields, dt = [Field.density(grid, np.array(v)) for v in (first, second)], cfl_dt(grid, eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (_, state), = march(fields, [p, p], [dt, dt], [1, 1])
            for f, row in zip(fields, state):
                assert np.array_equal(explicit_step(f, p, dt), row)

    def test_operand_rows_match_lone_runs(self, monkeypatch):
        # a 1D explicit block takes its per-member operands as per-cell rows; every member,
        # the chi = 0 and the absorbing one among them, still steps bitwise as its lone run
        grid = make_grid(1, 5.0, 80)
        fields = [gaussian_bump(grid, w, mass=1.0) for w in (1.0, 0.5, 0.8)]
        params = [Params(chi=1.0), Params(chi=0.0), Params(chi=2.0, eps=0.3)]
        dts, n_steps = [cfl_dt(grid, p.eps) for p in params], [7, 5, 3]
        shapes, face_flux = set(), stepping._face_flux

        def flux(values, half_chi_h, eps, out):
            shapes.add((np.shape(half_chi_h), np.shape(eps)))
            return face_flux(values, half_chi_h, eps, out)

        monkeypatch.setattr(stepping, "_face_flux", flux)
        rows = {(i, k): row.copy() for k, state in march(fields, params, dts, n_steps)
                for i, row in enumerate(state)}
        assert shapes == {((live, 80), (live, 80)) for live in (1, 2, 3)}
        for i, (f, p, dt, n) in enumerate(zip(fields, params, dts, n_steps)):
            alone = {k: state[0].copy() for k, state in march([f], [p], [dt], [n])}
            assert sorted(alone) == [k for j, k in sorted(rows) if j == i] == list(range(1, n + 1))
            assert all(np.array_equal(rows[i, k], row) for k, row in alone.items())
            assert np.array_equal(alone[1], reference_step(f, p, dt))

    def test_roundoff_negative_clamped_in_own_row_only(self):
        values = np.array([[1.0, -1e-16, 0.5], [2.0, 0.25, 1e-300]])
        out = _finalize(values)
        assert np.array_equal(out[0], [1.0, 0.0, 0.5])
        assert np.array_equal(out[1], values[1])
        assert values[0, 1] == -1e-16  # the raw step output is left as it was

    def test_negativity_floor_is_per_member(self):
        # -1e-8 is roundoff beside 1e6 but not beside 1.0
        values = np.array([[1e6, -1e-8], [1.0, -1e-12]])
        with pytest.raises(NumericalFailureError, match=r"^negative density -1e-12 beyond the roundoff floor") as err:
            _finalize(values)
        assert err.value.row == 1

    def test_cfl_violation_by_any_member(self):
        grid = make_grid(1, 5.0, 50)
        f = gaussian_bump(grid, 1.0, mass=1.0)
        dt = cfl_dt(grid, 0.0)  # within the inviscid ceiling, above the viscous one
        with pytest.raises(CflViolationError, match="member 1"):
            next(march([f, f], [Params(chi=1.0), Params(chi=1.0, eps=1.0)], [dt, dt], [3, 3]))
        with pytest.raises(CflViolationError):
            run([f, f], [Params(chi=1.0), Params(chi=1.0, eps=1.0)], StepControls(dt=dt), [0.01, 0.01])

    def test_step_count_order_enforced(self):
        grid = make_grid(1, 5.0, 50)
        f = gaussian_bump(grid, 1.0, mass=1.0)
        with pytest.raises(ValueError, match="non-increasing"):
            next(march([f, f], [Params(chi=1.0)] * 2, [1e-4] * 2, [2, 3]))


def inviscid_flux(z, chi, h):
    """The face fluxes that ``_face_flux`` gives one state with no viscous term."""
    bufs = stepping._buffers(make_grid(1, 1.0, z.size), 1)
    (upper, _), = stepping._face_flux(z[None], 0.5 * h * chi, None, bufs)
    return upper[0, :-1]


def linearized_operator(u, flux, chi, eps, dt, h):
    """(1 + eps dt) u - dt div F(u) for every column of ``u``, the face flux F linearized
    where ``_face_flux`` gave ``flux``, written face by face."""
    active, sign = (flux != 0.0)[:, None], np.sign(flux)[:, None]
    g, rho_face = np.diff(u, axis=0) / h, 0.5 * (u[1:] + u[:-1])
    flux = np.where(active, (1.0 + eps) * g - chi * sign * rho_face, eps * g)
    div = np.diff(np.pad(flux, ((1, 1), (0, 0))), axis=0) / h
    return (1.0 + eps * dt) * u - dt * div


# 2^k and 2^k +- 1, and both sides of the solve's dense cutoff
SOLVE_SIZES = sorted({2**k + j for k in range(2, 9) for j in (-1, 0, 1)}
                     | {stepping._DENSE, stepping._DENSE + 1})


@pytest.mark.parametrize("chi_h", [1e-3, 0.01, 0.1, 1.0, 1.9])
@pytest.mark.parametrize("kind,peaks", [("single_peak", ((1.0, 0.3),)),
                                        ("multi_peak", ((1.0, -1.5), (0.6, 1.2)))])
def test_sampled_1d_peaks_stay_bitwise_fixed(kind, peaks, chi_h):
    # every face of a sampled peak is sub-critical (2 tanh(chi h/2) < chi h), so the excess is <= 0
    grid = make_grid(1, 5.0, 400)
    chi = chi_h / grid.h
    amps, centers = zip(*peaks)
    if kind == "single_peak":
        peak = single_peak(grid, chi, centers[0], amps[0])
    else:
        peak = multi_peak(grid, chi, centers, amps)
    for _, state in march([peak], [Params(chi=chi)], [cfl_dt(grid, 0.0)], [50]):
        assert np.array_equal(state[0], peak.values)


@pytest.mark.parametrize("chi", [0.3, 1.0, 4.0])
def test_sampled_2d_factorized_peak_stays_bitwise_fixed(chi):
    # the 2D face gradient adds the averaged tangential differences, so a sample at the full
    # rate is stationary only to O(h) (the steady check's allowance); at 0.9 of it every face
    # is sub-critical (the single peak is TestBatchedKernel::test_2d_peak_fixed_beside_moving_gaussian)
    grid = make_grid(2, 3.0, 32)
    peak = factorized(grid, 0.9 * chi, (0.2, -0.4))
    for _, state in march([peak], [Params(chi=chi)], [cfl_dt(grid, 0.0)], [50]):
        assert np.array_equal(state[0], peak.values)


@st.composite
def fields_2d(draw):
    L, n1, n2 = draw(st.sampled_from([1.0, 3.0])), draw(st.integers(3, 32)), draw(st.integers(3, 32))
    h = 2.0 * L / n1
    grid = Grid(dim=2, shape=(n1, n2), h=h, origin=(-L, -0.5 * h * n2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.uniform(0.0, 1.0, grid.shape) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    vals[rng.uniform(size=grid.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    params = Params(chi=draw(st.floats(0.0, 30.0)), eps=draw(st.sampled_from([0.0, 0.1])))
    dt = cfl_dt(grid, params.eps) * draw(st.sampled_from([0.5, 1.0]))
    return Field.density(grid, vals), params, dt


@settings(max_examples=150, deadline=None)
@given(fields_2d())
def test_explicit_2d_structure(case):
    # positivity, the 1 - eps dt mass law, and per-step L2, L4 and sup non-increase
    f, params, dt = case
    v = f.values
    out = explicit_step(f, params, dt)
    assert out.min() >= 0.0
    assert out.sum() == pytest.approx((1.0 - params.eps * dt) * v.sum(), rel=1e-13, abs=1e-300)
    for p in (2, 4):
        assert np.sum(out**p) <= np.sum(v**p) * (1.0 + 1e-12)
    assert out.max() <= v.max() * (1.0 + 1e-14)


@st.composite
def kruzhkov_cases(draw, dim):
    grid = make_grid(dim, draw(st.sampled_from([1.0, 5.0])), draw(st.integers(3, 200 if dim == 1 else 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.uniform(0.0, 1.0, grid.shape) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    vals[rng.uniform(size=grid.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    dt = cfl_dt(grid, 0.0) * draw(st.floats(0.1, 1.0))
    return Field.density(grid, vals), Params(chi=draw(st.floats(0.0, 30.0))), dt


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_explicit_kruzhkov_entropies_decay(dim, data):
    # at eps = 0 every integral of (rho - k)_+, k >= 0, is non-increasing step by step: with the
    # conserved mass, the family holds every convex entropy, so Lp decay for every p at once
    f, params, dt = data.draw(kruzhkov_cases(dim))
    levels = np.quantile(f.values, [0.0, 0.2, 0.5, 0.8, 0.95, 1.0])
    slack = 8.0 * np.finfo(float).eps * f.values.sum()
    before = f.values
    for _, state in march([f], [params], [dt], [5]):
        for k in levels:
            assert np.maximum(state[0] - k, 0.0).sum() <= np.maximum(before - k, 0.0).sum() + slack
        before = state[0].copy()


class TestStepSemiImplicit:
    def test_uniform_fixed_point_value(self, grid1d):
        eps, dt = 0.5, 0.1
        f = Field.density(grid1d, np.full(grid1d.shape, 2.0))
        out, trace = implicit_solve(f, Params(chi=1.0, eps=eps), dt)
        assert np.allclose(out, 2.0 / (1.0 + eps * dt), rtol=1e-11)
        assert len(trace) <= 3  # hits the fixed point after one pass

    def test_small_dt_consistency(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        out = implicit_step(f, Params(chi=1.0), 1e-8)
        rel = np.sum(np.abs(out - f.values)) / np.sum(f.values)
        assert rel <= 1e-6

    def test_cross_scheme_consistency(self, grid1d):
        # one step at dt = cfl/4 on a smooth supercritical bump
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        dt = cfl_dt(grid1d, 0.0) / 4.0
        e = explicit_step(f, Params(chi=1.0), dt)
        s = implicit_step(f, Params(chi=1.0), dt)
        rel = np.sum(np.abs(e - s)) * grid1d.cell_volume
        assert rel <= 10.0 * dt

    def test_monotone_residual_on_standard_bump(self):
        # regression: residual trace strictly decreasing at dt = 10*cfl
        grid = make_grid(1, 5.0, 400)
        bump = gaussian_bump(grid, 0.5, mass=1.0)
        dt = 10.0 * cfl_dt(grid, 0.0)
        out, trace = implicit_solve(bump, Params(chi=1.0), dt)
        assert trace[-1] <= 1e-10
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert out.min() >= 0.0

    def test_divergence_reported(self, grid1d, monkeypatch):
        monkeypatch.setattr(stepping, "_PICARD_MAX_ITER", 1)
        f = gaussian_bump(grid1d, 0.5, mass=1.0)
        dt = 10.0 * cfl_dt(grid1d, 0.0)
        with pytest.raises(PicardDivergenceError) as err:
            implicit_solve(f, Params(chi=1.0), dt)
        assert err.value.trace[-1] > 0.0 and len(err.value.trace) == 2
        assert err.value.step is None

    @pytest.mark.parametrize("multiple", [1e-3, 0.1, 1.0, 10.0])
    def test_cap_admits_a_converged_last_update(self, grid1d, multiple, monkeypatch):
        # a step whose last allowed update reaches picard_tol converges: at 1e-3 times the CFL
        # step the trace is (1.7e-7, 0.0), and a cap of one update raised on it
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        dt = multiple * cfl_dt(grid1d, 0.0)
        out, trace = implicit_solve(f, Params(chi=1.0), dt)
        assert len(trace) >= 2 and trace[-1] <= 1e-10 < trace[-2]
        monkeypatch.setattr(stepping, "_PICARD_MAX_ITER", len(trace) - 1)
        capped, capped_trace = implicit_solve(f, Params(chi=1.0), dt)
        assert np.array_equal(capped, out) and capped_trace == trace
        if len(trace) > 2:  # one update fewer fails
            monkeypatch.setattr(stepping, "_PICARD_MAX_ITER", len(trace) - 2)
            with pytest.raises(PicardDivergenceError):
                implicit_solve(f, Params(chi=1.0), dt)

    def test_run_locates_failure(self, grid1d, monkeypatch):
        monkeypatch.setattr(stepping, "_PICARD_MAX_ITER", 1)
        f = gaussian_bump(grid1d, 0.5, mass=1.0)
        dt = 10.0 * cfl_dt(grid1d, 0.0)
        with pytest.raises(PicardDivergenceError) as err:
            run([f], [Params(chi=1.0)], StepControls("semi_implicit", dt=dt), [5 * dt])
        exc = err.value
        assert (exc.member, exc.step, exc.time) == (0, 1, pytest.approx(dt, rel=1e-12))
        assert exc.trace[-1] > 0.0
        assert str(exc).endswith(f" (member 0, step 1, t = {exc.time!r})")
        assert isinstance(exc, NumericalFailureError)

    def test_run_names_the_failing_member(self, grid1d, monkeypatch):
        # run puts the longer member 1 first in its batch: the failure names member 1, not row 0
        monkeypatch.setattr(stepping, "_PICARD_MAX_ITER", 1)
        flat = Field.density(grid1d, np.full(grid1d.shape, 0.5))  # a fixed point: no update needed
        bump = gaussian_bump(grid1d, 0.5, mass=1.0)
        dt = 10.0 * cfl_dt(grid1d, 0.0)
        with pytest.raises(PicardDivergenceError) as err:
            run([flat, bump], [Params(chi=1.0)] * 2, StepControls("semi_implicit", dt=dt), [dt, 5 * dt])
        exc = err.value
        assert (exc.row, exc.member, exc.step, exc.time) == (0, 1, 1, pytest.approx(dt, rel=1e-12))
        assert re.fullmatch(r"Picard iteration exceeded 1 sweeps \(last fixed-point residual \S+\) "
                            r"\(member 1, step 1, t = \S+\)", str(exc))

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_tridiagonal_solve_is_exact(self, eps):
        # the backward-Euler operator linearized at z, applied face by face, returns rho
        grid = make_grid(1, 5.0, 400)
        h, chi = grid.h, 1.0
        rho = gaussian_bump(grid, 0.5, mass=1.0).values
        z = poly_spike(grid, 1.5, 2.0).values + 0.1 * rho  # linearize at another state
        dt = 20.0 * cfl_dt(grid, eps)
        flux = inviscid_flux(z, chi, h)
        active = flux != 0.0
        assert 0 < active.sum() < active.size
        u = active_set_solve(flux, rho, chi, eps, dt, h)
        applied = linearized_operator(u[:, None], flux, chi, eps, dt, h)[:, 0]
        assert np.abs(applied - rho).max() <= 1e-12 * np.abs(rho).max()

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.integers(3, 300), st.sampled_from(SOLVE_SIZES)), st.floats(0.0, 1.5),
           st.floats(0.0, 1.0), st.floats(0.1, 1000.0), st.floats(1e-3, 2.0), st.integers(0, 2**32 - 1))
    def test_tridiagonal_solve_matches_dense(self, n, ratio, eps, multiple, h, seed):
        # chi h = ratio * 2 (1 + eps): an M-matrix up to ratio 1; beyond it a step of 10x the
        # CFL step can be ill-conditioned for any solver (condition numbers past 1e3), so
        # those steps stay within 3x the CFL step
        rng = np.random.default_rng(seed)
        flux = rng.standard_normal(n - 1) * (rng.uniform(size=n - 1) < 0.5)  # signed, with exact zeros
        rho = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.7)
        chi, m_matrix = ratio * 2.0 * (1.0 + eps) / h, ratio <= 1.0
        dt = (multiple if m_matrix else min(multiple, 3.0)) * 0.45 * h * h / (2.0 * (1.0 + eps))
        u = active_set_solve(flux, rho, chi, eps, dt, h)
        dense = linearized_operator(np.eye(n), flux, chi, eps, dt, h)
        assert np.abs(dense @ u - rho).max() <= 1e-12 * np.abs(rho).max()
        assert np.abs(u - np.linalg.solve(dense, rho)).max() <= 1e-12 * np.abs(u).max()
        if m_matrix:
            assert u.min() >= 0.0

    def test_tridiagonal_solve_beyond_m_matrix(self):
        # chi h = 3 (1 + eps) with a signed state: active faces couple with the wrong sign
        grid = make_grid(1, 5.0, 200)
        h, eps = grid.h, 0.1
        chi = 3.0 * (1.0 + eps) / h
        z = gaussian_bump(grid, 0.5, mass=1.0).values - 0.8 * poly_spike(grid, 1.5, 2.0).values
        flux = inviscid_flux(z, chi, h)
        dt = 10.0 * cfl_dt(grid, eps)
        dense = linearized_operator(np.eye(grid.shape[0]), flux, chi, eps, dt, h)
        off = np.concatenate([np.diag(dense, 1), np.diag(dense, -1)])
        assert off.max() > 0.0 > off.min()
        rho = gaussian_bump(grid, 1.0, mass=1.0).values
        u = active_set_solve(flux, rho, chi, eps, dt, h)
        assert np.abs(u - np.linalg.solve(dense, rho)).max() <= 1e-12 * np.abs(u).max()
        assert np.abs(dense @ u - rho).max() <= 1e-12 * np.abs(rho).max()

    @pytest.mark.parametrize("failing", [0, 1, 2])
    @pytest.mark.parametrize("cell", [0, 50, 102])
    def test_batched_solve_names_failing_member(self, failing, cell):
        # the members' systems are laid end to end, with no padding at 103 cells (26 * 2^2 - 1):
        # a non-finite one spoils no other
        faces = np.full((3, 102), 2.0)
        rhs = np.ones((3, 103))
        rhs[failing, cell] = np.inf
        reduction = _active_set_matrix(faces, 1.0, 0.5, 0.1, 0.1)  # every face couples (eps > 0)
        with pytest.raises(NumericalFailureError, match="non-finite") as err:
            reduction.solve(rhs)
        assert err.value.row == failing
        rhs[failing, cell] = 1.0
        assert np.isfinite(reduction.solve(rhs)).all()

    def test_last_linearization_reused_only_for_its_faces(self):
        # a previous linearization at another point, with the same active set but other
        # signs, is not reused
        grid = make_grid(1, 5.0, 200)
        rho, h = gaussian_bump(grid, 0.5, mass=1.0).values[None], grid.h
        dt, bufs = 10.0 * cfl_dt(grid, 0.0), stepping._buffers(grid, 1)
        faces = stepping._faces(inviscid_flux(rho[0], 1.0, h))[None]
        assert (faces != 2.0).any()
        flipped = np.where(faces == 2.0, 2.0, -faces)
        stale = (rho[:, ::-1].copy(), flipped, _active_set_matrix(flipped, 1.0, 0.0, dt, h))
        assert not np.array_equal(stale[0], rho)
        fresh, trace, _ = step_semi_implicit(rho, 1.0, 0.0, dt, h, StepControls(), bufs)
        again, again_trace, _ = step_semi_implicit(rho, 1.0, 0.0, dt, h, StepControls(), bufs, stale)
        assert np.array_equal(again, fresh) and again_trace == trace

    def test_last_sweep_is_at_the_solution(self, monkeypatch):
        # the sweep that confirms a step's solution linearizes at it, so the next step, which
        # starts there, takes that linearization without a face flux and equals bitwise the
        # same step solved from scratch. The tails of this narrow bump grow more than twofold
        # in the step, where z + (T(z) - z) would round T(z) off.
        grid = make_grid(1, 5.0, 200)
        rho, h = gaussian_bump(grid, 0.2, mass=1.0).values[None], grid.h
        dt, bufs = 10.0 * cfl_dt(grid, 0.0), stepping._buffers(grid, 1)
        u, _, last = step_semi_implicit(rho, 1.0, 0.0, dt, h, StepControls(), bufs)
        assert np.array_equal(last[0], u)
        fresh, (trace,), _ = step_semi_implicit(u, 1.0, 0.0, dt, h, StepControls(), bufs)
        points, face_flux = [], stepping._face_flux

        def flux(values, *args):
            points.append(values.copy())
            return face_flux(values, *args)

        monkeypatch.setattr(stepping, "_face_flux", flux)
        again, (again_trace,), _ = step_semi_implicit(u, 1.0, 0.0, dt, h, StepControls(), bufs, last)
        assert np.array_equal(again, fresh) and again_trace == trace
        assert len(points) == len(trace) - 1 and not any(np.array_equal(z, u) for z in points)

    def test_tridiagonal_solve_rejects_indefinite_matrix(self):
        # eps = -1/2 on three cells: eigenvalues 0.5, 0 and -1, exact in floating point
        with pytest.raises(NumericalFailureError, match="tridiagonal solve failed: singular matrix"):
            active_set_solve(np.zeros(2), np.ones(3), 1.0, -0.5, 1.0, 1.0)

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_converged_step_is_exact_nonlinear_solve(self, eps):
        # a fixed point of the active-set sweep solves the nonlinear equation itself
        grid = make_grid(1, 5.0, 400)
        rho = gaussian_bump(grid, 0.5, mass=1.0).values
        dt = 20.0 * cfl_dt(grid, eps)
        u = implicit_step(Field.density(grid, rho), Params(chi=1.0, eps=eps), dt)
        div = coefficient_divergence(u, grid, 1.0, eps)
        applied = (1.0 + eps * dt) * u - dt * div
        assert np.abs(applied - rho).max() <= 1e-12 * np.abs(rho).max()

    @pytest.mark.parametrize("multiple", [50, 100, 1000])
    def test_large_dt_converges(self, multiple):
        # the frozen-coefficient Picard iteration stalled above tolerance at all three
        grid = make_grid(1, 5.0, 1000)
        f = gaussian_bump(grid, 1.0, mass=1.0)
        ctr = StepControls("semi_implicit")
        out, trace = implicit_solve(f, Params(chi=1.0), multiple * cfl_dt(grid, 0.0), ctr)
        assert trace[-1] <= ctr.picard_tol and len(trace) <= 30
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(f.values.sum(), rel=1e-12)

    def test_few_sweeps_per_step(self, monkeypatch):
        # 2000 cells at 10x CFL to t = 0.01: 178 steps
        calls = {"sweeps": 0, "reductions": 0, "solves": 0}

        def counted(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(stepping, "_face_flux", counted("sweeps", stepping._face_flux))
        monkeypatch.setattr(stepping, "_active_set_matrix", counted("reductions", _active_set_matrix))
        monkeypatch.setattr(stepping._Reduction, "solve", counted("solves", stepping._Reduction.solve))
        grid = make_grid(1, 5.0, 2000)
        dt = 10.0 * cfl_dt(grid, 0.0)
        run([gaussian_bump(grid, 1.0, mass=1.0)], [Params(chi=1.0)], StepControls("semi_implicit", dt=dt), [0.01],
            diag_stride=10**9)
        # a step's first sweep takes the last step's confirming linearization, at its start, so
        # a step computes the face flux once, to confirm its solution, and again for each new matrix
        assert calls["sweeps"] <= 178 + calls["reductions"]
        # a step solves once, and again only for a new matrix; most steps keep the last one
        assert 178 <= calls["solves"] <= 178 + calls["reductions"] and calls["reductions"] < 178 // 2

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_reused_reduction_matches_fresh_solve(self, eps):
        # each step of a march, which hands a member's last reduction on, equals bitwise the
        # same step solved from scratch
        grid = make_grid(1, 5.0, 400)
        params, dt = Params(chi=1.0, eps=eps), 10.0 * cfl_dt(grid, eps)
        f = gaussian_bump(grid, 0.5, mass=1.0)
        prev = f.values
        for _, state in march([f], [params], [dt], [20], StepControls("semi_implicit")):
            fresh, _ = implicit_solve(Field.density(grid, prev), params, dt)
            assert np.array_equal(state[0], fresh)
            prev = state[0].copy()

    def test_clamped_state_linearized_afresh(self, monkeypatch):
        # a roundoff negative that _finalize clamps moves a step's state off the point of the
        # last sweep: the next step computes the face flux at it and equals bitwise the same
        # step solved from scratch
        grid = make_grid(1, 5.0, 400)
        params, dt = Params(chi=1.0), 10.0 * cfl_dt(grid, 0.0)
        f = gaussian_bump(grid, 0.5, mass=1.0)
        finalize, face_flux, points = stepping._finalize, stepping._face_flux, []

        def negative_edge(values):
            assert values[0, 0] > 0.0
            values[0, 0] = -1e-30  # within the roundoff floor
            return finalize(values)

        def flux(values, *args):
            points.append(values.copy())
            return face_flux(values, *args)

        monkeypatch.setattr(stepping, "_finalize", negative_edge)
        monkeypatch.setattr(stepping, "_face_flux", flux)
        steps = [(f.values, 0)]  # each step's state and the face fluxes computed by then
        for _, state in march([f], [params], [dt], [5], StepControls("semi_implicit")):
            assert state[0, 0] == 0.0
            steps.append((state[0].copy(), len(points)))
        monkeypatch.undo()
        for (prev, begun), (cur, done) in zip(steps, steps[1:]):
            assert any(np.array_equal(z[0], prev) for z in points[begun:done])
            fresh, _ = implicit_solve(Field.density(grid, prev), params, dt)
            fresh[0] = 0.0
            assert np.array_equal(cur, fresh)

    def test_coarse_grid_stays_nonnegative(self):
        # chi*h = 3 > 2: no face of a nonnegative state can be active
        grid = make_grid(1, 5.0, 10)
        rng = np.random.default_rng(3)
        for eps in (0.0, 0.1):
            for _ in range(10):
                vals = rng.uniform(0.0, 1.0, grid.shape) * (rng.uniform(size=grid.shape) < 0.5)
                f = Field.density(grid, vals)
                for multiple in (1.0, 100.0, 1000.0):
                    dt = multiple * cfl_dt(grid, eps)
                    out = implicit_step(f, Params(chi=3.0, eps=eps), dt)
                    assert out.min() >= 0.0

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_sweep_active_set_is_positive_excess(self, eps, monkeypatch):
        # every sweep's matrix has the faces where the excess |D| - chi h rho_face is positive
        # at the iterate: a new one is built from the iterate, or the last one has them
        grid = make_grid(1, 5.0, 400)
        h, chi = grid.h, 1.0
        iterates, matrices, face_flux = [], [], stepping._face_flux

        def flux(values, *args):
            iterates.append(values.copy())
            return face_flux(values, *args)

        def matrix(faces, *args):
            matrices.append((len(iterates), faces[0] != 2.0, faces[0]))
            return _active_set_matrix(faces, *args)

        monkeypatch.setattr(stepping, "_face_flux", flux)
        monkeypatch.setattr(stepping, "_active_set_matrix", matrix)
        f = gaussian_bump(grid, 0.5, mass=1.0)
        implicit_step(f, Params(chi=chi, eps=eps), 20.0 * cfl_dt(grid, eps))
        assert len(iterates) >= 2 and matrices[0][0] == 1
        for k, (z,) in enumerate(iterates, 1):
            _, active, sign = [m for m in matrices if m[0] <= k][-1]
            _, excess = excess_flux(z, chi, 0.0, h)
            assert np.array_equal(active, excess > 0.0) and 0 < active.sum() < active.size
            assert np.array_equal(sign[active], np.sign(np.diff(z))[active])
            # and, away from roundoff, the limiter's positive set
            lim = limiter(0.5 * (z[1:] + z[:-1]), np.abs(np.diff(z)) / h, chi)
            clear = np.abs(np.abs(np.diff(z)) / h - chi * 0.5 * (z[1:] + z[:-1])) > 1e-12
            assert np.array_equal(active[clear], lim[clear] > 0.0)

    def test_batch_rows_equal_lone_runs(self):
        # members with their own chi, eps, dt and step count, solved in turn in one batch
        grid = make_grid(1, 5.0, 80)
        fields = [gaussian_bump(grid, w, mass=1.0) for w in (1.0, 0.5, 0.8)]
        params = [Params(chi=1.0), Params(chi=0.0, eps=0.3), Params(chi=2.0, eps=0.1)]
        dts = [m * cfl_dt(grid, p.eps) for m, p in zip((10.0, 3.0, 30.0), params)]
        n_steps = [6, 4, 1]
        rows = {}
        for k, state in march(fields, params, dts, n_steps, StepControls("semi_implicit")):
            rows.update(((i, k), row.copy()) for i, row in enumerate(state))
        for i, (f, p, dt, n) in enumerate(zip(fields, params, dts, n_steps)):
            alone = {k: state[0].copy() for k, state in march([f], [p], [dt], [n], StepControls("semi_implicit"))}
            assert sorted(alone) == [k for j, k in sorted(rows) if j == i] == list(range(1, n + 1))
            assert all(np.array_equal(rows[i, k], row) for k, row in alone.items())

    def test_backtracking_members_equal_lone_steps(self, monkeypatch):
        # vacuum data at chi 3 and 300x the CFL step halve theta (seeds 2, 12 and 53: 9, 10 and
        # 28 times); theta and the accepted point are each member's own, so beside a Gaussian
        # every row of the batch and its trace equal bitwise the member's lone step
        grid = make_grid(1, 5.0, 60)
        h, dt, params = grid.h, 300.0 * cfl_dt(grid, 0.0), Params(chi=3.0)
        fields = [gaussian_bump(grid, 1.0, mass=1.0)]
        for seed in (2, 12, 53):
            rng = np.random.default_rng(seed)
            vals = rng.uniform(0.0, 1.0, grid.shape)
            vals[rng.uniform(size=grid.shape) < 0.3] = 0.0
            fields.append(Field.density(grid, vals))
        n = len(fields)
        out, traces, _ = step_semi_implicit(np.stack([f.values for f in fields]), np.full((n, 1), params.chi),
                                            np.zeros((n, 1)), np.full((n, 1), dt), h, StepControls(),
                                            stepping._buffers(grid, n))
        sweeps, face_flux = [], stepping._face_flux

        def flux(*args):
            sweeps.append(None)
            return face_flux(*args)

        monkeypatch.setattr(stepping, "_face_flux", flux)
        for k, (f, row, trace) in enumerate(zip(fields, out, traces)):
            sweeps.clear()
            alone, alone_trace = implicit_solve(f, params, dt)
            assert np.array_equal(row, alone) and trace == alone_trace
            assert trace[-1] <= StepControls().picard_tol
            if k:  # a sweep that is not accepted halved theta
                assert len(sweeps) > len(trace)

    def test_2d_field_rejected(self):
        f = gaussian_bump(make_grid(2, 5.0, 20), 0.5, mass=1.0)
        with pytest.raises(ValueError, match="1D only"):
            next(march([f], [Params(chi=1.0)], [0.01], [1], StepControls("semi_implicit")))
        with pytest.raises(ValueError, match="1D only"):
            run([f], [Params(chi=1.0)], StepControls("semi_implicit", dt=0.01), [0.02])

    def test_spike_with_vacuum_stays_nonnegative(self):
        # the 1D matrix is an M-matrix: the exact solve needs no negativity allowance
        grid = make_grid(1, 5.0, 400)
        spike = poly_spike(grid, 0.5, 2.0)
        assert spike.values.min() == 0.0
        dt = 20.0 * cfl_dt(grid, 0.0)
        v = spike.values
        assert active_set_solve(inviscid_flux(v, 1.0, grid.h), v, 1.0, 0.0, dt, grid.h).min() >= 0.0
        out = implicit_step(spike, Params(chi=1.0), dt)
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(spike.values.sum(), rel=1e-12)


@st.composite
def implicit_steps(draw):
    grid = make_grid(1, draw(st.sampled_from([1.0, 5.0, 20.0])), draw(st.integers(10, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.uniform(0.0, 1.0, grid.shape) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    vals[rng.uniform(size=grid.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    params = Params(chi=draw(st.floats(0.0, 10.0)), eps=draw(st.sampled_from([0.0, 0.1, 0.7])))
    dt = cfl_dt(grid, params.eps) * draw(st.floats(1.0, 1000.0))
    return Field.density(grid, vals), params, dt


@settings(max_examples=60, deadline=None)
@given(implicit_steps())
def test_semi_implicit_1d_structure(case):
    # mass follows 1/(1 + eps dt), positivity, and L2 never increases
    f, params, dt = case
    out = implicit_step(f, params, dt)
    assert out.min() >= 0.0
    assert out.sum() == pytest.approx(f.values.sum() / (1.0 + params.eps * dt), rel=1e-12)
    assert np.sum(out**2) <= np.sum(f.values**2) * (1.0 + 1e-9)


def even_decay(chi_h, factors):
    """An even 1D profile about the centre face whose cells right of it are r = (1 - chi h/2)/(1 + chi h/2)
    times their inner neighbour times their ``factors``: the centred discrete peak when every factor is 1."""
    r = (1.0 - 0.5 * chi_h) / (1.0 + 0.5 * chi_h)
    right = np.cumprod(np.concatenate([[1.0], r * factors]))
    return np.concatenate([right[::-1], right])


@st.composite
def central_drift_cases(draw):
    # data even about the centre face, each cell to the right of it at most r = (1 - chi h/2)/(1 + chi h/2)
    # times its inner neighbour: every other face is on the limiter's active set or its edge, where
    # D - clip(D, -a, a) is D + a right of the centre and D - a left of it, and the flow is linear
    grid = make_grid(1, 5.0, 2 * draw(st.integers(4, 100)))
    chi_h = draw(st.floats(0.01, 1.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Field.density(grid, even_decay(chi_h, rng.uniform(0.5, 1.0, grid.shape[0] // 2 - 1))), chi_h


def central_drift_operator(n, chi_h):
    """h^2 div F as a matrix, for the linear face flux h F = D + s chi h rho_face of the cell
    difference D with s = 1 right of the centre face and -1 left of it, and F = 0 at the centre
    face and the box's ends (the no-flux box)."""
    faces = np.arange(n - 1)
    s = np.sign(faces - (n // 2 - 1))
    flux = np.zeros((n + 1, n))  # the faces' fluxes, the box's ends included, as rows of a matrix
    flux[faces + 1, faces], flux[faces + 1, faces + 1] = -1.0 + 0.5 * chi_h * s, 1.0 + 0.5 * chi_h * s
    flux[n // 2] = 0.0
    return np.diff(flux, axis=0)


@settings(max_examples=40, deadline=None)
@given(central_drift_cases())
def test_both_schemes_match_the_linear_central_drift(case):
    # the exact references of the linear Fokker-Planck flow on this data: forward Euler at the CFL
    # step, and a dense solve of backward Euler up to 1e5 times it, within the sweeps' tolerance
    f, chi_h = case
    grid, sup = f.grid, f.values.max()
    params, operator = Params(chi=chi_h / grid.h), central_drift_operator(grid.shape[0], chi_h)
    dt = cfl_dt(grid, 0.0)
    expected = f.values
    for _, state in march([f], [params], [dt], [200]):
        expected = expected + dt / grid.h**2 * (operator @ expected)
        assert np.abs(state[0] - expected).max() <= 1e-13 * sup
    controls = StepControls("semi_implicit")
    for factor in (10.0, 1e3, 1e5):
        expected, matrix = f.values, np.eye(grid.shape[0]) - factor * dt / grid.h**2 * operator
        for _, state in march([f], [params], [factor * dt], [5], controls):
            expected = np.linalg.solve(matrix, expected)
            assert np.abs(state[0] - expected).max() <= 5.0 * controls.picard_tol * sup


@st.composite
def relaxation_cases(draw):
    # class data as in central_drift_cases at chi L <= 5 on the box [-5, 5], where the second even
    # eigenvalue chi^2/4 + (2 pi/L)^2 is at least 2.8 times the first, so the faster modes fade fast
    grid = make_grid(1, 5.0, 2 * draw(st.integers(3, 100)))
    chi = draw(st.floats(0.1, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Field.density(grid, even_decay(chi * grid.h, rng.uniform(0.5, 1.0, grid.shape[0] // 2 - 1))), chi


@settings(max_examples=60, deadline=None)
@given(relaxation_cases())
def test_semi_implicit_relaxation_rate(case):
    # on class data the flow is the linear central-drift scheme, whose backward Euler step takes the
    # slowest even mode to the centred discrete peak by 1/(1 + lambda_h dt) and the faster ones by
    # less, by q = (1 + lambda_h dt)/(1 + lambda_2 dt) relative to it; once q^k is below picard_tol,
    # the L1 distance to the peak falls by exactly that factor, up to each step's sweep tolerance
    f, chi = case
    m, h = f.grid.shape[0] // 2, f.grid.h
    operator = central_drift_operator(2 * m, chi * h) / h**2
    even = operator[m:, m:] + operator[m:, :m][:, ::-1]  # the operator on even vectors, by their right half
    lam = np.sort(np.linalg.eigvals(-even).real)  # 0 (the peak), lambda_h, lambda_2, ...
    dt = 0.1 / lam[1]
    factor = 1.0 + lam[1] * dt
    controls = StepControls("semi_implicit", picard_tol=1e-12)
    settle = int(np.ceil(np.log(controls.picard_tol) / np.log(factor / (1.0 + lam[2] * dt))))
    peak = even_decay(chi * h, np.ones(m - 1))
    peak *= f.values.sum() / peak.sum()
    distance = np.abs(f.values - peak).sum()
    for k, state in march([f], [Params(chi=chi)], [dt], [settle + 10], controls):
        before, distance = distance, np.abs(state[0] - peak).sum()
        if k > settle:
            # a step is within picard_tol of its solution relative in L2, so sqrt(n) times that in L1
            allowed = factor * np.sqrt(2 * m) * controls.picard_tol * np.linalg.norm(state[0])
            assert abs(factor * distance - before) <= allowed


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
    params = Params(chi=draw(st.floats(0.0, 2.0)) / grid.h, eps=draw(st.sampled_from([0.0, 0.1])))
    return Field.density(grid, u), Field.density(grid, u + gap), params


class TestComparisonPrinciple:
    @settings(max_examples=100, deadline=None)
    @given(ordered_pairs())
    def test_explicit_step_is_ordered_l1_contraction(self, case):
        u, v, params = case
        dt = cfl_dt(u.grid, params.eps)
        big_u, big_v = (explicit_step(f, params, dt) for f in (u, v))
        roundoff = 1e-13 * (u.values.sum() + v.values.sum())
        assert np.all(big_u <= big_v + 1e-14 * v.values.max())
        factor = 1.0 - params.eps * dt
        assert np.abs(big_v - big_u).sum() <= factor * np.abs(v.values - u.values).sum() + roundoff

    @settings(max_examples=60, deadline=None)
    @given(ordered_pairs())
    def test_semi_implicit_step_is_ordered_l1_contraction(self, case):
        # 20x the CFL step; each step is solved to picard_tol in the relative L2 residual
        u, v, params = case
        dt = 20.0 * cfl_dt(u.grid, params.eps)
        big_u, big_v = (implicit_step(f, params, dt) for f in (u, v))
        slack = StepControls().picard_tol * (np.linalg.norm(big_u) + np.linalg.norm(big_v))
        assert np.all(big_u <= big_v + slack)
        factor = 1.0 / (1.0 + params.eps * dt)
        assert np.abs(big_v - big_u).sum() <= factor * np.abs(v.values - u.values).sum() + slack * len(big_u)

    def test_2d_step_is_not_order_preserving(self):
        # raising v[2, 0] lowers the one-sided tangential difference at v[0, 0] (weight -1/2 on
        # the cell two rows away), so the face between v[0, 0] and v[0, 1] has a smaller gradient
        # norm; the limiter passes less flux into v[0, 1] than into u[0, 1], and U > V there
        grid = make_grid(2, 1.0, 3)
        u = np.array([[0.5, 0.0, 0.1], [0.9, 0.0, 0.4], [0.8, 0.4, 0.5]])
        v = u.copy()
        v[2, 0] = 1.1
        assert np.all(u <= v)
        fields = [Field.density(grid, x) for x in (u, v)]
        ((_, state),) = march(fields, [Params(chi=0.5)] * 2, [cfl_dt(grid, 0.0)] * 2, [1, 1])
        assert (state[0] - state[1]).max() > 1e-5


@st.composite
def unordered_pairs(draw):
    # two independent 200-cell fields, 30% vacuum each, at chi h <= 0.15, inside the monotone range
    grid = make_grid(1, draw(st.sampled_from([1.0, 5.0])), 200)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    fields = []
    for _ in range(2):
        vals = rng.uniform(0.0, 1.0, grid.shape) * scale
        vals[rng.uniform(size=grid.shape) < 0.3] = 0.0
        fields.append(Field.density(grid, vals))
    return fields, Params(chi=draw(st.sampled_from([0.5, 1.0, 3.0])))


def positive_part(x):
    return np.maximum(x, 0.0).sum()


@settings(max_examples=100, deadline=None)
@given(unordered_pairs())
def test_1d_entropy_inequalities(case):
    # at eps = 0 both integrals never increase step by step: Kruzhkov's family of (rho - k)_+ at
    # levels k of the data, and Kato's pair form (u - v)_+, which holds order preservation and L1
    # contraction at once. Explicit steps keep them to roundoff. The exact backward Euler step J
    # keeps them as an order-preserving L1 contraction (Crandall & Tartar, Proc. AMS 78, 1980). A
    # semi-implicit step returns w = T(z), |w - z| <= picard_tol |w| in L2, which solves it with the
    # flux linearized at z: w = J(rho + r), r being dt/h^2 times the divergence of the linearization's
    # error, at most (1 + chi h/2)(|dw_i| + |dw_i+1|) per face for dw = w - z. So w lies within
    # |r|_1 <= dt/h^2 (4 + 2 chi h) |dw|_1 <= dt/h^2 (4 + 2 chi h) sqrt(n) picard_tol |w|_2 of J(rho)
    fields, params = case
    grid = fields[0].grid
    levels = np.quantile(fields[0].values, [0.0, 0.2, 0.5, 0.8, 0.95, 1.0])
    semi_implicit, cfl = StepControls("semi_implicit", picard_tol=1e-12), cfl_dt(grid, 0.0)
    for controls, dt in ((StepControls(), cfl), (semi_implicit, 10.0 * cfl), (semi_implicit, 1e3 * cfl)):
        before = np.stack([f.values for f in fields])
        for _, state in march(fields, [params] * 2, [dt] * 2, [5, 5], controls):
            slack = 8.0 * np.finfo(float).eps * before.sum(axis=1)
            if controls.scheme == "semi_implicit":
                slack += (dt / grid.h**2 * (4.0 + 2.0 * params.chi * grid.h) * np.sqrt(grid.shape[0])
                          * controls.picard_tol * np.linalg.norm(state, axis=1))
            for w, b, s in zip(state, before, slack):
                for k in levels:
                    assert positive_part(w - k) <= positive_part(b - k) + s
            for i in (0, 1):
                assert positive_part(state[i] - state[1 - i]) <= positive_part(before[i] - before[1 - i]) + slack.sum()
            before = state.copy()


class TestRun:
    def test_zero_horizon(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        traj, = run([f], [Params(chi=1.0)], StepControls(), [0.0])
        assert len(traj.snapshots) == 1
        assert len(traj.records) == 1
        assert traj.records[0].time == 0.0

    @pytest.mark.parametrize("t_end,dt,mesh", [(0.0, 1e-3, (1e-3, 0)), (0.0, 1.0, (1.0, 0)), (1e-20, 1.0, (1e-20, 1))])
    def test_time_mesh_of_zero_horizon(self, t_end, dt, mesh):
        # the mesh took one step of 0.0 at t_end = 0, where run took none; any other horizon steps
        assert time_mesh(t_end, dt) == mesh

    def test_members_of_no_steps_bind_no_ceiling(self, grid1d):
        # a member of no steps, whatever its dt, does not stop the others
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        dt = cfl_dt(grid1d, 0.0)
        steps = list(march([f, f], [Params(chi=1.0)] * 2, [dt, 1.0], [3, 0]))
        assert [k for k, _ in steps] == [1, 2, 3] and all(len(state) == 1 for _, state in steps)
        assert list(march([f], [Params(chi=1.0)], [1.0], [0])) == []
        with pytest.raises(CflViolationError, match="member 0"):
            next(march([f], [Params(chi=1.0)], [1.0], [1]))

    def test_semi_implicit_2d_refused_without_steps(self):
        # march alone refuses the scheme on a 2D grid, so a run of no steps is refused too
        f = gaussian_bump(make_grid(2, 5.0, 12), 0.5, mass=1.0)
        with pytest.raises(ValueError, match="^invalid value for 'scheme': semi_implicit is 1D only, the grid is 2D$"):
            run([f], [Params(chi=1.0)], StepControls("semi_implicit", dt=0.01), [0.0])

    def test_times_strictly_increasing(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        traj, = run([f], [Params(chi=1.0)], StepControls(), [0.005], diag_stride=3)
        times = [r.time for r in traj.records]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[-1] == pytest.approx(0.005)

    def test_mass_product_law(self):
        grid = make_grid(1, 5.0, 100)
        f = gaussian_bump(grid, 1.0, mass=1.0)
        eps, dt, t_end = 0.5, 1e-3, 2.0
        traj, = run([f], [Params(chi=1.0, eps=eps)], StepControls(dt=dt), [t_end], diag_stride=10**9)
        n = round(t_end / dt)
        expected = (1.0 - eps * dt) ** n
        assert traj.records[-1].mass == pytest.approx(expected, rel=1e-12)
        assert traj.records[-1].mass == pytest.approx(np.exp(-eps * t_end), abs=2 * eps * dt)

    def test_deterministic_bitwise(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        t1, = run([f], [Params(chi=1.0)], StepControls(), [0.003], diag_stride=5)
        t2, = run([f], [Params(chi=1.0)], StepControls(), [0.003], diag_stride=5)
        assert np.array_equal(t1.final.values, t2.final.values)
        assert [r.mass for r in t1.records] == [r.mass for r in t2.records]

    def test_semi_implicit_scheme(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        dt = 4.0 * cfl_dt(grid1d, 0.0)
        traj, = run([f], [Params(chi=1.0)], StepControls("semi_implicit", dt=dt), [8 * dt], diag_stride=2)
        assert traj.records[-1].mass == pytest.approx(1.0, rel=1e-9)
        l2 = [r.l2 for r in traj.records]
        assert l2[-1] < l2[0]

    def test_snapshot_stride(self, grid1d):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        traj, = run([f], [Params(chi=1.0)], StepControls(), [0.002], snapshot_stride=2)
        assert len(traj.snapshots) >= 3
        times = [t for t, _ in traj.snapshots]
        assert times[0] == 0.0 and times[-1] == pytest.approx(0.002)

    @pytest.mark.parametrize("strides,snapshot_stride", [((3, 7), 5), ((4, 8), 6)])
    def test_observes_at_every_due_step(self, grid1d, strides, snapshot_stride):
        # run observes the batch only at multiples of the strides' gcd and at last steps: every
        # record and snapshot of a member still lands at its own stride and its last step
        f, dt, ns = gaussian_bump(grid1d, 1.0, mass=1.0), cfl_dt(grid1d, 0.0), (23, 17)
        t_ends = [(n - 0.5) * dt for n in ns]
        trajs = run([f, f], [Params(chi=1.0)] * 2, StepControls(dt=dt), t_ends, diag_stride=list(strides),
                    snapshot_stride=snapshot_stride)
        for traj, n, stride, t_end in zip(trajs, ns, strides, t_ends):
            def due(every):
                return [0.0] + [k * (t_end / n) for k in range(1, n) if k % every == 0] + [t_end]
            assert [r.time for r in traj.records] == due(stride)
            assert [t for t, _ in traj.snapshots] == due(snapshot_stride)

    @pytest.mark.parametrize("kw,msg", [
        (dict(t_ends=[-1.0]), "t_end"),
        (dict(t_ends=[1.0], diag_stride=0), "diag_stride"),
        (dict(t_ends=[1.0], scheme="magic"), "scheme"),
    ])
    def test_bad_arguments(self, grid1d, kw, msg):
        f = gaussian_bump(grid1d, 1.0, mass=1.0)
        kw = dict(kw)
        scheme = kw.pop("scheme", "explicit")  # checked by the controls that run takes
        with pytest.raises(ValueError, match=msg):
            run([f], [Params(chi=1.0)], StepControls(scheme), **kw)
