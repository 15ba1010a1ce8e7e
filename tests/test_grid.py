from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlim import stepping
from fluxlim.diagnostics import record
from fluxlim.grid import Field, Grid, along, central_gradient, integrate, load_snapshot, make_grid, save_snapshot
from fluxlim.limiter import limiter
from fluxlim.stepping import _buffers, _coefficient_fluxes, _divergence, _face_flux


class TestMakeGrid:
    def test_1d_spacing(self):
        g = make_grid(1, 5.0, 1000)
        assert g.h == 0.01
        assert g.origin == (-5.0,)
        assert g.shape == (1000,)

    def test_2d_spacing(self):
        g = make_grid(2, 4.0, 256)
        assert g.h == 0.03125
        assert g.shape == (256, 256)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError, match="invalid value for 'dim'"):
            make_grid(3, 1.0, 10)

    def test_invalid_extent(self):
        with pytest.raises(ValueError, match="cell width h"):
            make_grid(1, -1.0, 10)
        with pytest.raises(ValueError, match="cell width h"):
            make_grid(1, 0.0, 10)

    def test_too_few_cells(self):
        with pytest.raises(ValueError, match="cell count"):
            make_grid(1, 1.0, 2)
        with pytest.raises(ValueError, match="cell count"):  # not a division of the extent by 0
            make_grid(1, 1.0, 0)

    def test_measures(self):
        g = Grid(dim=2, shape=(6, 12), h=0.5, origin=(-1.5, -3.0))
        assert g.cell_volume == pytest.approx(0.5 * 0.5)

    def test_centers_cover_box(self):
        g = make_grid(1, 5.0, 10)
        x = g.axis_centers(0)
        assert x[0] == pytest.approx(-4.5)
        assert x[-1] == pytest.approx(4.5)
        assert np.allclose(np.diff(x), 1.0)


class TestField:
    def test_rejects_nan(self):
        g = make_grid(1, 1.0, 4)
        with pytest.raises(ValueError, match="finite"):
            Field(g, np.array([1.0, np.nan, 0.0, 0.0]))

    def test_density_rejects_negative(self):
        g = make_grid(1, 1.0, 4)
        with pytest.raises(ValueError, match="nonnegative"):
            Field.density(g, np.array([1.0, -0.1, 0.0, 0.0]))

    def test_values_frozen(self):
        g = make_grid(1, 1.0, 4)
        f = Field(g, np.ones(4))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_shape_mismatch(self):
        g = make_grid(1, 1.0, 4)
        with pytest.raises(ValueError, match="shape"):
            Field(g, np.ones(5))


def face_norms(field):
    """The face-gradient norms of the step kernels, one array per axis: in 2D N/h for the
    h-scaled norm N that ``_coefficient_fluxes`` hands the limiter, in 1D D/h from the flux
    that ``_face_flux`` returns at chi = 0, which is D itself; each at the interior faces, below
    each line's last cell."""
    grid, values, bufs = field.grid, field.values[None], _buffers(field.grid, 1)
    if grid.dim == 1:
        (upper, _), = _face_flux(values, 0.0, None, bufs)
        return [upper[0, :-1] / grid.h]
    norms = []

    def spy(rho, grad_norm, chi, out=None):
        norms.append(grad_norm[0][along(grid.dim, len(norms), slice(None, -1))] / grid.h)
        return limiter(rho, grad_norm, chi, out=out)

    with mock.patch.object(stepping, "limiter", spy):
        for _ in _coefficient_fluxes(values, 0.5, None, bufs):
            pass
    return norms


class TestFaceGradient:
    def test_constant_field(self):
        g = make_grid(2, 1.0, 8)
        for norm in face_norms(Field(g, np.full(g.shape, 3.0))):
            assert np.all(norm == 0.0)

    def test_1d_linear_exact(self):
        g = make_grid(1, 2.0, 16)
        x, = g.centers()
        norm, = face_norms(Field(g, x))
        assert norm.shape == (15,)
        assert np.allclose(norm, 1.0, rtol=0, atol=1e-13)

    def test_2d_affine_hand_stencil(self):
        # rho = x + 2y on a 5x5 grid: normal and tangential parts are exact on every face
        g = make_grid(2, 2.0, 5)
        X, Y = g.centers()
        nx, ny = face_norms(Field(g, X + 2.0 * Y))
        assert nx.shape == (4, 5) and ny.shape == (5, 4)
        assert np.allclose(nx, np.sqrt(5.0), atol=1e-13)
        assert np.allclose(ny, np.sqrt(5.0), atol=1e-13)

    @pytest.mark.parametrize("a,b,c", [(0.3, -1.2, 2.0), (1.0, 0.0, -4.0), (-0.7, 0.4, 0.0)])
    def test_affine_reproduction(self, a, b, c):
        g = make_grid(2, 1.5, 9)
        X, Y = g.centers()
        for norm in face_norms(Field(g, a * X + b * Y + c)):
            assert np.allclose(norm, np.hypot(a, b), atol=1e-12)

    def test_norm_combines_components(self):
        g = make_grid(2, 1.5, 9)
        X, Y = g.centers()
        nx, _ = face_norms(Field(g, 3.0 * X + 4.0 * Y))
        assert np.allclose(nx, 5.0, atol=1e-12)


class TestCellGradient:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.integers(3, 40))
    def test_bitwise_np_gradient(self, seed, n1, n2):
        rng = np.random.default_rng(seed)
        g1 = make_grid(1, 2.5, n1)
        v1 = rng.normal(size=n1)
        d = central_gradient(v1, 0, g1.h)
        assert d.tobytes() == np.gradient(v1, g1.h, edge_order=2).tobytes()
        g2 = Grid(dim=2, shape=(n1, n2), h=g1.h, origin=(-2.5, -0.5 * g1.h * n2))
        v2 = rng.normal(size=(n1, n2))
        for axis in range(2):
            d = central_gradient(v2, axis, g2.h)
            ref = np.gradient(v2, g2.h, axis=axis, edge_order=2)
            assert d.tobytes() == ref.tobytes()

    def test_strided_input_and_ordered_output(self):
        # the interior differences run over the flattened arrays: a strided input is read
        # through a copy, and an output that is not C-ordered is refused
        v = np.random.default_rng(3).normal(size=(9, 14))[:, ::2]
        for axis in (0, 1):
            ref = np.gradient(v, 0.3, axis=axis, edge_order=2)
            assert central_gradient(v, axis, 0.3).tobytes() == ref.tobytes()
        with pytest.raises(ValueError, match="C-ordered"):
            central_gradient(v, 0, 0.3, out=np.empty((7, 9)).T)


def divergence(values, grid, coeffs):
    """div(a grad u) for one field with face coefficients ``coeffs``: the face fluxes a D/h^2
    of the cell differences D, padded by a zero boundary flux into the fluxes through each
    cell's upper and lower face, and summed by the steppers' ``_divergence``."""
    u = np.asarray(values, dtype=float)[None]
    pairs = []
    for a, c in enumerate(coeffs, 1):
        lo, hi = (along(u.ndim, a, s) for s in (slice(None, -1), slice(1, None)))
        flux = c[None] * ((u[hi] - u[lo]) / grid.h) / grid.h
        pad = [(0, 0)] * u.ndim
        pairs.append(tuple(np.pad(flux, pad[:a] + [side] + pad[a + 1:]) for side in ((0, 1), (1, 0))))
    return _divergence(pairs, np.empty_like(u), np.empty_like(u))[0]


class TestDivergence:
    def test_zero_flux(self):
        g = make_grid(1, 1.0, 10)
        rng = np.random.default_rng(0)
        assert np.all(divergence(rng.uniform(0, 1, 10), g, [np.zeros(9)]) == 0.0)

    def test_constant_interior_flux_telescopes(self):
        # unit cell differences and a constant coefficient: every face carries one flux, about 2
        g = make_grid(1, 1.0, 10)
        h = g.h
        div = divergence(np.arange(10.0), g, [np.full(9, 2.0 * h)])
        assert div[0] == pytest.approx(2.0 / h)
        assert div[-1] == pytest.approx(-2.0 / h)
        assert np.all(div[1:-1] == 0.0)
        assert abs(np.sum(div) * g.cell_volume) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_divergence_theorem_1d(self, seed):
        rng = np.random.default_rng(seed)
        g = make_grid(1, 3.0, 33)
        u, coef = rng.uniform(-5, 5, 33), rng.uniform(0, 2, 32)
        total = integrate(Field(g, divergence(u, g, [coef])))
        scale = np.sum(np.abs(coef * np.diff(u))) / g.h  # the face fluxes, h^(d-1) = 1 in 1D
        assert abs(total) <= 1e-12 * max(scale, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_divergence_theorem_2d(self, seed):
        rng = np.random.default_rng(seed)
        g = make_grid(2, 2.0, 12)
        u, cx, cy = rng.uniform(-5, 5, (12, 12)), rng.uniform(0, 2, (11, 12)), rng.uniform(0, 2, (12, 11))
        total = integrate(Field(g, divergence(u, g, [cx, cy])))
        scale = np.sum(np.abs(cx * np.diff(u, axis=0))) + np.sum(np.abs(cy * np.diff(u, axis=1)))
        assert abs(total) <= 1e-12 * max(scale, 1.0)

    def test_heat_stencil_sign(self):
        # a peak must decay: div of the gradient flux is negative at the peak
        g = make_grid(1, 1.5, 3)
        div = divergence([0.0, 1.0, 0.0], g, [np.ones(2)])
        assert div[1] < 0 < div[0]


class TestIntegrate:
    def test_constant(self):
        g = make_grid(1, 5.0, 250)
        assert integrate(Field(g, np.ones(250))) == pytest.approx(10.0, rel=1e-14)

    def test_exponential_mass_closed_form(self):
        # oracle: integral of (chi/2) e^(-chi|x|) over [-L, L] is 1 - e^(-chi L)
        g = make_grid(1, 5.0, 2000)
        x, = g.centers()
        val = integrate(Field(g, 0.5 * np.exp(-np.abs(x))))
        assert val == pytest.approx(1.0 - np.exp(-5.0), abs=5e-6)

    def test_weighted_second_moment_closed_form(self):
        # oracle: integral of x^2 (1/2) e^(-|x|) over [-L, L] is 2 - e^(-L)(L^2+2L+2)
        L, n = 10.0, 4000
        g = make_grid(1, L, n)
        x, = g.centers()
        f = Field(g, 0.5 * np.exp(-np.abs(x)))
        exact = (1.0 - np.exp(-L)) + (2.0 - np.exp(-L) * (L * L + 2 * L + 2))
        val = record(f).second_moment  # the integral of rho * (1 + |x|^2)
        assert val == pytest.approx(exact, abs=5e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        g = make_grid(1, 1.0, 16)
        u = rng.uniform(0, 1, 16)
        v = rng.uniform(0, 1, 16)
        lhs = integrate(Field(g, a * u + b * v))
        rhs = a * integrate(Field(g, u)) + b * integrate(Field(g, v))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_positive_for_nonnegative(self):
        g = make_grid(1, 1.0, 16)
        vals = np.zeros(16)
        vals[3] = 0.5
        assert integrate(Field.density(g, vals)) > 0.0


class TestSnapshot:
    def test_roundtrip_1d_bitwise(self, tmp_path):
        g = make_grid(1, 5.0, 17)
        rng = np.random.default_rng(3)
        f = Field(g, rng.uniform(0, 1, 17))
        path = tmp_path / "snap.txt"
        save_snapshot(f, path)
        back = load_snapshot(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_roundtrip_2d_bitwise(self, tmp_path):
        g = Grid(dim=2, shape=(5, 7), h=0.8, origin=(-2.0, -2.8))
        rng = np.random.default_rng(4)
        f = Field(g, rng.uniform(0, 1, (5, 7)))
        path = tmp_path / "snap2.txt"
        save_snapshot(f, path)
        back = load_snapshot(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_header_layout(self, tmp_path):
        g = Grid(dim=2, shape=(4, 3), h=1.0, origin=(-2.0, -2.0))
        f = Field(g, np.zeros((4, 3)))
        path = tmp_path / "snap.txt"
        save_snapshot(f, path)
        head = path.read_text().splitlines()[0].split()
        assert head[0] == "2"
        assert head[1:3] == ["4", "3"]
        assert float(head[3]) == g.h and float(head[4]) == g.h
        assert float(head[5]) == -2.0 and float(head[6]) == -2.0

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 4\n")
        with pytest.raises(ValueError, match="header"):
            load_snapshot(path)

    def test_unequal_spacings_rejected(self, tmp_path):
        path = tmp_path / "aniso.txt"
        path.write_text("2 4 4 0.5 0.25 -1.0 -1.0\n" + "1.0\n" * 16)
        with pytest.raises(ValueError, match="unequal spacings") as err:
            load_snapshot(path)
        assert str(path) in str(err.value)
