import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlim.diagnostics import (
    SupportMismatchError,
    csv_header,
    csv_row,
    l1_distance,
    pair_terms,
    record,
)
from fluxlim.grid import Field, Grid, make_grid
from fluxlim.limiter import limiter
from fluxlim.profiles import single_peak


def unit_measure_grid(n=100):
    return make_grid(1, 0.5, n)


class TestRecord:
    def test_flat_unit_density(self):
        g = unit_measure_grid()
        r = record(Field(g, np.ones(100)))
        assert r.mass == pytest.approx(1.0, rel=1e-14)
        assert r.entropy == 0.0
        assert r.entropy_abs == 0.0
        assert r.fisher == 0.0
        assert r.sup_norm == 1.0
        assert r.lp_norms[2.0] == pytest.approx(1.0, rel=1e-14)

    def test_rejects_negative(self):
        g = unit_measure_grid()
        with pytest.raises(ValueError, match="nonnegative"):
            record(Field(g, np.full(100, -1.0)))

    def test_steady_peak_fisher_matches_threshold_identity(self):
        # on the stationary profile the log-gradient has modulus chi, so the
        # gradient-squared-over-density integral approaches chi^2 * mass
        chi = 1.0
        vals = {}
        for n in (1000, 2000):
            g = make_grid(1, 5.0, n)
            peak = single_peak(g, chi, 0.0, mass=1.0)
            vals[n] = record(peak).fisher
        assert vals[1000] == pytest.approx(chi**2 * 1.0, abs=0.02)
        # kink error is first order: halving h halves the defect
        ratio = (1.0 - vals[2000]) / (1.0 - vals[1000])
        assert 0.4 <= ratio <= 0.6

    def test_exponential_second_moment(self):
        L, n = 10.0, 4000
        g = make_grid(1, L, n)
        x, = g.centers()
        r = record(Field(g, 0.5 * np.exp(-np.abs(x))))
        exact = (1.0 - np.exp(-L)) + (2.0 - np.exp(-L) * (L * L + 2 * L + 2))
        assert r.second_moment == pytest.approx(exact, abs=1e-5)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_entropy_abs_dominates_entropy(self, seed):
        rng = np.random.default_rng(seed)
        g = unit_measure_grid(32)
        r = record(Field.density(g, rng.uniform(0, 3, 32)))
        assert r.entropy_abs >= abs(r.entropy) - 1e-15

    def test_vacuum_conventions(self):
        g = unit_measure_grid(10)
        vals = np.zeros(10)
        vals[4] = 2.0
        r = record(Field.density(g, vals))
        assert np.isfinite(r.entropy) and np.isfinite(r.fisher)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(0, 1, 64)
        g1 = make_grid(1, 2.0, 64)
        g2 = Grid(dim=1, shape=(64,), spacing=g1.spacing, origin=(g1.origin[0] + 1.3,))
        r1 = record(Field(g1, vals))
        r2 = record(Field(g2, vals))
        # every functional except the absolute-position moment is unchanged
        assert r1.mass == r2.mass
        assert r1.lp_norms == r2.lp_norms
        assert r1.sup_norm == r2.sup_norm
        assert r1.entropy == r2.entropy
        assert r1.fisher == r2.fisher
        assert r1.grad_lp == r2.grad_lp

    def test_reflection_equivariance(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0, 1, 64)
        g = make_grid(1, 2.0, 64)
        r1 = record(Field(g, vals))
        r2 = record(Field(g, vals[::-1]))
        assert r1.mass == pytest.approx(r2.mass, rel=1e-14)
        assert r1.second_moment == pytest.approx(r2.second_moment, rel=1e-13)
        assert r1.entropy == pytest.approx(r2.entropy, rel=1e-13)
        assert r1.fisher == pytest.approx(r2.fisher, rel=1e-12)


class TestRelativeEntropy:
    def test_identity_zero_exact(self, pair_probe):
        g = unit_measure_grid(16)
        f = Field(g, np.linspace(0.1, 2.0, 16))
        assert pair_probe(f, f, 0.0)[0] == 0.0
        assert pair_probe(f, f, 1e-9)[0] == 0.0

    def test_constant_pair_closed_form(self, pair_probe):
        g = unit_measure_grid(64)
        u = Field(g, np.full(64, 2.0))
        v = Field(g, np.ones(64))
        assert pair_probe(u, v, 0.0)[0] == pytest.approx(2 * np.log(2) - 1, rel=1e-12)

    def test_support_mismatch(self, pair_probe):
        g = unit_measure_grid(4)
        u = Field(g, np.array([1.0, 0.0, 0.0, 0.0]))
        v = Field(g, np.array([0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(SupportMismatchError):
            pair_probe(u, v, 0.0)
        assert np.isfinite(pair_probe(u, v, 1e-8)[0])

    def test_vacuum_in_first_argument_ok(self, pair_probe):
        g = unit_measure_grid(4)
        u = Field(g, np.array([0.0, 1.0, 1.0, 0.0]))
        v = Field(g, np.ones(4))
        # cells with u = 0 contribute +v
        assert pair_probe(u, v, 0.0)[0] >= 0.0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_nonnegative_random_pairs(self, pair_probe, seed):
        rng = np.random.default_rng(seed)
        g = unit_measure_grid(32)
        u = Field.density(g, rng.uniform(0, 2, 32))
        v = Field.density(g, rng.uniform(0.01, 2, 32))
        assert pair_probe(u, v, 0.0)[0] >= -1e-12

    def test_l1_controlled_by_entropy(self, pair_probe):
        # Pinsker-form heuristic at C = 2 on mass-normalized pairs
        rng = np.random.default_rng(42)
        g = make_grid(1, 5.0, 64)
        for _ in range(1000):
            a = rng.uniform(0.05, 2.0, 64)
            b = rng.uniform(0.05, 2.0, 64)
            u = Field.density(g, a / (a.sum() * g.cell_volume))
            v = Field.density(g, b / (b.sum() * g.cell_volume))
            d = l1_distance(u, v)
            h = pair_probe(u, v, 0.0)[0]
            assert d * d <= 2.0 * h * 1.0 + 1e-12


class TestDissipationTerms:
    def test_identity_pair_exact_zero(self, pair_probe):
        g = unit_measure_grid(32)
        f = Field(g, np.linspace(0.2, 1.0, 32))
        assert pair_probe(f, f, chi=1.0)[1:3] == (0.0, 0.0)

    def test_subcritical_pair_exact_zero(self, pair_probe):
        # both limiters vanish identically for half-rate exponentials
        g = make_grid(1, 5.0, 200)
        x, = g.centers()
        u = Field.density(g, np.exp(-0.5 * np.abs(x)))
        v = Field.density(g, np.exp(-0.5 * np.abs(x - 1.0)))
        assert pair_probe(u, v, chi=1.0)[1:3] == (0.0, 0.0)

    def test_shifted_peaks_regression(self, pair_probe):
        # frozen at n = 500 (values are O(h^4) and O(h^2) respectively: the
        # continuum dissipation of an exact steady pair vanishes)
        g = make_grid(1, 5.0, 500)
        u = single_peak(g, 1.0, 0.0, mass=1.0)
        v = single_peak(g, 1.0, 1.0, mass=1.0)
        d1, d2 = pair_probe(u, v, chi=1.0)[1:3]
        assert d1 > 0.0 and d2 > 0.0
        assert d1 == pytest.approx(3.059964972644724e-11, rel=1e-6)
        assert d2 == pytest.approx(8.348460839234288e-05, rel=1e-6)
        # refinement: D2 shrinks at second order, D1 at least fourth
        g2 = make_grid(1, 5.0, 1000)
        u2 = single_peak(g2, 1.0, 0.0, mass=1.0)
        v2 = single_peak(g2, 1.0, 1.0, mass=1.0)
        e1, e2 = pair_probe(u2, v2, chi=1.0)[1:3]
        assert 0.2 <= e2 / d2 <= 0.32
        assert e1 / d1 <= 0.1

    def test_brute_force_quadrature_oracle(self, pair_probe):
        # independent per-cell evaluation of the same integrals
        chi = 1.0
        g = make_grid(1, 5.0, 120)
        u = single_peak(g, chi, 0.0, mass=1.0)
        v = single_peak(g, chi, 1.0, mass=1.0)
        d1, d2 = pair_probe(u, v, chi=chi)[1:3]
        h = g.spacing[0]
        a, b = u.values, v.values
        n = len(a)

        def cgrad(w, i):
            if i == 0:
                return (-3 * w[0] + 4 * w[1] - w[2]) / (2 * h)
            if i == n - 1:
                return (3 * w[-1] - 4 * w[-2] + w[-3]) / (2 * h)
            return (w[i + 1] - w[i - 1]) / (2 * h)

        o1 = o2 = 0.0
        for i in range(n):
            gu, gv = abs(cgrad(a, i)), abs(cgrad(b, i))
            au = (1 - chi * a[i] / gu) if (a[i] > 0 and gu > chi * a[i]) else 0.0
            av = (1 - chi * b[i] / gv) if (b[i] > 0 and gv > chi * b[i]) else 0.0
            lu = cgrad(a, i) / a[i] if a[i] > 0 else 0.0
            lv = cgrad(b, i) / b[i] if b[i] > 0 else 0.0
            o1 += 0.5 * a[i] * (au - av) ** 2 * h
            o2 += 0.5 * a[i] * (lu - lv) ** 2 * (au + av) * h
        assert d1 == pytest.approx(o1, rel=1e-12)
        assert d2 == pytest.approx(o2, rel=1e-12)



def reference_relative_entropy(u, v, sigma):
    """The single-pair relative entropy before the block kernel, kept as the oracle."""
    a, b = u.values, v.values
    if sigma == 0.0:
        pos = a > 0.0
        ratio = np.ones_like(a)
        np.divide(a, b, out=ratio, where=pos)
        term = np.zeros_like(a)
        np.multiply(a, np.log(ratio, where=pos, out=np.zeros_like(a)), out=term, where=pos)
        integrand = term - a + b
    else:
        integrand = (a + sigma) * np.log((a + sigma) / (b + sigma)) - a + b
    return float(np.sum(integrand) * u.grid.cell_volume)


def reference_dissipation_terms(u, v, chi):
    """The single-pair dissipation integrals before the block kernel, on np.gradient."""
    a, b, g = u.values, v.values, u.grid

    def grad(w):
        if g.dim == 1:
            return (np.gradient(w, g.spacing[0], edge_order=2),)
        return tuple(np.gradient(w, g.spacing[k], axis=k, edge_order=2) for k in range(g.dim))

    def norm(gs):
        s = np.zeros(g.shape)
        for c in gs:
            s = s + c * c
        return np.sqrt(s)

    gu, gv = grad(a), grad(b)
    au = np.where(a > 0.0, limiter(a, norm(gu), chi), 0.0)
    av = np.where(b > 0.0, limiter(b, norm(gv), chi), 0.0)
    d1 = 0.5 * float(np.sum(a * (au - av) ** 2) * g.cell_volume)
    dlog2 = np.zeros_like(a)
    for cu, cv in zip(gu, gv):
        lu = np.zeros_like(a)
        np.divide(cu, a, out=lu, where=a > 0.0)
        lv = np.zeros_like(b)
        np.divide(cv, b, out=lv, where=b > 0.0)
        dlog2 = dlog2 + (lu - lv) ** 2
    d2 = 0.5 * float(np.sum(a * dlog2 * (au + av)) * g.cell_volume)
    return d1, d2


def bits(xs):
    return np.asarray(xs, dtype=float).tobytes()


class TestPairTerms:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(3, 24), st.integers(3, 24),
           st.integers(1, 8), st.sampled_from([0.0, 0.5, 3.0]), st.sampled_from([0.0, 1e-9]))
    def test_rows_bitwise_equal_single_pair_reference(self, pair_probe, seed, dim, n1, n2, k, chi, sigma):
        rng = np.random.default_rng(seed)
        grid = make_grid(dim, 3.0, (n1, n2)[:dim])
        pairs = rng.uniform(0.0, 2.0, (k, 2, *grid.shape))
        pairs[rng.random(pairs.shape) < 0.2] = 0.0  # scattered vacuum cells
        lo = rng.integers(0, n1)
        pairs[:, :, lo : lo + rng.integers(0, n1)] = 0.0  # vacuum patches
        if sigma == 0.0:  # v may vanish only where u does
            pairs[:, 1] = np.where((pairs[:, 1] == 0.0) & (pairs[:, 0] > 0.0), 0.5, pairs[:, 1])
        h, d1, d2, l1 = pair_terms(pairs, grid, sigma, chi)
        for row, (a, b) in enumerate(pairs):
            u, v = Field.density(grid, a), Field.density(grid, b)
            assert bits(h[row]) == bits(reference_relative_entropy(u, v, sigma))
            assert bits([d1[row], d2[row]]) == bits(reference_dissipation_terms(u, v, chi))
            assert bits(pair_probe(u, v, sigma, chi)) == bits([h[row], d1[row], d2[row], l1[row]])
            assert bits(l1_distance(u, v)) == bits(l1[row])

    def test_support_mismatch_in_any_row_raises(self, pair_probe):
        grid = make_grid(1, 1.0, 8)
        pairs = np.ones((3, 2, 8))
        pairs[2, 1, 5] = 0.0
        with pytest.raises(SupportMismatchError):
            pair_terms(pairs, grid, 0.0, 1.0)
        with pytest.raises(SupportMismatchError):
            pair_probe(Field(grid, pairs[2, 0]), Field(grid, pairs[2, 1]), 0.0)
        assert np.isfinite(pair_terms(pairs, grid, 1e-9, 1.0)[0]).all()


class TestL1Distance:
    def test_identity(self):
        g = unit_measure_grid(8)
        f = Field(g, np.arange(8.0))
        assert l1_distance(f, f) == 0.0

    def test_measure_scaling(self):
        g = make_grid(1, 5.0, 100)
        u = Field(g, np.ones(100))
        v = Field(g, np.zeros(100))
        assert l1_distance(u, v) == pytest.approx(10.0, rel=1e-14)


class TestCsv:
    def test_header_schema(self):
        head = csv_header(p_set=(2.0, 4.0), grad_p_set=(2.0,))
        assert head == "time,mass,l1,l2,lp_4,sup,moment2,entropy,entropy_abs,fisher,gradlp_2"

    def test_row_full_precision_roundtrip(self):
        g = unit_measure_grid(32)
        rng = np.random.default_rng(9)
        rec = record(Field.density(g, rng.uniform(0, 1, 32)), p_set=(2.0, 4.0), time=0.125)
        row = csv_row(rec)
        fields = row.split(",")
        assert len(fields) == len(csv_header((2.0, 4.0), (2.0,)).split(","))
        assert float(fields[0]) == 0.125
        assert float(fields[1]) == rec.mass
        assert float(fields[9]) == rec.fisher
