import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlim.limiter import Params, limiter, monotone_gap, unclamped_gap

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestParams:
    def test_valid(self):
        p = Params(chi=1.5, eps=0.25)
        assert p.chi == 1.5 and p.eps == 0.25

    def test_chi_zero_allowed_for_heat_control(self):
        Params(chi=0.0)

    @pytest.mark.parametrize("kw", [dict(chi=-1.0), dict(chi=np.nan), dict(chi=1.0, eps=-0.5)])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            Params(**kw)


class TestLimiter:
    def test_coefficient_formula(self):
        assert limiter(1.0, 2.0, 1.0) == pytest.approx(0.5)

    def test_positive_part_clamps(self):
        assert limiter(1.0, 0.5, 1.0) == 0.0

    def test_zero_gradient_convention(self):
        assert limiter(2.0, 0.0, 1.0) == 0.0

    def test_vanishing_density(self):
        assert limiter(0.0, 3.0, 5.0) == 1.0

    def test_clamp_is_bitwise_zero(self):
        out = limiter(np.array([2.0, 1.0, 0.5]), np.array([1.0, 1.0, 1.0]), 1.0)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(0.5)

    def test_chi_zero_pure_heat(self):
        assert limiter(3.0, 1.0, 0.0) == 1.0
        assert limiter(3.0, 0.0, 0.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0, 1e6), st.floats(0, 1e6), st.floats(1e-3, 1e3))
    def test_range(self, rho, g, chi):
        val = limiter(rho, g, chi)
        assert 0.0 <= val <= 1.0
        # strictly below one whenever rho > 0, up to the point where
        # chi*rho/g drops under one ulp of 1.0
        if rho > 0 and (g == 0.0 or chi * rho / g > 1e-15):
            assert val < 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0, 100), st.floats(0, 100), st.floats(1e-3, 100), st.floats(1e-3, 10))
    def test_lipschitz_in_density(self, r1, r2, g, chi):
        lhs = abs(limiter(r1, g, chi) - limiter(r2, g, chi))
        assert lhs <= chi * abs(r1 - r2) / g + 1e-12


class TestFaceFlux:
    # the face flux is (limiter(rho_face, |g|, chi) + eps) * g
    def test_limited_flux_vector(self):
        g = np.array([3.0, 4.0])
        assert np.allclose((limiter(2.0, 5.0, 1.0) + 0.0) * g, (1.8, 2.4), atol=1e-14)

    def test_zero_gradient_zero_flux(self):
        coef = limiter(5.0, 0.0, 1.0) + 3.0
        assert coef == 3.0 and np.all(coef * np.zeros(2) == 0.0)

    def test_viscous_term_survives_clamp(self):
        coef = limiter(1.0, 0.5, 1.0) + 0.25
        assert coef == 0.25 and coef * 0.5 == pytest.approx(0.125, abs=1e-16)

    def test_batched_faces(self):
        grads = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = (limiter(np.array([2.0, 2.0]), np.linalg.norm(grads, axis=-1), 1.0) + 0.0)[:, None] * grads
        assert np.allclose(out[0], (1.8, 2.4))
        assert np.all(out[1] == 0.0)


class TestMonotoneGap:
    def test_identity_pair(self):
        assert monotone_gap((1.0, 1.0), (1.0, 1.0), 1.0) == 0.0

    def test_hand_value(self):
        assert monotone_gap((2.0, 0.0), (0.5, 0.0), 1.0) == pytest.approx(1.5)

    def test_zero_vector_allowed(self):
        assert monotone_gap((0.0, 0.0), (3.0, 4.0), 1.0) >= 0.0

    def test_batch_shape(self):
        w = np.zeros((7, 3))
        z = np.ones((7, 3))
        assert monotone_gap(w, z, 1.0).shape == (7,)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=3),
        st.floats(1e-2, 10),
        st.integers(0, 2**32 - 1),
    )
    def test_nonnegative(self, w, c, seed):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-10, 10, len(w))
        assert monotone_gap(np.array(w), z, c) >= -1e-12

    def test_unclamped_counterexample(self):
        # opposite-side pair: the clamp removed, monotonicity fails
        gap = unclamped_gap((0.5, 0.0), (-0.25, 0.0), 1.0)
        assert gap == pytest.approx(-0.9375)
        assert monotone_gap((0.5, 0.0), (-0.25, 0.0), 1.0) >= 0.0

    def test_unclamped_same_ray_positive(self):
        # on a common ray the unclamped pairing stays positive
        assert unclamped_gap((0.5, 0.0), (0.25, 0.0), 1.0) == pytest.approx(0.0625)


class TestFluxDeviation:
    # (1 - limiter) * |g|, the distance of the limited flux from pure diffusion, is
    # bounded by chi*rho: equal to it where the limiter is active, and to |g| where clamped
    def test_active_region_equals_threshold(self):
        # g = 2 > chi*rho = 1: deviation is exactly chi*rho
        assert (1.0 - limiter(1.0, 2.0, 1.0)) * 2.0 == pytest.approx(1.0, abs=1e-15)

    def test_clamped_region_equals_gradient(self):
        assert (1.0 - limiter(2.0, 0.5, 1.0)) * 0.5 == pytest.approx(0.5)

    def test_vacuum(self):
        assert (1.0 - limiter(0.0, 3.0, 1.0)) * 3.0 == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0, 100), st.lists(st.floats(-50, 50), min_size=1, max_size=3), st.floats(1e-3, 10))
    def test_bounded_by_threshold(self, rho, grad, chi):
        # slack scales with the gradient: the active branch reconstructs
        # chi*rho/g from 1 - limiter, which carries one ulp of 1.0 times g
        gnorm = float(np.linalg.norm(grad))
        assert (1.0 - limiter(rho, gnorm, chi)) * gnorm <= chi * rho + 1e-15 * (1.0 + gnorm)

    def test_unit_scale_slack(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            rho = rng.uniform(0, 2)
            gnorm = float(np.linalg.norm(rng.uniform(-1, 1, 2)))
            assert (1.0 - limiter(rho, gnorm, 1.0)) * gnorm <= rho + 1e-15
