"""Tests for the truncated Fourier calculus."""

import sys
import threading

import numpy as np
import pytest

from dgblab.errors import AliasingError, HermitianSymmetryError
from dgblab.spectral import (
    GridField,
    SpectralField,
    apply_multiplier,
    constant_field,
    cosine_field,
    derivative_x,
    l2_inner,
    l2_norm,
    mean,
    nonlinear_term,
    project_mean_zero,
    random_field,
    sine_field,
    sobolev_norm,
    to_grid,
    to_spectral,
    transport,
    zero_field,
)

TWO_PI = 2.0 * np.pi


def naive_synthesis(v, m):
    """Direct O(N*M) evaluation of sum_k vhat(k) exp(i k x_j)."""
    x = TWO_PI * np.arange(m) / m
    vals = np.zeros(m, dtype=complex)
    for k, c in zip(v.wavenumbers, v.coeffs):
        vals += c * np.exp(1j * k * x)
    assert np.abs(vals.imag).max() < 1e-12
    return vals.real


def convolution_transport(v):
    """O(N^2) oracle for d/dx v^2: out(k) = ik * sum_{n+l=k} vhat(n) vhat(l)."""
    n = v.n_modes
    out = np.zeros(2 * n + 1, dtype=complex)
    for k in range(-n, n + 1):
        acc = 0j
        for a in range(-n, n + 1):
            b = k - a
            if abs(b) <= n:
                acc += v.coeff(a) * v.coeff(b)
        out[k + n] = 1j * k * acc
    return SpectralField.from_coeffs(n, out)


class TestTransforms:
    def test_constant_grid_to_spectral(self):
        v = to_spectral(GridField(np.ones(8)), 2)
        assert np.allclose(v.coeffs, [0, 0, 1, 0, 0])

    def test_cosine_grid_to_spectral(self):
        g = GridField.from_function(np.cos, 16)
        v = to_spectral(g, 2)
        expected = np.array([0, 0.5, 0, 0.5, 0])
        assert np.allclose(v.coeffs, expected, atol=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(16)
        back = to_grid(to_spectral(GridField(vals), 5), 16)
        # 16 >= 2*5+1 does not resolve all 16-point content; compare band-limited part
        v = to_spectral(GridField(vals), 7)
        back = to_grid(v, 16)
        assert np.allclose(back.values, naive_synthesis(v, 16), atol=1e-12)

    def test_round_trip_band_limited(self):
        rng = np.random.default_rng(1)
        v = random_field(5, rng, mean_zero=False)
        grid = to_grid(v, 16)
        again = to_spectral(grid, 5)
        assert np.abs(again.coeffs - v.coeffs).max() < 1e-12

    def test_to_grid_matches_naive_summation(self):
        rng = np.random.default_rng(2)
        v = random_field(6, rng, decay=0.3, mean_zero=False)
        grid = to_grid(v, 32)
        assert np.allclose(grid.values, naive_synthesis(v, 32), atol=1e-13)

    def test_single_mode_synthesis(self):
        v = cosine_field(2, 1)
        g = to_grid(v, 8)
        assert np.allclose(g.values, np.cos(g.x), atol=1e-14)

    def test_constant_synthesis(self):
        g = to_grid(constant_field(3, 2.5), 8)
        assert np.allclose(g.values, 2.5)

    def test_aliasing_rejected(self):
        with pytest.raises(AliasingError):
            to_spectral(GridField(np.ones(8)), 4)
        with pytest.raises(AliasingError):
            to_grid(zero_field(4), 8)

    def test_hermitian_violation_rejected(self):
        bad = np.array([0.3 + 0.1j, 1.0, 0.5 + 0.2j])
        with pytest.raises(HermitianSymmetryError):
            SpectralField.from_coeffs(1, bad)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_non_finite_rejected(self, at, value):
        # a NaN residue (inf - inf is one) compares false against the tolerance;
        # it must not pass as symmetric
        coeffs = np.array([1.0 + 5j, 2.0, 1.0 - 5j])
        coeffs[at] = value
        with pytest.raises(HermitianSymmetryError):
            SpectralField.from_coeffs(1, coeffs)


class TestMultipliers:
    def test_identity_symbol(self):
        rng = np.random.default_rng(3)
        v = random_field(8, rng)
        out = apply_multiplier(v, lambda k: np.ones_like(k, dtype=float))
        assert np.allclose(out.coeffs, v.coeffs)

    def test_second_order_symbol_on_cosine(self):
        v = cosine_field(4, 1)
        out = apply_multiplier(v, lambda k: np.abs(k) ** 2.0)
        assert np.abs(out.coeffs - v.coeffs).max() < 1e-15

    def test_half_order_symbol_on_sine(self):
        # |2|^{1/2} sin(2x) = sqrt(2) sin(2x)
        v = sine_field(8, 2)
        out = apply_multiplier(v, lambda k: np.abs(k) ** 0.5)
        expected = sine_field(8, 2, np.sqrt(2.0))
        assert np.abs(out.coeffs - expected.coeffs).max() < 1e-15

    def test_derivative_of_cosine(self):
        v = derivative_x(cosine_field(4, 1))
        expected = sine_field(4, 1, -1.0)
        assert np.abs(v.coeffs - expected.coeffs).max() < 1e-15

    def test_derivative_of_constant(self):
        v = derivative_x(constant_field(4, 3.0))
        assert np.abs(v.coeffs).max() == 0.0

    def test_derivative_of_third_mode(self):
        v = cosine_field(4, 3)
        out = derivative_x(v)
        assert out.coeff(3) == pytest.approx(3j * v.coeff(3))
        assert mean(out) == 0.0


class TestNonlinearTerm:
    def test_zero(self):
        out = nonlinear_term(zero_field(8))
        assert np.abs(out.coeffs).max() == 0.0

    def test_double_angle(self):
        # d/dx cos^2 x = -sin 2x
        out = nonlinear_term(cosine_field(8, 1))
        expected = sine_field(8, 2, -1.0)
        assert np.abs(out.coeffs - expected.coeffs).max() < 1e-15

    def test_against_convolution_oracle(self):
        v = cosine_field(8, 1) + sine_field(8, 2)
        out = nonlinear_term(v)
        oracle = convolution_transport(v)
        assert np.abs(out.coeffs - oracle.coeffs).max() < 1e-12

    @pytest.mark.parametrize(
        "seed, n",
        [pytest.param(seed, 32, id=str(seed)) for seed in range(4)]
        # M = 3N+1 exactly: the edge of the alias-free grids
        + [pytest.param(0, 21, id="n21"), pytest.param(0, 85, id="n85")],
    )
    def test_random_fields_match_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        v = random_field(n, rng, decay=0.5)
        out = nonlinear_term(v)
        oracle = convolution_transport(v)
        scale = max(1.0, np.abs(oracle.coeffs).max())
        assert np.abs(out.coeffs - oracle.coeffs).max() < 1e-12 * scale

    def test_transport_bit_identical_to_np_fft(self):
        # transport calls numpy's private pocketfft gufuncs; their results
        # must equal the public np.fft formula exactly, with or without
        # `out`, for every grid size M = 8..1024 (M = 3N+1 exactly at n = 21
        # and 85), also when two threads call it at once (as `sweep` does)
        rng = np.random.default_rng(23)
        halves, expected = [], []
        for n in range(1, 200):
            m = 8
            while m < 3 * n + 1:
                m *= 2
            half = random_field(n, rng, decay=0.5, mean_zero=False).half
            k = np.arange(n + 1)
            ref = 1j * m * k * np.fft.rfft(np.fft.irfft(half, m) ** 2)[: n + 1]
            assert np.array_equal(transport(half), ref), n
            out = np.empty(n + 1, dtype=complex)
            assert transport(half, out) is out and np.array_equal(out, ref), n
            halves.append(half)
            expected.append(ref)

        barrier = threading.Barrier(2, timeout=60.0)
        got = [None, None]

        def worker(i):
            barrier.wait()
            got[i] = [transport(h) for h in halves[i::2] * 20]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in range(2):
            assert all(np.array_equal(g, e) for g, e in zip(got[i], expected[i::2] * 20))

    def test_mean_always_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = random_field(16, rng, mean_zero=False)
            assert mean(nonlinear_term(v)) == 0.0


class TestNormsAndMeans:
    def test_zero_norm(self):
        assert sobolev_norm(zero_field(4), 1.3) == 0.0

    def test_constant_any_order(self):
        v = constant_field(4, 1.0)
        for s in (-1.0, 0.0, 0.5, 2.0):
            assert sobolev_norm(v, s) == pytest.approx(np.sqrt(TWO_PI))

    def test_cosine_first_order(self):
        # two modes at |k|=1, weight (1+1)^2 = 4, |coeff|^2 = 1/4
        assert sobolev_norm(cosine_field(4, 1), 1.0) == pytest.approx(np.sqrt(4 * np.pi))

    def test_l2_is_weighted_l2_of_coeffs(self):
        rng = np.random.default_rng(4)
        v = random_field(12, rng, mean_zero=False)
        assert l2_norm(v) == pytest.approx(np.sqrt(TWO_PI) * np.linalg.norm(v.coeffs))

    def test_parseval_against_grid(self):
        rng = np.random.default_rng(5)
        v = random_field(10, rng, mean_zero=False)
        g = to_grid(v, 64)
        quad = np.sqrt(np.sum(g.values**2) * TWO_PI / g.m)
        assert l2_norm(v) == pytest.approx(quad, rel=1e-12)

    def test_mean_and_projection(self):
        assert mean(constant_field(4, 2.0)) == 2.0
        assert mean(cosine_field(4, 1)) == 0.0
        v = constant_field(4, 1.5) + cosine_field(4, 1)
        w = project_mean_zero(v)
        assert mean(w) == 0.0
        assert np.abs(w.coeffs - cosine_field(4, 1).coeffs).max() == 0.0

    def test_inner_product_orthogonality(self):
        assert l2_inner(cosine_field(4, 1), sine_field(4, 1)) == pytest.approx(0.0, abs=1e-15)
        assert l2_inner(cosine_field(4, 1), cosine_field(4, 1)) == pytest.approx(np.pi)


class TestHalfSpectrum:
    def test_imaginary_mean_zeroed(self):
        v = SpectralField(2, np.array([0.5 + 0.25j, 1.0 - 2.0j, 3.0j]))
        assert v.half[0] == 0.5 and v.half[0].imag == 0.0
        assert np.array_equal(v.half[1:], [1.0 - 2.0j, 3.0j])
        assert np.array_equal(v.coeffs, [-3.0j, 1.0 + 2.0j, 0.5, 1.0 - 2.0j, 3.0j])

    def test_coefficients_copied_and_read_only(self):
        half = np.array([1.0, 2.0 + 1.0j])
        v = SpectralField(1, half)
        half[1] = 7.0
        assert v.coeff(1) == 2.0 + 1.0j and v.coeff(-1) == 2.0 - 1.0j
        assert not v.half.flags.writeable and not v.coeffs.flags.writeable

    def test_one_post_init_per_field(self, monkeypatch):
        calls = []
        post_init = SpectralField.__post_init__

        def counted(field):
            calls.append(field)
            post_init(field)

        monkeypatch.setattr(SpectralField, "__post_init__", counted)
        a = SpectralField(2, np.zeros(3))
        b = SpectralField.from_coeffs(2, np.array([0.0, 0.5, 1.0, 0.5, 0.0]))
        assert calls == [a, b]

    @pytest.mark.parametrize(
        "scalar",
        [1 + 2j, np.complex128(1 + 2j), np.complex64(1 + 2j), np.array(1 + 2j), np.array(2j, np.complex64)],
        ids=["complex", "complex128", "complex64", "0d-complex128", "0d-complex64"],
    )
    def test_non_real_scalar_rejected(self, scalar):
        with pytest.raises(TypeError):
            cosine_field(4, 1) * scalar

    @pytest.mark.parametrize("scalar", [2, 2 + 0j, np.complex64(2), np.array(2.0)])
    def test_real_scalar_scales(self, scalar):
        assert (cosine_field(4, 1) * scalar).coeff(1) == 1.0


class TestHermitianPreservation:
    @pytest.mark.parametrize("seed", [10, 11])
    def test_pipeline_preserves_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        v = random_field(16, rng, mean_zero=False)
        for op in (derivative_x, nonlinear_term, project_mean_zero):
            out = op(v)
            flipped = np.conj(out.coeffs[::-1])
            assert np.array_equal(out.coeffs, flipped)

    def test_cutoff_padding_and_arithmetic(self):
        v = cosine_field(4, 2)
        w = v.with_cutoff(8)
        assert w.n_modes == 8 and w.coeff(2) == v.coeff(2)
        assert l2_norm(w - v) == 0.0
        assert l2_norm(2.0 * v - v - v) == 0.0
