"""Tests for the truncated Fourier calculus."""

import sys
import threading

import numpy as np
import pytest

from dgblab.errors import HermitianSymmetryError
from dgblab.spectral import (
    SpectralField,
    apply_multiplier,
    conjugate_extend,
    constant_field,
    cosine_field,
    l2_inner,
    l2_norm,
    mean,
    norm_sq,
    pairing,
    project_mean_zero,
    random_field,
    sobolev_norm,
    transport,
    transport_workspace,
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
                acc += v.coeffs[a + n] * v.coeffs[b + n]
        out[k + n] = 1j * k * acc
    return SpectralField.from_coeffs(n, out)


class TestTransforms:
    def test_to_grid_matches_naive_summation(self):
        rng = np.random.default_rng(2)
        v = random_field(6, rng, decay=0.3, mean_zero=False)
        assert np.allclose(np.fft.irfft(v.half, 32) * 32, naive_synthesis(v, 32), atol=1e-13)

    def test_single_mode_synthesis(self):
        v = cosine_field(2, 1)
        x = TWO_PI * np.arange(8) / 8
        assert np.allclose(np.fft.irfft(v.half, 8) * 8, np.cos(x), atol=1e-14)

    def test_constant_synthesis(self):
        assert np.allclose(np.fft.irfft(constant_field(3, 2.5).half, 8) * 8, 2.5)

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
        # |2|^{1/2} sin(2x) = sqrt(2) sin(2x); sin 2x has half spectrum -i/2 at k = 2
        v = SpectralField(8, np.eye(9)[2] * -0.5j)
        out = apply_multiplier(v, lambda k: np.abs(k) ** 0.5)
        expected = np.sqrt(2.0) * v
        assert np.abs(out.coeffs - expected.coeffs).max() < 1e-15

    def test_derivative_of_cosine(self):
        # d/dx is the odd imaginary symbol ik, which keeps the field real
        v = apply_multiplier(cosine_field(4, 1), lambda k: 1j * k)
        # -sin x, whose half spectrum is i/2 at k = 1
        expected = SpectralField(4, np.eye(5)[1] * 0.5j)
        assert np.abs(v.coeffs - expected.coeffs).max() < 1e-15

    def test_derivative_of_constant(self):
        v = apply_multiplier(constant_field(4, 3.0), lambda k: 1j * k)
        assert np.abs(v.coeffs).max() == 0.0

    def test_derivative_of_third_mode(self):
        v = cosine_field(4, 3)
        out = apply_multiplier(v, lambda k: 1j * k)
        assert out.half[3] == pytest.approx(3j * v.half[3])
        assert mean(out) == 0.0


class TestNonlinearTerm:
    def test_zero(self):
        out = SpectralField(8, transport(constant_field(8, 0.0).half))
        assert np.abs(out.coeffs).max() == 0.0

    def test_double_angle(self):
        # d/dx cos^2 x = -sin 2x, whose half spectrum is i/2 at k = 2
        out = SpectralField(8, transport(cosine_field(8, 1).half))
        expected = SpectralField(8, np.eye(9)[2] * 0.5j)
        assert np.abs(out.coeffs - expected.coeffs).max() < 1e-15

    def test_against_convolution_oracle(self):
        # cos x + sin 2x
        v = cosine_field(8, 1) + SpectralField(8, np.eye(9)[2] * -0.5j)
        out = SpectralField(8, transport(v.half))
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
        out = SpectralField(n, transport(v.half))
        oracle = convolution_transport(v)
        scale = max(1.0, np.abs(oracle.coeffs).max())
        assert np.abs(out.coeffs - oracle.coeffs).max() < 1e-12 * scale

    def test_transport_bit_identical_to_np_fft(self):
        # transport calls numpy's private pocketfft gufuncs; their results
        # must equal the public np.fft formula exactly, with or without
        # `out`, for every grid size M = 8..1024 (M = 3N+1 exactly at n = 21
        # and 85), also when two threads of one process call it at once
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

    def test_stacked_rows_match_single_rows(self):
        # rows stacked along the leading axes are transported one by one, bit
        # for bit, also into a caller's workspace reused across calls
        rng = np.random.default_rng(29)
        for n in (5, 21, 128):
            halves = np.array(
                [[random_field(n, rng, decay=0.5, mean_zero=False).half for _ in range(3)] for _ in range(2)]
            )
            expected = np.array([[transport(h) for h in row] for row in halves])
            assert np.array_equal(transport(halves), expected)
            out = np.empty_like(halves)
            work = transport_workspace(n, (2, 3))
            for _ in range(2):
                assert transport(halves, out, work) is out and np.array_equal(out, expected)
            single = transport_workspace(n)
            assert np.array_equal(transport(halves[1, 2], None, single), expected[1, 2])

    def test_mean_always_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = random_field(16, rng, mean_zero=False)
            assert mean(SpectralField(16, transport(v.half))) == 0.0


class TestNormsAndMeans:
    def test_zero_norm(self):
        assert sobolev_norm(constant_field(4, 0.0), 1.3) == 0.0

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
        values = np.fft.irfft(v.half, 64) * 64
        quad = np.sqrt(np.sum(values**2) * TWO_PI / 64)
        assert l2_norm(v) == pytest.approx(quad, rel=1e-12)

    def test_mean_and_projection(self):
        assert mean(constant_field(4, 2.0)) == 2.0
        assert mean(cosine_field(4, 1)) == 0.0
        v = constant_field(4, 1.5) + cosine_field(4, 1)
        w = project_mean_zero(v)
        assert mean(w) == 0.0
        assert np.abs(w.coeffs - cosine_field(4, 1).coeffs).max() == 0.0

    def test_inner_product_orthogonality(self):
        sine = SpectralField(4, np.eye(5)[1] * -0.5j)
        assert l2_inner(cosine_field(4, 1), sine) == pytest.approx(0.0, abs=1e-15)
        assert l2_inner(cosine_field(4, 1), cosine_field(4, 1)) == pytest.approx(np.pi)

    @pytest.mark.parametrize("weights", ["scalar", "vector"])
    def test_kernel_matches_full_band_definition(self, weights):
        # stacked half spectra against 2 pi sum_{|k|<=N} w(|k|) uhat(k) conj(vhat(k)),
        # summed over the conjugate-extended band -N..N
        n = 12
        rng = np.random.default_rng(11)
        u, v = (
            np.stack([random_field(n, rng, mean_zero=False).half for _ in range(6)]).reshape(2, 3, n + 1)
            for _ in range(2)
        )
        w = 2.5 if weights == "scalar" else (1.0 + np.arange(n + 1)) ** 1.4
        w_full = w if weights == "scalar" else np.concatenate([w[:0:-1], w])
        full_u, full_v = conjugate_extend(u), conjugate_extend(v)
        expected = TWO_PI * np.sum(w_full * np.abs(full_u) ** 2, axis=-1)
        got = norm_sq(u, w)
        assert got.shape == (2, 3)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).min()
        # the pairing's error is measured against the norms it is bounded by
        expected = (TWO_PI * np.sum(w_full * full_u * np.conj(full_v), axis=-1)).real
        scale = np.sqrt(norm_sq(u, w) * norm_sq(v, w))
        assert np.all(np.abs(pairing(u, v, w) - expected) <= 1e-14 * scale)
        # a row alone has the bits of its row in the stack
        for row, value in zip(u.reshape(-1, n + 1), got.ravel()):
            assert norm_sq(row, w) == value


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
        assert np.array_equal(v.coeffs, [2.0 - 1.0j, 1.0, 2.0 + 1.0j])
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
        assert (cosine_field(4, 1) * scalar).half[1] == 1.0


class TestHermitianPreservation:
    @pytest.mark.parametrize("seed", [10, 11])
    def test_pipeline_preserves_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        v = random_field(16, rng, mean_zero=False)
        derivative = apply_multiplier(v, lambda k: 1j * k)
        for out in (derivative, SpectralField(16, transport(v.half)), project_mean_zero(v)):
            flipped = np.conj(out.coeffs[::-1])
            assert np.array_equal(out.coeffs, flipped)

    def test_cutoff_padding_and_arithmetic(self):
        v = cosine_field(4, 2)
        w = v.with_cutoff(8)
        assert w.n_modes == 8 and w.half[2] == v.half[2]
        assert l2_norm(w - v) == 0.0
        assert l2_norm(2.0 * v - v - v) == 0.0
