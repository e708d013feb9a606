"""Tests for gain profiles and the feedback decomposition."""

import numpy as np
import pytest

from dgblab.damping import (
    DampingProfile,
    apply_dissipation_part,
    apply_feedback,
    apply_gain,
    apply_mean_correction,
    apply_smoothing_remainder,
    bump_root_coeffs,
    decomposition_residual,
    dissipation_equivalence,
    dissipation_form,
    gain_field,
    gain_matrix,
    make_profile_bump,
    make_profile_global,
)
from dgblab.errors import ProfileError
from dgblab.spectral import (
    SpectralField,
    conjugate_extend,
    constant_field,
    cosine_field,
    l2_inner,
    l2_norm,
    mean,
    random_field,
)

TWO_PI = 2.0 * np.pi
FOUR_PI_SQ = 4.0 * np.pi**2

# recorded baselines for the half-circle bump with 64 gain modes
BUMP_SUPPORT = (np.pi / 2, 3 * np.pi / 2)
BUMP_EQUIV_LOW = 0.092905348199418
BUMP_EQUIV_HIGH = 0.09961864790128547


@pytest.fixture(scope="module")
def bump():
    return make_profile_bump(*BUMP_SUPPORT, 64, delta=1.0)


@pytest.fixture(scope="module")
def global_profile():
    return make_profile_global(1.0)


class TestProfiles:
    def test_global_d_closed_form(self, global_profile):
        assert global_profile.d_symbol(2) == pytest.approx(2.0 / FOUR_PI_SQ)
        assert global_profile.d_symbol(0) == 0.0

    def test_d_even(self, bump):
        ks = np.arange(1, 40)
        assert np.allclose(bump.d_symbol(ks), bump.d_symbol(-ks), rtol=0, atol=0)

    def test_bump_normalization_exact(self, bump):
        assert bump.ghat[bump.k_modes] == 1.0 / TWO_PI

    def test_bump_nonnegative_on_grid(self, bump):
        g = np.fft.irfft(gain_field(bump).half, 4096) * 4096
        assert g.min() >= -1e-5 * g.max()
        assert g.max() > 0.5

    def test_bump_supported_inside_interval(self, bump):
        g = np.fft.irfft(gain_field(bump).half, 4096) * 4096
        x = TWO_PI * np.arange(4096) / 4096
        outside = (x < BUMP_SUPPORT[0] - 0.05) | (x > BUMP_SUPPORT[1] + 0.05)
        assert np.abs(g[outside]).max() < 1e-5

    def test_translation_leaves_d_unchanged(self):
        # d depends on |ghat|^2 only; a shifted support changes phases alone
        a = make_profile_bump(np.pi / 2, 3 * np.pi / 2, 48, delta=0.8)
        b = make_profile_bump(np.pi / 2 - 1.0, 3 * np.pi / 2 - 1.0, 48, delta=0.8)
        ks = np.arange(0, 64)
        assert np.allclose(a.d_symbol(ks), b.d_symbol(ks), rtol=1e-12, atol=1e-15)

    def test_invalid_support_rejected(self):
        with pytest.raises(ProfileError):
            make_profile_bump(2.0, 1.0, 16, delta=1.0)

    @pytest.mark.parametrize(
        "a, b, modes",
        [
            (np.pi / 2, 3 * np.pi / 2, 4),
            (np.pi / 2, 3 * np.pi / 2, 16),
            (1.0, 1.0 + np.pi / 2, 32),
            (1.0, 1.5, 64),
        ],
        ids=["width-pi-K4", "width-pi-K16", "width-half-pi-K32", "width-0.5-K64"],
    )
    def test_coarse_bands_stay_nonnegative(self, a, b, modes):
        # g = |q|^2 on any band, however narrow the support against it
        g = np.fft.irfft(gain_field(make_profile_bump(a, b, modes, delta=1.0)).half, 4096) * 4096
        assert g.min() >= -1e-14 * g.max()
        assert g.max() > 0

    @pytest.mark.parametrize("a, b", [BUMP_SUPPORT, (1.0, 1.5)])
    def test_bump_root_matches_dft(self, a, b):
        m, half = 2**16, 32
        x = TWO_PI * np.arange(m) / m
        inside = (x > a) & (x < b)
        vals = np.where(inside, 1.0 + np.cos(TWO_PI * (x - 0.5 * (a + b)) / (b - a)), 0.0)
        spec = np.fft.fft(vals) / m
        dft = np.concatenate([spec[-half:], spec[: half + 1]])
        qhat = bump_root_coeffs(a, b, half)
        assert np.abs(qhat - dft).max() <= 1e-10 * np.abs(qhat).max()

    @pytest.mark.parametrize("a, b", [BUMP_SUPPORT, (1.0, 1.5)])
    @pytest.mark.parametrize("modes", [5, 64])
    def test_bump_is_square_of_root(self, a, b, modes):
        half, m = modes // 2, 512
        spec = np.zeros(m, dtype=np.complex128)
        qhat = bump_root_coeffs(a, b, half)
        spec[: half + 1], spec[m - half :] = qhat[half:], qhat[:half]
        g_spec = np.fft.fft(np.abs(np.fft.ifft(spec) * m) ** 2) / m
        g_spec /= TWO_PI * g_spec[0].real
        expected = np.concatenate([g_spec[m - modes :], g_spec[: modes + 1]])
        ghat = make_profile_bump(a, b, modes, delta=1.0).ghat
        assert np.abs(ghat - expected).max() <= 1e-14 * np.abs(ghat).max()

    def test_unnormalized_coefficients_rejected(self):
        with pytest.raises(ProfileError):
            DampingProfile(delta=1.0, ghat=np.array([0.5 + 0j]), support="global")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_ghat_rejected(self, bad):
        ghat = np.array([bad, 1.0 / TWO_PI, bad], dtype=np.complex128)
        with pytest.raises(ProfileError):
            DampingProfile(delta=1.0, ghat=ghat, support="global")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_delta_rejected(self, bad):
        ghat = make_profile_global(1.0).ghat
        with pytest.raises(ProfileError):
            DampingProfile(delta=bad, ghat=ghat, support="global")

    def test_json_round_trip(self, bump):
        # profile.json holds the profile exactly
        data = bump.to_json_dict()
        ghat = np.array([complex(re, im) for re, im in data["ghat"]])
        again = DampingProfile(delta=data["delta"], ghat=ghat, support=tuple(data["support"]))
        assert np.array_equal(again.ghat, bump.ghat)
        assert again.support == bump.support
        assert again.delta == bump.delta


class TestGainOperator:
    def test_global_on_cosine(self, global_profile):
        out = apply_gain(global_profile, cosine_field(8, 1))
        expected = cosine_field(8, 1, 1.0 / TWO_PI)
        assert l2_norm(out - expected) < 1e-15

    def test_global_annihilates_constants(self, global_profile):
        out = apply_gain(global_profile, constant_field(8, 3.0))
        assert l2_norm(out) == 0.0

    def test_matches_grid_space_evaluation(self, bump):
        rng = np.random.default_rng(0)
        v = random_field(24, rng, mean_zero=False)
        out = apply_gain(bump, v)
        m = 512
        g = np.fft.irfft(gain_field(bump).half, m) * m
        vv = np.fft.irfft(v.half, m) * m
        pairing = np.sum(g * vv) * TWO_PI / m  # exact for band-limited integrands
        direct = g * (vv - pairing)
        assert np.allclose(np.fft.irfft(out.half, m) * m, direct, atol=1e-10)

    def test_output_mean_zero(self, bump):
        rng = np.random.default_rng(1)
        for _ in range(3):
            out = apply_gain(bump, random_field(16, rng, mean_zero=False))
            assert mean(out) == 0.0

    def test_self_adjoint(self, bump):
        rng = np.random.default_rng(2)
        u = random_field(20, rng, mean_zero=False)
        v = random_field(20, rng, mean_zero=False)
        lhs = l2_inner(apply_gain(bump, u), v)
        rhs = l2_inner(u, apply_gain(bump, v))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_gain_matrix_consistent_with_apply(self, bump):
        # reference: the convolution g * (v - integral(v g)), independent of gain_matrix
        rng = np.random.default_rng(3)
        v = random_field(12, rng)
        w = conjugate_extend(v.half)
        w[12] -= l2_inner(v, gain_field(bump))
        expected = np.convolve(bump.ghat, w)
        rows = np.arange(-(12 + bump.k_modes), 12 + bump.k_modes + 1)
        mat = gain_matrix(bump, rows, np.arange(-12, 13))
        assert np.allclose(mat @ conjugate_extend(v.half), expected, atol=1e-14)
        assert np.allclose(conjugate_extend(apply_gain(bump, v).half), expected, atol=1e-14)


class TestFeedbackDecomposition:
    def test_zero_field_maps_to_zero(self, bump):
        z = constant_field(16, 0.0)
        for op in (apply_feedback, apply_dissipation_part, apply_smoothing_remainder, apply_mean_correction):
            assert l2_norm(op(bump, z)) == 0.0

    def test_global_profile_collapses_to_diagonal(self, global_profile):
        rng = np.random.default_rng(4)
        v = random_field(16, rng)
        assert l2_norm(apply_smoothing_remainder(global_profile, v)) == 0.0
        assert l2_norm(apply_mean_correction(global_profile, v)) < 1e-16
        lhs = apply_feedback(global_profile, v)
        expected = SpectralField(16, np.arange(17) ** global_profile.delta * v.half / FOUR_PI_SQ)
        assert l2_norm(lhs - expected) < 1e-12 * l2_norm(v)
        assert l2_norm(lhs - apply_dissipation_part(global_profile, v)) < 1e-12 * l2_norm(v)

    def test_identity_on_single_mode(self, bump):
        assert decomposition_residual(bump, cosine_field(32, 3)) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_on_random_fields(self, bump, seed):
        rng = np.random.default_rng(seed)
        v = random_field(32, rng, decay=0.4, mean_zero=seed % 2 == 0)
        assert decomposition_residual(bump, v) < 1e-10

    def test_dissipativity_identity(self, bump):
        rng = np.random.default_rng(9)
        v = random_field(24, rng, mean_zero=False)
        lhs = l2_inner(apply_feedback(bump, v), v)
        rhs = dissipation_form(bump, v)
        assert rhs >= 0.0
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # G annihilates constants, including the field with no modes but k = 0
        assert dissipation_form(bump, constant_field(0, 3.0)) == 0.0

    def test_mean_correction_bounded(self, bump):
        rng = np.random.default_rng(10)
        ratios = []
        for _ in range(20):
            v = random_field(24, rng, decay=0.2, mean_zero=False)
            ratios.append(l2_norm(apply_mean_correction(bump, v)) / l2_norm(v))
        assert max(ratios) < 50.0

    def test_feedback_annihilates_constants(self, bump):
        out = apply_feedback(bump, constant_field(8, 2.0))
        assert l2_norm(out) < 1e-15


class TestDissipationEquivalence:
    def test_global_closed_form_interval(self, global_profile):
        c, big_c = dissipation_equivalence(global_profile, 256)
        # |k|/<k> rises from 1/sqrt(2) toward 1
        assert c == pytest.approx(1.0 / (FOUR_PI_SQ * np.sqrt(2.0)))
        assert big_c < 1.0 / FOUR_PI_SQ
        ks = np.arange(1, 257)
        assert np.abs(global_profile.d_symbol(ks) - ks / FOUR_PI_SQ).max() < 1e-14

    def test_bump_baseline(self, bump):
        c, big_c = dissipation_equivalence(bump, 256)
        assert 0.0 < c <= big_c
        assert c == pytest.approx(BUMP_EQUIV_LOW, rel=1e-9)
        assert big_c == pytest.approx(BUMP_EQUIV_HIGH, rel=1e-9)

    def test_lower_constant_dominated_by_direct_term(self, bump):
        # the l = k term alone contributes |k|^delta/(4 pi^2)
        ks = np.arange(1, 100)
        assert np.all(bump.d_symbol(ks) >= ks.astype(float) ** bump.delta / FOUR_PI_SQ)
