"""Tests for the semigroup, closed loop, and the damped integrator."""

import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from dgblab.control import ControlProblem
from dgblab.damping import dissipation_form, feedback_matrix, make_profile_bump, make_profile_global
from dgblab.dynamics import (
    Etdrk4Integrator,
    TrajectoryRecord,
    _expm,
    _real_coords,
    _real_field,
    _real_halves,
    build_closed_loop,
    decay_fit,
    energy_residual,
    linear_propagate,
    linear_trajectory,
    semigroup_apply,
    simulate,
)
from dgblab.errors import DgbError
from dgblab.spectral import (
    SpectralField,
    conjugate_extend,
    constant_field,
    cosine_field,
    l2_norm,
    mean,
    project_mean_zero,
    random_field,
    transport,
)
from dgblab.symbols import BENJAMIN, build_symbols, multiplicity_scan

FOUR_PI_SQ = 4.0 * np.pi**2
D1 = 1.0 / FOUR_PI_SQ  # dissipation symbol of the constant gain at |k| = 1


def _galerkin(table, profile, n):
    """The modes [-N..-1, 1..N], the complex generator diag(i lam(k)) - B on them, and B.

    Assembled from the public `feedback_matrix`: an oracle for the loop's real
    forms that does not go through `_real_form`.
    """
    modes = np.concatenate([np.arange(-n, 0), np.arange(1, n + 1)])
    b = feedback_matrix(profile, modes)
    return modes, np.diag(1j * table.eig(modes)) - b, b


def _state(v, n):
    """The coefficients of v on the modes [-N..-1, 1..N]."""
    c = conjugate_extend(v.with_cutoff(n).half)
    return np.concatenate([c[:n], c[n + 1 :]])


@pytest.fixture(scope="module")
def table():
    return build_symbols(BENJAMIN, 32)


@pytest.fixture(scope="module")
def global_profile():
    return make_profile_global(1.0)


@pytest.fixture(scope="module")
def bump():
    return make_profile_bump(np.pi / 2, 3 * np.pi / 2, 32, delta=1.0)


class TestSemigroup:
    def test_identity_at_zero(self, table, global_profile):
        rng = np.random.default_rng(0)
        v = random_field(16, rng)
        out = semigroup_apply(table, global_profile, v, 0.0)
        assert l2_norm(out - v) == 0.0

    def test_single_mode_closed_form(self, table, global_profile):
        # lam(1) = 0 under these parameters: pure decay at rate d(1)
        v = cosine_field(16, 1)
        out = semigroup_apply(table, global_profile, v, 2.0)
        expected = cosine_field(16, 1, np.exp(-2.0 * D1))
        assert l2_norm(out - expected) < 1e-15

    def test_constant_unchanged(self, table, global_profile):
        v = constant_field(8, 0.7)
        out = semigroup_apply(table, global_profile, v, 5.0)
        assert l2_norm(out - v) == 0.0

    def test_backward_time_rejected(self, table, global_profile):
        with pytest.raises(ValueError):
            semigroup_apply(table, global_profile, cosine_field(8, 1), -0.1)

    def test_contraction_on_grid(self, table, bump):
        rng = np.random.default_rng(1)
        v = random_field(24, rng)
        norms = [l2_norm(semigroup_apply(table, bump, v, t)) for t in np.arange(0.0, 10.01, 0.1)]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


class TestClosedLoop:
    def test_global_profile_diagonal(self, table, global_profile):
        loop = build_closed_loop(table, global_profile, 8)
        # d(k) on both interleaved coordinates (Re, Im) of each mode k = 1..N
        d = np.repeat(global_profile.d_symbol(np.arange(1, 9)), 2)
        assert np.allclose(loop.real_damping, np.diag(d), atol=1e-15)
        assert loop.spectral_abscissa == pytest.approx(-D1)

    def test_damping_matrix_psd_hermitian(self, table, bump):
        # the real form of the Hermitian feedback is symmetric, with the same spectrum
        loop = build_closed_loop(table, bump, 24)
        b = loop.real_damping
        assert np.allclose(b, b.T)
        assert np.linalg.eigvalsh(b).min() > -1e-12

    def test_damping_matrix_read_only(self, table, bump):
        # the loop keeps its real forms read-only; the matrix-free dissipation
        # rate is the feedback's quadratic form, twice that of its real form
        # since the negative modes mirror the positive ones
        loop = build_closed_loop(table, bump, 24)
        for mat in (loop.real_damping, loop.real_generator):
            with pytest.raises(ValueError):
                mat[0, 0] = 0.0
        v = random_field(24, np.random.default_rng(5), mean_zero=False)
        x = _real_coords(v, 24)
        expected = 2.0 * np.pi * 2.0 * (x @ (loop.real_damping @ x))
        assert dissipation_form(bump, v) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("kind", ["bump", "global"])
    def test_real_forms_act_as_the_complex_matrices(self, table, bump, global_profile, kind):
        # the real forms on _real_coords, mapped back to fields, against the
        # complex Galerkin matrices on the full band, relative to the largest
        # coefficient (the generator's reach 3840 at |k| = 16)
        profile = bump if kind == "bump" else global_profile
        n = 16
        loop = build_closed_loop(table, profile, n)
        _, a, b = _galerkin(table, profile, n)
        rng = np.random.default_rng(23)
        for _ in range(3):
            v = random_field(n, rng, decay=0.5)
            x = _real_coords(v, n)
            for real, full in ((loop.real_generator, a), (loop.real_damping, b)):
                got = _state(_real_field(real @ x, n), n)
                expected = full @ _state(v, n)
                assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_real_halves_invert_real_coords_bit_for_bit(self):
        # stacked (2, 3) coordinates of fields with signed zeros among their modes
        n = 9
        rng = np.random.default_rng(31)
        fields = [random_field(n, rng, mean_zero=False) for _ in range(5)]
        fields.append(SpectralField(n, np.array([0.5] + [complex(-0.0, -0.0), complex(0.0, -0.0)] * 4 + [1j])))
        coords = np.stack([_real_coords(v, n) for v in fields]).reshape(2, 3, 2 * n)
        halves = _real_halves(coords, 0.25)
        assert halves.shape == (2, 3, n + 1)
        for v, half in zip(fields, halves.reshape(-1, n + 1)):
            assert half[1:].tobytes() == v.half[1:].tobytes()
            assert half[0] == 0.25
            assert _real_field(_real_coords(v, n), n, mean(v)).half.tobytes() == v.half.tobytes()

    def test_abscissa_negative(self, table, bump, global_profile):
        for profile in (bump, global_profile):
            loop = build_closed_loop(table, profile, 24)
            assert loop.spectral_abscissa < 0.0

    @pytest.mark.parametrize("n", [8, 16, 24, 32])
    @pytest.mark.parametrize("kind", ["bump", "global"])
    def test_abscissa_matches_complex_spectrum(self, table, bump, global_profile, kind, n):
        # the abscissa comes from the real form; the complex generator has the same spectrum
        profile = bump if kind == "bump" else global_profile
        loop = build_closed_loop(table, profile, n)
        expected = np.linalg.eigvals(_galerkin(table, profile, n)[1]).real.max()
        assert loop.spectral_abscissa == pytest.approx(expected, rel=1e-8)

    def test_propagate_identity_at_zero(self, table, bump):
        loop = build_closed_loop(table, bump, 16)
        rng = np.random.default_rng(2)
        v = random_field(16, rng)
        assert l2_norm(linear_propagate(loop, v, 0.0) - v) < 1e-12

    def test_matches_semigroup_for_global(self, table, global_profile):
        loop = build_closed_loop(table, global_profile, 16)
        rng = np.random.default_rng(3)
        v = random_field(16, rng)
        a = linear_propagate(loop, v, 0.8)
        b = semigroup_apply(build_symbols(BENJAMIN, 16), global_profile, v, 0.8)
        assert l2_norm(a - b) < 1e-10

    def test_matches_rk4_oracle(self, table, bump):
        # RK4 converges to the exponential at fourth order in dt
        loop = build_closed_loop(table, bump, 10)
        rng = np.random.default_rng(4)
        v = random_field(10, rng)
        a = _galerkin(table, bump, 10)[1]
        t_final = 0.05
        out = _state(linear_propagate(loop, v, t_final), 10)
        errs = []
        for dt in (1e-4, 5e-5):
            state = _state(v, 10)
            for _ in range(round(t_final / dt)):
                k1 = a @ state
                k2 = a @ (state + 0.5 * dt * k1)
                k3 = a @ (state + 0.5 * dt * k2)
                k4 = a @ (state + dt * k3)
                state = state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            errs.append(np.abs(out - state).max())
        assert errs[0] < 1e-5
        assert 12.0 < errs[0] / errs[1] < 20.0

    def test_contraction_along_trajectory(self, table, bump):
        loop = build_closed_loop(table, bump, 16)
        rng = np.random.default_rng(5)
        rec = linear_trajectory(loop, random_field(16, rng), 10.0, 0.1)
        assert np.all(np.diff(rec.l2norms) <= 1e-12)

    def test_real_form_propagators_accept_long_horizons(self, table, bump):
        # the propagated fields must be real by construction: at these horizons a
        # result conjugate-symmetric only to rounding fails the field constructor
        for n, t in ((64, 1.0), (32, 5.0)):
            table_n = build_symbols(BENJAMIN, n)
            loop = build_closed_loop(table_n, bump, n)
            v = random_field(n, np.random.default_rng(3))
            expected = scipy.linalg.expm(t * _galerkin(table_n, bump, n)[1]) @ _state(v, n)
            got = _state(linear_propagate(loop, v, t), n)
            assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
        loop = build_closed_loop(table, bump, 16)
        rec = linear_trajectory(loop, random_field(16, np.random.default_rng(3)), 50.0, 0.5)
        assert np.all(np.diff(rec.l2norms) <= 1e-12)

    def test_infinite_horizon_is_a_numerical_failure(self, table, bump):
        loop = build_closed_loop(table, bump, 8)
        with pytest.raises(DgbError):
            linear_propagate(loop, random_field(8, np.random.default_rng(3)), np.inf)


class TestExpm:
    # scipy.linalg.expm is the oracle; below theta_13 = 5.37 no squaring happens
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("norm, bound", [(0.1, 1e-14), (5.0, 1e-14), (50.0, 1e-12), (1e3, 1e-12)])
    def test_matches_scipy_on_random_matrices(self, dtype, norm, bound):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((20, 20))
            if dtype is np.complex128:
                a = a + 1j * rng.standard_normal((20, 20))
            a *= norm / np.linalg.norm(a, 1)
            expected = scipy.linalg.expm(a)
            assert np.linalg.norm(_expm(a) - expected) <= bound * np.linalg.norm(expected)

    def test_zero_gives_identity(self):
        np.testing.assert_allclose(_expm(np.zeros((6, 6))), np.eye(6), rtol=0, atol=1e-15)

    def test_diagonal(self):
        d = np.array([-3.0, 0.5, 2j])
        np.testing.assert_allclose(_expm(np.diag(d)), np.diag(np.exp(d)), rtol=0, atol=1e-15)

    def test_real_stays_real(self):
        a = np.random.default_rng(1).standard_normal((10, 10))
        assert _expm(a).dtype == np.float64
        assert _expm(7.0 * a).dtype == np.float64

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_entry_raises(self, entry):
        with pytest.raises(DgbError):
            _expm(np.array([[1.0, entry], [0.0, 1.0]]))


class TestStageWeights:
    def test_limits_at_zero(self):
        from dgblab.dynamics import _etdrk4_weights

        q, f1, f2, f3 = _etdrk4_weights(np.array([0.0j]))
        assert q[0] == pytest.approx(0.5, abs=1e-15)
        for f in (f1, f2, f3):
            assert f[0] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_against_high_precision_oracle(self):
        # covers both evaluation branches, the boundary, and huge dispersive z
        import mpmath as mp

        from dgblab.dynamics import _etdrk4_weights

        mp.mp.dps = 40

        def oracle(z):
            z = mp.mpc(z)
            ez, ez2 = mp.e**z, mp.e ** (z / 2)
            return (
                (ez2 - 1) / z,
                (-4 - z + ez * (4 - 3 * z + z**2)) / z**3,
                (2 + z + ez * (-2 + z)) / z**3,
                (-4 - 3 * z - z**2 + ez * (4 - z)) / z**3,
            )

        zs = np.array([1e-8j, 1e-4j, 0.01 + 0.3j, 0.499j, 0.501j, 2.0j, -3.0 + 40j, 2000j, -1.5 + 0j])
        got = _etdrk4_weights(zs)
        for i, z in enumerate(zs):
            ref = oracle(complex(z))
            for j in range(4):
                rel = abs(complex(got[j][i]) - complex(ref[j])) / abs(complex(ref[j]))
                assert rel < 1e-13


class TestIntegrator:
    def test_zero_stays_zero(self, table, global_profile):
        out = SpectralField(16, Etdrk4Integrator(table, global_profile, 16, 1e-3).step(constant_field(16, 0.0).half))
        assert l2_norm(out) == 0.0

    def test_tiny_amplitude_matches_linear(self, table, global_profile):
        loop = build_closed_loop(table, global_profile, 16)
        rng = np.random.default_rng(6)
        v = 1e-8 * random_field(16, rng)
        dt = 1e-3
        nl = SpectralField(16, Etdrk4Integrator(table, global_profile, 16, dt).step(v.half))
        lin = linear_propagate(loop, v, dt)
        assert l2_norm(nl - lin) < 1e-6 * l2_norm(v)

    def test_norm_decreases_over_step(self, table, global_profile):
        v = cosine_field(32, 1, 0.1)
        out = SpectralField(32, Etdrk4Integrator(table, global_profile, 32, 1e-3).step(v.half))
        assert l2_norm(out) < l2_norm(v)

    def test_mean_held_exactly(self, table, bump):
        v = constant_field(24, 0.4) + cosine_field(24, 1, 0.05)
        out = SpectralField(24, Etdrk4Integrator(table, bump, 24, 1e-3).step(v.half))
        assert mean(out) == 0.4

    def test_step_output_exactly_real(self, table, bump):
        # conjugate symmetry and the mean hold by construction, not to rounding:
        # the field a recorded half spectrum extends to is exactly real
        n = 32
        stepper = Etdrk4Integrator(table, bump, n, 1e-3)
        v = constant_field(n, 0.3) + random_field(n, np.random.default_rng(19), decay=1.5)
        h = v.half
        for _ in range(200):
            h = stepper.step(h)
            c = conjugate_extend(h)
            assert np.array_equal(c, np.conj(c[::-1]))
            assert c[n] == v.half[0]

    def test_coupling_terms_match_damping_module(self, table, bump):
        # the damping part -B of the closed loop whose eigenbasis the stepper
        # takes must agree with the operator module's three-part split after
        # projection onto the band
        from dgblab.damping import (
            apply_dissipation_part,
            apply_mean_correction,
            apply_smoothing_remainder,
        )

        n = 24
        loop = build_closed_loop(table, bump, n)
        rng = np.random.default_rng(17)
        for _ in range(3):
            v = random_field(n, rng, decay=0.5)
            got = _real_field(-loop.real_damping @ _real_coords(v, n), n)
            expected = -(
                apply_dissipation_part(bump, v)
                + apply_smoothing_remainder(bump, v)
                + apply_mean_correction(bump, v)
            ).with_cutoff(n)
            assert np.abs(_state(got, n) - _state(expected, n)).max() < 1e-13

    def test_transport_matches_spectral_module(self, table, bump):
        n = 24
        stepper = Etdrk4Integrator(table, bump, n, 1e-3)
        rng = np.random.default_rng(17)
        for _ in range(3):
            v = random_field(n, rng, decay=0.5)
            got = stepper.nonlinearity(v.half, None, np.empty(n + 1, dtype=complex))
            expected = -transport(v.half)
            assert np.abs(got - expected).max() < 1e-13

    @pytest.mark.parametrize("n", [16, 64])
    def test_stacked_step_matches_unstacked_formula(self, bump, n):
        # the step forms the c-stage and the final combination as single
        # products of side-by-side weights; the reference is Cox-Matthews'
        # combination with one matrix-vector product per weight
        stepper = Etdrk4Integrator(build_symbols(BENJAMIN, n), bump, n, 1e-3)
        e_half, q = np.hsplit(stepper._stage_c, 2)
        e_full, f1, f2, f3 = np.hsplit(stepper._final, 4)

        def lin(mat, x):
            return (mat @ x.view(np.float64)).view(np.complex128)

        def nonlin(x):
            return stepper.nonlinearity(x, None, np.empty(n + 1, dtype=complex))

        rng = np.random.default_rng(3)
        for _ in range(5):
            v = random_field(n, rng, amplitude=0.5, decay=0.5)
            u = v.half.copy()
            nv = nonlin(u)
            a = lin(e_half, u) + lin(q, nv)
            na = nonlin(a)
            b = lin(e_half, u) + lin(q, na)
            nb = nonlin(b)
            c = lin(e_half, a) + lin(q, 2.0 * nb - nv)
            nc = nonlin(c)
            expected = lin(e_full, u) + lin(f1, nv) + 2.0 * lin(f2, na + nb) + lin(f3, nc)
            got = stepper.step(v.half)
            assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_tiny_amplitude_matches_linear_bump(self, table, bump):
        # the full damped generator inside the exponentials against the matrix route
        loop = build_closed_loop(table, bump, 16)
        rng = np.random.default_rng(18)
        v = 1e-8 * random_field(16, rng)
        rec = simulate(table, bump, v.with_cutoff(16), 0.5, 1e-3)
        lin = linear_propagate(loop, v, 0.5)
        assert l2_norm(rec.final - lin) < 1e-8 * l2_norm(v)

    @pytest.mark.parametrize("kind", ["bump", "global"])
    def test_run_records_stepped_abscissa(self, table, bump, global_profile, kind):
        profile = bump if kind == "bump" else global_profile
        rec = simulate(table, profile, cosine_field(16, 1, 1e-3), 0.01, 1e-3)
        expected = build_closed_loop(table, profile, 16).spectral_abscissa
        assert rec.run_meta["spectral_abscissa"] == pytest.approx(expected, rel=1e-12)

    def test_blow_up_detected(self, table):
        from dgblab.errors import BlowUpError

        with pytest.raises(BlowUpError) as info:
            simulate(table, None, cosine_field(32, 1, 20.0), 10.0, 0.5)
        assert info.value.last_valid_time is not None
        # the message names the step, whose reduction is the remedy
        assert "with dt = 0.5" in str(info.value)

    def test_linearization_order(self, table, global_profile):
        # error against the linear flow scales like amplitude^2
        loop = build_closed_loop(table, global_profile, 16)
        scaled = []
        for eps in (1e-3, 1e-4):
            v = cosine_field(16, 1, eps)
            rec = simulate(table, global_profile, v, 0.5, 1e-3)
            lin = linear_propagate(loop, v, 0.5)
            scaled.append(l2_norm(rec.final - lin) / eps**2)
        assert scaled[0] == pytest.approx(scaled[1], rel=0.05)


class TestStepContract:
    """`step` maps a half spectrum to the integrator's own read-only buffer."""

    @pytest.fixture(params=["bump", "global"])
    def make_stepper(self, request, bump, global_profile):
        profile = bump if request.param == "bump" else global_profile
        table = build_symbols(BENJAMIN, 32)
        return lambda: Etdrk4Integrator(table, profile, 32, 1e-3)

    @staticmethod
    def trajectory(stepper, half, steps, copy_back):
        out = []
        for _ in range(steps):
            half = stepper.step(half.copy() if copy_back else half)
            out.append(half.copy())
        return np.array(out)

    def test_argument_unchanged(self, make_stepper):
        half = random_field(32, np.random.default_rng(4), amplitude=0.5, decay=1.0).half.copy()
        before = half.copy()
        out = make_stepper().step(half)
        assert np.array_equal(half, before)
        assert not np.shares_memory(out, half)
        assert not out.flags.writeable

    def test_field_does_not_alias_the_step_buffer(self, make_stepper):
        stepper = make_stepper()
        half = stepper.step(random_field(32, np.random.default_rng(6), amplitude=0.5).half)
        v = SpectralField(32, half)
        before = half.copy()
        stepper.step(half)
        assert not np.array_equal(half, before)
        assert np.array_equal(v.half, before)

    def test_returned_buffer_fed_back(self, make_stepper):
        v = random_field(32, np.random.default_rng(5), amplitude=0.5, decay=1.0)
        fed = self.trajectory(make_stepper(), v.half, 50, copy_back=False)
        copied = self.trajectory(make_stepper(), v.half, 50, copy_back=True)
        assert np.array_equal(fed, copied)

    def test_integrators_built_alike_agree_bitwise(self, make_stepper):
        v = constant_field(32, 0.2) + random_field(32, np.random.default_rng(6), decay=1.0)
        first = self.trajectory(make_stepper(), v.half, 200, copy_back=False)
        second = self.trajectory(make_stepper(), v.half, 200, copy_back=False)
        assert np.array_equal(first, second)


def test_integrators_step_concurrently(bump):
    # each integrator owns its workspace, so two stepping at once in threads
    # (as a library caller may run them) give the serial results bit for bit
    n, steps = 32, 400
    table = build_symbols(BENJAMIN, n)
    starts = [random_field(n, np.random.default_rng(seed), amplitude=0.5).half for seed in (1, 2)]

    def run(start, out):
        stepper = Etdrk4Integrator(table, bump, n, 1e-3)
        half = start
        for _ in range(steps):
            half = stepper.step(half)
            out.append(half.copy())

    serial = []
    for start in starts:
        serial.append([])
        run(start, serial[-1])
    threaded = [[], []]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(s, o)) for s, o in zip(starts, threaded)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for got, expected in zip(threaded, serial):
        assert len(got) == steps
        assert np.array_equal(np.array(got), np.array(expected))


_NAN = float("nan")
_INF = float("inf")


@pytest.mark.parametrize(
    "entry",
    [
        lambda tab, p, v: Etdrk4Integrator(tab, p, 8, _NAN).step(v.half),
        lambda tab, p, v: Etdrk4Integrator(tab, None, 8, _NAN).step(v.half),
        lambda tab, p, v: Etdrk4Integrator(tab, p, 8, _INF).step(v.half),
        lambda tab, p, v: semigroup_apply(tab, p, v, _NAN),
        lambda tab, p, v: semigroup_apply(tab, p, v, _INF),
        lambda tab, p, v: linear_propagate(build_closed_loop(tab, p, 8), v, _NAN),
        lambda tab, p, v: ControlProblem(BENJAMIN, p, 8, _NAN, v, v),
        lambda tab, p, v: ControlProblem(BENJAMIN, p, 8, _INF, v, v),
        lambda tab, p, v: multiplicity_scan(tab, tol=_NAN),
    ],
    ids=[
        "step-dt-nan",
        "undamped-step-dt-nan",
        "step-dt-inf",
        "semigroup-t-nan",
        "semigroup-t-inf",
        "propagate-t-nan",
        "horizon-nan",
        "horizon-inf",
        "multiplicity-tol-nan",
    ],
)
def test_non_finite_arguments_rejected(entry, table, bump):
    # a comparison with NaN is false, so each check is written to fail on it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            entry(table, bump, random_field(8, np.random.default_rng(7)))


class TestSimulate:
    def test_zero_initial_state(self, table, global_profile):
        rec = simulate(table, global_profile, constant_field(16, 0.0), 0.1, 1e-2)
        assert np.all(rec.l2norms == 0.0)

    def test_recorded_norms_and_means_of_the_states(self, bump):
        # read off each state's coefficients, bit for bit the field functions'
        # values on the states of an integrator stepped by hand from the
        # mean-zero part on the mean's symbols, with the mean added back
        table = build_symbols(replace(BENJAMIN, mu=0.3), 16)
        shift = constant_field(16, 0.3)
        v0 = shift + random_field(16, np.random.default_rng(12), decay=1.0)
        rec = simulate(table, bump, v0, 0.05, 1e-3, record_every=5)
        dt = rec.run_meta["dt"]
        stepper = Etdrk4Integrator(table, bump, 16, dt)
        states, half = [v0], project_mean_zero(v0).half
        for i in range(50):
            half = stepper.step(half)
            if (i + 1) % 5 == 0:
                states.append(SpectralField(16, half) + shift)
        assert rec.l2norms.tolist() == [l2_norm(project_mean_zero(s)) for s in states]
        assert rec.means.tolist() == [mean(s) for s in states]
        assert rec.initial is v0
        assert rec.final.half.tobytes() == states[-1].half.tobytes()

    @pytest.mark.parametrize("mu", [0.0, 0.7])
    def test_initial_mean_must_be_the_tables(self, global_profile, mu):
        # a state of mean 0.3 on symbols built for another mean
        table = build_symbols(replace(BENJAMIN, mu=mu), 16)
        v0 = constant_field(16, 0.3) + cosine_field(16, 1, 0.1)
        with pytest.raises(ValueError, match="params.mu"):
            simulate(table, global_profile, v0, 0.1, 1e-2)

    def test_nonzero_mean_is_a_galilean_drift(self, global_profile):
        # u = mu + w(x - 2 mu t) solves the equation when w does: the constant
        # gain and the transport commute with translations, so the run at mean
        # mu is the mean-zero run with mode k turned by e^{-2 i mu k t}
        n, mu, t_final = 16, 0.3, 1.0
        v = cosine_field(n, 1, 0.1) + cosine_field(n, 2, 0.05)
        rest = simulate(build_symbols(BENJAMIN, n), global_profile, v, t_final, 1e-3)
        moving = simulate(
            build_symbols(replace(BENJAMIN, mu=mu), n), global_profile, constant_field(n, mu) + v, t_final, 1e-3
        )
        turned = rest.final.half * np.exp(-2j * mu * np.arange(n + 1) * t_final)
        expected = SpectralField(n, turned) + constant_field(n, mu)
        assert l2_norm(moving.final - expected) <= 1e-11 * l2_norm(v)
        assert moving.l2norms == pytest.approx(rest.l2norms, rel=1e-12)

    @pytest.mark.parametrize("kind", ["bump", "undamped"])
    def test_forced_run_matches_hand_stepped_integrator(self, bump, kind):
        # simulate tabulates the forcing a block of steps at a time; stepping by
        # hand with each stage time's row evaluated alone gives the same bits,
        # over a step count that is not a multiple of the block
        profile = bump if kind == "bump" else None
        n, n_steps = 16, 37
        rng = np.random.default_rng(21)
        coef = random_field(n, rng, decay=1.0, mean_zero=False).half
        rates = 1e3j * rng.standard_normal(n + 1)

        def forcing(times):
            return np.exp(rates * times[:, None]) * coef

        # the run steps the mean-zero part on the mean's symbols
        table = build_symbols(replace(BENJAMIN, mu=0.2), n)
        shift = constant_field(n, 0.2)
        v0 = shift + random_field(n, np.random.default_rng(22), amplitude=0.5)
        rec = simulate(table, profile, v0, 0.037, 1e-3, forcing=forcing)
        dt = rec.run_meta["dt"]
        assert rec.run_meta["n_steps"] == n_steps
        stepper = Etdrk4Integrator(table, profile, n, dt)
        half, norms = project_mean_zero(v0).half, [l2_norm(project_mean_zero(v0))]
        for i in range(n_steps):
            t = i * dt
            rows = np.concatenate([forcing(np.array([s])) for s in (t, t + dt / 2.0, (i + 1) * dt)])
            half = stepper.step(half, rows)
            norms.append(l2_norm(project_mean_zero(SpectralField(n, half))))
        assert rec.final.half.tobytes() == (SpectralField(n, half) + shift).half.tobytes()
        assert rec.l2norms.tolist() == norms

    def test_mean_invariance_with_offset(self, global_profile):
        u0 = constant_field(16, 0.3) + cosine_field(16, 1, 0.1)
        rec = simulate(build_symbols(replace(BENJAMIN, mu=0.3), 16), global_profile, u0, 2.0, 1e-3, record_every=50)
        assert np.abs(rec.means - 0.3).max() <= 1e-10

    def test_recorded_means_see_a_stepper_that_moves_the_mean(self, bump, monkeypatch):
        # tie the mean row of the coupled step's e^{dt L} to mode 1: the recorded
        # means must follow the states the stepper produced, not restate u0's mean
        build = Etdrk4Integrator.__init__

        def coupled(self, *args, **kwargs):
            build(self, *args, **kwargs)
            self._final[0, 2] = 1e-3

        monkeypatch.setattr(Etdrk4Integrator, "__init__", coupled)
        u0 = constant_field(32, 0.3) + cosine_field(32, 1, 0.1)
        rec = simulate(build_symbols(replace(BENJAMIN, mu=0.3), 32), bump, u0, 1.0, 1e-3, record_every=100)
        assert rec.means[0] == 0.3
        assert rec.means[-1] == mean(rec.final)
        assert np.abs(rec.means - 0.3).max() > 1e-3

    def test_norms_non_increasing(self, table, bump):
        rng = np.random.default_rng(7)
        v0 = 0.05 * random_field(24, rng, decay=1.5)
        rec = simulate(table, bump, v0.with_cutoff(32), 2.0, 1e-3, record_every=20)
        assert np.all(np.diff(rec.l2norms) <= 1e-10)

    @pytest.mark.parametrize(
        "t_final, dt, record_every",
        [(1.0, -0.1, 1), (1.0, 0.0, 1), (1.0, 1e-320, 1), (np.inf, 0.1, 1), (1.0, 0.1, 0)],
        ids=["negative-dt", "zero-dt", "infinite-step-count", "infinite-t_final", "zero-record_every"],
    )
    def test_invalid_time_grid_rejected(self, table, global_profile, t_final, dt, record_every):
        v0 = cosine_field(16, 1, 0.1)
        with pytest.raises(ValueError):
            simulate(table, global_profile, v0, t_final, dt, record_every=record_every)

    def test_memory_does_not_grow_with_the_recorded_states(self, global_profile):
        # only the endpoint states are kept: each extra recorded step may cost
        # its few scalars, far less than a quarter of one half spectrum
        n = 128
        table = build_symbols(BENJAMIN, n)
        v0 = cosine_field(n, 1, 0.1)

        def traced_peak(t_final):
            simulate(table, global_profile, v0, t_final, 1e-3)
            tracemalloc.start()
            try:
                rec = simulate(table, global_profile, v0, t_final, 1e-3)
                return tracemalloc.get_traced_memory()[1], rec.times.size
            finally:
                tracemalloc.stop()

        short_peak, short_records = traced_peak(0.02)
        long_peak, long_records = traced_peak(2.0)
        per_record = (long_peak - short_peak) / (long_records - short_records)
        assert per_record < 16 * (n + 1) / 4

    def test_forced_memory_does_not_grow_with_the_step_count(self, global_profile):
        # the forcing is tabulated a block of steps at a time, never for the
        # whole run: 1900 more steps may cost less than a quarter of one half
        # spectrum of peak memory
        n = 128
        table = build_symbols(BENJAMIN, n)
        v0 = cosine_field(n, 1, 0.1)
        coef = cosine_field(n, 2, 0.1).half
        lam = table.eig(np.arange(n + 1))

        def forcing(times):
            return np.exp(1j * lam * times[:, None]) * coef

        def traced_peak(t_final):
            simulate(table, global_profile, v0, t_final, 1e-3, forcing=forcing, record_every=10**9)
            tracemalloc.start()
            try:
                simulate(table, global_profile, v0, t_final, 1e-3, forcing=forcing, record_every=10**9)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(2.0) - traced_peak(0.1) < 16 * (n + 1) / 4

    def test_continuous_dependence(self, table, global_profile):
        rng = np.random.default_rng(8)
        base = 0.1 * random_field(16, rng, decay=1.0)
        ratios = []
        for dt in (2e-3, 1e-3):
            pert = 1e-4 * random_field(16, np.random.default_rng(9), decay=1.0)
            a = simulate(table, global_profile, base.with_cutoff(16), 1.0, dt)
            b = simulate(table, global_profile, (base + pert).with_cutoff(16), 1.0, dt)
            ratios.append(l2_norm(a.final - b.final) / l2_norm(pert))
        assert all(r < 10.0 for r in ratios)
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-4)


class TestEnergyResidual:
    def test_zero_trajectory(self, table, global_profile):
        rec = simulate(table, global_profile, constant_field(16, 0.0), 0.5, 1e-2, record_every=5)
        assert np.nanmax(np.abs(rec.energy_residuals)) == 0.0

    def test_linear_run_closed_form(self, table, global_profile):
        loop = build_closed_loop(table, global_profile, 16)
        v0 = cosine_field(16, 1)
        rec = linear_trajectory(loop, v0, 2.0, 1e-2)
        rates = [dissipation_form(global_profile, linear_propagate(loop, v0, t)) for t in rec.times]
        resid = energy_residual(rec.times, rec.l2norms, np.array(rates))
        assert np.nanmax(np.abs(resid)) < 1e-8

    def test_residual_shrinks_with_dt(self, table, global_profile):
        v0 = cosine_field(32, 1, 0.1)
        worst = []
        for dt in (4e-3, 2e-3):
            rec = simulate(table, global_profile, v0, 2.0, dt, record_every=50)
            worst.append(np.nanmax(np.abs(rec.energy_residuals)))
        assert worst[0] > 8.0 * worst[1]


class TestDecayFit:
    def test_synthetic_exponential(self):
        times = np.linspace(0.0, 10.0, 101)
        norms = np.exp(-0.3 * times)
        rec = TrajectoryRecord(
            times=times,
            initial=constant_field(2, 0.0),
            final=constant_field(2, 0.0),
            l2norms=norms,
            means=np.zeros_like(times),
            energy_residuals=None,
            run_meta={},
        )
        fit = decay_fit(rec, (0.0, 10.0))
        assert fit.rate == pytest.approx(0.3, rel=1e-12)
        assert fit.prefactor == pytest.approx(1.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        with pytest.raises(ValueError, match="disagree in length"):
            replace(rec, energy_residuals=np.zeros(times.size - 1))

    def test_global_profile_rate(self, table, global_profile):
        loop = build_closed_loop(table, global_profile, 16)
        rec = linear_trajectory(loop, cosine_field(16, 1), 100.0, 0.5)
        fit = decay_fit(rec, (20.0, 100.0))
        assert fit.rate == pytest.approx(D1, rel=1e-2)

    def test_bump_profile_matches_abscissa(self, table, bump):
        loop = build_closed_loop(table, bump, 32)
        rec = linear_trajectory(loop, cosine_field(32, 1), 600.0, 0.5)
        fit = decay_fit(rec, (300.0, 600.0))
        assert fit.rate == pytest.approx(-loop.spectral_abscissa, rel=0.05)

    def test_underflow_window_truncated(self):
        times = np.linspace(0.0, 10.0, 11)
        norms = np.concatenate([np.exp(-times[:6]), np.full(5, 1e-300)])
        rec = TrajectoryRecord(
            times=times,
            initial=constant_field(2, 0.0),
            final=constant_field(2, 0.0),
            l2norms=norms,
            means=np.zeros_like(times),
            energy_residuals=None,
            run_meta={},
        )
        with pytest.warns(UserWarning, match="underflow"):
            fit = decay_fit(rec, (0.0, 10.0))
        assert fit.n_samples == 6

    def test_zero_norms_dropped_without_warning(self):
        # a zero state has not underflowed: its samples leave the fit silently
        times = np.linspace(0.0, 10.0, 11)
        norms = np.concatenate([np.exp(-times[:6]), np.zeros(5)])
        rec = TrajectoryRecord(
            times=times,
            initial=constant_field(2, 0.0),
            final=constant_field(2, 0.0),
            l2norms=norms,
            means=np.zeros_like(times),
            energy_residuals=None,
            run_meta={},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = decay_fit(rec, (0.0, 10.0))
        assert fit.n_samples == 6
