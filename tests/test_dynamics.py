"""Tests for the semigroup, closed loop, and the damped integrator."""

import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg

from dgblab.damping import dissipation_form, make_profile_bump, make_profile_global
from dgblab.dynamics import (
    TrajectoryRecord,
    _expm,
    build_closed_loop,
    decay_fit,
    energy_residual,
    field_to_state,
    linear_propagate,
    linear_trajectory,
    nonlinear_step,
    semigroup_apply,
    simulate,
    simulate_damped,
)
from dgblab.errors import DgbError
from dgblab.spectral import (
    SpectralField,
    constant_field,
    cosine_field,
    l2_norm,
    mean,
    project_mean_zero,
    random_field,
    zero_field,
)
from dgblab.symbols import BENJAMIN, build_symbols

FOUR_PI_SQ = 4.0 * np.pi**2
D1 = 1.0 / FOUR_PI_SQ  # dissipation symbol of the constant gain at |k| = 1


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
        d = global_profile.d_symbol(loop.modes)
        assert np.allclose(loop.damping_matrix, np.diag(d), atol=1e-15)
        assert loop.spectral_abscissa == pytest.approx(-D1)

    def test_damping_matrix_psd_hermitian(self, table, bump):
        loop = build_closed_loop(table, bump, 24)
        b = loop.damping_matrix
        assert np.allclose(b, b.conj().T)
        assert np.linalg.eigvalsh(b).min() > -1e-12

    def test_damping_matrix_read_only(self, table, bump):
        # the loop owns its feedback matrix and keeps it read-only; the
        # matrix-free dissipation rate is its quadratic form
        loop = build_closed_loop(table, bump, 24)
        with pytest.raises(ValueError):
            loop.damping_matrix[0, 0] = 0.0
        v = random_field(24, np.random.default_rng(5), mean_zero=False)
        x = np.delete(v.coeffs, 24)
        expected = 2.0 * np.pi * np.vdot(x, loop.damping_matrix @ x).real
        assert dissipation_form(bump, v) == pytest.approx(expected, rel=1e-14)

    def test_abscissa_negative(self, table, bump, global_profile):
        for profile in (bump, global_profile):
            loop = build_closed_loop(table, profile, 24)
            assert loop.spectral_abscissa < 0.0

    @pytest.mark.parametrize("n", [8, 16, 24, 32])
    @pytest.mark.parametrize("kind", ["bump", "global"])
    def test_abscissa_matches_complex_spectrum(self, table, bump, global_profile, kind, n):
        # the abscissa comes from the real form; the complex generator has the same spectrum
        loop = build_closed_loop(table, bump if kind == "bump" else global_profile, n)
        expected = np.linalg.eigvals(loop.generator).real.max()
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
        a = loop.generator
        t_final = 0.05
        out = field_to_state(linear_propagate(loop, v, t_final), 10)
        errs = []
        for dt in (1e-4, 5e-5):
            state = field_to_state(v, 10)
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
            loop = build_closed_loop(build_symbols(BENJAMIN, n), bump, n)
            v = random_field(n, np.random.default_rng(3))
            expected = scipy.linalg.expm(t * loop.generator) @ field_to_state(v, n)
            got = field_to_state(linear_propagate(loop, v, t), n)
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
        out = nonlinear_step(table, global_profile, zero_field(16), 1e-3)
        assert l2_norm(out) == 0.0

    def test_tiny_amplitude_matches_linear(self, table, global_profile):
        loop = build_closed_loop(table, global_profile, 16)
        rng = np.random.default_rng(6)
        v = 1e-8 * random_field(16, rng)
        dt = 1e-3
        nl = nonlinear_step(table, global_profile, v, dt)
        lin = linear_propagate(loop, v, dt)
        assert l2_norm(nl - lin) < 1e-6 * l2_norm(v)

    def test_norm_decreases_over_step(self, table, global_profile):
        v = cosine_field(32, 1, 0.1)
        out = nonlinear_step(table, global_profile, v, 1e-3)
        assert l2_norm(out) < l2_norm(v)

    def test_mean_held_exactly(self, table, bump):
        v = constant_field(24, 0.4) + cosine_field(24, 1, 0.05)
        out = nonlinear_step(table, bump, v, 1e-3)
        assert mean(out) == 0.4

    def test_step_output_exactly_real(self, table, bump):
        # conjugate symmetry and the mean hold by construction, not to rounding:
        # the field a recorded half spectrum extends to is exactly real
        from dgblab.dynamics import Etdrk4Integrator
        from dgblab.spectral import conjugate_extend

        n = 32
        stepper = Etdrk4Integrator(table, bump, n, 1e-3)
        v = constant_field(n, 0.3) + random_field(n, np.random.default_rng(19), decay=1.5)
        h = v.half
        for i in range(200):
            h = stepper.step(h, i * 1e-3)
            c = conjugate_extend(h)
            assert np.array_equal(c, np.conj(c[::-1]))
            assert c[n] == v.coeffs[n]

    def test_coupling_terms_match_damping_module(self, table, bump):
        # the damping part of the stepper's generator must agree with the
        # operator module's three-part split after projection onto the band
        from dgblab.damping import (
            apply_dissipation_part,
            apply_mean_correction,
            apply_smoothing_remainder,
        )
        from dgblab.dynamics import Etdrk4Integrator

        n = 24
        stepper = Etdrk4Integrator(table, bump, n, 1e-3)
        modes = np.concatenate([np.arange(-n, 0), np.arange(1, n + 1)])
        damping_part = stepper.generator - np.diag(1j * table.eig(modes))
        rng = np.random.default_rng(17)
        for _ in range(3):
            v = random_field(n, rng, decay=0.5)
            got = damping_part @ field_to_state(v, n)
            expected = -(
                apply_dissipation_part(bump, v)
                + apply_smoothing_remainder(bump, v)
                + apply_mean_correction(bump, v)
            ).with_cutoff(n)
            assert np.abs(got - field_to_state(expected, n)).max() < 1e-13

    def test_transport_matches_spectral_module(self, table, bump):
        from dgblab.dynamics import Etdrk4Integrator
        from dgblab.spectral import nonlinear_term

        n = 24
        stepper = Etdrk4Integrator(table, bump, n, 1e-3)
        rng = np.random.default_rng(17)
        for _ in range(3):
            v = random_field(n, rng, decay=0.5)
            got = stepper.nonlinearity(v.half, 0.0, np.empty(n + 1, dtype=complex))
            expected = -nonlinear_term(v).coeffs[n:]
            assert np.abs(got - expected).max() < 1e-13

    @pytest.mark.parametrize("n", [16, 64])
    def test_stacked_step_matches_unstacked_formula(self, bump, n):
        # the step forms the c-stage and the final combination as single
        # products of side-by-side weights; the reference is Cox-Matthews'
        # combination with one matrix-vector product per weight
        from dgblab.dynamics import Etdrk4Integrator

        stepper = Etdrk4Integrator(build_symbols(BENJAMIN, n), bump, n, 1e-3)
        e_half, q = np.hsplit(stepper._stage_c, 2)
        e_full, f1, f2, f3 = np.hsplit(stepper._final, 4)

        def lin(mat, x):
            return (mat @ x.view(np.float64)).view(np.complex128)

        def nonlin(x):
            return stepper.nonlinearity(x, 0.0, np.empty(n + 1, dtype=complex))

        rng = np.random.default_rng(3)
        for _ in range(5):
            v = random_field(n, rng, amplitude=0.5, decay=0.5)
            u = v.coeffs[n:].copy()
            nv = nonlin(u)
            a = lin(e_half, u) + lin(q, nv)
            na = nonlin(a)
            b = lin(e_half, u) + lin(q, na)
            nb = nonlin(b)
            c = lin(e_half, a) + lin(q, 2.0 * nb - nv)
            nc = nonlin(c)
            expected = lin(e_full, u) + lin(f1, nv) + 2.0 * lin(f2, na + nb) + lin(f3, nc)
            got = stepper.step(v.half, 0.0)
            assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_tiny_amplitude_matches_linear_bump(self, table, bump):
        # the full damped generator inside the exponentials against the matrix route
        loop = build_closed_loop(table, bump, 16)
        rng = np.random.default_rng(18)
        v = 1e-8 * random_field(16, rng)
        rec = simulate(table, bump, v.with_cutoff(16), 0.5, 1e-3)
        lin = linear_propagate(loop, v, 0.5)
        assert l2_norm(rec.states[-1] - lin) < 1e-8 * l2_norm(v)

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

    def test_linearization_order(self, table, global_profile):
        # error against the linear flow scales like amplitude^2
        loop = build_closed_loop(table, global_profile, 16)
        scaled = []
        for eps in (1e-3, 1e-4):
            v = cosine_field(16, 1, eps)
            rec = simulate(table, global_profile, v, 0.5, 1e-3)
            lin = linear_propagate(loop, v, 0.5)
            scaled.append(l2_norm(rec.states[-1] - lin) / eps**2)
        assert scaled[0] == pytest.approx(scaled[1], rel=0.05)


class TestStepContract:
    """`step` maps a half spectrum to the integrator's own read-only buffer."""

    @pytest.fixture(params=["bump", "global"])
    def make_stepper(self, request, bump, global_profile):
        from dgblab.dynamics import Etdrk4Integrator

        profile = bump if request.param == "bump" else global_profile
        table = build_symbols(BENJAMIN, 32)
        return lambda: Etdrk4Integrator(table, profile, 32, 1e-3)

    @staticmethod
    def trajectory(stepper, half, steps, copy_back):
        out = []
        for i in range(steps):
            half = stepper.step(half.copy() if copy_back else half, i * 1e-3)
            out.append(half.copy())
        return np.array(out)

    def test_argument_unchanged(self, make_stepper):
        half = random_field(32, np.random.default_rng(4), amplitude=0.5, decay=1.0).half.copy()
        before = half.copy()
        out = make_stepper().step(half, 0.0)
        assert np.array_equal(half, before)
        assert not np.shares_memory(out, half)
        assert not out.flags.writeable

    def test_field_does_not_alias_the_step_buffer(self, make_stepper):
        stepper = make_stepper()
        half = stepper.step(random_field(32, np.random.default_rng(6), amplitude=0.5).half, 0.0)
        v = SpectralField(32, half)
        before = half.copy()
        stepper.step(half, 1e-3)
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
    # (as `sweep` runs its configs) give the serial results bit for bit
    from dgblab.dynamics import Etdrk4Integrator

    n, steps = 32, 400
    table = build_symbols(BENJAMIN, n)
    starts = [random_field(n, np.random.default_rng(seed), amplitude=0.5).half for seed in (1, 2)]

    def run(start, out):
        stepper = Etdrk4Integrator(table, bump, n, 1e-3)
        half = start
        for i in range(steps):
            half = stepper.step(half, i * 1e-3)
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


class TestSimulate:
    def test_zero_initial_state(self, table, global_profile):
        rec = simulate(table, global_profile, zero_field(16), 0.1, 1e-2)
        assert np.all(rec.l2norms == 0.0)

    def test_recorded_norms_and_means_of_the_states(self, table, bump):
        # read off each state's coefficients, bit for bit the field functions' values
        v0 = constant_field(16, 0.3) + random_field(16, np.random.default_rng(12), decay=1.0)
        rec = simulate(table, bump, v0, 0.05, 1e-3, record_every=5)
        assert rec.l2norms.tolist() == [l2_norm(project_mean_zero(s)) for s in rec.states]
        assert rec.means.tolist() == [mean(s) for s in rec.states]

    def test_mean_invariance_with_offset(self, global_profile):
        u0 = constant_field(16, 0.3) + cosine_field(16, 1, 0.1)
        rec = simulate_damped(BENJAMIN, global_profile, u0, 2.0, 1e-3, record_every=50)
        assert np.abs(rec.means - 0.3).max() <= 1e-10

    def test_norms_non_increasing(self, table, bump):
        rng = np.random.default_rng(7)
        v0 = 0.05 * random_field(24, rng, decay=1.5)
        rec = simulate(table, bump, v0.with_cutoff(32), 2.0, 1e-3, record_every=20)
        assert np.all(np.diff(rec.l2norms) <= 1e-10)

    def test_continuous_dependence(self, table, global_profile):
        rng = np.random.default_rng(8)
        base = 0.1 * random_field(16, rng, decay=1.0)
        ratios = []
        for dt in (2e-3, 1e-3):
            pert = 1e-4 * random_field(16, np.random.default_rng(9), decay=1.0)
            a = simulate(table, global_profile, base.with_cutoff(16), 1.0, dt)
            b = simulate(table, global_profile, (base + pert).with_cutoff(16), 1.0, dt)
            ratios.append(l2_norm(a.states[-1] - b.states[-1]) / l2_norm(pert))
        assert all(r < 10.0 for r in ratios)
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-4)


class TestEnergyResidual:
    def test_zero_trajectory(self, table, global_profile):
        rec = simulate(table, global_profile, zero_field(16), 0.5, 1e-2, record_every=5)
        assert np.nanmax(np.abs(rec.energy_residuals)) == 0.0

    def test_linear_run_closed_form(self, table, global_profile):
        loop = build_closed_loop(table, global_profile, 16)
        rec = linear_trajectory(loop, cosine_field(16, 1), 2.0, 1e-2)
        resid = energy_residual(rec, global_profile)
        assert np.nanmax(np.abs(resid)) < 1e-8

    def test_residual_shrinks_with_dt(self, table, global_profile):
        v0 = cosine_field(32, 1, 0.1)
        worst = []
        for dt in (4e-3, 2e-3):
            rec = simulate(table, global_profile, v0, 2.0, dt, record_every=50)
            worst.append(np.nanmax(np.abs(rec.energy_residuals)))
        assert worst[0] > 8.0 * worst[1]

    def test_halving_loop_meets_tolerance(self, table, global_profile):
        v0 = cosine_field(32, 1, 0.1)
        rec = simulate(
            table, global_profile, v0, 1.0, 2e-2, record_every=5, energy_tol=1e-9, max_halvings=6
        )
        assert np.nanmax(np.abs(rec.energy_residuals)) <= 1e-9
        assert rec.run_meta["dt"] < 2e-2


class TestDecayFit:
    def test_synthetic_exponential(self):
        times = np.linspace(0.0, 10.0, 101)
        norms = np.exp(-0.3 * times)
        rec = TrajectoryRecord(
            times=times,
            states=tuple(zero_field(2) for _ in times),
            l2norms=norms,
            means=np.zeros_like(times),
            energy_residuals=None,
            run_meta={},
        )
        fit = decay_fit(rec, (0.0, 10.0))
        assert fit.rate == pytest.approx(0.3, rel=1e-12)
        assert fit.prefactor == pytest.approx(1.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

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
            states=tuple(zero_field(2) for _ in times),
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
            states=tuple(zero_field(2) for _ in times),
            l2norms=norms,
            means=np.zeros_like(times),
            energy_residuals=None,
            run_meta={},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = decay_fit(rec, (0.0, 10.0))
        assert fit.n_samples == 6
