"""Tests for control synthesis, biorthogonal families, and observability."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp

from dgblab import control, dynamics
from dgblab.cli import main
from dgblab.control import (
    ControlProblem,
    _certify_linear,
    _control_norm,
    _gramian,
    biorthogonal_family,
    gram_matrix,
    linear_control_global_modal,
    linear_control_gramian,
    nonlinear_control_global,
    observability_constant,
)
from dgblab.damping import feedback_matrix, gain_matrix, make_profile_bump, make_profile_global
from dgblab.dynamics import (
    _MAX_EIGVEC_COND,
    _eigenbasis,
    _expm,
    _real_coords,
    _real_field,
    _real_form,
    _real_gain,
    build_closed_loop,
    linear_propagate,
)
from dgblab.errors import DegenerateGramianError, IllPosedHorizonError, ObservabilityFailureError, ProfileError
from dgblab.spectral import (
    conjugate_extend,
    constant_field,
    cosine_field,
    l2_norm,
    mean,
    random_field,
    sobolev_norm,
)
from dgblab.symbols import BENJAMIN, build_symbols

FOUR_PI_SQ = 4.0 * np.pi**2
WELL_SEPARATED = (2, 3, 4, 5, 6)  # eigenvalues -4, -18, -48, -100, -180


def _galerkin(table, profile, n):
    """The modes [-N..-1, 1..N] and the complex generator diag(i lam(k)) - B on them.

    Assembled from the public `feedback_matrix`: an oracle for the loop's real
    form that does not go through `_real_form`.
    """
    modes = np.concatenate([np.arange(-n, 0), np.arange(1, n + 1)])
    return modes, np.diag(1j * table.eig(modes)) - feedback_matrix(profile, modes)


def _propagated_gramian(a_mat, q, horizon):
    """int_0^T e^{tA} Q e^{tA^H} dt through one block matrix exponential: the Pade oracle.

    Exponentiating [[A, Q], [0, -A^H]] * T puts e^{TA} in the top-left
    corner and int_0^T e^{(T-s)A} Q e^{-s A^H} ds in the top-right; a
    final multiplication by e^{T A^H} (the adjoint of the top-left block)
    yields the Gramian.  Exact up to expm accuracy, with no resolution limit
    from the dispersive oscillation; the plain quadrature alternative needs
    node counts proportional to |lam|_max * T.  Real A and Q stay real.
    Returns the Gramian and the flow e^{TA}.  The numpy Pade route
    (`dynamics._expm`) shares no factorization with the eigenbasis Gramians.
    """
    dim = a_mat.shape[0]
    block = np.zeros((2 * dim, 2 * dim), dtype=np.result_type(a_mat, q))
    block[:dim, :dim] = a_mat
    block[:dim, dim:] = q
    block[dim:, dim:] = -a_mat.conj().T
    e_block = _expm(horizon * block)
    flow = e_block[:dim, :dim]
    gram = e_block[:dim, dim:] @ flow.conj().T
    return 0.5 * (gram + gram.conj().T), flow


def gauss_nodes(horizon: float, n: int):
    """Gauss-Legendre nodes and weights of n points on [0, horizon]."""
    x, w = leggauss(n)
    return 0.5 * horizon * (x + 1.0), 0.5 * horizon * w


@pytest.fixture(scope="module")
def table():
    return build_symbols(BENJAMIN, 32)


@pytest.fixture(scope="module")
def global_profile():
    return make_profile_global(1.0)


@pytest.fixture(scope="module")
def bump():
    return make_profile_bump(np.pi / 2, 3 * np.pi / 2, 32, delta=1.0)


class TestGramMatrix:
    def test_single_mode(self, table):
        gamma = gram_matrix(table, [3], 2.5)
        assert gamma.shape == (1, 1)
        assert gamma[0, 0] == pytest.approx(2.5)

    def test_repeated_eigenvalue_rejected(self, table):
        # lam(-1) = lam(1) = 0 under these parameters
        with pytest.raises(DegenerateGramianError):
            gram_matrix(table, [-1, 1], 1.0)

    def test_two_mode_closed_form(self, table):
        # eigenvalues 0 and -4 (modes 1 and 2), horizon 1
        gamma = gram_matrix(table, [1, 2], 1.0)
        expected = (np.exp(-4j) - 1.0) / (-4j)
        assert gamma[1, 0] == pytest.approx(expected)
        assert gamma[0, 1] == pytest.approx(np.conj(expected))

    def test_hermitian_positive_definite(self, table):
        gamma = gram_matrix(table, WELL_SEPARATED, 1.0)
        assert np.allclose(gamma, gamma.conj().T)
        assert scipy.linalg.eigvalsh(gamma).min() > 0


class TestBiorthogonal:
    def test_single_mode_dual(self, table):
        fam = biorthogonal_family(table, [2], 1.0)
        # q(t) = exp(-i lam t) / T with T = 1
        ts = np.linspace(0, 1, 5)
        assert np.allclose(fam.evaluate(0, ts), np.exp(-1j * table.eig(2) * ts))

    def test_pairing_identity_closed_form(self, table):
        fam = biorthogonal_family(table, WELL_SEPARATED, 1.0)
        assert np.abs(fam.pairing_matrix() - np.eye(5)).max() < 1e-8

    def test_pairing_identity_quadrature(self, table):
        # independent check: high-order quadrature of the duality integrals
        fam = biorthogonal_family(table, WELL_SEPARATED, 1.0)
        ts, ws = gauss_nodes(1.0, 400)
        lam = fam.eigenvalues
        pair = np.empty((5, 5), dtype=complex)
        for j in range(5):
            qj = fam.evaluate(j, ts)
            for i in range(5):
                pair[j, i] = np.sum(ws * np.exp(-1j * lam[i] * ts) * np.conj(qj))
        assert np.abs(pair - np.eye(5)).max() < 1e-8

    def test_condition_number_drops_with_horizon(self, table):
        conds = [
            biorthogonal_family(table, WELL_SEPARATED, t).condition_number for t in (0.5, 1.0, 2.0)
        ]
        print(f"biorthogonal conditioning vs horizon: {conds}")
        assert conds[-1] < conds[0]

    def test_ill_posed_horizon_rejected(self, table):
        with pytest.raises(IllPosedHorizonError):
            biorthogonal_family(table, WELL_SEPARATED, 1e-9, cond_limit=1e6)


class TestFlowGramian:
    def test_matches_quadrature_oracle(self, table, bump):
        # moderate band so plain Gauss-Legendre resolves the oscillation; the
        # steering's Gramian on the loop's real form, and the Pade oracle
        n = 6
        loop = build_closed_loop(table, bump, n)
        a = loop.real_generator
        b = _real_gain(bump, n)
        ts, ws = gauss_nodes(1.0, 768)
        slow = np.zeros_like(a)
        for t, w in zip(ts, ws):
            m = scipy.linalg.expm(t * a) @ b
            slow += w * (m @ m.T)
        fast = _gramian(loop.eigenbasis, b @ b.T, 1.0)
        oracle, _ = _propagated_gramian(a, b @ b.T, 1.0)
        assert np.abs(fast - slow).max() < 1e-12 * np.abs(slow).max()
        assert np.abs(oracle - slow).max() < 1e-12 * np.abs(slow).max()


class TestLinearControl:
    def test_zero_steering(self, global_profile):
        prob = ControlProblem(BENJAMIN, global_profile, 8, 1.0, constant_field(8, 0.0), constant_field(8, 0.0))
        sol = linear_control_gramian(prob)
        assert sol.terminal_error == 0.0
        assert sol.control_norm == pytest.approx(0.0, abs=1e-12)

    def test_unequal_means_rejected(self, global_profile):
        with pytest.raises(ValueError):
            ControlProblem(
                BENJAMIN, global_profile, 8, 1.0, constant_field(8, 0.1), constant_field(8, 0.2)
            )

    def test_common_mean_must_be_params_mu(self, global_profile):
        # endpoints that agree on a mean the symbols were not built for
        u0, u1 = constant_field(8, 0.3) + cosine_field(8, 1, 0.1), constant_field(8, 0.3)
        for mu in (0.0, 0.7):
            with pytest.raises(ValueError, match="params.mu"):
                ControlProblem(replace(BENJAMIN, mu=mu), global_profile, 8, 1.0, u0, u1)
        ControlProblem(replace(BENJAMIN, mu=0.3), global_profile, 8, 1.0, u0, u1)

    def test_global_matches_modal_closed_form(self, global_profile):
        rng = np.random.default_rng(0)
        v0 = random_field(12, rng, decay=1.5)
        v1 = random_field(12, rng, decay=1.5)
        prob = ControlProblem(BENJAMIN, global_profile, 12, 1.0, v0, v1)
        matrix_route = linear_control_gramian(prob)
        modal_route = linear_control_global_modal(prob)
        gap = max(l2_norm(a - b) for a, b in zip(matrix_route.fields, modal_route.fields))
        assert gap < 1e-8
        assert modal_route.terminal_error < 1e-12

    def test_bump_steering_certified(self, bump):
        rng = np.random.default_rng(1)
        v0 = random_field(16, rng, decay=1.5)
        v1 = random_field(16, rng, decay=1.5)
        prob = ControlProblem(BENJAMIN, bump, 16, 1.0, v0, v1)
        sol = linear_control_gramian(prob)
        assert sol.terminal_error < 1e-6
        assert sol.info["gramian_residual"] < 1e-6
        assert sol.info["gramian_min_eig"] > 0

    def test_cost_bound_finite(self, bump):
        # empirical version of |h| <= nu (|v0| + |v1|)
        rng = np.random.default_rng(2)
        nus = []
        for _ in range(3):
            v0 = random_field(10, rng, decay=1.5)
            v1 = random_field(10, rng, decay=1.5)
            sol = linear_control_gramian(ControlProblem(BENJAMIN, bump, 10, 1.0, v0, v1))
            nus.append(sol.control_norm / (l2_norm(v0) + l2_norm(v1)))
        print(f"empirical steering cost ratios: {nus}")
        assert all(np.isfinite(nus)) and max(nus) < 1e3


def _rk_terminal_state(a_mat, b_mat, xi, v0_state, horizon, rtol=1e-11):
    """Re-simulate the controlled linear system with DOP853 (the RK oracle).

    The adjoint state is integrated forward in reversed time, then the state
    equation is driven through its dense interpolant.
    """
    atol = 1e-13 * (1.0 + float(np.abs(xi).max()) + float(np.abs(v0_state).max()))
    a_h = a_mat.conj().T
    sol_q = solve_ivp(
        lambda t, q: a_h @ q,
        (0.0, horizon),
        xi.astype(np.complex128),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
    )
    assert sol_q.success, sol_q.message

    def rhs(t, v):
        p = sol_q.sol(horizon - t)
        return a_mat @ v + b_mat @ (b_mat.conj().T @ p)

    sol_v = solve_ivp(
        rhs,
        (0.0, horizon),
        v0_state.astype(np.complex128),
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    assert sol_v.success, sol_v.message
    return sol_v.y[:, -1]


class TestControlNorm:
    @pytest.mark.parametrize("s", [0.0, 1.0])
    @pytest.mark.parametrize(
        "route, profile",
        [(linear_control_gramian, "bump"), (linear_control_global_modal, "global_profile")],
        ids=["gramian", "modal"],
    )
    def test_matches_per_field_formula_bit_for_bit(self, request, route, profile, s):
        # with this draw, integrating the squared sums instead of the squared
        # norms moves the last bit in three of the four cases
        rng = np.random.default_rng(2)
        v0 = random_field(12, rng, decay=1.5)
        v1 = random_field(12, rng, decay=1.5)
        prob = ControlProblem(BENJAMIN, request.getfixturevalue(profile), 12, 1.0, v0, v1, s=s)
        sol = route(prob)
        per_field = np.array([sobolev_norm(f, s) ** 2 for f in sol.fields])
        expected = float(np.sqrt(np.trapezoid(per_field, sol.times)))
        assert _control_norm(sol.times, sol.samples, s) == expected
        assert sol.control_norm == expected
        with pytest.raises(ValueError):
            sol.samples[0, 1] = 0.0


class TestCertificate:
    @pytest.mark.parametrize("kind", ["bump", "global"])
    def test_closed_form_matches_rk_oracle(self, kind, bump, global_profile):
        profile = bump if kind == "bump" else global_profile
        n = 8
        loop = build_closed_loop(build_symbols(BENJAMIN, n), profile, n)
        b = _real_gain(profile, n)
        rng = np.random.default_rng(4)
        # adjoint data of the size a steering solve produces
        xi = 100.0 * _real_coords(random_field(n, rng, decay=1.5), n)
        v0 = _real_coords(random_field(n, rng, decay=1.5), n)
        gram = _gramian(loop.eigenbasis, b @ b.T, 1.0)
        fast, residual = _certify_linear(loop.real_generator, b, gram, xi, v0, 1.0)
        slow = _rk_terminal_state(loop.real_generator, b, xi, v0, 1.0)
        assert np.linalg.norm(fast - slow) <= 1e-8 * np.linalg.norm(slow)
        assert residual < 1e-12

    def test_corrupted_eigenbasis_detected(self, bump, monkeypatch):
        # the certificate's flow does not come from the eigenbasis, so an
        # eigenbasis error in the synthesis shows in the terminal error
        n = 8
        rng = np.random.default_rng(1)
        prob = ControlProblem(BENJAMIN, bump, n, 1.0, random_field(n, rng, decay=1.5), random_field(n, rng, decay=1.5))
        assert linear_control_gramian(prob).terminal_error < 1e-12
        eigenbasis = dynamics._eigenbasis

        def corrupted(mat):
            mu, vecs, inv = eigenbasis(mat)
            return mu * (1.0 + 1e-8), vecs, inv

        monkeypatch.setattr(dynamics, "_eigenbasis", corrupted)
        assert linear_control_gramian(prob).terminal_error >= 1e-9

    def test_corrupted_gramian_trips_the_gate(self, bump, monkeypatch, tmp_path, capsys):
        # every Gamma entry 1% off: the terminal state adds the synthesis's own
        # W xi, so it cannot see the error, but the Lyapunov identity with the
        # Pade flow reads it, and the CLI exits 3 with no artifact
        n = 8
        rng = np.random.default_rng(1)
        prob = ControlProblem(BENJAMIN, bump, n, 1.0, random_field(n, rng, decay=1.5), random_field(n, rng, decay=1.5))
        assert linear_control_gramian(prob).info["gramian_residual"] < 1e-12
        exp_integral = control._exp_integral
        monkeypatch.setattr(control, "_exp_integral", lambda z, horizon: 1.01 * exp_integral(z, horizon))
        sol = linear_control_gramian(prob)
        assert sol.terminal_error < 1e-12
        assert sol.info["gramian_residual"] >= 1e-3
        out = tmp_path / "corrupted"
        args = ["control-linear", "--override", "profile.kind=bump", "--override", f"grid.n={n}", "--out", str(out)]
        assert main(args) == 3
        assert "Gramian residual" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_defective_generator_rejected(self):
        with pytest.raises(ProfileError):
            _eigenbasis(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEigenbasisCheck:
    """`_eigenbasis` caps ||V||_F ||V^{-1}||_F, from the inverse it returns, in place of an SVD."""

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_bound_dominates_svd_condition(self, n, bump):
        loop = build_closed_loop(build_symbols(BENJAMIN, n), bump, n)
        mu, vecs, inv = _eigenbasis(loop.real_generator)
        assert np.array_equal(inv, np.linalg.inv(vecs))
        bound = np.linalg.norm(vecs) * np.linalg.norm(inv)
        cond = np.linalg.cond(vecs)
        assert cond <= bound <= 2 * n * cond
        assert bound <= _MAX_EIGVEC_COND

    @pytest.mark.parametrize(
        "vecs",
        [
            np.array([[1.0, 1.0], [1.0, 1.0]]),  # exactly singular: inv raises
            np.array([[1.0, 1.0], [0.0, 1e-300]]),  # ||V^{-1}||_F^2 overflows
        ],
        ids=["singular", "overflowing-bound"],
    )
    def test_singular_and_overflowing_rejected_quietly(self, vecs, monkeypatch):
        monkeypatch.setattr(np.linalg, "eig", lambda mat: (np.zeros(2), vecs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProfileError):
                _eigenbasis(np.zeros((2, 2)))

    def test_defective_rejected_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProfileError):
                _eigenbasis(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRealForm:
    """The real-form routes against the complex 2N x 2N matrices they replace."""

    @pytest.mark.parametrize("kind", ["bump", "global"])
    def test_controllability_gramian_spectrum(self, kind, table, bump, global_profile):
        profile = bump if kind == "bump" else global_profile
        n = 16
        loop = build_closed_loop(table, profile, n)
        modes, a = _galerkin(table, profile, n)
        b = gain_matrix(profile, modes, modes)
        complex_gram, _ = _propagated_gramian(a, b @ b.conj().T, 1.0)
        expected = scipy.linalg.eigvalsh(complex_gram)
        b_real = _real_gain(profile, n)
        real_gram, _ = _propagated_gramian(loop.real_generator, b_real @ b_real.T, 1.0)
        np.testing.assert_allclose(scipy.linalg.eigvalsh(real_gram), expected, rtol=1e-10)
        rng = np.random.default_rng(5)
        v0, v1 = random_field(n, rng, decay=1.5), random_field(n, rng, decay=1.5)
        info = linear_control_gramian(ControlProblem(BENJAMIN, profile, n, 1.0, v0, v1)).info
        assert info["gramian_min_eig"] == pytest.approx(expected[0], rel=1e-10)
        assert info["gramian_cond"] == pytest.approx(expected[-1] / expected[0], rel=1e-10)

    @pytest.mark.parametrize("kind", ["bump", "global"])
    def test_defect_norm_is_the_l2_norm(self, kind, table, bump, global_profile):
        profile = bump if kind == "bump" else global_profile
        n = 12
        rng = np.random.default_rng(6)
        v0, v1 = random_field(n, rng, decay=1.5), random_field(n, rng, decay=1.5)
        info = linear_control_gramian(ControlProblem(BENJAMIN, profile, n, 1.0, v0, v1)).info
        loop = build_closed_loop(build_symbols(BENJAMIN, n), profile, n)
        # the synthesis applies the flow in the loop's eigenbasis
        mu, vecs, inv = loop.eigenbasis
        defect = _real_coords(v1, n) - (vecs @ (np.exp(1.0 * mu) * (inv @ _real_coords(v0, n)))).real
        assert info["defect_norm"] == l2_norm(_real_field(defect, n))
        assert info["defect_norm"] == pytest.approx(np.sqrt(4 * np.pi) * np.linalg.norm(defect), rel=1e-14)

    @pytest.mark.parametrize("kind", ["bump", "global"])
    def test_worst_mode_attains_min_rayleigh_quotient(self, kind, table, bump, global_profile):
        profile = bump if kind == "bump" else global_profile
        n = 16
        rep = observability_constant(table, profile, 1.0, n)
        modes, a = _galerkin(table, profile, n)
        band = n + profile.k_modes
        rows = np.arange(-band, band + 1)
        c = np.abs(rows)[:, None] ** (0.5 * profile.delta) * gain_matrix(profile, rows, modes)
        obs, _ = _propagated_gramian(a.conj().T, c.conj().T @ c, 1.0)
        s = np.delete(conjugate_extend(rep.worst_mode.half), n)
        quotient = np.vdot(s, obs @ s).real / np.vdot(s, s).real
        assert quotient == pytest.approx(1.0 / rep.c_obs, rel=1e-10)
        assert scipy.linalg.eigvalsh(obs)[0] == pytest.approx(1.0 / rep.c_obs, rel=1e-10)
        assert l2_norm(rep.worst_mode) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["bump", "global"])
    def test_observability_gramian_matches_pade_oracle(self, kind, table, bump, global_profile):
        profile = bump if kind == "bump" else global_profile
        n = 16
        loop = build_closed_loop(table, profile, n)
        modes, _ = _galerkin(table, profile, n)
        band = n + profile.k_modes
        rows = np.arange(-band, band + 1)
        c = np.abs(rows)[:, None] ** (0.5 * profile.delta) * gain_matrix(profile, rows, modes)
        q = _real_form(c.conj().T @ c, n)
        oracle, _ = _propagated_gramian(loop.real_generator.T, q, 1.0)
        # the observability weight is the loop's own real feedback
        mu, vecs, inv = loop.eigenbasis
        obs = _gramian((mu, inv.T, vecs.T), loop.real_damping, 1.0)
        assert np.linalg.norm(obs - oracle) <= 1e-10 * np.linalg.norm(oracle)
        assert np.linalg.eigvalsh(obs)[0] == pytest.approx(np.linalg.eigvalsh(oracle)[0], rel=1e-10)


class TestNonlinearControl:
    @pytest.mark.parametrize(
        "mode, warns", [(0, False), (2, False), (11, False), (12, True), (16, True)]
    )
    def test_endpoint_resolution_warning(self, global_profile, mode, warns):
        # n = 16: the modes |k| >= 12 are the tail; the zero state is resolved
        u = constant_field(16, 0.0) if mode == 0 else cosine_field(16, mode, 0.05)
        prob = ControlProblem(BENJAMIN, global_profile, 16, 1.0, u, u)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nonlinear_control_global(prob, dt=0.1)
        assert sum("barely decays" in str(w.message) for w in caught) == (2 if warns else 0)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 3.0])
    def test_endpoint_resolution_warning_ignores_the_mean(self, global_profile, mu):
        # 1e-6 at mode 12 of n = 16 is under-resolved next to a 0.05 cosine at
        # mode 2, whatever mean the state carries: the tail is measured against
        # the fluctuation
        u = constant_field(16, mu) + cosine_field(16, 2, 0.05) + cosine_field(16, 12, 1e-6)
        prob = ControlProblem(replace(BENJAMIN, mu=mu), global_profile, 16, 1.0, u, u)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nonlinear_control_global(prob, dt=0.1)
        assert sum("barely decays" in str(w.message) for w in caught) == 2

    def test_constant_equilibrium(self, global_profile):
        u = constant_field(16, 0.2)
        prob = ControlProblem(replace(BENJAMIN, mu=0.2), global_profile, 16, 1.0, u, u)
        sol = nonlinear_control_global(prob, dt=1e-2)
        assert sol.terminal_error < 1e-14
        assert max(l2_norm(f) for f in sol.fields) == 0.0

    def test_cosine_to_cosine_certified(self, global_profile):
        u0 = cosine_field(64, 1, 0.05)
        u1 = cosine_field(64, 2, 0.05)
        prob = ControlProblem(BENJAMIN, global_profile, 64, 1.0, u0, u1)
        sol = nonlinear_control_global(prob, dt=1e-2)
        assert sol.terminal_error < 1e-6

    def test_control_mean_zero_at_every_sample(self, global_profile):
        u0 = cosine_field(32, 1, 0.05)
        u1 = cosine_field(32, 2, 0.05)
        sol = nonlinear_control_global(
            ControlProblem(BENJAMIN, global_profile, 32, 1.0, u0, u1), dt=1e-2
        )
        assert max(abs(mean(f)) for f in sol.fields) == 0.0

    def test_nonzero_mean_endpoints(self, global_profile):
        u0 = constant_field(32, 0.1) + cosine_field(32, 1, 0.03)
        u1 = constant_field(32, 0.1) + cosine_field(32, 3, 0.03)
        sol = nonlinear_control_global(
            ControlProblem(replace(BENJAMIN, mu=0.1), global_profile, 32, 1.0, u0, u1), dt=5e-3
        )
        assert sol.terminal_error < 1e-6

    def test_field_count_independent_of_step_count(self, global_profile, monkeypatch):
        # the forcing runs on the integrator's coefficient arrays: no field per stage
        from dgblab.spectral import SpectralField

        built = []
        post_init = SpectralField.__post_init__

        def counted(field):
            built.append(1)
            post_init(field)

        monkeypatch.setattr(SpectralField, "__post_init__", counted)
        prob = ControlProblem(
            BENJAMIN, global_profile, 32, 1.0, cosine_field(32, 1, 0.05), cosine_field(32, 2, 0.05)
        )
        counts = []
        for dt in (1e-2, 5e-3):
            built.clear()
            nonlinear_control_global(prob, dt=dt)
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_forcing_evaluated_once_per_distinct_stage_time(self, global_profile, monkeypatch):
        # stages 2 and 3 share t + dt/2 and a step's end is the next one's start;
        # at dt = 2.5e-4 the float t + dt misses (i + 1) dt in about a quarter of the steps
        stage_times = []
        run = control.simulate

        def counting_simulate(*args, forcing, **kwargs):
            def counted(times):
                stage_times.extend(times.tolist())
                return forcing(times)

            return run(*args, forcing=counted, **kwargs)

        monkeypatch.setattr(control, "simulate", counting_simulate)
        prob = ControlProblem(
            BENJAMIN, global_profile, 32, 1.0, cosine_field(32, 1, 0.05), cosine_field(32, 2, 0.05)
        )
        for dt in (1e-2, 2.5e-4):
            stage_times.clear()
            sol = nonlinear_control_global(prob, dt=dt)
            n_steps = sol.info["certificate_steps"]
            assert n_steps == round(1.0 / dt)
            assert len(stage_times) == 2 * n_steps + 1
            assert len(set(stage_times)) == len(stage_times)

    def test_localized_gain_rejected(self, bump):
        u0 = cosine_field(16, 1, 0.05)
        u1 = cosine_field(16, 2, 0.05)
        with pytest.raises(ValueError):
            nonlinear_control_global(ControlProblem(BENJAMIN, bump, 16, 1.0, u0, u1))


class TestObservability:
    def test_global_closed_form(self, table, global_profile):
        rep = observability_constant(table, global_profile, 1.0, 16)
        d1 = 1.0 / FOUR_PI_SQ
        assert rep.c_obs == pytest.approx(2.0 / (1.0 - np.exp(-2.0 * d1)), rel=1e-8)
        # worst mode concentrates on |k| = 1, the weakest observed mode
        coeffs = conjugate_extend(rep.worst_mode.half)
        k = np.arange(-16, 17)
        assert np.abs(coeffs[np.abs(k) != 1]).max() < 1e-8

    def test_constant_exceeds_two(self, table, global_profile, bump):
        for profile in (global_profile, bump):
            rep = observability_constant(table, profile, 1.0, 16)
            assert rep.c_obs > 2.0

    def test_longer_horizon_reduces_constant(self, table, bump):
        c1 = observability_constant(table, bump, 1.0, 16).c_obs
        c2 = observability_constant(table, bump, 2.0, 16).c_obs
        assert c2 < c1

    def test_worst_mode_contraction_certificate(self, table, bump):
        rep = observability_constant(table, bump, 1.0, 16)
        loop = build_closed_loop(table, bump, 16)
        after = linear_propagate(loop, rep.worst_mode, 1.0)
        assert l2_norm(after) ** 2 <= rep.rho * l2_norm(rep.worst_mode) ** 2 + 1e-10


class TestRatePrediction:
    def test_global_profile_rates(self, table, global_profile):
        rep = observability_constant(table, global_profile, 1.0, 16)
        assert rep.gamma_abscissa == pytest.approx(1.0 / FOUR_PI_SQ)
        assert rep.gamma_gramian == pytest.approx(1.0 / FOUR_PI_SQ, rel=1e-8)

    def test_diagonal_case_rates_coincide(self, table, global_profile):
        # modewise loop: the slowest mode fixes both routes, so they agree at any horizon
        for horizon in (0.5, 2.0, 4.0):
            rep = observability_constant(table, global_profile, horizon, 16)
            assert rep.gamma_gramian == pytest.approx(rep.gamma_abscissa, rel=1e-8)

    def test_prediction_carries_its_observability_report(self, table, bump):
        rep = observability_constant(table, bump, 1.0, 16)
        assert rep.gamma_abscissa == -rep.loop.spectral_abscissa

    def test_gramian_route_conservative(self, table, bump, global_profile):
        for profile in (bump, global_profile):
            rep = observability_constant(table, profile, 1.0, 16)
            assert rep.gamma_gramian <= rep.gamma_abscissa + 1e-10

    def test_long_horizon_contraction_keeps_its_digits(self, table, bump, global_profile):
        # rho = ||e^{TA}||^2 long after 1 - 2/c_obs has cancelled to rounding (c_obs -> 2)
        rep = observability_constant(table, global_profile, 1000.0, 8)
        assert rep.c_obs == pytest.approx(2.0, rel=1e-14)
        assert rep.gamma_gramian == pytest.approx(rep.gamma_abscissa, rel=1e-12)
        rep = observability_constant(table, bump, 1000.0, 16)
        flow = scipy.linalg.expm(1000.0 * rep.loop.real_generator)
        assert rep.rho == pytest.approx(np.linalg.norm(flow, 2) ** 2, rel=1e-6)
        assert rep.gamma_gramian <= rep.gamma_abscissa + 1e-10

    def test_underflowing_flow_rejected(self, table, global_profile):
        # ||e^{TA}||^2 = e^{-2 T / (4 pi^2)} lies below the smallest double at T = 1e5
        with pytest.raises(ObservabilityFailureError, match="underflows"):
            observability_constant(table, global_profile, 1e5, 8)
