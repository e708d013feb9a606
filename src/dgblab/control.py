"""Exact-control synthesis and observability quantification on the truncation.

Two steering routes are kept deliberately separate so each can certify the
other: a minimum-norm Gramian construction on the damped closed loop, and
per-mode closed forms available when the gain is constant.  The Gramian
route runs in the closed loop's real form, so its controls are real fields
with no projection; its Gramian, flow and control samples come in closed
form from the loop's cached eigenbasis (`_gramian`), and its terminal error
and the Gramian's Lyapunov identity are certified with the flow of the numpy
Pade `expm` (`dynamics._expm`), which shares no factorization with that
eigenbasis.  The observability
Gramian is the same `_gramian`, on the transposed eigenbasis.
The nonlinear steering for the constant gain rides on an exactly controlled
linear trajectory whose transport term is re-injected through the gain, and
is certified by re-simulating the forced nonlinear system.  That forcing is
evaluated on stacked half spectra k = 0..N, one row per time, with the
integrator's own transport kernel (`spectral.transport`), so no field object
is built per stage, nor per sample of a returned control (`ControlSolution`).
Norms go through `spectral.norm_sq` and real coordinates through `dynamics`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .damping import DampingProfile
from .dynamics import (
    LinearClosedLoop,
    _expm,
    _real_coords,
    _real_field,
    _real_gain,
    _real_halves,
    build_closed_loop,
    simulate,
)
from .errors import (
    DegenerateGramianError,
    DgbError,
    IllPosedHorizonError,
    ObservabilityFailureError,
    UncontrollableTruncationError,
)
from .spectral import (
    TWO_PI,
    SpectralField,
    l2_norm,
    mean,
    norm_sq,
    sobolev_weights,
    transport,
)
from .symbols import ModelParams, SymbolTable, build_symbols


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Steering task: reach v1 from v0 at time horizon through the gain."""

    params: ModelParams
    profile: DampingProfile | None
    n_modes: int
    horizon: float
    v0: SpectralField
    v1: SpectralField
    s: float = 0.0

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")
        m0, m1 = mean(self.v0), mean(self.v1)
        if abs(m0 - m1) > 1e-14 * max(1.0, abs(m0)):
            raise ValueError("endpoint means must agree: the mean is uncontrollable")


@dataclass(eq=False)
class ControlSolution:
    """A synthesized control with its certified terminal error.

    `samples` is a read-only (n_times, N+1) complex array: row i holds the
    coefficients k = 0..N of the control at `times[i]`, with a real k = 0
    entry.  The control is a real field, so its negative modes are the
    conjugates of these.
    """

    times: np.ndarray
    samples: np.ndarray
    control_norm: float
    terminal_error: float
    method: str
    info: dict

    def __post_init__(self):
        if not (np.isfinite(self.terminal_error) and np.isfinite(self.control_norm)):
            raise DgbError(
                f"non-finite steering certificate: terminal error {self.terminal_error}, "
                f"control norm {self.control_norm}"
            )
        self.samples.setflags(write=False)

    @property
    def fields(self) -> tuple:
        """The control at each sample time as a field, built from `samples` on every access."""
        n = self.samples.shape[1] - 1
        return tuple(SpectralField(n, h) for h in self.samples)


def gram_matrix(table: SymbolTable, mode_set, horizon: float) -> np.ndarray:
    """Gramian of the exponentials exp(-i lam(k) t) on [0, horizon].

    Entries are int_0^T exp(i (lam(j) - lam(k)) t) dt in closed form.  Mode
    sets with repeated eigenvalues are rejected; pick one representative per
    equality class first.
    """
    modes = np.asarray(list(mode_set), dtype=np.int64)
    lam = np.asarray(table.eig(modes), dtype=np.float64)
    diff = lam[:, None] - lam[None, :]
    same = np.abs(diff) == 0.0
    if np.any(same & ~np.eye(modes.size, dtype=bool)):
        i, j = np.argwhere(same & ~np.eye(modes.size, dtype=bool))[0]
        raise DegenerateGramianError(
            f"modes {modes[i]} and {modes[j]} share the eigenvalue {lam[i]}"
        )
    return _gamma_from_eigs(lam, horizon)


@dataclass(frozen=True, eq=False)
class BiorthogonalFamily:
    """Dual functions q_j(t) = sum_k coeffs[j, k] exp(-i lam(k) t) on [0, T]."""

    mode_set: tuple
    eigenvalues: np.ndarray
    horizon: float
    coeffs: np.ndarray
    condition_number: float

    def evaluate(self, j: int, times) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        phases = np.exp(-1j * np.outer(times, self.eigenvalues))
        return phases @ self.coeffs[j]

    def pairing_matrix(self) -> np.ndarray:
        """Closed-form pairings; equals the identity up to inversion error."""
        gamma = _gamma_from_eigs(self.eigenvalues, self.horizon)
        return np.conj(self.coeffs) @ gamma


def _exp_integral(rate: np.ndarray, horizon: float) -> np.ndarray:
    """int_0^T e^{r s} ds entrywise: expm1(r T) / r, or T (1 + r T / 2) where |r| T < 1e-8."""
    tiny = np.abs(rate) * horizon < 1e-8
    safe = np.where(tiny, 1.0, rate)
    return np.where(tiny, horizon * (1.0 + 0.5 * rate * horizon), np.expm1(horizon * safe) / safe)


def _gamma_from_eigs(lam: np.ndarray, horizon: float) -> np.ndarray:
    return _exp_integral(1j * (lam[:, None] - lam[None, :]), horizon)


def biorthogonal_family(
    table: SymbolTable, mode_set, horizon: float, cond_limit: float = 1e12
) -> BiorthogonalFamily:
    """Unique dual basis to the eigen-exponentials of the mode set.

    The coefficient matrix is the conjugate of the Gramian inverse; the
    condition number of the Gramian controls how well the duality pairings
    reproduce the identity.
    """
    gamma = gram_matrix(table, mode_set, horizon)
    cond = float(np.linalg.cond(gamma))
    if cond > cond_limit:
        raise IllPosedHorizonError(
            f"Gramian condition number {cond:.3e} exceeds {cond_limit:.1e}; "
            "enlarge the horizon or shrink the mode set"
        )
    coeffs = np.conj(np.linalg.inv(gamma))
    modes = tuple(int(k) for k in mode_set)
    lam = np.asarray(table.eig(np.asarray(modes)), dtype=np.float64)
    return BiorthogonalFamily(modes, lam, horizon, coeffs, cond)


def _gramian(eigenbasis, q, horizon):
    """int_0^T e^{tA} Q e^{tA^T} dt for the real A = V diag(mu) V^{-1} and symmetric Q.

    Equals V (Gamma o V^{-1} Q V^{-T}) V^T with Gamma_ij = int_0^T
    e^{(mu_i + mu_j) s} ds (Van Loan, IEEE TAC 1978); the real part is
    symmetrized.  The transposed eigenbasis (mu, V^{-T}, V^T) of A^T gives
    the observability Gramian int_0^T e^{tA^T} Q e^{tA} dt.  `_eigenbasis`
    caps a bound on cond(V), which bounds the rounding of this route.
    """
    mu, vecs, inv = eigenbasis
    gamma = _exp_integral(mu[:, None] + mu[None, :], horizon)
    gram = (vecs @ (gamma * (inv @ q @ inv.T)) @ vecs.T).real
    return 0.5 * (gram + gram.T)


def _certify_linear(a_mat, b_mat, gram, xi, v0_state, horizon):
    """Terminal state F v0 + W xi of the real controlled linear system, and W's Lyapunov residual.

    The control h(t) = B^T e^{(T-t)A^T} xi adds W xi to the free flow.  The
    flow F = e^{TA} comes from the numpy Pade `expm` of the 2N x 2N generator,
    a rational function of A and one linear solve, so it shares no
    factorization with the synthesis, which builds W and applies e^{TA} in
    the loop's LAPACK eigenbasis.  The terminal state checks the flow and the
    solve for xi; W is checked by the identity A W + W A^T = F B B^T F^T -
    B B^T, whose residual with this F is returned relative to
    |B B^T| + |F B B^T F^T| (Frobenius), so that it follows the relative error
    of W: 1e-3 to 1e-2 for W off by 1%, at every size.
    """
    flow = _expm(horizon * a_mat)
    aw = a_mat @ gram
    fb = flow @ b_mat
    bbt, fbbf = b_mat @ b_mat.T, fb @ fb.T
    residual = np.linalg.norm(aw + aw.T + bbt - fbbf) / (np.linalg.norm(bbt) + np.linalg.norm(fbbf))
    return flow @ v0_state + gram @ xi, float(residual)


# time samples of a synthesized linear control on [0, T]
_CONTROL_SAMPLES = 129
# time samples of the nonlinear control on [0, T], rows of one evaluation of its forcing
_NONLINEAR_CONTROL_SAMPLES = 65


def linear_control_gramian(problem: ControlProblem) -> ControlSolution:
    """Minimum-norm steering of the damped linear loop through the gain.

    In the loop's real form, where A and B are real 2N x 2N matrices, solves
    W xi = v1 - e^{TA} v0 with W = int_0^T e^{tA} B B^T e^{tA^T} dt and applies
    h(t) = B^T e^{(T-t)A^T} xi: W, the flow and the samples all come from
    the loop's eigenbasis, so the control is a real field by construction,
    with no projection.  The terminal error and the Lyapunov residual of W
    (`info["gramian_residual"]`) are certified with the Pade-`expm` flow
    (`_certify_linear`), independent of that eigenbasis.
    """
    if problem.profile is None:
        raise ValueError("linear control needs a gain profile")
    p = problem
    table = build_symbols(p.params, p.n_modes)
    n = p.n_modes
    loop = build_closed_loop(table, p.profile, n)
    b_mat = _real_gain(p.profile, n)

    mu, vecs, inv = loop.eigenbasis
    gram = _gramian(loop.eigenbasis, b_mat @ b_mat.T, p.horizon)
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 1e-15 * max(eigs[-1], 1e-300):
        deficient = _real_halves(np.linalg.eigh(gram)[1][:, 0])
        raise UncontrollableTruncationError(
            f"Gramian numerically singular (min eig {eigs[0]:.3e}); "
            f"deficient direction peaked at mode {int(np.argmax(np.abs(deficient)))}"
        )

    v0r = _real_coords(p.v0, n)
    v1r = _real_coords(p.v1, n)
    defect = v1r - (vecs @ (np.exp(p.horizon * mu) * (inv @ v0r))).real
    xi = np.linalg.solve(gram, defect)
    xi += np.linalg.solve(gram, defect - gram @ xi)

    times = np.linspace(0.0, p.horizon, _CONTROL_SAMPLES)
    # row i: e^{(T - t_i) A^T} xi = V^{-T} (e^{(T - t_i) mu} o V^T xi), then B^T;
    # the mean is not steered
    modal = np.exp(np.outer(p.horizon - times, mu)) * (vecs.T @ xi)
    samples = _real_halves((modal @ (inv @ b_mat)).real)

    v_final, gramian_residual = _certify_linear(loop.real_generator, b_mat, gram, xi, v0r, p.horizon)
    # an overflow here leaves inf or nan, which ControlSolution rejects by name
    with np.errstate(over="ignore", invalid="ignore"):
        err = l2_norm(_real_field(v_final - v1r, n)) / max(l2_norm(p.v1), 1e-12)
        control_norm = _control_norm(times, samples, p.s)
        defect_norm = float(np.sqrt(norm_sq(_real_halves(defect))))
    return ControlSolution(
        times=times,
        samples=samples,
        control_norm=control_norm,
        terminal_error=float(err),
        method="gramian",
        info={
            "gramian_min_eig": float(eigs[0]),
            "gramian_cond": float(eigs[-1] / eigs[0]),
            "defect_norm": defect_norm,
            "gramian_residual": gramian_residual,
        },
    )


def linear_control_global_modal(problem: ControlProblem) -> ControlSolution:
    """Per-mode closed-form steering for the constant gain.

    With g = 1/(2 pi) the damped loop is diagonal: every quantity of the
    Gramian construction has a scalar closed form.  It is computed on the
    modes k = 1..N, whose conjugates are the negative modes, so the control
    is real by construction.  Serves as the independent oracle for
    the matrix route.
    """
    p = problem
    if p.profile is None or p.profile.k_modes != 0:
        raise ValueError("modal route requires the constant gain")
    n = p.n_modes
    table = build_symbols(p.params, n)
    ks = np.arange(1, n + 1)
    lam = table.eig(ks)
    d = p.profile.d_symbol(ks)
    big_t = p.horizon

    w_diag = (1.0 - np.exp(-2.0 * d * big_t)) / (2.0 * d * (TWO_PI**2))
    v0s = p.v0.with_cutoff(n).half[1:]
    v1s = p.v1.with_cutoff(n).half[1:]
    flow_t = np.exp((1j * lam - d) * big_t)
    xi = (v1s - flow_t * v0s) / w_diag

    times = np.linspace(0.0, big_t, _CONTROL_SAMPLES)
    samples = np.zeros((times.size, n + 1), dtype=np.complex128)
    samples[:, 1:] = np.exp(np.outer(big_t - times, -1j * lam - d)) * xi / TWO_PI
    v_final = flow_t * v0s + w_diag * xi
    err = np.sqrt(norm_sq(np.append(0.0, v_final - v1s))) / max(l2_norm(p.v1), 1e-12)
    return ControlSolution(
        times=times,
        samples=samples,
        control_norm=_control_norm(times, samples, p.s),
        terminal_error=float(err),
        method="per-mode",
        info={"gramian_min_eig": float(w_diag.min())},
    )


def _control_norm(times: np.ndarray, samples: np.ndarray, s: float) -> float:
    """Time-L^2 of the H^s norm: sqrt of the trapezoid rule of sobolev_norm(h(t), s)^2.

    The rows go through the norm kernel as `sobolev_norm` sends a field, and
    each norm is squared as a Python float, as `sobolev_norm(f, s) ** 2` is
    (libm's pow, which can differ from x * x in the last bit), so the result
    has the bits of the per-field formula.
    """
    norms = np.sqrt(norm_sq(samples, sobolev_weights(samples.shape[1] - 1, s)))
    return float(np.sqrt(np.trapezoid([v**2 for v in norms.tolist()], times)))


def _check_endpoint_resolution(u: SpectralField, label: str):
    """Warn when the modes |k| >= 3N/4 hold more than 1e-10 of the squared norm."""
    total = norm_sq(u.half)
    tail = norm_sq(u.half, np.arange(u.n_modes + 1) >= max(1, (3 * u.n_modes) // 4))
    if tail > 1e-10 * total:
        warnings.warn(f"{label} spectrum barely decays at the cutoff; enlarge n_modes")


def nonlinear_control_global(problem: ControlProblem, dt: float = 1e-3) -> ControlSolution:
    """Exact steering of the full nonlinear equation under the constant gain.

    A minimum-norm control for the undamped linear flow moves u0 to u1; its
    trajectory u(t) has a closed form.  Feeding the transport term of that
    very trajectory back through the gain (as 2 pi d/dx u^2) makes u solve
    the forced nonlinear equation too, so the steering is exact up to
    discretization.  Certified by re-simulating the nonlinear system, with
    the forcing a pure function of t, as `simulate` requires, evaluated on
    arrays of times: a block of stage times per call, and the control's
    samples in one call.
    """
    p = problem
    if p.profile is not None and p.profile.k_modes != 0:
        raise ValueError("the nonlinear construction requires the constant gain")
    _check_endpoint_resolution(p.v0, "initial state")
    _check_endpoint_resolution(p.v1, "target state")

    n = p.n_modes
    big_t = p.horizon
    table0 = build_symbols(replace(p.params, mu=0.0), n)
    lam = table0.eig(np.arange(n + 1))
    u0 = p.v0.with_cutoff(n).half
    u1 = p.v1.with_cutoff(n).half
    # the controlled linear trajectory u(t) = e^{i lam t} (u0 + t drift) runs from u0 to u1;
    # the mean is not steered, so u keeps that of u0 (ControlProblem checks u1 agrees)
    drift = (np.exp(-1j * lam * big_t) * u1 - u0) / big_t
    drift[0] = 0.0

    def forcing(times: np.ndarray) -> np.ndarray:
        """g h1 + d/dx u^2 on the coefficients k = 0..N, one row per time, with g = 1/(2 pi).

        The modal Gramian of the undamped pair is T/(2 pi)^2, so the control
        h1 = B^* e^{(T-t)A^*} xi is 2 pi e^{i lam t} drift.
        """
        t = times[:, None]
        phase = np.exp(1j * lam * t)
        return phase * drift + transport(phase * (u0 + t * drift))

    record = simulate(table0, None, p.v0.with_cutoff(n), big_t, dt, forcing=forcing, record_every=10**9)
    err = l2_norm(record.final - p.v1.with_cutoff(n)) / max(l2_norm(p.v1), 1e-12)

    # the control h = h1 + 2 pi d/dx u^2 is the forcing divided by the gain
    times = np.linspace(0.0, big_t, _NONLINEAR_CONTROL_SAMPLES)
    samples = TWO_PI * forcing(times)
    return ControlSolution(
        times=times,
        samples=samples,
        control_norm=_control_norm(times, samples, p.s),
        terminal_error=float(err),
        method="per-mode",
        info={"dt": dt, "certificate_steps": record.run_meta["n_steps"]},
    )


@dataclass(frozen=True, eq=False)
class ObservabilityReport:
    """Observability constant of `loop` over the horizon, with its worst mode
    and the two decay-rate estimates it gives."""

    c_obs: float
    rho: float
    worst_mode: SpectralField
    horizon: float
    loop: LinearClosedLoop

    @property
    def gamma_gramian(self) -> float:
        """The per-horizon contraction rho = 1 - 2/c_obs as a rate -log(rho)/(2T);
        it never exceeds `gamma_abscissa` (it is the conservative bound)."""
        return float(-np.log(self.rho) / (2 * self.horizon))

    @property
    def gamma_abscissa(self) -> float:
        """The closed loop's decay rate: its spectral abscissa, negated."""
        return float(-self.loop.spectral_abscissa)


def observability_constant(
    table: SymbolTable, profile: DampingProfile, horizon: float, n_modes: int
) -> ObservabilityReport:
    """Smallest observed-energy fraction of the damped loop over the horizon.

    Builds O = int_0^T W(t)* (D^{delta/2} G)* (D^{delta/2} G) W(t) dt on the
    mean-zero truncation and returns c_obs = 1 / min-eigenvalue, normalized
    so that ||v0||^2 <= c_obs * observed energy.  Energy balance forces
    c_obs > 2.  G is Hermitian, so the observed energy's weight
    (D^{delta/2} G)* (D^{delta/2} G) = G D^delta G is the loop's feedback,
    read as its real form `real_damping`.  Built in that real form, so the
    minimizing state is a real field by construction.  O comes in closed form
    (`_gramian` on the transposed eigenbasis) from the loop's cached
    eigenbasis, which the report's `gamma_abscissa` also reads; the tests hold
    it against a Pade block exponential.
    """
    loop = build_closed_loop(table, profile, n_modes)
    mu, vecs, inv = loop.eigenbasis
    eigvals, eigvecs = np.linalg.eigh(_gramian((mu, inv.T, vecs.T), loop.real_damping, horizon))
    lam_min = float(eigvals[0])
    if lam_min <= 0:
        raise ObservabilityFailureError(f"observability Gramian lost positivity: {lam_min:.3e}")
    c_obs = 1.0 / lam_min
    if c_obs <= 2.0:  # pragma: no cover
        raise ObservabilityFailureError("observed energy exceeded the total energy budget")

    worst = _real_field(eigvecs[:, 0], n_modes)
    worst = worst * (1.0 / l2_norm(worst))
    return ObservabilityReport(
        c_obs=c_obs,
        rho=1.0 - 2.0 / c_obs,
        worst_mode=worst,
        horizon=horizon,
        loop=loop,
    )
