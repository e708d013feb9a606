"""Time evolution: dissipative semigroup, linear closed loop, damped integrator.

The damped evolution treats the whole linear generator exactly: the damped
closed-loop generator of `build_closed_loop` (modewise exp((i lam(k) - d(k)) t)
when the feedback is diagonal) sits inside the exponentials of a
fourth-order exponential Runge-Kutta scheme, and only the transport
nonlinearity and optional forcing are explicit.  The k = 0 mode is conserved
by every term and is held exactly constant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import repeat

import numpy as np

from .damping import DampingProfile, dissipation_form, feedback_matrix, gain_matrix
from .errors import BlowUpError, DgbError, ProfileError
from .spectral import (
    TWO_PI,
    SpectralField,
    apply_multiplier,
    constant_field,
    mean,
    norm_sq,
    project_mean_zero,
    transport,
    transport_workspace,
)
from .symbols import ModelParams, SymbolTable, build_symbols


@dataclass(eq=False)
class TrajectoryRecord:
    """Sampled run diagnostics and the run's two endpoint states.

    `l2norms` holds the mean-removed L^2 norm of the state at each of `times`
    (the quantity the decay statements are about); `energy_residuals` aligns
    with `times` and is NaN at the stencil edges, or None when no damping
    profile applies.  `initial` and `final` are the states at times[0] and
    times[-1]; the states in between are not kept.
    """

    times: np.ndarray
    initial: SpectralField
    final: SpectralField
    l2norms: np.ndarray
    means: np.ndarray
    energy_residuals: np.ndarray | None
    run_meta: dict

    def __post_init__(self):
        columns = (self.times, self.l2norms, self.means, self.energy_residuals)
        if len({c.size for c in columns if c is not None}) != 1:
            raise ValueError("times, l2norms, means and energy_residuals disagree in length")
        if self.times.size >= 2 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def semigroup_apply(
    table: SymbolTable, profile: DampingProfile, v0: SpectralField, t: float
) -> SpectralField:
    """Modewise propagator exp(i lam(k) t - d(k) t); forward time only.

    Backward requests are rejected: the dissipative factors would grow; so is
    a non-finite t.  The mean mode propagates with factor one and the L^2
    norm contracts.
    """
    if not 0 <= t < np.inf:
        raise ValueError("need a finite t >= 0: dissipation runs forward only")
    if v0.n_modes > table.n_modes:
        raise ValueError("state band exceeds the symbol table")
    return apply_multiplier(v0, lambda ks: np.exp((1j * table.eig(ks) - profile.d_symbol(ks)) * t))


@dataclass(frozen=True, eq=False)
class LinearClosedLoop:
    """Damped generator A and feedback B in real form, on the modes 1..N.

    Both are read-only and act on `_real_coords`.  The loop also owns A's one
    eigenbasis, computed the first time the abscissa, the integrator, the
    steering controls, the certificate or the observability Gramian need it.
    """

    n_modes: int
    real_generator: np.ndarray
    real_damping: np.ndarray

    @cached_property
    def eigenbasis(self) -> tuple:
        """(mu, V, V^{-1}) of the real form, from `_eigenbasis`."""
        return _eigenbasis(self.real_generator)

    @property
    def spectral_abscissa(self) -> float:
        return float(self.eigenbasis[0].real.max())


def _galerkin_modes(n_modes: int) -> np.ndarray:
    """The mean-zero modes [-N..-1, 1..N] of the complex Galerkin matrices."""
    return np.concatenate([np.arange(-n_modes, 0), np.arange(1, n_modes + 1)])


def build_closed_loop(table: SymbolTable, profile: DampingProfile, n_modes: int) -> LinearClosedLoop:
    """Real forms of A = diag(i lam(k)) - B and of B on the mean-zero modes.

    B is the Galerkin matrix of the damping feedback: Hermitian positive
    semidefinite, so A generates a contraction semigroup on the truncation.
    The complex matrices are temporaries; the loop keeps their `_real_form`s.
    """
    if n_modes > table.n_modes:
        raise ValueError("n_modes exceeds the symbol table band")
    modes = _galerkin_modes(n_modes)
    b = feedback_matrix(profile, modes)
    a = np.diag(1j * table.eig(modes)) - b
    real_a, real_b = _real_form(a, n_modes), _real_form(b, n_modes)
    for mat in (real_a, real_b):
        mat.setflags(write=False)
    return LinearClosedLoop(n_modes=n_modes, real_generator=real_a, real_damping=real_b)


def _real_gain(profile: DampingProfile, n_modes: int) -> np.ndarray:
    """The real form of the gain G on the mean-zero modes: the steering actuator."""
    modes = _galerkin_modes(n_modes)
    return _real_form(gain_matrix(profile, modes, modes), n_modes)


def _eigenbasis(mat: np.ndarray) -> tuple:
    """(mu, V, V^{-1}) with mat = V diag(mu) V^{-1}.

    A singular or ill-conditioned V, such as that of a defective matrix,
    raises ProfileError; `_MAX_EIGVEC_COND` caps ||V||_F ||V^{-1}||_F.
    """
    mu, vecs = np.linalg.eig(mat)
    try:
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise ProfileError("closed-loop eigenbasis is singular") from exc
    with np.errstate(over="ignore"):
        cond = np.linalg.norm(vecs) * np.linalg.norm(inv)
    if not cond <= _MAX_EIGVEC_COND:
        raise ProfileError(f"closed-loop eigenbasis too ill-conditioned (||V||_F ||V^-1||_F = {cond:.3g})")
    return mu, vecs, inv


# Pade(13) coefficients b_0..b_13 and the 1-norm theta_13 up to which it
# needs no scaling (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA_13 = 5.371920351148152


def _expm(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the degree-13 Pade approximant.

    Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005: scale by 2^-s so the
    1-norm is at most theta_13, evaluate r = (V - U)^{-1} (V + U) from the
    even powers X^2, X^4, X^6, then square s times.  Real input gives a real
    result; a non-finite entry raises DgbError.
    """
    norm = np.linalg.norm(mat, 1)
    if not np.isfinite(norm):
        raise DgbError("matrix exponential of a matrix with non-finite entries")
    s = int(np.ceil(np.log2(norm / _THETA_13))) if norm > _THETA_13 else 0
    b = _PADE13
    x = mat / 2.0**s
    ident = np.eye(x.shape[0], dtype=x.dtype)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    odd = x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident
    u = x @ odd
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _real_coords(v: SpectralField, n_modes: int) -> np.ndarray:
    """Interleaved (Re, Im) of the modes 1..N: the coordinates `_real_form` acts on."""
    return v.with_cutoff(n_modes).half[1:].view(np.float64)


def _real_halves(x: np.ndarray, mean: float = 0.0) -> np.ndarray:
    """Half spectra k = 0..N, with k = 0 entry `mean`, of real coordinates x along the last axis.

    The batched inverse of `_real_coords`, bit for bit: x holds the
    interleaved (Re, Im) of the modes 1..N under any leading shape.
    """
    return np.insert(np.ascontiguousarray(x, dtype=np.float64).view(np.complex128), 0, mean, axis=-1)


def _real_field(x: np.ndarray, n_modes: int, mean: float = 0.0) -> SpectralField:
    """The real field with mean `mean` whose modes 1..N have interleaved (Re, Im) x."""
    return SpectralField(n_modes, _real_halves(x, mean))


def linear_propagate(loop: LinearClosedLoop, v0: SpectralField, t: float) -> SpectralField:
    """Matrix-exponential action of the closed loop; contraction asserted.

    Steps the real form: the Pade exponential of t times `loop.real_generator`
    acts on the modes 1..N of v0, the mean is carried over, and the output
    is real by construction.
    """
    if not t >= 0:
        raise ValueError("need t >= 0: backward-time propagation rejected")
    x0 = _real_coords(v0, loop.n_modes)
    x = _expm(t * loop.real_generator) @ x0
    norm_out, norm_in = np.sqrt(norm_sq(_real_halves(np.stack([x, x0]))))
    if norm_out > norm_in * (1.0 + 1e-10) + 1e-300:
        raise DgbError("closed-loop propagation violated the contraction bound")
    return _real_field(x, loop.n_modes, mean(v0))


def _time_grid(t_final: float, dt: float) -> tuple:
    """(n_steps, dt_eff): the step count nearest t_final/dt, at least one, and t_final/n_steps."""
    if not t_final > 0 or not dt > 0 or not np.isfinite(t_final / dt):
        raise ValueError("need positive t_final and dt, with a finite step count t_final/dt")
    n_steps = max(1, round(t_final / dt))
    return n_steps, t_final / n_steps


def linear_trajectory(
    loop: LinearClosedLoop, v0: SpectralField, t_final: float, dt: float
) -> TrajectoryRecord:
    """Step the closed loop's real form with one precomputed exponential per dt.

    The recorded fields carry the mean of v0, and `l2norms` are their
    fluctuation norms; only the first and last field are kept.
    """
    n_steps, dt_eff = _time_grid(t_final, dt)
    stepper = _expm(dt_eff * loop.real_generator)
    mu = mean(v0)
    x = _real_coords(v0, loop.n_modes)
    initial = _real_field(x, loop.n_modes, mu)
    fluctuation = np.arange(loop.n_modes + 1) > 0
    l2norms = [norm_sq(initial.half, fluctuation)]
    for _ in range(n_steps):
        x = stepper @ x
        final = _real_field(x, loop.n_modes, mu)
        l2norms.append(norm_sq(final.half, fluctuation))
    return TrajectoryRecord(
        times=dt_eff * np.arange(n_steps + 1),
        initial=initial,
        final=final,
        l2norms=np.sqrt(l2norms),
        means=np.full(n_steps + 1, mu),
        energy_residuals=None,
        run_meta={"kind": "linear", "dt": dt_eff, "n_modes": loop.n_modes},
    )


# quadrature points on the unit circle of the small-|z| stage weights
_CONTOUR_POINTS = 64


def _etdrk4_weights(z: np.ndarray) -> tuple:
    """The four phi-combinations of the Cox-Matthews scheme, as functions of z.

    Direct formulas cancel catastrophically for small |z| (the numerators
    vanish to third order), so entries with |z| < 0.5 are evaluated by
    averaging the analytic formula over a unit circle around z; the
    integrand is entire, making the trapezoidal average spectrally accurate.
    """
    z = np.asarray(z, dtype=np.complex128)

    def direct(w):
        ew = np.exp(w)
        q = (np.exp(w / 2.0) - 1.0) / w
        w3 = w**3
        f1 = (-4.0 - w + ew * (4.0 - 3.0 * w + w**2)) / w3
        f2 = (2.0 + w + ew * (-2.0 + w)) / w3
        f3 = (-4.0 - 3.0 * w - w**2 + ew * (4.0 - w)) / w3
        return q, f1, f2, f3

    out = [np.empty_like(z) for _ in range(4)]
    small = np.abs(z) < 0.5
    for o, v in zip(out, direct(z[~small])):
        o[~small] = v
    theta = np.exp(2j * np.pi * (np.arange(_CONTOUR_POINTS) + 0.5) / _CONTOUR_POINTS)
    for o, v in zip(out, direct(z[small][:, None] + theta[None, :])):
        o[small] = v.mean(axis=1)
    return tuple(out)


# cap on ||V||_F ||V^{-1}||_F, which bounds cond_2(V) from above and exceeds it by at
# most the dimension (unit columns): above it the eigenbasis could lose six digits.
# Closed loops of the package's profiles and parameter ranges measure cond_2 below 20
_MAX_EIGVEC_COND = 1e6


def _real_form(a: np.ndarray, n_modes: int) -> np.ndarray:
    """Real matrix of a real-field generator on interleaved (Re, Im) pairs.

    `a` acts on the mean-zero modes [-N..-1, 1..N] and maps real fields to
    real fields, so its rows for k = 1..N determine it.  Writing
    c(l) = x(l) + i y(l) and c(-l) = x(l) - i y(l), with P and M the blocks
    of those rows acting on modes +l and -l,

        (a c)(k) = (P + M) x + i (P - M) y.

    The result acts on [x(1), y(1), ..., x(N), y(N)].
    """
    n = n_modes
    p = a[n:, n:]
    m = a[n:, n - 1 :: -1]
    out = np.empty((n, 2, n, 2))
    out[:, 0, :, 0] = (p + m).real
    out[:, 0, :, 1] = -(p - m).imag
    out[:, 1, :, 0] = (p + m).imag
    out[:, 1, :, 1] = (p - m).real
    return out.reshape(2 * n, 2 * n)


def _diagonal_matvec(scratch: np.ndarray, weights: np.ndarray, x: np.ndarray, out: np.ndarray):
    """The diagonal counterpart of `np.matmul` on the stacked stage inputs.

    Writes w_1 x_1 + ... + w_j x_j into the row `out`: one multiply of the
    j stacked weight rows by the j rows of `x` into `scratch`, then one sum
    over that axis, which numpy adds row after row, in that order.  A single
    weight row multiplies straight into `out`.
    """
    if len(weights) == 1:
        np.multiply(weights, x, out)
    else:
        np.add.reduce(np.multiply(weights, x, scratch[: len(weights)]), axis=0, out=out, keepdims=True)


class Etdrk4Integrator:
    """Fourth-order exponential Runge-Kutta stepper for the damped dynamics.

    Linear part, treated exactly: the damped generator diag(i lam(k)) - B of
    `build_closed_loop`, whose phi-functions (Cox-Matthews) are formed from
    the loop's eigenbasis of its real form, eigenvalues scaled by dt.
    For profile=None (the undamped equation) or the constant gain the
    generator is diagonal, i lam(k) - d(k), and the phi-functions act
    modewise.  When the feedback couples modes, the phi-functions are real
    matrices on the interleaved (Re, Im) pairs of k = 0..N (size S = 2N+2),
    and the weights that act together are stored side by side: the c-stage
    is one product of [e_half | q] (S x 2S) and the final combination one
    product of [e_full | f1 | f2 | f3] (S x 4S), so a step makes five
    matrix-vector products; the diagonal weights that act together are
    stacked rows, applied in one multiply and one sum.  Explicit part: the
    dealiased transport term (`spectral.transport`, into a workspace the
    integrator owns) and an optional forcing, whose coefficients k = 0..N at
    the three stage times the caller hands to `step` (see `simulate`).

    `step` maps a half spectrum (the coefficients k = 0..N; the negative
    modes are their conjugates, so every state is a real field) to the next,
    and carries the mean k = 0 through unchanged.  The construction
    allocates every stage buffer once: the c-stage input [a; 2 nb - nv] and
    the final input [u; nv; 2 (na + nb); nc] are one buffer each, which the
    side-by-side weights read in one product, and every stage writes into
    its buffer, the output too (see `step`).  An integrator is therefore used
    by one thread at a time; separate integrators share nothing mutable.

    An ill-conditioned eigenbasis raises ProfileError.  `spectral_abscissa`
    is the abscissa of the stepped generator: the loop's, or max(-d(k)) over
    k = 1..N when it is diagonal.
    """

    def __init__(
        self,
        table: SymbolTable,
        profile: DampingProfile | None,
        n_modes: int,
        dt: float,
    ):
        if not 0 < dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if n_modes > table.n_modes:
            raise ValueError("n_modes exceeds the symbol table band")
        self.n_modes = n_modes
        self.dt = dt
        ks = np.arange(n_modes + 1)

        if profile is not None and profile.k_modes > 0:
            loop = build_closed_loop(table, profile, n_modes)
            self.spectral_abscissa = loop.spectral_abscissa
            eigs, vecs, inv = loop.eigenbasis
            eigs = dt * eigs
            size = 2 * n_modes + 2
            # each weight is written into its block of the side-by-side
            # matrices; the a- and b-stages apply the blocks e_half and q alone
            self._stage_c = np.zeros((size, 2 * size))
            self._final = np.zeros((size, 4 * size))
            self._e_half, self._q = np.hsplit(self._stage_c, 2)
            e_full, f1, f2, f3 = np.hsplit(self._final, 4)

            def fill(block, w, mean_entry=0.0):
                # the mean pair (Re, Im of k = 0) is held apart from the eigenbasis
                block[2:, 2:] = ((vecs * w) @ inv).real
                block[0, 0] = block[1, 1] = mean_entry

            fill(e_full, np.exp(eigs), 1.0)
            fill(self._e_half, np.exp(eigs / 2.0), 1.0)
            for block, w in zip((self._q, f1, f2, f3), _etdrk4_weights(eigs)):
                fill(block, dt * w)
            self._apply = np.matmul

            def operand(buf):
                # the weights act on the interleaved (Re, Im) of a stacked buffer
                return buf.reshape(-1).view(np.float64)
        else:
            lam = table.eig(ks)
            d = profile.d_symbol(ks) if profile is not None else np.zeros(ks.size)
            z = (1j * lam - d) * dt
            z[0] = 0.0
            e_full, e_half = np.exp(z), np.exp(z / 2.0)
            q, f1, f2, f3 = [dt * w for w in _etdrk4_weights(z)]
            self.spectral_abscissa = float(-d[1:].min(initial=np.inf))
            self._stage_c = np.stack([e_half, q])
            self._final = np.stack([e_full, f1, f2, f3])
            self._e_half, self._q = self._stage_c[:1], self._stage_c[1:]
            self._apply = partial(_diagonal_matvec, np.empty((4, ks.size), dtype=np.complex128))

            def operand(buf):
                # the weights act on the rows of a stacked buffer
                return buf.reshape(-1, ks.size)

        # the step's workspace: complex rows, and the operands the weights
        # read from and write to, views taken once
        final_in = np.zeros((4, ks.size), dtype=np.complex128)  # [u; nv; 2 (na + nb); nc]
        stage_in = np.zeros((2, ks.size), dtype=np.complex128)  # [a; 2 nb - nv]
        eu, tmp, b, na, nb, c, out = np.zeros((7, ks.size), dtype=np.complex128)
        u, nv, nab, nc = final_in
        a, w = stage_in
        self._rows = (u, nv, nab, nc, a, w, eu, tmp, b, na, nb, c)
        self._operands = tuple(operand(x) for x in (u, nv, na, stage_in, final_in, eu, tmp, c, out))
        self._result = out.view()
        self._result.setflags(write=False)
        self._work = transport_workspace(n_modes)

    def nonlinearity(self, u: np.ndarray, forced: np.ndarray | None, out: np.ndarray) -> np.ndarray:
        """Explicit term on the coefficients k = 0..N, written into `out`; its mean entry is zero.

        It is the forcing row `forced` (None for no forcing) minus the transport of u.
        """
        transport(u, out, self._work)
        if forced is None:
            np.negative(out, out)
        else:
            np.subtract(forced, out, out)
        out[0] = 0.0
        return out

    def step(self, half: np.ndarray, forced=None) -> np.ndarray:
        """Advance the half spectrum by dt.

        `forced` is None, or three rows: the forcing's coefficients k = 0..N
        at the stage times t, t + dt/2 and t + dt.  `half` is left unchanged;
        the result is a read-only view of the integrator's buffer, overwritten
        by the next step, which may be passed that view back.
        """
        lin = self._apply
        nonlin = self.nonlinearity
        u, nv, nab, nc, a, w, eu, tmp, b, na, nb, c = self._rows
        x_u, x_nv, x_na, x_stage, x_final, x_eu, x_tmp, x_c, x_out = self._operands
        f_start, f_mid, f_end = _UNFORCED if forced is None else forced
        np.copyto(u, half)
        nonlin(u, f_start, nv)
        lin(self._e_half, x_u, x_eu)
        lin(self._q, x_nv, x_tmp)
        np.add(eu, tmp, a)
        nonlin(a, f_mid, na)
        lin(self._q, x_na, x_tmp)
        np.add(eu, tmp, b)
        nonlin(b, f_mid, nb)
        np.multiply(2.0, nb, w)
        np.subtract(w, nv, w)
        lin(self._stage_c, x_stage, x_c)
        nonlin(c, f_end, nc)
        np.add(na, nb, nab)
        np.multiply(2.0, nab, nab)
        lin(self._final, x_final, x_out)
        return self._result


# the stage forcing rows of an unforced step
_UNFORCED = (None, None, None)
# steps whose stage forcing one evaluation tabulates: 2 * 16 + 1 rows
_FORCING_BLOCK = 16


def _stage_forcing(forcing, n_steps: int, dt: float):
    """Each step's forcing rows at its stage times i dt, i dt + dt/2 and (i + 1) dt.

    One call of `forcing` tabulates a block of `_FORCING_BLOCK` steps at
    their distinct stage times; a block's last row is the next block's first,
    so a run evaluates 2 n_steps + 1 times.
    """
    rows = None
    for first in range(0, n_steps, _FORCING_BLOCK):
        starts = np.arange(first, min(first + _FORCING_BLOCK, n_steps) + 1) * dt
        times = np.empty(2 * starts.size - 1)
        times[0::2] = starts
        times[1::2] = starts[:-1] + dt / 2.0
        if rows is None:
            rows = forcing(times)
        else:
            rows = np.concatenate([rows[-1:], forcing(times[1:])])
        for j in range(starts.size - 1):
            yield rows[2 * j : 2 * j + 3]


def simulate(
    table: SymbolTable,
    profile: DampingProfile | None,
    v0: SpectralField,
    t_final: float,
    dt: float,
    forcing=None,
    record_every: int = 1,
) -> TrajectoryRecord:
    """Integrate to t_final, recording diagnostics every record_every steps.

    Each recorded state is built once, its fluctuation norm, mean and (under
    a profile) dissipation rate are recorded, and only the first and last
    state are kept, so memory does not grow with the run.  Divergence raises,
    carrying the last valid time.  `run_meta` records the effective dt, the
    step count and the spectral abscissa of the generator that was stepped.

    `forcing`, when given, maps an array of times to one row per time of the
    coefficients k = 0..N added to the right-hand side; it must be a pure
    function of t, and its rows are not mutated.  It is evaluated once per
    distinct stage time, 2 n_steps + 1 times in all, a block of steps per
    call (`_stage_forcing`).
    """
    n_steps, dt_eff = _time_grid(t_final, dt)
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    n = v0.n_modes
    stepper = Etdrk4Integrator(table, profile, n, dt_eff)
    # the stencil needs uniform sampling; a trailing partial interval disables it
    with_residual = (
        profile is not None and n_steps % record_every == 0 and n_steps >= 4 * record_every
    )

    # a step blows up when its squared norm exceeds 1e12 times the initial
    # one, floored at an absolute scale so that a forced run from rest does not
    # count its first step as a blow-up.  Each step sums the squares of its
    # (Re, Im) floats, norm_sq / (4 pi) + mean^2 / 2 as the mean is held
    # exactly, against the limit in those units; numpy sums them rather than
    # BLAS, whose idle threads would wake and raise the peak memory of a run
    # that makes no other BLAS call
    blow_limit = 1e12 * max(norm_sq(v0.half), TWO_PI) / (2.0 * TWO_PI) + mean(v0) ** 2 / 2.0
    squares = np.empty(2 * (n + 1))
    # norm weights that drop the mean k = 0
    fluctuation = np.arange(n + 1) > 0

    times, l2norms, means, rates = [], [], [], []

    def record(t, v):
        times.append(t)
        l2norms.append(norm_sq(v.half, fluctuation))
        means.append(mean(v))
        if with_residual:
            rates.append(dissipation_form(profile, v))

    record(0.0, v0)
    half = v0.half
    stages = repeat(None, n_steps) if forcing is None else _stage_forcing(forcing, n_steps, dt_eff)
    for i, forced in enumerate(stages):
        half = stepper.step(half, forced)
        t = (i + 1) * dt_eff
        if not np.add.reduce(np.square(half.view(np.float64), squares)) <= blow_limit:
            raise BlowUpError(
                f"blow-up detected at t = {t:.6g} with dt = {dt_eff:.6g}; a smaller step is the remedy",
                last_valid_time=times[-1],
            )
        if (i + 1) % record_every == 0 or i + 1 == n_steps:
            # the field copies the step's buffer, which the next step overwrites
            final = SpectralField(n, half)
            record(t, final)

    times, l2norms = np.array(times), np.sqrt(l2norms)
    resid = energy_residual(times, l2norms, np.array(rates)) if with_residual else None
    return TrajectoryRecord(
        times=times,
        initial=v0,
        final=final,
        l2norms=l2norms,
        means=np.array(means),
        energy_residuals=resid,
        run_meta={
            "dt": dt_eff,
            "n_steps": n_steps,
            "n_modes": n,
            "record_every": record_every,
            "spectral_abscissa": stepper.spectral_abscissa,
        },
    )


def simulate_damped(
    params: ModelParams,
    profile: DampingProfile,
    u0: SpectralField,
    t_final: float,
    dt: float,
    **kwargs,
) -> TrajectoryRecord:
    """Closed-loop run for a state with arbitrary mean.

    The mean of u0 is conserved by the dynamics, so the run shifts to the
    mean-zero variable, folds the induced drift 2*mu*d/dx into the symbol
    table, and adds the mean back into the recorded means and the endpoints;
    the recorded means are the stepped states' own, so a stepper that moved
    the mean would show in them.
    """
    mu0 = mean(u0)
    table = build_symbols(replace(params, mu=mu0), u0.n_modes)
    rec = simulate(table, profile, project_mean_zero(u0), t_final, dt, **kwargs)
    shift = constant_field(u0.n_modes, mu0)
    return replace(
        rec,
        initial=rec.initial + shift,
        final=rec.final + shift,
        means=rec.means + mu0,
        run_meta={**rec.run_meta, "mean": mu0},
    )


def energy_residual(times: np.ndarray, l2norms: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Defect of the energy balance d/dt (1/2)||v||^2 = -||D^{delta/2} G v||^2.

    `l2norms` and `rates` are the fluctuation norms and dissipation rates
    (`dissipation_form`) of the states at `times`.  The time derivative is
    taken with the five-point fourth-order central stencil on the recording
    grid (matching the integrator's order, so halving dt with a fixed step
    count shrinks the residual about 16x).  Entries are normalized by the
    initial squared norm; edges are NaN.
    """
    if times.size < 5:
        raise ValueError("need at least 5 samples for the five-point stencil")
    steps = np.diff(times)
    h = steps[0]
    if np.any(np.abs(steps - h) > 1e-9 * h):
        raise ValueError("energy residual requires uniform sampling")
    energy = 0.5 * l2norms**2
    out = np.full(times.size, np.nan)
    j = np.arange(2, times.size - 2)
    d_dt = (-energy[j + 2] + 8.0 * energy[j + 1] - 8.0 * energy[j - 1] + energy[j - 2]) / (12.0 * h)
    norm0_sq = max(l2norms[0] ** 2, 1e-300)
    out[j] = (d_dt + rates[j]) / norm0_sq
    return out


@dataclass(frozen=True)
class DecayFit:
    prefactor: float
    rate: float
    r_squared: float
    n_samples: int


def decay_fit(record: TrajectoryRecord, window: tuple) -> DecayFit:
    """Least-squares exponential fit of the fluctuation norm over a window.

    Fits log||v(t)|| = log(M ||v(0)||) - rate * t.  Samples whose norm is at
    most 1e-280 are dropped: with a warning when the norm is positive (it has
    underflowed), silently when it is exactly zero (the state is zero).
    """
    t0, t1 = window
    sel = (record.times >= t0) & (record.times <= t1)
    usable = record.l2norms > 1e-280
    if np.any(sel & ~usable & (record.l2norms > 0)):
        warnings.warn("fit window truncated: norm underflow")
    sel &= usable
    if np.count_nonzero(sel) < 2:
        raise ValueError("fit window holds fewer than two usable samples")
    t = record.times[sel]
    y = np.log(record.l2norms[sel])
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 if ss_tot < 1e-30 else 1.0 - float(np.sum(resid**2)) / ss_tot
    norm0 = record.l2norms[0] if record.l2norms[0] > 0 else 1.0
    return DecayFit(
        prefactor=float(np.exp(intercept) / norm0),
        rate=float(-slope),
        r_squared=r_sq,
        n_samples=int(np.count_nonzero(sel)),
    )
