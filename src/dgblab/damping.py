"""Gain profiles and the localized damping feedback.

The actuation operator built from a nonnegative gain g with unit integral is

    (G v)(x) = g(x) * ( v(x) - integral(v * g) ),

and the stabilizing feedback composes it with a fractional derivative:
G D^delta G.  `apply_gain` applies G as a convolution with ghat, with no
matrix formed; `gain_matrix` and `feedback_matrix` build the matrices of G
and G D^delta G per call, as temporaries of the closed loop's real forms.
In coefficient space that composition splits exactly into

    G D^delta G = Dtilde + N1 + R,

a diagonal dissipation with symbol d(k) = sum_l |l|^delta |ghat(l-k)|^2
(zero at k = 0), an off-diagonal double convolution restricted to n != k,
and a rank-style mean correction built from four scalar pairings.  All
operators here are evaluated with full intermediate bandwidth, so the
split is an identity up to rounding; Galerkin truncation happens only
where the dynamics projects onto a fixed state band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProfileError
from .spectral import (
    TWO_PI,
    SpectralField,
    apply_multiplier,
    conjugate_extend,
    l2_inner,
    l2_norm,
    norm_sq,
)


@dataclass(frozen=True, eq=False)
class DampingProfile:
    """Fourier data of the gain g plus the dissipation order delta.

    `ghat` holds coefficients for l in {-K..K}; `support` is either the
    string 'global' or the open interval (a, b) the gain was built on.
    Profiles are immutable values; they hold no derived operator matrices.
    """

    delta: float
    ghat: np.ndarray
    support: object

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ProfileError("delta must be positive and finite")
        ghat = np.asarray(self.ghat, dtype=np.complex128)
        if ghat.ndim != 1 or ghat.size % 2 != 1:
            raise ProfileError("ghat must hold an odd-length centered band")
        if not np.isfinite(ghat).all():
            raise ProfileError("gain coefficients must be finite")
        k = (ghat.size - 1) // 2
        center = ghat[k]
        if abs(center - 1.0 / TWO_PI) > 1e-12:
            raise ProfileError("gain is not normalized: need ghat(0) = 1/(2 pi)")
        flipped = np.conj(ghat[::-1])
        if np.abs(ghat - flipped).max() > 1e-12:
            raise ProfileError("gain coefficients must be Hermitian-symmetric")
        ghat = 0.5 * (ghat + flipped)
        ghat[k] = 1.0 / TWO_PI
        ghat.setflags(write=False)
        object.__setattr__(self, "ghat", ghat)

    @property
    def k_modes(self) -> int:
        return (self.ghat.size - 1) // 2

    def d_symbol(self, k):
        """Dissipation symbol d(k) = sum_j |k+j|^delta |ghat(j)|^2, d(0) = 0.

        Evaluated at |k|, which realises the exact evenness d(-k) = d(k)
        instead of leaving it to summation order.
        """
        karr = np.abs(np.atleast_1d(np.asarray(k, dtype=np.int64)))
        j = np.arange(-self.k_modes, self.k_modes + 1)
        weights = np.abs(self.ghat) ** 2
        powers = np.abs(karr[:, None] + j[None, :]).astype(np.float64) ** self.delta
        out = powers @ weights
        out[karr == 0] = 0.0
        if np.isscalar(k) or np.asarray(k).ndim == 0:
            return float(out[0])
        return out

    def to_json_dict(self) -> dict:
        return {
            "support": "global" if self.support == "global" else list(self.support),
            "modes": self.k_modes,
            "delta": self.delta,
            "ghat": [[float(c.real), float(c.imag)] for c in self.ghat],
        }


def make_profile_global(delta: float) -> DampingProfile:
    """Constant gain 1/(2 pi); the feedback reduces to D^delta / (4 pi^2)."""
    return DampingProfile(delta=delta, ghat=np.array([1.0 / TWO_PI + 0j]), support="global")


def bump_root_coeffs(a: float, b: float, half: int) -> np.ndarray:
    """Exact Fourier coefficients, l = -half..half, of 1 + cos(2 pi (x - xc)/(b - a)) on (a, b).

    With w = b - a and t = l w / (2 pi), qhat(l) = e^{-i l xc} (w / 2 pi)
    [sinc(t) + sinc(1 - t)/2 + sinc(1 + t)/2]; np.sinc takes the removable
    singularities at t = 0 and t = 1.
    """
    width = b - a
    l = np.arange(-half, half + 1)
    t = l * (width / TWO_PI)
    envelope = np.sinc(t) + 0.5 * np.sinc(1.0 - t) + 0.5 * np.sinc(1.0 + t)
    return np.exp(-0.5j * (a + b) * l) * ((width / TWO_PI) * envelope)


def make_profile_bump(a: float, b: float, n_modes: int, delta: float) -> DampingProfile:
    """Gain g = |q|^2 concentrated in (a, b), on the band -n_modes..n_modes.

    q is `bump_root_coeffs` truncated to |l| <= n_modes // 2, so g is
    nonnegative by construction and of degree 2 (n_modes // 2); for odd
    n_modes the two outermost coefficients are zero.  ghat is the
    autocorrelation of qhat, rescaled so ghat(0) = 1/(2 pi) exactly.
    """
    if not 0.0 <= a < b <= TWO_PI:
        raise ProfileError(f"invalid support ({a}, {b}): need 0 <= a < b <= 2 pi")
    if n_modes < 1:
        raise ProfileError("need at least one gain mode")
    half = n_modes // 2
    qhat = bump_root_coeffs(a, b, half)
    auto = np.convolve(qhat, np.conj(qhat[::-1]))
    ghat = np.zeros(2 * n_modes + 1, dtype=np.complex128)
    ghat[n_modes - 2 * half : n_modes + 2 * half + 1] = auto / (TWO_PI * auto[2 * half].real)
    ghat[n_modes] = 1.0 / TWO_PI
    return DampingProfile(delta=delta, ghat=ghat, support=(a, b))


def gain_field(p: DampingProfile) -> SpectralField:
    """The gain g itself as a spectral field on its band -K..K."""
    return SpectralField(p.k_modes, p.ghat[p.k_modes :])


def _ghat_at(p: DampingProfile, rows: np.ndarray, cols=0) -> np.ndarray:
    """ghat(k - l) over rows k and columns l: multiplication by g, as a matrix."""
    diffs = np.subtract.outer(rows, cols)
    out = np.zeros(diffs.shape, dtype=np.complex128)
    mask = np.abs(diffs) <= p.k_modes
    out[mask] = p.ghat[diffs[mask] + p.k_modes]
    return out


def apply_gain(p: DampingProfile, v: SpectralField) -> SpectralField:
    """G v = g (v - integral(v g)); output keeps the grown band N + K.

    A convolution with ghat of the conjugate-extended input, O(N K); each
    k >= 0 averages the sums at k and -k, which agree up to rounding.  The gain
    has unit integral, so the output mean is 0, set so over its rounding residue.
    """
    n, kk = v.n_modes, p.k_modes
    m = min(n, kk)
    w = conjugate_extend(v.half)
    # integral(v g) over the modes both bands hold
    w[n] -= TWO_PI * np.vdot(p.ghat[kk - m : kk + m + 1], w[n - m : n + m + 1]).real
    out = np.convolve(p.ghat, w)
    c = n + kk
    out[c] = 0.0
    return SpectralField(c, 0.5 * (out[c:] + np.conj(out[c::-1])))


def _fractional(delta: float):
    return lambda k: np.abs(k).astype(np.float64) ** delta + 0j


def apply_feedback(p: DampingProfile, v: SpectralField) -> SpectralField:
    """The damping feedback G D^delta G v with full intermediate bandwidth."""
    w = apply_gain(p, v)
    w = apply_multiplier(w, _fractional(p.delta))
    return apply_gain(p, w)


def apply_dissipation_part(p: DampingProfile, v: SpectralField) -> SpectralField:
    """Diagonal piece: multiplication by d(k), zero at k = 0."""
    return apply_multiplier(v, p.d_symbol)


def apply_smoothing_remainder(p: DampingProfile, v: SpectralField) -> SpectralField:
    """Off-diagonal convolution piece: the n != k part of the g D^delta g sums."""
    n = v.n_modes
    # rows k >= 0 of the dense band-n to band-(n + 2K) product: its diagonal cancels exactly for the constant gain
    k_out = np.arange(n + 2 * p.k_modes + 1)
    l_mid = np.arange(-(n + p.k_modes), n + p.k_modes + 1)
    dl = np.abs(l_mid).astype(np.float64) ** p.delta
    inner = _ghat_at(p, l_mid, np.arange(-n, n + 1))
    mat = _ghat_at(p, k_out, l_mid) @ (dl[:, None] * inner)
    out = mat @ conjugate_extend(v.half)
    out[: n + 1] -= np.diagonal(mat[:, n:]) * v.half
    out[0] = 0.0
    return SpectralField(n + 2 * p.k_modes, out)


def apply_mean_correction(p: DampingProfile, v: SpectralField) -> SpectralField:
    """The four-term mean-interaction remainder of the feedback split.

    Combines the scalar pairings integral(g v), integral(v g D^delta g) =
    integral(g D^delta (g v)) and integral(g D^delta g) with the fields g
    and g D^delta g.  Its k = 0 coefficient cancels identically.
    """
    kk = p.k_modes
    g = gain_field(p)
    dg = apply_multiplier(g, _fractional(p.delta))
    gdg = SpectralField(2 * kk, np.convolve(p.ghat, conjugate_extend(dg.half))[2 * kk :])
    s1, s2, s3 = l2_inner(v, g), l2_inner(v, gdg), l2_inner(dg, g)
    out = -s1 * gdg.half
    out[: kk + 1] += (-s2 + s1 * s3) * g.half
    out[0] += s2 / TWO_PI
    return SpectralField(2 * kk, out)


def decomposition_residual(p: DampingProfile, v: SpectralField) -> float:
    """Relative defect of G D^delta G v against its three-part split."""
    nv = l2_norm(v)
    if nv == 0.0:
        return 0.0
    lhs = apply_feedback(p, v)
    rhs = apply_dissipation_part(p, v) + apply_smoothing_remainder(p, v) + apply_mean_correction(p, v)
    return l2_norm(lhs - rhs) / nv


def dissipation_form(p: DampingProfile, v: SpectralField) -> float:
    """Instantaneous dissipation rate ||D^{delta/2} G v||^2 = <G D^delta G v, v>.

    The squared norm, with weight |k|^delta, over the full grown band of
    `apply_gain`: O(N K), with no matrix formed whether or not a closed loop
    has built one.
    """
    gv = apply_gain(p, v)
    return float(norm_sq(gv.half, np.arange(gv.n_modes + 1.0) ** p.delta))


def dissipation_equivalence(p: DampingProfile, n_max: int) -> tuple:
    """Extremes of d(k) / <k>^delta over 1 <= |k| <= n_max.

    The lower constant is positive for every normalized profile because the
    l = k term alone contributes |k|^delta / (4 pi^2).
    """
    ks = np.arange(1, n_max + 1)
    ratios = p.d_symbol(ks) / (1.0 + ks.astype(np.float64) ** 2) ** (0.5 * p.delta)
    c, big_c = float(ratios.min()), float(ratios.max())
    if c <= 0.0:
        raise ProfileError("degenerate profile: dissipation symbol vanished")
    return c, big_c


def gain_matrix(p: DampingProfile, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Coefficient-space matrix of G from input modes `cols` to output modes `rows`."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    correction = TWO_PI * _ghat_at(p, rows)[:, None] * np.conj(_ghat_at(p, cols))[None, :]
    return _ghat_at(p, rows, cols) - correction


def feedback_matrix(p: DampingProfile, modes: np.ndarray) -> np.ndarray:
    """Galerkin matrix of G D^delta G on the given modes (full inner band).

    Hermitian by construction, and built per call: the caller owns it.
    """
    modes = np.asarray(modes, dtype=np.int64)
    m = int(np.abs(modes).max()) + p.k_modes
    inner = np.arange(-m, m + 1)
    dl = np.abs(inner).astype(np.float64) ** p.delta
    mat = gain_matrix(p, modes, inner) @ (dl[:, None] * gain_matrix(p, inner, modes))
    return 0.5 * (mat + mat.conj().T)
