"""Truncated Fourier calculus for real 2*pi-periodic functions.

Convention: a field is v(x) = sum_k vhat(k) e^{ikx} with |k| <= N.  Fields
are real-valued, so vhat(-k) == conj(vhat(k)) and vhat(0) is real: a field
stores its half spectrum, the coefficients k = 0..N, and is real by
construction.  The half spectrum is the package's one field format: every
operator maps half spectra to half spectra, and the full band -N..N is
formed by `conjugate_extend` only inside a convolution that needs it.  The
integrator and the reference propagators work on the half spectrum, and
`transport`, the package's one pair of grid transforms, is the kernel on
it, or on stacked rows of it.  Norms use the weighted convention

    norm(v, s)^2 = 2*pi * sum_k (1 + |k|)^{2s} |vhat(k)|^2,

whose s = 0 case is the plain L^2 norm on the circle; `pairing` is the one
kernel that sums it, on half spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Fourier coefficients of a real periodic function, cut off at |k| <= N.

    `half` holds the coefficients k = 0..N.  Construction copies it, so a
    field never aliases a buffer its caller reuses (the integrator's output),
    zeroes the imaginary part of k = 0 and makes no check: every half
    spectrum is a real field.  Instances are immutable, thread-safe values.
    """

    n_modes: int
    half: np.ndarray

    def __post_init__(self):
        n = self.n_modes
        if n < 0:
            raise ValueError("mode cutoff must be nonnegative")
        half = np.array(self.half, dtype=np.complex128)
        if half.shape != (n + 1,):
            raise ValueError(f"expected {n + 1} coefficients k = 0..N, got shape {half.shape}")
        half[0] = half[0].real
        half.setflags(write=False)
        object.__setattr__(self, "half", half)

    def with_cutoff(self, n: int) -> "SpectralField":
        """Pad with zeros or truncate to the cutoff n."""
        if n == self.n_modes:
            return self
        return SpectralField(n, np.append(self.half[: n + 1], np.zeros(max(0, n - self.n_modes))))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        n = max(self.n_modes, other.n_modes)
        return SpectralField(n, self.with_cutoff(n).half + other.with_cutoff(n).half)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self + -other

    def __mul__(self, scalar) -> "SpectralField":
        if np.imag(scalar) != 0.0:
            raise TypeError("scaling a real field by a non-real scalar")
        return SpectralField(self.n_modes, self.half * float(np.real(scalar)))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.n_modes, -self.half)


def conjugate_extend(half: np.ndarray) -> np.ndarray:
    """The coefficients -N..N of the real field with half spectrum `half` (along the last axis)."""
    return np.concatenate([np.conj(half[..., :0:-1]), half], axis=-1)


def apply_multiplier(v: SpectralField, symbol) -> SpectralField:
    """Diagonal action out(k) = symbol(k) * vhat(k) of a vectorised callable `symbol`.

    The symbol is evaluated at k = 0..N only, so it must satisfy
    symbol(-k) = conj(symbol(k)): the action of such a symbol on the full
    band -N..N is that of a real field, whose half spectrum is returned.
    """
    return SpectralField(v.n_modes, symbol(np.arange(v.n_modes + 1)) * v.half)


@lru_cache(maxsize=None)
def _transport_grid(n: int) -> tuple:
    """Grid size M and scaled multiplier i k / M (k = 0..n) of `transport`, memoised per cutoff.

    M is the smallest power of two, at least 8, with M >= 3n+1, so the
    scaling by 1/M is exact.
    """
    m = 8
    while m < 3 * n + 1:
        m *= 2
    ik = 1j * np.arange(n + 1) / m
    ik.setflags(write=False)
    return m, ik


def transport_workspace(n_modes: int, rows: tuple = ()) -> tuple:
    """The grid and square buffers of `transport` on half spectra of shape rows + (N+1,)."""
    m, _ = _transport_grid(n_modes)
    return np.empty((*rows, m)), np.empty((*rows, m // 2 + 1), np.complex128)


def transport(half: np.ndarray, out: np.ndarray | None = None, work: tuple | None = None) -> np.ndarray:
    """Dealiased quadratic transport d/dx of v^2 on the half spectrum k = 0..N.

    The square is formed pointwise on a grid with M >= 3N+1 points, which
    makes the retained coefficients k <= N alias-free, then truncated and
    differentiated.  The k = 0 output vanishes identically.  Half spectra
    lie along the last axis, so stacked rows are transported row by row.

    The result is written into `out` (the shape of `half`) when given, else
    into a new array, and returned; `work` is a caller-owned
    `transport_workspace` of the same rows, else one is allocated per call.
    The transforms are numpy's pocketfft gufuncs, the kernels `np.fft.irfft`
    and `np.fft.rfft` wrap, called without the wrappers' argument handling
    (hence numpy >= 2.0, < 3).  Concurrent calls with distinct `out` and
    `work` share nothing.
    """
    n = half.shape[-1] - 1
    m, ik = _transport_grid(n)
    grid, square = transport_workspace(n, half.shape[:-1]) if work is None else work
    # both transforms are unscaled: the inverse gives the grid values v(x_j)
    # and the forward M times the square's coefficients, so the multiplier
    # i k / M carries the one scaling
    _pocketfft_umath.irfft(half, 1.0, out=grid)
    np.multiply(grid, grid, grid)
    _pocketfft_umath.rfft_n_even(grid, 1.0, out=square)
    return np.multiply(ik, square[..., : n + 1], out)


def pairing(u: np.ndarray, v: np.ndarray, weights=1.0) -> np.ndarray:
    """Weighted pairing 2*pi * sum_{|k|<=N} w(k) Re(uhat(k) conj(vhat(k))) of real fields.

    The package's one norm kernel, on half spectra k = 0..N along the last
    axis, with an even weight w sampled at k = 0..N (or a scalar).  numpy
    ufuncs sum it, not BLAS, whose idle threads would wake and raise the
    peak memory of a run that makes no other BLAS call.
    """
    prod = np.multiply(weights, u.real * v.real + u.imag * v.imag)
    return TWO_PI * (prod[..., 0] + 2.0 * np.add.reduce(prod[..., 1:], axis=-1))


def norm_sq(half: np.ndarray, weights=1.0) -> np.ndarray:
    """Weighted squared norm 2*pi * sum_{|k|<=N} w(k) |vhat(k)|^2: `pairing` of `half` with itself."""
    return pairing(half, half, weights)


def sobolev_weights(n_modes: int, s: float) -> np.ndarray:
    """The weights (1 + k)^{2s} of the H^s norm at k = 0..N."""
    return (1.0 + np.arange(n_modes + 1)) ** (2.0 * s)


def sobolev_norm(v: SpectralField, s: float) -> float:
    """Weighted spectral norm sqrt(2*pi * sum (1+|k|)^{2s} |vhat|^2)."""
    return float(np.sqrt(norm_sq(v.half, sobolev_weights(v.n_modes, s))))


def l2_norm(v: SpectralField) -> float:
    return sobolev_norm(v, 0.0)


def l2_inner(u: SpectralField, v: SpectralField) -> float:
    """L^2 pairing of two real fields: 2*pi * sum uhat(k) conj(vhat(k))."""
    n = max(u.n_modes, v.n_modes)
    return float(pairing(u.with_cutoff(n).half, v.with_cutoff(n).half))


def mean(v: SpectralField) -> float:
    """Spatial average (1/2pi) * integral of v, i.e. vhat(0)."""
    return float(v.half[0].real)


def project_mean_zero(v: SpectralField) -> SpectralField:
    out = v.half.copy()
    out[0] = 0.0
    return SpectralField(v.n_modes, out)


def constant_field(n_modes: int, value: float) -> SpectralField:
    return SpectralField(n_modes, np.append(value, np.zeros(n_modes)))


def cosine_field(n_modes: int, wavenumber: int, amplitude: float = 1.0) -> SpectralField:
    """amplitude * cos(wavenumber * x)."""
    if not 0 < wavenumber <= n_modes:
        raise ValueError("wavenumber must lie in 1..n_modes")
    out = np.zeros(n_modes + 1, dtype=np.complex128)
    out[wavenumber] = amplitude / 2.0
    return SpectralField(n_modes, out)


def random_field(
    n_modes: int,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    decay: float = 1.0,
    mean_zero: bool = True,
) -> SpectralField:
    """Random real field with coefficients damped like (1+|k|)^{-decay}."""
    out = np.zeros(n_modes + 1, dtype=np.complex128)
    for k in range(1, n_modes + 1):
        out[k] = (rng.standard_normal() + 1j * rng.standard_normal()) * (1.0 + k) ** (-decay)
    if not mean_zero:
        out[0] = rng.standard_normal()
    return SpectralField(n_modes, amplitude * out)
