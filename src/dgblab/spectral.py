"""Truncated Fourier calculus for real 2*pi-periodic functions.

Convention: a field is v(x) = sum_k vhat(k) e^{ikx} with |k| <= N.  Fields
are real-valued, so vhat(-k) == conj(vhat(k)) and vhat(0) is real: a field
stores its half spectrum, the coefficients k = 0..N, and is real by
construction.  The full band -N..N (`coeffs`) is derived from it by
`conjugate_extend`; a full band from outside enters through
`SpectralField.from_coeffs`, which checks its Hermitian symmetry.  The grid
transforms, the integrator and the reference propagators work on the half
spectrum, and `transport` is the kernel on it.  Norms use the weighted
convention

    norm(v, s)^2 = 2*pi * sum_k (1 + |k|)^{2s} |vhat(k)|^2,

whose s = 0 case is the plain L^2 norm on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath

from .errors import AliasingError, HermitianSymmetryError

TWO_PI = 2.0 * np.pi

_SYMMETRY_TOL = 1e-12


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

    @classmethod
    def from_coeffs(cls, n_modes: int, coeffs) -> "SpectralField":
        """The field of the full band -N..N, symmetrised exactly.

        Coefficients that are not finite, or violate Hermitian symmetry by
        more than a 1e-12 relative residue, are rejected.
        """
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (2 * n_modes + 1,):
            raise ValueError(f"expected {2 * n_modes + 1} coefficients, got shape {coeffs.shape}")
        flipped = np.conj(coeffs[::-1])
        scale = max(1.0, float(np.abs(coeffs).max(initial=0.0)))
        if not float(np.abs(coeffs - flipped).max(initial=0.0)) <= _SYMMETRY_TOL * scale < np.inf:
            raise HermitianSymmetryError(
                "coefficients are not finite and Hermitian-symmetric; field would not be real"
            )
        return cls(n_modes, 0.5 * (coeffs[n_modes:] + flipped[n_modes:]))

    @property
    def coeffs(self) -> np.ndarray:
        """The coefficients -N..N: a read-only array derived from `half` on every access."""
        full = conjugate_extend(self.half)
        full.setflags(write=False)
        return full

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.n_modes, self.n_modes + 1)

    def coeff(self, k: int) -> complex:
        """vhat(k); zero outside the stored band."""
        if abs(k) > self.n_modes:
            return 0j
        c = complex(self.half[abs(k)])
        return c if k >= 0 else c.conjugate()

    def with_cutoff(self, n: int) -> "SpectralField":
        """Pad with zeros or truncate to the cutoff n."""
        if n == self.n_modes:
            return self
        return SpectralField(n, np.append(self.half[: n + 1], np.zeros(max(0, n - self.n_modes))))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        n = max(self.n_modes, other.n_modes)
        return SpectralField(n, self.with_cutoff(n).half + other.with_cutoff(n).half)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        n = max(self.n_modes, other.n_modes)
        return SpectralField(n, self.with_cutoff(n).half - other.with_cutoff(n).half)

    def __mul__(self, scalar) -> "SpectralField":
        if np.imag(scalar) != 0.0:
            raise TypeError("scaling a real field by a non-real scalar")
        return SpectralField(self.n_modes, self.half * float(np.real(scalar)))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.n_modes, -self.half)


@dataclass(frozen=True, eq=False)
class GridField:
    """Real point values on the uniform collocation grid x_j = 2*pi*j/M."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("grid field needs a 1-d array with at least 2 samples")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return TWO_PI * np.arange(self.m) / self.m

    @classmethod
    def from_function(cls, f, m: int) -> "GridField":
        return cls(f(TWO_PI * np.arange(m) / m))


def conjugate_extend(half: np.ndarray) -> np.ndarray:
    """The coefficients -N..N of the real field with half spectrum `half` (along the last axis)."""
    return np.concatenate([np.conj(half[..., :0:-1]), half], axis=-1)


def to_spectral(grid: GridField, n_modes: int) -> SpectralField:
    """Discrete Fourier coefficients of grid samples, cut off at |k| <= n_modes.

    Requires M >= 2N+1 so that no represented mode is aliased.  The field
    is the half spectrum k = 0..N read off the DFT.
    """
    m = grid.m
    if m < 2 * n_modes + 1:
        raise AliasingError(f"need at least {2 * n_modes + 1} grid points for cutoff {n_modes}, got {m}")
    return SpectralField(n_modes, np.fft.fft(grid.values)[: n_modes + 1] / m)


def to_grid(v: SpectralField, m_points: int) -> GridField:
    """Evaluate the field on M >= 2N+1 collocation points.

    The values are the inverse real DFT of the half spectrum, real by
    construction.
    """
    n = v.n_modes
    if m_points < 2 * n + 1:
        raise AliasingError(f"need at least {2 * n + 1} grid points for cutoff {n}, got {m_points}")
    return GridField(np.fft.irfft(v.half, m_points) * m_points)


def apply_multiplier(v: SpectralField, symbol) -> SpectralField:
    """Diagonal action out(k) = symbol(k) * vhat(k).

    `symbol` is either a vectorised callable of the wavenumbers or an array
    over {-N..N}.  Symbols with symbol(-k) != conj(symbol(k)) would produce a
    non-real field and are rejected by `SpectralField.from_coeffs`.
    """
    sym = np.asarray(symbol(v.wavenumbers) if callable(symbol) else symbol, dtype=np.complex128)
    if sym.shape != (2 * v.n_modes + 1,):
        raise ValueError("symbol table does not match the coefficient band")
    return SpectralField.from_coeffs(v.n_modes, sym * v.coeffs)


def derivative_x(v: SpectralField) -> SpectralField:
    """Spatial derivative; multiplier ik, so the output mean is exactly zero."""
    return apply_multiplier(v, lambda k: 1j * k)


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


def transport(half: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dealiased quadratic transport d/dx of v^2 on the half spectrum k = 0..N.

    The square is formed pointwise on a grid with M >= 3N+1 points, which
    makes the retained coefficients k <= N alias-free, then truncated and
    differentiated.  The k = 0 output vanishes identically.

    The result is written into `out` (N+1 complex coefficients) when given,
    else into a new array, and returned.
    The transforms are numpy's pocketfft gufuncs, the kernels `np.fft.irfft`
    and `np.fft.rfft` wrap, called without the wrappers' argument handling
    (hence numpy >= 2.0, < 3).  The grid scratch is allocated per call, so
    concurrent calls with distinct `out` share nothing.
    """
    n = half.size - 1
    m, ik = _transport_grid(n)
    # both transforms are unscaled: the inverse gives the grid values v(x_j)
    # and the forward M times the square's coefficients, so the multiplier
    # i k / M carries the one scaling
    vals = _pocketfft_umath.irfft(half, 1.0, out=np.empty(m))
    square = _pocketfft_umath.rfft_n_even(vals * vals, 1.0, out=np.empty(m // 2 + 1, np.complex128))
    return np.multiply(ik, square[: n + 1], out)


def nonlinear_term(v: SpectralField) -> SpectralField:
    """Dealiased quadratic transport term d/dx of v^2 (`transport` on the field)."""
    return SpectralField(v.n_modes, transport(v.half))


def sobolev_norm(v: SpectralField, s: float) -> float:
    """Weighted spectral norm sqrt(2*pi * sum (1+|k|)^{2s} |vhat|^2)."""
    weights = (1.0 + np.abs(v.wavenumbers)) ** (2.0 * s)
    return float(np.sqrt(TWO_PI * np.sum(weights * np.abs(v.coeffs) ** 2)))


def l2_norm(v: SpectralField) -> float:
    return sobolev_norm(v, 0.0)


def l2_inner(u: SpectralField, v: SpectralField) -> float:
    """L^2 pairing of two real fields: 2*pi * sum uhat(k) conj(vhat(k))."""
    n = max(u.n_modes, v.n_modes)
    a = u.with_cutoff(n).coeffs
    b = v.with_cutoff(n).coeffs
    val = TWO_PI * np.sum(a * np.conj(b))
    return float(val.real)


def mean(v: SpectralField) -> float:
    """Spatial average (1/2pi) * integral of v, i.e. vhat(0)."""
    return float(v.half[0].real)


def project_mean_zero(v: SpectralField) -> SpectralField:
    out = v.half.copy()
    out[0] = 0.0
    return SpectralField(v.n_modes, out)


def zero_field(n_modes: int) -> SpectralField:
    return SpectralField(n_modes, np.zeros(n_modes + 1, dtype=np.complex128))


def constant_field(n_modes: int, value: float) -> SpectralField:
    out = np.zeros(n_modes + 1, dtype=np.complex128)
    out[0] = value
    return SpectralField(n_modes, out)


def cosine_field(n_modes: int, wavenumber: int, amplitude: float = 1.0) -> SpectralField:
    """amplitude * cos(wavenumber * x)."""
    if not 0 < wavenumber <= n_modes:
        raise ValueError("wavenumber must lie in 1..n_modes")
    out = np.zeros(n_modes + 1, dtype=np.complex128)
    out[wavenumber] = amplitude / 2.0
    return SpectralField(n_modes, out)


def sine_field(n_modes: int, wavenumber: int, amplitude: float = 1.0) -> SpectralField:
    """amplitude * sin(wavenumber * x)."""
    if not 0 < wavenumber <= n_modes:
        raise ValueError("wavenumber must lie in 1..n_modes")
    out = np.zeros(n_modes + 1, dtype=np.complex128)
    out[wavenumber] = amplitude / 2j
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
