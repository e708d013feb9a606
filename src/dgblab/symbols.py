"""Dispersive symbol tables and brute-force scans of their arithmetic.

The linearised dynamics acts modewise as multiplication by i*lam(k) with

    a(k)   = -beta |k|^{2m} + alpha |k|^{2r} - 2 mu,
    lam(k) = k * a(k),

an odd sequence.  This module builds those tables and provides exhaustive
finite-range checks of the structural facts the rest of the package leans
on: bounded eigenvalue multiplicity, eventual simplicity, growth of
spectral gaps, and lower bounds for the three-wave resonance function and
for the pairwise modulation spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DgbError, MultiplicityBoundError

MULTIPLICITY_BOUND = 5


@dataclass(frozen=True)
class ModelParams:
    """Dispersion strengths, orders, mean drift, and dissipation order.

    Constraints: alpha, beta > 0; m > 1/2; 0 < r < m; and delta in
    (max(0, 2 - 2m), 1], which forces delta < 2m.
    """

    alpha: float
    beta: float
    m: float
    r: float
    mu: float = 0.0
    delta: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.m > 0.5:
            raise ValueError("m must exceed 1/2")
        if not 0.0 < self.r < self.m:
            raise ValueError("r must lie strictly between 0 and m")
        floor = self.delta_floor()
        if not floor < self.delta <= 1.0:
            raise ValueError(
                f"delta must satisfy max(0, 2 - 2m) < delta <= 1; got delta={self.delta} with floor {floor}"
            )

    def delta_floor(self) -> float:
        return max(0.0, 2.0 - 2.0 * self.m)


BENJAMIN = ModelParams(alpha=1.0, beta=1.0, m=1.0, r=0.5)


@dataclass(frozen=True, eq=False)
class SymbolTable:
    """a(k) and lam(k) tabulated for |k| <= n_modes."""

    params: ModelParams
    n_modes: int
    a: np.ndarray
    lam: np.ndarray

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.n_modes, self.n_modes + 1)

    def eig(self, k):
        """lam(k) for an integer or integer array with |k| <= n_modes."""
        return self.lam[self._index(k)]

    def a_of(self, k):
        return self.a[self._index(k)]

    def _index(self, k):
        idx = np.asarray(k) + self.n_modes
        if idx.size and (idx.min() < 0 or idx.max() > 2 * self.n_modes):
            raise ValueError("wavenumber outside the tabulated band")
        return idx


def build_symbols(params: ModelParams, n_modes: int) -> SymbolTable:
    """Tabulate a(k) and lam(k) = k a(k) over |k| <= n_modes.

    Fractional powers |k|^{2m}, |k|^{2r} vanish at k = 0, so lam(0) = 0 and
    lam is exactly odd (the float expressions for +-k are identical up to an
    exact sign flip).  A non-finite a(k) or lam(k), such as |k|^{2m}
    overflowing for a large m, raises DgbError.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    p = params
    ks = np.arange(-n_modes, n_modes + 1, dtype=np.float64)
    absk = np.abs(ks)
    with np.errstate(over="ignore", invalid="ignore"):
        a = -p.beta * absk ** (2.0 * p.m) + p.alpha * absk ** (2.0 * p.r) - 2.0 * p.mu
        lam = ks * a
    if not (np.isfinite(a).all() and np.isfinite(lam).all()):
        raise DgbError(f"symbols overflow on the band |k| <= {n_modes}: a(k) or lam(k) is not finite")
    table = SymbolTable(params=p, n_modes=n_modes, a=a, lam=lam)
    if not np.array_equal(table.lam, -table.lam[::-1]):
        raise DgbError("tabulated eigenvalues are not exactly odd in k")
    return table


@dataclass(frozen=True)
class EigenvalueClass:
    representative: int
    members: tuple
    eigenvalue: float

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class MultiplicityReport:
    classes: tuple
    max_multiplicity: int
    simple_beyond: int
    tol: float

    def class_of(self, k: int) -> EigenvalueClass:
        for c in self.classes:
            if k in c.members:
                return c
        raise KeyError(k)


def multiplicity_scan(table: SymbolTable, tol: float = 0.0) -> MultiplicityReport:
    """Partition {-N..N} into classes of equal lam(k).

    Values whose consecutive sorted gaps are <= tol are chained into one
    class, so tol = 0 groups by exact float equality.  At tol = 0, raises if
    a class exceeds the multiplicity bound of 5, which would falsify the
    structural assumption and must never happen for admissible parameters.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    lam = table.lam
    order = np.argsort(lam, kind="stable")
    # a class ends where the next sorted eigenvalue lies more than tol above it
    ends = [0, *(np.flatnonzero(np.diff(lam[order]) > tol) + 1).tolist(), lam.size]
    ks = table.wavenumbers[order].tolist()
    classes = []
    for lo, hi in zip(ends[:-1], ends[1:]):
        members = tuple(sorted(ks[lo:hi]))
        rep = min(members, key=lambda k: (abs(k), k))
        classes.append(EigenvalueClass(rep, members, float(lam[rep + table.n_modes])))
    classes.sort(key=lambda c: (abs(c.representative), c.representative))

    max_mult = max(c.count for c in classes)
    if tol == 0.0 and max_mult > MULTIPLICITY_BOUND:
        # the multiplicity bound is a statement about exact equality; grouping
        # with a positive tolerance may legitimately merge distinct eigenvalues
        worst = max(classes, key=lambda c: c.count)
        raise MultiplicityBoundError(
            f"eigenvalue class {worst.members} has multiplicity {worst.count} > {MULTIPLICITY_BOUND}"
        )
    non_singleton = [max(abs(k) for k in c.members) for c in classes if c.count > 1]
    simple_beyond = 1 + max(non_singleton) if non_singleton else 0
    return MultiplicityReport(tuple(classes), max_mult, simple_beyond, tol)


@dataclass(frozen=True)
class GapRow:
    k: int
    gap: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class GapReport:
    rows: tuple
    threshold: int | None


def gap_check(table: SymbolTable) -> GapReport:
    """Compare consecutive gaps lam(k) - lam(k+1) with alpha*(m-r)*k^{2r}.

    Rows cover 1 <= k <= N-1.  `threshold` is the smallest k from which
    every row passes (None if the final row fails); small-k failures are
    expected and reported, not errors.
    """
    if table.n_modes < 2:
        raise ValueError("need n_modes >= 2")
    p = table.params
    pos = table.lam[table.n_modes + 1 :]  # lam(1), ..., lam(N)
    rows = []
    # the bound takes Python's power: np.power differs from it in the last bit for some k and r
    for k, gap in enumerate((pos[:-1] - pos[1:]).tolist(), start=1):
        bound = p.alpha * (p.m - p.r) * float(k) ** (2.0 * p.r)
        rows.append(GapRow(k, gap, bound, gap > bound))
    threshold = None
    for row in reversed(rows):
        if row.passed:
            threshold = row.k
        else:
            break
    return GapReport(tuple(rows), threshold)


@dataclass(frozen=True)
class ResonanceReport:
    min_ratio: float
    witness: tuple
    n_max: int
    a_threshold: int
    n_triples: int


def resonance_check(table: SymbolTable, n_max: int, a_threshold: int = 1) -> ResonanceReport:
    """Scan zero-sum integer triples for the three-wave resonance bound.

    Enumerates k1 + k2 + k3 = 0 with k1 k2 k3 != 0, max|kj| <= n_max and
    max|kj| >= a_threshold, and minimises

        |lam(k1) + lam(k2) + lam(k3)| / (max|kj|^{2m} * min|kj|).

    A positive minimum certifies the resonance lower bound with that
    empirical constant on the scanned range; a non-finite one raises DgbError.
    """
    if n_max > table.n_modes:
        raise ValueError("n_max exceeds the tabulated band")
    vals = np.arange(-n_max, n_max + 1)
    vals = vals[vals != 0]
    k1 = np.repeat(vals, vals.size)
    k2 = np.tile(vals, vals.size)
    k3 = -k1 - k2
    ok = (k3 != 0) & (np.abs(k3) <= n_max)
    k1, k2, k3 = k1[ok], k2[ok], k3[ok]
    mags = np.stack([np.abs(k1), np.abs(k2), np.abs(k3)])
    kmax = mags.max(axis=0)
    kmin = mags.min(axis=0)
    sel = kmax >= a_threshold
    if not np.any(sel):
        raise ValueError("empty scan range: no admissible triples")
    k1, k2, k3, kmax, kmin = k1[sel], k2[sel], k3[sel], kmax[sel], kmin[sel]
    sums = table.eig(k1) + table.eig(k2) + table.eig(k3)
    ratios = np.abs(sums) / (kmax ** (2.0 * table.params.m) * kmin)
    idx = int(np.argmin(ratios))
    if not np.isfinite(ratios[idx]):
        raise DgbError(f"resonance scan overflowed: minimum ratio {ratios[idx]}")
    witness = (int(k1[idx]), int(k2[idx]), int(k3[idx]))
    return ResonanceReport(float(ratios[idx]), witness, n_max, a_threshold, int(ratios.size))


def bracket(x):
    """Japanese bracket sqrt(1 + x^2)."""
    return np.sqrt(1.0 + np.asarray(x, dtype=np.float64) ** 2)


@dataclass(frozen=True)
class ModulationReport:
    min_ratio: float
    witness: tuple
    n_max: int
    floor: int
    window: tuple


def modulation_check(
    table: SymbolTable,
    n_max: int,
    floor: int = 8,
    window: tuple = (0.5, 2.0),
) -> ModulationReport:
    """Worst-case pairwise modulation spread over comparable wavenumbers.

    For each pair k != n with floor <= |k|, |n| <= n_max and |k|/|n| inside
    the comparability window, the minimum over tau of

        max( <(tau - lam(k)) / <k>^delta>, <(tau - lam(n)) / <n>^delta> )

    is attained where the two magnitudes coincide, giving the closed form
    <|lam(k) - lam(n)| / (<k>^delta + <n>^delta)>.  The report returns the
    minimum over pairs of that value divided by max(<k>, <n>)^{2m - delta};
    a pair whose brackets overflow gives inf, which cannot be the minimum, and
    a non-finite minimum raises DgbError.
    """
    if n_max > table.n_modes:
        raise ValueError("n_max exceeds the tabulated band")
    if not 1 <= floor <= n_max:
        raise ValueError("floor must lie in 1..n_max")
    vals = np.concatenate([np.arange(-n_max, -floor + 1), np.arange(floor, n_max + 1)])
    k = np.repeat(vals, vals.size)
    n = np.tile(vals, vals.size)
    ratio_kn = np.abs(k) / np.abs(n)
    ok = (k != n) & (ratio_kn >= window[0]) & (ratio_kn <= window[1])
    k, n = k[ok], n[ok]
    delta = table.params.delta
    bk = bracket(k) ** delta
    bn = bracket(n) ** delta
    with np.errstate(over="ignore"):
        min_max = bracket(np.abs(table.eig(k) - table.eig(n)) / (bk + bn))
        scale = np.maximum(bracket(k), bracket(n)) ** (2.0 * table.params.m - delta)
        ratios = min_max / scale
    idx = int(np.argmin(ratios))
    if not np.isfinite(ratios[idx]):
        raise DgbError(f"modulation scan overflowed: minimum ratio {ratios[idx]}")
    return ModulationReport(float(ratios[idx]), (int(k[idx]), int(n[idx])), n_max, floor, tuple(window))
