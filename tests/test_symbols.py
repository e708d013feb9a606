"""Tests for the symbol tables and the finite-range structure scans."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from dgblab.errors import DgbError
from dgblab.symbols import (
    BENJAMIN,
    ModelParams,
    SymbolTable,
    bracket,
    build_symbols,
    gap_check,
    modulation_check,
    multiplicity_scan,
    resonance_check,
)

GENERIC = ModelParams(alpha=0.7, beta=1.0, m=0.9, r=0.3, mu=0.1)


class TestModelParams:
    def test_benjamin_accepted(self):
        p = ModelParams(alpha=1.0, beta=1.0, m=1.0, r=0.5, mu=0.0, delta=1.0)
        assert p.delta_floor() == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, beta=1.0, m=1.0, r=0.5),
            dict(alpha=1.0, beta=-1.0, m=1.0, r=0.5),
            dict(alpha=1.0, beta=1.0, m=0.4, r=0.2),
            dict(alpha=1.0, beta=1.0, m=1.0, r=1.5),
            dict(alpha=1.0, beta=1.0, m=1.0, r=0.5, delta=0.0),
            dict(alpha=1.0, beta=1.0, m=1.0, r=0.5, delta=1.2),
            dict(alpha=1.0, beta=1.0, m=0.6, r=0.3, delta=0.5),
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_low_dispersion_window(self):
        # m = 0.75 forces delta > 0.5 strictly
        ModelParams(alpha=1.0, beta=1.0, m=0.75, r=0.4, delta=0.6)
        with pytest.raises(ValueError):
            ModelParams(alpha=1.0, beta=1.0, m=0.75, r=0.4, delta=0.5)


class TestSymbolTable:
    def test_benjamin_hand_values(self):
        # a(k) = -k^2 + |k|, lam(k) = k a(k)
        t = build_symbols(BENJAMIN, 10)
        assert t.eig(0) == 0.0
        assert t.eig(1) == 0.0
        assert t.eig(2) == -4.0
        assert t.eig(3) == -18.0

    def test_oddness_exact(self):
        t = build_symbols(GENERIC, 50)
        ks = np.arange(1, 51)
        assert np.array_equal(t.eig(-ks), -t.eig(ks))

    def test_symbol_growth_bound(self):
        p = GENERIC
        t = build_symbols(p, 100)
        ks = np.arange(1, 101)
        c = p.beta + p.alpha + 2 * abs(p.mu)
        assert np.all(np.abs(t.a[ks + t.n_modes]) <= c * ks.astype(float) ** (2 * p.m))

    def test_out_of_band_lookup_rejected(self):
        t = build_symbols(BENJAMIN, 5)
        with pytest.raises(ValueError):
            t.eig(6)
        for bad in (-6, np.array([0, 6]), np.array([-6, 0])):
            with pytest.raises(ValueError):
                t.eig(bad)
        assert t.eig(np.array([], dtype=int)).size == 0
        assert t.eig(np.array([-5, 5])).tolist() == [t.lam[0], t.lam[-1]]

    def test_overflow_rejected(self):
        # |k|^{2m} overflows on |k| <= 64 at m = 200, and stays finite at m = 80
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DgbError, match="not finite"):
            build_symbols(replace(BENJAMIN, m=200.0), 64)
        # the brackets of the widest pairs overflow to inf, which is not the
        # minimum, and raise no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = build_symbols(replace(BENJAMIN, m=80.0), 64)
            assert np.isfinite(t.lam).all()
            assert resonance_check(t, 64).min_ratio == 2.0
            assert modulation_check(t, 64).min_ratio == pytest.approx(1.7840161885965802, rel=1e-12)

    def test_non_finite_scan_minimum_rejected(self):
        # finite symbols whose modulation spread overflows
        with np.errstate(over="ignore"), pytest.raises(DgbError, match="modulation"):
            modulation_check(build_symbols(replace(BENJAMIN, beta=1e300), 8), 8)
        # a hand-made table with infinite lam(k) at |k| >= 3: the triple
        # (3, -4, 1) sums -inf + inf
        ks = np.arange(-4, 5)
        a = np.where(np.abs(ks) >= 3, -np.inf, -(ks**2.0) + np.abs(ks))
        t = SymbolTable(params=BENJAMIN, n_modes=4, a=a, lam=ks * a)
        with np.errstate(invalid="ignore"), pytest.raises(DgbError, match="resonance"):
            resonance_check(t, 4)


def _multiplicity_oracle(table, tol):
    """(representative, members, eigenvalue bits) per class, by scalar lookups in a loop."""
    ks, lam = table.wavenumbers, table.lam
    order = np.argsort(lam, kind="stable")
    groups, current = [], [int(ks[order[0]])]
    for prev, cur in zip(order[:-1], order[1:]):
        if lam[cur] - lam[prev] <= tol:
            current.append(int(ks[cur]))
        else:
            groups.append(current)
            current = [int(ks[cur])]
    groups.append(current)
    classes = []
    for members in groups:
        members = tuple(sorted(members))
        rep = min(members, key=lambda k: (abs(k), k))
        classes.append((rep, members, float(table.eig(rep)).hex()))
    return sorted(classes, key=lambda c: (abs(c[0]), c[0]))


def _gap_oracle(table):
    """(k, gap bits, bound bits, passed) per row, by scalar lookups in a loop."""
    p = table.params
    rows = []
    for k in range(1, table.n_modes):
        gap = float(table.eig(k) - table.eig(k + 1))
        bound = p.alpha * (p.m - p.r) * float(k) ** (2.0 * p.r)
        rows.append((k, gap.hex(), bound.hex(), gap > bound))
    return rows


class TestScansAgainstScalarLookups:
    """The scans read the table in bulk; they must give the scalar loops' results bit for bit."""

    # r = 0.3 is a case where np.power and Python's power differ in the last bit of k^{2r}
    CASES = [(BENJAMIN, 128), (replace(BENJAMIN, r=0.3, m=1.3), 64), (GENERIC, 50)]

    @pytest.mark.parametrize("params, n", CASES)
    @pytest.mark.parametrize("tol", [0.0, 1e-3, 50.0])
    def test_multiplicity_scan(self, params, n, tol):
        table = build_symbols(params, n)
        report = multiplicity_scan(table, tol)
        got = [(c.representative, c.members, c.eigenvalue.hex()) for c in report.classes]
        assert got == _multiplicity_oracle(table, tol)

    @pytest.mark.parametrize("params, n", CASES)
    def test_gap_check(self, params, n):
        table = build_symbols(params, n)
        rows = gap_check(table).rows
        assert [(r.k, r.gap.hex(), r.bound.hex(), r.passed) for r in rows] == _gap_oracle(table)
        assert all(type(r.gap) is float for r in rows)


class TestMultiplicity:
    def test_benjamin_triple_class(self):
        t = build_symbols(BENJAMIN, 10)
        rep = multiplicity_scan(t)
        triple = rep.class_of(0)
        assert triple.members == (-1, 0, 1)
        assert rep.max_multiplicity == 3
        assert rep.simple_beyond == 2
        others = [c for c in rep.classes if c.representative != 0]
        assert all(c.count == 1 for c in others)

    def test_generic_all_singletons(self):
        rep = multiplicity_scan(build_symbols(GENERIC, 50))
        assert rep.max_multiplicity == 1
        assert rep.simple_beyond == 0

    def test_partition_property(self):
        t = build_symbols(BENJAMIN, 20)
        rep = multiplicity_scan(t)
        seen = sorted(k for c in rep.classes for k in c.members)
        assert seen == list(range(-20, 21))
        for c in rep.classes:
            vals = t.eig(np.array(c.members))
            assert np.all(vals == vals[0])

    def test_tolerance_grouping(self):
        t = build_symbols(GENERIC, 30)
        exact = multiplicity_scan(t, tol=0.0)
        coarse = multiplicity_scan(t, tol=1e6)
        assert len(coarse.classes) < len(exact.classes)


class TestGapCheck:
    def test_hand_values_k10(self):
        # lam(10) = -900, lam(11) = -1210, bound 0.5 * 10
        report = gap_check(build_symbols(BENJAMIN, 20))
        row = next(r for r in report.rows if r.k == 10)
        assert row.gap == pytest.approx(310.0)
        assert row.bound == pytest.approx(5.0)
        assert row.passed

    def test_hand_values_k1(self):
        report = gap_check(build_symbols(BENJAMIN, 20))
        row = next(r for r in report.rows if r.k == 1)
        assert row.gap == pytest.approx(4.0)
        assert row.bound == pytest.approx(0.5)
        assert row.passed

    def test_threshold_exists_and_growth(self):
        for params in (BENJAMIN, GENERIC):
            report = gap_check(build_symbols(params, 200))
            assert report.threshold is not None
            assert report.threshold <= 5
            gaps = [r.gap for r in report.rows if r.k >= report.threshold]
            assert all(b > a for a, b in zip(gaps[10:], gaps[11:]))

    def test_threshold_after_a_failing_head(self):
        # a large alpha |k|^{2r} against a small beta |k|^{2m}: the gaps of k = 1..11
        # fall short of the bound, and every gap from k = 12 on clears it
        report = gap_check(build_symbols(ModelParams(alpha=3.0, beta=0.2, m=1.0, r=0.5), 64))
        assert [r.k for r in report.rows if not r.passed] == list(range(1, 12))
        assert report.threshold == 12

    def test_negative_side_by_oddness(self):
        t = build_symbols(BENJAMIN, 30)
        ks = np.arange(1, 30)
        assert np.array_equal(t.eig(-ks) - t.eig(-(ks + 1)), -(t.eig(ks) - t.eig(ks + 1)))


class TestResonance:
    def test_hand_triple(self):
        # (-3, 1, 2): |18 + 0 - 4| / (3^2 * 1) = 14/9
        t = build_symbols(BENJAMIN, 10)
        rep = resonance_check(t, 3, a_threshold=3)
        vals = t.eig(np.array([-3, 1, 2]))
        assert abs(vals.sum()) / 9.0 == pytest.approx(14.0 / 9.0)
        assert rep.min_ratio > 0

    def test_zero_factor_triples_excluded(self):
        t = build_symbols(BENJAMIN, 10)
        rep = resonance_check(t, 10, a_threshold=1)
        assert 0 not in rep.witness
        assert sum(rep.witness) == 0

    def test_positive_minimum_and_monotone_in_range(self):
        t = build_symbols(BENJAMIN, 64)
        prev = None
        for n_max in (8, 16, 32, 64):
            rep = resonance_check(t, n_max, a_threshold=8)
            assert rep.min_ratio > 0
            if prev is not None:
                assert rep.min_ratio <= prev + 1e-15
            prev = rep.min_ratio

    def test_empty_scan_rejected(self):
        t = build_symbols(BENJAMIN, 4)
        with pytest.raises(ValueError):
            resonance_check(t, 2, a_threshold=50)


class TestModulation:
    def test_hand_pair(self):
        # pair (10, 11): min-max = <310 / (<10> + <11>)>, scale <11>^{2m - delta}
        t = build_symbols(BENJAMIN, 20)
        rep = modulation_check(t, 11, floor=10)
        mm = bracket(310.0 / (bracket(10) + bracket(11)))
        expected = mm / bracket(11)
        got = modulation_check(t, 11, floor=10)
        assert got.min_ratio <= expected + 1e-12
        assert abs(expected - 1.33) < 0.01

    def test_min_max_at_least_one(self):
        t = build_symbols(GENERIC, 40)
        rep = modulation_check(t, 40, floor=4)
        # the bracket of anything is >= 1, so ratio * scale >= 1
        k, n = rep.witness
        scale = max(bracket(k), bracket(n)) ** (2 * GENERIC.m - GENERIC.delta)
        assert rep.min_ratio * scale >= 1.0

    def test_excludes_equal_wavenumbers(self):
        t = build_symbols(BENJAMIN, 16)
        rep = modulation_check(t, 16, floor=8)
        assert rep.witness[0] != rep.witness[1]

    def test_comparability_window_respected(self):
        t = build_symbols(BENJAMIN, 32)
        rep = modulation_check(t, 32, floor=8, window=(0.5, 2.0))
        k, n = rep.witness
        assert 0.5 <= abs(k) / abs(n) <= 2.0
