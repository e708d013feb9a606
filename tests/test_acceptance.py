"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here, not configurable.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from dgblab.cli import parse_config, run
from dgblab.control import (
    ControlProblem,
    biorthogonal_family,
    linear_control_global_modal,
    linear_control_gramian,
    nonlinear_control_global,
    observability_constant,
)
from dgblab.damping import (
    apply_feedback,
    decomposition_residual,
    dissipation_equivalence,
    dissipation_form,
    make_profile_bump,
    make_profile_global,
)
from dgblab.dynamics import (
    build_closed_loop,
    decay_fit,
    linear_propagate,
    linear_trajectory,
    semigroup_apply,
    simulate,
)
from dgblab.spectral import (
    constant_field,
    cosine_field,
    l2_inner,
    l2_norm,
    random_field,
)
from dgblab.symbols import (
    BENJAMIN,
    ModelParams,
    build_symbols,
    gap_check,
    multiplicity_scan,
    resonance_check,
)

FOUR_PI_SQ = 4.0 * np.pi**2
D1 = 1.0 / FOUR_PI_SQ

GENERIC_A = ModelParams(alpha=0.7, beta=1.0, m=0.9, r=0.3, mu=0.1, delta=1.0)
GENERIC_B = ModelParams(alpha=2.0, beta=0.5, m=1.5, r=0.6, mu=-0.3, delta=0.8)

# regression baselines: minimum resonance ratios at n_max=64, threshold 8
RESONANCE_BASELINES = {
    "benjamin": 1.375,
    "generic_a": 1.3863670545972653,
    "generic_b": 0.821502336804753,
}


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_decomposition_identity():
    started = time.perf_counter()
    profiles = {
        "global": make_profile_global(1.0),
        "bump": make_profile_bump(np.pi / 2, 3 * np.pi / 2, 64, delta=1.0),
    }
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(100):
        v = random_field(64, rng, decay=0.3 + 0.02 * (i % 10))
        for profile in profiles.values():
            worst = max(worst, decomposition_residual(profile, v))
    elapsed = time.perf_counter() - started
    report(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"split residual {worst:.2e} <= 1e-10 over 100 fields x 2 profiles in {elapsed:.1f}s",
    )


def test_criterion_02_dissipativity_and_contraction():
    rng = np.random.default_rng(7)
    profiles = [make_profile_global(1.0), make_profile_bump(np.pi / 2, 3 * np.pi / 2, 32, delta=1.0)]
    worst_identity = 0.0
    for profile in profiles:
        for _ in range(10):
            v = random_field(24, rng, mean_zero=False)
            lhs = l2_inner(apply_feedback(profile, v), v)
            rhs = dissipation_form(profile, v)
            worst_identity = max(worst_identity, abs(lhs - rhs) / max(rhs, 1e-300))

    grid = np.arange(0.0, 10.0 + 1e-12, 0.1)
    table = build_symbols(BENJAMIN, 32)
    v0 = random_field(32, rng)
    semi_norms = [l2_norm(semigroup_apply(table, profiles[1], v0, t)) for t in grid]
    semi_ok = all(b <= a + 1e-12 for a, b in zip(semi_norms, semi_norms[1:]))

    loop_ok = True
    for profile in profiles:
        loop = build_closed_loop(table, profile, 24)
        rec = linear_trajectory(loop, random_field(24, rng), 10.0, 0.1)
        loop_ok &= bool(np.all(np.diff(rec.l2norms) <= 1e-12))

    report(
        2,
        worst_identity <= 1e-12 and semi_ok and loop_ok,
        f"pairing identity defect {worst_identity:.2e} <= 1e-12; "
        f"semigroup and closed-loop norms non-increasing on t = 0..10",
    )


def test_criterion_03_symbol_equivalence():
    bump = make_profile_bump(np.pi / 2, 3 * np.pi / 2, 64, delta=1.0)
    c, big_c = dissipation_equivalence(bump, 256)
    global_ok = True
    for delta in (1.0, 0.6):
        p = make_profile_global(delta)
        ks = np.arange(1, 257)
        err = np.abs(p.d_symbol(ks) - ks.astype(float) ** delta / FOUR_PI_SQ).max()
        global_ok &= err <= 1e-14
    report(
        3,
        c > 0 and big_c >= c and global_ok,
        f"bump d(k)/<k>^delta in [{c:.6f}, {big_c:.6f}] with c > 0; "
        f"global profile matches |k|^delta/(4 pi^2) to 1e-14",
    )


def test_criterion_04_eigenvalue_structure():
    table = build_symbols(BENJAMIN, 200)
    rep = multiplicity_scan(table)
    triple = rep.class_of(0)
    triple_ok = triple.members == (-1, 0, 1) and rep.max_multiplicity == 3

    rng = np.random.default_rng(99)
    sweep_max = 0
    for _ in range(50):
        m = rng.uniform(0.55, 2.5)
        params = ModelParams(
            alpha=rng.uniform(0.2, 3.0),
            beta=rng.uniform(0.2, 3.0),
            m=m,
            r=rng.uniform(0.1, 0.9) * m,
            mu=rng.uniform(-2.0, 2.0),
            delta=min(1.0, max(0.0, 2.0 - 2.0 * m) + 0.1),
        )
        sweep_max = max(sweep_max, multiplicity_scan(build_symbols(params, 60)).max_multiplicity)

    gaps = gap_check(table)
    gap_ok = gaps.threshold is not None and gaps.threshold <= 5
    report(
        4,
        triple_ok and sweep_max <= 5 and gap_ok,
        f"class (-1, 0, 1) found exactly; sweep max multiplicity {sweep_max} <= 5; "
        f"gap threshold {gaps.threshold} <= 5",
    )


def test_criterion_05_resonance_lemma():
    results = {}
    for name, params in (
        ("benjamin", BENJAMIN),
        ("generic_a", GENERIC_A),
        ("generic_b", GENERIC_B),
    ):
        table = build_symbols(params, 64)
        results[name] = resonance_check(table, 64, a_threshold=8).min_ratio
    positive = all(v > 0 for v in results.values())
    stable = all(
        results[k] == pytest.approx(RESONANCE_BASELINES[k], rel=1e-9) for k in results
    )
    report(
        5,
        positive and stable,
        "min ratios "
        + ", ".join(f"{k}={v:.6f}" for k, v in results.items())
        + " all positive and at recorded baselines",
    )


def test_criterion_06_energy_identity():
    started = time.perf_counter()
    table = build_symbols(BENJAMIN, 64)
    profile = make_profile_global(1.0)
    v0 = cosine_field(64, 1, 0.1)
    rec_coarse = simulate(table, profile, v0, 2.0, 1e-4, record_every=2000)
    rec_fine = simulate(table, profile, v0, 2.0, 5e-5, record_every=2000)
    worst_coarse = float(np.nanmax(np.abs(rec_coarse.energy_residuals)))
    worst_fine = float(np.nanmax(np.abs(rec_fine.energy_residuals)))
    elapsed = time.perf_counter() - started
    report(
        6,
        worst_coarse <= 1e-6 and worst_coarse >= 8.0 * worst_fine and elapsed < 60.0,
        f"residual {worst_coarse:.2e} <= 1e-6 at dt=1e-4; halving dt gives "
        f"{worst_fine:.2e} ({worst_coarse / worst_fine:.1f}x reduction) in {elapsed:.1f}s",
    )


def test_criterion_07_mean_invariance():
    profile = make_profile_global(1.0)
    u0 = constant_field(32, 0.3) + cosine_field(32, 1, 0.1)
    rec = simulate(build_symbols(replace(BENJAMIN, mu=0.3), 32), profile, u0, 5.0, 1e-3, record_every=100)
    drift = float(np.abs(rec.means - 0.3).max())
    report(7, drift <= 1e-10, f"mean drift {drift:.2e} <= 1e-10 over t = 0..5")


def test_criterion_08_linear_decay_rate():
    table = build_symbols(BENJAMIN, 32)
    profile_g = make_profile_global(1.0)
    loop_g = build_closed_loop(table, profile_g, 16)
    rec_g = linear_trajectory(loop_g, cosine_field(16, 1), 200.0, 0.5)
    fit_g = decay_fit(rec_g, (50.0, 200.0))
    global_ok = abs(fit_g.rate - D1) <= 0.01 * D1

    profile_b = make_profile_bump(np.pi / 2, 3 * np.pi / 2, 32, delta=1.0)
    loop_b = build_closed_loop(table, profile_b, 32)
    rec_b = linear_trajectory(loop_b, cosine_field(32, 1), 600.0, 0.5)
    fit_b = decay_fit(rec_b, (300.0, 600.0))
    target = -loop_b.spectral_abscissa
    bump_ok = abs(fit_b.rate - target) <= 0.1 * target
    abscissa_ok = loop_g.spectral_abscissa < 0 and loop_b.spectral_abscissa < 0
    report(
        8,
        global_ok and bump_ok and abscissa_ok,
        f"global rate {fit_g.rate:.6f} vs 1/(4 pi^2) = {D1:.6f} (within 1%); "
        f"bump rate {fit_b.rate:.6f} vs abscissa {target:.6f} (within 10%); abscissae < 0",
    )


def test_criterion_09_nonlinear_local_stabilization():
    table = build_symbols(BENJAMIN, 32)
    profile = make_profile_global(1.0)
    lin_rec = linear_trajectory(build_closed_loop(table, profile, 32), cosine_field(32, 1, 1e-3), 200.0, 0.5)
    lin_rate = decay_fit(lin_rec, (70.0, 200.0)).rate

    amplitudes = (1e-3, 1e-2, 1e-1)
    ratios = {}
    for amp in amplitudes:
        rec = simulate(table, profile, cosine_field(32, 1, amp), 200.0, 1e-2, record_every=50)
        fit = decay_fit(rec, (70.0, 200.0))
        monotone = bool(np.all(np.diff(rec.l2norms) <= 1e-10))
        ratios[amp] = (fit.rate / lin_rate, monotone)
    ok = all(r >= 0.9 and mono for r, mono in ratios.values())
    radius = max((a for a, (r, m) in ratios.items() if r >= 0.9 and m), default=0.0)
    report(
        9,
        ok,
        "rate/linear-rate per amplitude: "
        + ", ".join(f"{a:g} -> {r:.4f}" for a, (r, _) in ratios.items())
        + f"; empirical smallness radius >= {radius:g}",
    )


def test_criterion_10_linear_exact_control():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    bump = make_profile_bump(np.pi / 2, 3 * np.pi / 2, 32, delta=1.0)
    v0 = random_field(16, rng, decay=1.5)
    v1 = random_field(16, rng, decay=1.5)
    sol_b = linear_control_gramian(ControlProblem(BENJAMIN, bump, 16, 1.0, v0, v1))

    profile_g = make_profile_global(1.0)
    prob_g = ControlProblem(BENJAMIN, profile_g, 16, 1.0, v0, v1)
    sol_matrix = linear_control_gramian(prob_g)
    sol_modal = linear_control_global_modal(prob_g)
    gap = max(l2_norm(a - b) for a, b in zip(sol_matrix.fields, sol_modal.fields))
    elapsed = time.perf_counter() - started
    report(
        10,
        sol_b.terminal_error <= 1e-6 and sol_b.info["gramian_residual"] <= 1e-6 and gap <= 1e-8 and elapsed < 120.0,
        f"bump steering certified at {sol_b.terminal_error:.2e} <= 1e-6 "
        f"(Gramian residual {sol_b.info['gramian_residual']:.2e} <= 1e-6); "
        f"global matrix-vs-modal gap {gap:.2e} <= 1e-8 in {elapsed:.1f}s",
    )


def test_criterion_11_nonlinear_exact_control():
    profile = make_profile_global(1.0)
    errors = {}
    for n, dt in ((64, 1e-2), (128, 5e-3)):
        u0 = cosine_field(n, 1, 0.05)
        u1 = cosine_field(n, 2, 0.05)
        sol = nonlinear_control_global(ControlProblem(BENJAMIN, profile, n, 1.0, u0, u1), dt=dt)
        errors[n] = sol.terminal_error
    report(
        11,
        errors[64] <= 1e-6 and errors[128] < errors[64],
        f"terminal error {errors[64]:.2e} <= 1e-6 at n=64, falling to {errors[128]:.2e} at n=128",
    )


def test_criterion_12_observability():
    table = build_symbols(BENJAMIN, 32)
    results = {}
    ok = True
    for name, profile in (
        ("global", make_profile_global(1.0)),
        ("bump", make_profile_bump(np.pi / 2, 3 * np.pi / 2, 32, delta=1.0)),
    ):
        rep = observability_constant(table, profile, 1.0, 32)
        loop = build_closed_loop(table, profile, 32)
        after = linear_propagate(loop, rep.worst_mode, 1.0)
        cert = l2_norm(after) ** 2 <= rep.rho * l2_norm(rep.worst_mode) ** 2 + 1e-10
        ok &= np.isfinite(rep.c_obs) and rep.c_obs > 2.0 and cert
        results[name] = rep.c_obs
    closed = 2.0 / (1.0 - np.exp(-2.0 * D1))
    ok &= abs(results["global"] - closed) <= 1e-8 * closed
    report(
        12,
        bool(ok),
        f"c_obs global {results['global']:.4f} (closed form {closed:.4f}), "
        f"bump {results['bump']:.1f}; both > 2 with worst-mode contraction certified",
    )


def test_criterion_13_biorthogonality():
    table = build_symbols(BENJAMIN, 10)
    fam = biorthogonal_family(table, (2, 3, 4, 5, 6), 1.0)
    defect = float(np.abs(fam.pairing_matrix() - np.eye(5)).max())
    report(13, defect <= 1e-8, f"5-mode pairing matrix within {defect:.2e} of the identity")


def test_criterion_14_determinism(tmp_path):
    text = (
        "experiment = stabilize\ngrid.n = 16\ntime.dt = 0.005\ntime.t_final = 30.0\n"
        "record.every = 20\ninit.kind = random\ninit.amplitude = 0.01\nseed = 42\n"
        "fit.t0 = 10.0\nfit.t1 = 30.0\n"
    )
    summaries, bodies = [], []
    for sub in ("one", "two"):
        run(parse_config(text), out_dir=tmp_path / sub)
        summaries.append(json.loads((tmp_path / sub / "manifest.json").read_text())["summary"])
        bodies.append((tmp_path / sub / "trajectory.csv").read_bytes())
    scalars_ok = all(
        (
            summaries[0][k] == summaries[1][k]
            if isinstance(summaries[0][k], str)
            else abs(summaries[0][k] - summaries[1][k]) <= 1e-10 * max(1.0, abs(summaries[0][k]))
        )
        for k in summaries[0]
    )
    report(
        14,
        scalars_ok and bodies[0] == bodies[1],
        "rerun reproduces manifest scalars to 1e-10 and identical CSV bytes",
    )
