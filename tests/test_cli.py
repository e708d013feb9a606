"""Tests for config parsing, experiment dispatch, and stable emission."""

import ast
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import tomllib
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgblab
from dgblab.cli import _KEYS, EXPERIMENTS, RunConfig, main, parse_config, run, write_csv
from dgblab.damping import make_profile_bump
from dgblab.dynamics import build_closed_loop
from dgblab.errors import ConfigError
from dgblab.spectral import conjugate_extend, mean
from dgblab.symbols import BENJAMIN, ModelParams, build_symbols

BENJAMIN_CFG = """
# canonical parameter set
experiment = lemmas
params.alpha = 1.0
params.beta = 1.0
params.m = 1.0
params.r = 0.5
params.mu = 0.0
params.delta = 1.0
grid.n = 64
"""

STABILIZE_CFG = """
experiment = stabilize
grid.n = 16
time.dt = 0.005
time.t_final = 40.0
record.every = 20
init.kind = cosine
init.mode = 1
init.amplitude = 0.01
fit.t0 = 10.0
fit.t1 = 40.0
seed = 3
"""


class TestParseConfig:
    def test_benjamin_accepted(self):
        cfg = parse_config(BENJAMIN_CFG)
        assert cfg.experiment == "lemmas"
        assert cfg.params.m == 1.0
        assert cfg["grid.n"] == 64

    def test_small_dispersion_rejected(self):
        with pytest.raises(ConfigError, match="m must exceed 1/2"):
            parse_config(BENJAMIN_CFG.replace("params.m = 1.0", "params.m = 0.4"))

    def test_delta_window_rejected(self):
        text = BENJAMIN_CFG.replace("params.m = 1.0", "params.m = 0.6").replace(
            "params.delta = 1.0", "params.delta = 0.5"
        ).replace("params.r = 0.5", "params.r = 0.3")
        with pytest.raises(ConfigError, match="delta must satisfy"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(BENJAMIN_CFG + "\nwibble.factor = 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("experiment = lemmas\nnot a key value line\n")

    def test_experiment_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="requested"):
            parse_config(BENJAMIN_CFG, experiment="simulate")

    def test_overrides_win(self):
        cfg = parse_config(BENJAMIN_CFG, overrides=["grid.n=32", "seed=9"])
        assert cfg["grid.n"] == 32
        assert cfg["seed"] == 9

    def test_defaults_applied(self):
        cfg = parse_config("experiment = simulate\n")
        assert cfg["grid.n"] == 128
        assert cfg["time.dt"] == 1e-3
        assert cfg["profile.kind"] == "global"


class TestRun:
    def test_lemmas_artifacts(self, tmp_path):
        cfg = parse_config(BENJAMIN_CFG)
        result = run(cfg, out_dir=tmp_path / "lem")
        summary = result["summary"]
        assert summary["max_multiplicity"] == 3
        assert summary["resonance_min_ratio"] > 0
        for name in (
            "manifest.json",
            "lemma_gap.csv",
            "lemma_multiplicity.csv",
            "lemma_resonance.csv",
            "lemma_modulation.csv",
        ):
            assert (tmp_path / "lem" / name).exists()
        manifest = json.loads((tmp_path / "lem" / "manifest.json").read_text())
        assert manifest["experiment"] == "lemmas"
        assert manifest["config"]["params.alpha"] == 1.0

    @pytest.mark.parametrize("n_max, sizes", [(4, [4]), (12, [8, 12]), (16, [8, 16])])
    def test_resonance_scan_ends_at_n_max(self, tmp_path, n_max, sizes):
        # one scan per size; the last, at n_max, is the summary's
        out = tmp_path / "lem"
        summary = run(parse_config("", "lemmas", ["grid.n=16", f"lemmas.n_max={n_max}"]), out_dir=out)["summary"]
        rows = [line.split(",") for line in (out / "lemma_resonance.csv").read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == sizes
        assert float(rows[-1][2]) == summary["resonance_min_ratio"]
        assert [int(k) for k in rows[-1][3:]] == [summary[f"resonance_witness_k{i}"] for i in (1, 2, 3)]

    def test_params_mu_is_the_state_mean(self, tmp_path, monkeypatch):
        # simulate starts from the drawn field plus params.mu, and control-nonlinear
        # steers between cosines that both carry it
        run(parse_config("", "simulate", ["params.mu=0.3", "grid.n=8", "time.t_final=0.1"]), out_dir=tmp_path / "sim")
        initial = json.loads((tmp_path / "sim" / "snapshots.json").read_text())["initial"]
        assert initial["state"]["coeffs"][0] == [0.3, 0.0]

        problems = []
        steer = dgblab.cli.nonlinear_control_global
        monkeypatch.setattr(
            dgblab.cli, "nonlinear_control_global", lambda problem, **kw: problems.append(problem) or steer(problem, **kw)
        )
        cfg = parse_config("", "control-nonlinear", ["params.mu=0.3", "grid.n=16"])
        assert run(cfg, out_dir=tmp_path / "cnl")["summary"]["terminal_error"] <= 1e-6
        (problem,) = problems
        assert mean(problem.v0) == mean(problem.v1) == 0.3

    def test_large_mean_steers(self, tmp_path):
        # the certificate steps the mean's drift 2 mu d/dx exactly, so a mean of
        # 30 at grid.n = 64 does not blow up at the default control.dt = 0.01
        args = ["control-nonlinear", "--override", "params.mu=30", "--override", "grid.n=64"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args + ["--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["summary"]["terminal_error"] <= 1e-6

    def test_gap_threshold_after_a_failing_head(self, tmp_path):
        # the gaps of k = 1..11 fall short of the bound at these parameters
        overrides = ["params.alpha=3", "params.beta=0.2", "params.m=1", "params.r=0.5", "grid.n=64"]
        summary = run(parse_config("", "lemmas", overrides), out_dir=tmp_path / "lem")["summary"]
        assert summary["gap_threshold"] == 12

    def test_stabilize_rate_matches_abscissa(self, tmp_path):
        cfg = parse_config(STABILIZE_CFG)
        summary = run(cfg, out_dir=tmp_path / "stab")["summary"]
        assert abs(summary["rate_over_abscissa"] - 1.0) < 0.1
        assert summary["mean_drift"] <= 1e-10
        assert (tmp_path / "stab" / "trajectory.csv").exists()
        assert (tmp_path / "stab" / "profile.json").exists()

    def test_stabilize_abscissa_is_the_stepped_loops(self, tmp_path):
        # the run's drift is that of its mean, params.mu
        cfg = parse_config(
            "experiment = stabilize\nprofile.kind = bump\nprofile.modes = 32\n"
            "grid.n = 8\nparams.mu = 0.3\ntime.t_final = 0.1\n"
        )
        run(cfg, out_dir=tmp_path / "stab")
        summary = json.loads((tmp_path / "stab" / "manifest.json").read_text())["summary"]
        profile = make_profile_bump(np.pi / 2, 3 * np.pi / 2, 32, 1.0)
        loop = build_closed_loop(build_symbols(replace(BENJAMIN, mu=0.3), 8), profile, 8)
        assert summary["spectral_abscissa"] == pytest.approx(loop.spectral_abscissa, rel=1e-8)

    def test_determinism_yields_identical_artifacts(self, tmp_path):
        for sub in ("a", "b"):
            run(parse_config(STABILIZE_CFG), out_dir=tmp_path / sub)
        csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        csv_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert csv_a == csv_b
        sum_a = json.loads((tmp_path / "a" / "manifest.json").read_text())["summary"]
        sum_b = json.loads((tmp_path / "b" / "manifest.json").read_text())["summary"]
        assert sum_a == sum_b

    def test_observability_experiment(self, tmp_path):
        cfg = parse_config(
            "experiment = observability\ngrid.n = 8\ntime.t_final = 1.0\n"
        )
        summary = run(cfg, out_dir=tmp_path / "obs")["summary"]
        assert summary["c_obs"] > 2.0
        assert summary["gamma_gramian"] <= summary["gamma_abscissa"] + 1e-10

    def test_control_nonlinear_experiment(self, tmp_path):
        cfg = parse_config(
            "experiment = control-nonlinear\ngrid.n = 32\ntime.t_final = 1.0\ncontrol.dt = 0.01\n"
        )
        summary = run(cfg, out_dir=tmp_path / "cnl")["summary"]
        assert summary["terminal_error"] < 1e-6
        assert (tmp_path / "cnl" / "control.csv").exists()


class TestMainEntry:
    def test_exit_zero_on_success(self, tmp_path, capsys):
        code = main(
            [
                "lemmas",
                "--out",
                str(tmp_path / "ok"),
                "--override",
                "grid.n=32",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max_multiplicity" in out

    def test_exit_two_on_validation_failure(self, tmp_path, capsys):
        code = main(
            [
                "lemmas",
                "--out",
                str(tmp_path / "bad"),
                "--override",
                "params.m=0.2",
            ]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            ("simulate", ["init.mode=500"]),
            ("simulate", ["grid.n=8", "init.mode=0"]),
            ("control-nonlinear", ["grid.n=8", "control.u0_mode=9"]),
            ("control-nonlinear", ["grid.n=8", "control.u1_mode=9"]),
            ("lemmas", ["lemmas.n_max=0"]),
            ("lemmas", ["lemmas.n_max=1"]),
            ("lemmas", ["lemmas.floor=0"]),
            ("simulate", ["time.dt=nan"]),
            ("simulate", ["time.t_final=inf"]),
            ("control-nonlinear", ["control.dt=0"]),
            ("control-nonlinear", ["control.dt=-1"]),
            ("lemmas", ["lemmas.tol=-1"]),
            ("stabilize", ["fit.t0=5", "fit.t1=6", "time.t_final=0.1"]),
            ("simulate", ["profile.kind=bump", "profile.a=4", "profile.b=1"]),
            ("simulate", ["profile.kind=bump", "profile.modes=0"]),
            ("simulate", ["seed=-1"]),
            ("stabilize", ["seed=-1"]),
            ("control-linear", ["seed=-1"]),
            ("control-nonlinear", ["profile.kind=bump", "grid.n=16"]),
            # the zero state has no decay rate to fit
            ("stabilize", ["init.amplitude=0", "time.t_final=0.1"]),
            # random fields whose largest coefficient scale overflows
            ("simulate", ["init.kind=random", "init.decay=-400"]),
            ("control-linear", ["control.decay=-400"]),
            # the mean has one key, params.mu
            ("stabilize", ["grid.n=8", "init.mean=0.3"]),
            ("lemmas", ["grid.n=3"]),
        ],
    )
    def test_exit_two_on_out_of_range_key(self, tmp_path, capsys, experiment, overrides):
        args = [experiment, "--out", str(tmp_path / "bad")]
        for item in overrides:
            args += ["--override", item]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "experiment, key",
        [
            ("simulate", "fit.t0=1"),
            ("stabilize", "control.dt=0.01"),
            ("control-linear", "init.mode=2"),
            ("control-nonlinear", "profile.a=1"),
            ("control-nonlinear", "profile.kind=global"),
            ("observability", "time.dt=1e-3"),
            ("lemmas", "time.t_final=1"),
        ],
    )
    def test_exit_two_on_ignored_key(self, tmp_path, capsys, experiment, key):
        out = tmp_path / "ignored"
        parse_config("", experiment, ["seed=3", f"out={out}"])
        assert main([experiment, "--out", str(out), "--override", key]) == 2
        err = capsys.readouterr().err
        assert f"config error: {experiment} does not read {key.split('=')[0]}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [["init.amplitude=0", "time.t_final=0.1"], ["fit.t0=5", "fit.t1=6", "time.t_final=0.1"]],
        ids=["zero-state", "window-past-end"],
    )
    def test_unusable_fit_leaves_no_artifact(self, tmp_path, capsys, overrides):
        # rejected before the integration or the first artifact, without warnings
        out = tmp_path / "stab"
        args = ["stabilize", "--out", str(out)]
        for item in overrides:
            args += ["--override", item]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "{missing}"],
            ["sweep", "--configs", "{missing}"],
            ["sweep", "--configs", "{a}", "{b}"],
        ],
        ids=["missing-config", "sweep-missing-config", "sweep-same-stem"],
    )
    def test_exit_two_on_unusable_config_source(self, tmp_path, capsys, argv):
        paths = {
            "missing": tmp_path / "missing.cfg",
            "a": tmp_path / "a" / "lemmas.cfg",
            "b": tmp_path / "b" / "lemmas.cfg",
        }
        for key in ("a", "b"):
            paths[key].parent.mkdir()
            paths[key].write_text(BENJAMIN_CFG.replace("grid.n = 64", "grid.n = 8"))
        out = tmp_path / "out"
        assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, overrides, says",
        [
            # finite endpoints whose steering certificate overflows
            ("control-linear", ["grid.n=8", "control.amplitude=1e300"], "non-finite steering certificate"),
            # |k|^{2m} overflows on the band
            ("lemmas", ["params.m=200", "grid.n=64"], "symbols overflow"),
            # finite symbols whose modulation spread overflows
            ("lemmas", ["params.beta=1e300", "grid.n=8"], "modulation scan overflowed"),
            # the fixed-step re-simulation misses the steering bound at this amplitude
            (
                "control-nonlinear",
                ["grid.n=64", "control.u0_amplitude=20", "control.u1_amplitude=20"],
                "steering certificate 0.655 exceeds 1e-06 at control.dt = 0.01",
            ),
            # a horizon too short to steer the truncated system
            (
                "control-linear",
                ["grid.n=8", "profile.kind=bump", "time.t_final=1e-6"],
                "Gramian numerically singular",
            ),
        ],
        ids=[
            "nonfinite-certificate",
            "symbol-overflow",
            "modulation-overflow",
            "failed-certificate",
            "singular-gramian",
        ],
    )
    def test_exit_three_on_numerical_failure(self, tmp_path, capsys, experiment, overrides, says):
        out = tmp_path / "num"
        args = [experiment, "--out", str(out)]
        for item in overrides:
            args += ["--override", item]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert says in err
        assert "Traceback" not in err
        # every file is written after the computation, so a failed run leaves none
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "experiment, overrides, says",
        [
            ("lemmas", ["params.m=200", "grid.n=64"], "symbols overflow"),
            ("control-linear", ["grid.n=8", "control.amplitude=1e300"], "non-finite steering certificate"),
        ],
        ids=["symbol-overflow", "nonfinite-certificate"],
    )
    def test_exit_three_without_runtime_warning(self, tmp_path, capsys, experiment, overrides, says):
        args = [experiment, "--out", str(tmp_path / "num")]
        for item in overrides:
            args += ["--override", item]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert says in err
        assert "RuntimeWarning" not in err

    def test_coarse_bump_band_runs(self, tmp_path, capsys):
        # a 16-mode band around the half-circle bump: |q|^2 is nonnegative on every band
        args = ["observability", "--out", str(tmp_path / "coarse")]
        for item in ["profile.kind=bump", "profile.modes=16", "grid.n=8"]:
            args += ["--override", item]
        assert main(args) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_floating_point_fault_exits_three(self, tmp_path, capsys, monkeypatch):
        def faulty(cfg):
            assert np.float64(1e-300) * 1e-300 == 0.0  # underflow stays quiet
            return {"overflow": float(np.float64(1e300) * 1e300)}, {}

        monkeypatch.setitem(dgblab.cli._RUNNERS, "lemmas", faulty)
        assert main(["lemmas", "--out", str(tmp_path / "fpe")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: overflow" in err
        assert "Traceback" not in err

    def test_exit_two_on_unusable_out(self, tmp_path, capsys):
        cfg = tmp_path / "lemmas.cfg"
        cfg.write_text(BENJAMIN_CFG.replace("grid.n = 64", "grid.n = 8"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out in (blocker, blocker / "sub"):
            for argv in (["lemmas", "--config", str(cfg)], ["sweep", "--configs", str(cfg)]):
                assert main(argv + ["--out", str(out)]) == 2
                err = capsys.readouterr().err
                assert "config error" in err
                assert "Traceback" not in err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize(
        "experiment, taken",
        [("observability", "profile.json"), ("lemmas", "manifest.json.tmp")],
        ids=["artifact", "manifest"],
    )
    def test_exit_two_on_unwritable_artifact(self, tmp_path, capsys, experiment, taken):
        # a directory in the place of a file the run writes
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        (out / "notes.txt").write_text("not this run's\n")
        assert main([experiment, "--override", "grid.n=8", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot write" in err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()
        # the artifacts written before the failed write are removed; what the
        # run did not write stays
        assert sorted(p.name for p in out.iterdir()) == sorted([taken, "notes.txt"])

    def test_failed_run_removes_an_earlier_manifest(self, tmp_path, capsys):
        # a manifest left by an earlier run would read as the failed run's success
        out = str(tmp_path / "o")
        assert main(["lemmas", "--override", "grid.n=8", "--out", out]) == 0
        assert (tmp_path / "o" / "manifest.json").exists()
        failing = ["lemmas", "--override", "params.beta=1e300", "--override", "grid.n=8", "--out", out]
        assert main(failing) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_control_linear_bump_stays_real(self, tmp_path, capsys):
        # at n=24 the complex-form control carried rounding asymmetry past the real-field tolerance
        code = main(
            [
                "control-linear",
                "--seed",
                "5",
                "--out",
                str(tmp_path / "steer"),
                "--override",
                "profile.kind=bump",
                "--override",
                "grid.n=24",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        manifest = json.loads((tmp_path / "steer" / "manifest.json").read_text())
        assert manifest["summary"]["terminal_error"] <= 1e-6

    def test_control_nonlinear_from_rest(self, tmp_path, capsys):
        # a forced run from v0 = 0 used to count its first step as a blow-up (exit 3)
        code = main(
            [
                "control-nonlinear",
                "--out",
                str(tmp_path / "rest"),
                "--override",
                "grid.n=16",
                "--override",
                "control.u0_amplitude=0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        manifest = json.loads((tmp_path / "rest" / "manifest.json").read_text())
        assert manifest["summary"]["terminal_error"] <= 1e-6

    def test_config_file_and_seed_flag(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(STABILIZE_CFG)
        code = main(
            ["stabilize", "--config", str(path), "--out", str(tmp_path / "run"), "--seed", "7"]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7

    def test_sweep_runs_all_configs(self, tmp_path):
        cfg_a = tmp_path / "lemmas_a.cfg"
        cfg_a.write_text(BENJAMIN_CFG)
        cfg_b = tmp_path / "lemmas_b.cfg"
        cfg_b.write_text(BENJAMIN_CFG.replace("grid.n = 64", "grid.n = 32"))
        code = main(
            [
                "sweep",
                "--configs",
                str(cfg_a),
                str(cfg_b),
                "--out",
                str(tmp_path / "sweep"),
            ]
        )
        assert code == 0
        for stem in ("lemmas_a", "lemmas_b"):
            assert (tmp_path / "sweep" / stem / "manifest.json").exists()

    def test_sweep_rejects_a_config_that_sets_out(self, tmp_path, capsys):
        # the sweep sets each run's directory, so a config's own out is rejected before the first run
        first = tmp_path / "first.cfg"
        first.write_text(BENJAMIN_CFG.replace("grid.n = 64", "grid.n = 8"))
        elsewhere = tmp_path / "elsewhere"
        second = tmp_path / "second.cfg"
        second.write_text(first.read_text() + f"out = {elsewhere}\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--configs", str(first), str(second), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(second) in err
        assert not out.exists() and not elsewhere.exists()

    def test_sweep_ends_at_a_failing_run(self, tmp_path, capsys):
        # the configs run in the order given, and the first failure is the sweep's exit code
        texts = {"a": BENJAMIN_CFG, "b": BENJAMIN_CFG + "params.m = 200\n", "c": BENJAMIN_CFG}
        for stem, text in texts.items():
            (tmp_path / f"{stem}.cfg").write_text(text)
        argv = ["sweep", "--configs"] + [str(tmp_path / f"{stem}.cfg") for stem in texts]
        assert main(argv + ["--out", str(tmp_path / "sweep")]) == 3
        assert "done: a\n" == capsys.readouterr().out
        assert (tmp_path / "sweep" / "a" / "manifest.json").exists()
        assert not (tmp_path / "sweep" / "c").exists()


# the free keys an experiment reads, drawn on top of the experiment, grid and
# horizon: (in-range values, out-of-range ones).  In range is within the key's
# own rule (every in-range profile.a is below every in-range profile.b; the fit
# window's order also depends on the horizon); out of range is non-finite,
# negative, zero, outside that rule, or large enough to overflow
_FREE_KEYS = {
    "time.t_final": (["1e-9"], ["0", "-0.1", "nan", "inf"]),
    "time.dt": (["1e-3", "5e-3"], ["0", "-1e-3", "nan", "inf", "-inf"]),
    "control.dt": (["1e-2"], ["0", "-1", "nan", "inf"]),
    "record.every": (["1", "5"], ["0", "-3"]),
    "init.kind": (["cosine", "random"], ["other"]),
    "init.mode": (["1", "3"], ["0", "-2", "99"]),
    "init.amplitude": (["0.05", "0", "-0.1"], ["1e300", "nan"]),
    "profile.kind": (["global", "bump"], ["other"]),
    "profile.modes": (["16", "32"], ["0", "-1"]),
    "profile.a": (["0", "1.5", "4"], ["-1", "nan"]),
    "profile.b": (["4.5", "6.3"], ["1", "inf"]),
    "fit.t0": (["0", "0.01", "0.1"], ["-1", "nan"]),
    "fit.t1": (["0.05", "0.2"], ["5", "inf"]),
    "lemmas.tol": (["0", "1e-9"], ["-1", "nan"]),
    "lemmas.n_max": (["2", "8"], ["1", "-5"]),
    "params.mu": (["0", "0.3", "30"], ["nan", "-inf"]),
    "params.delta": (["1", "0.5"], ["0", "nan"]),
    "control.u1_mode": (["2"], ["0", "40"]),
    "init.decay": (["1.5", "0", "-2"], ["-400", "-1000"]),
    "control.decay": (["1.5"], ["-300", "-400", "-1000"]),
    "control.amplitude": (["1", "0"], ["1e300"]),
}


def _free_draws(experiment):
    """Up to three in-range keys and at most one out-of-range key, so that no
    other invalid value exits 2 before the out-of-range one is handled."""
    keys = sorted(key for key in _FREE_KEYS if experiment in _KEYS[key][2])

    def values(keys, which):
        return st.fixed_dictionaries({k: st.sampled_from(_FREE_KEYS[k][which]) for k in keys})

    in_range = st.lists(st.sampled_from(keys), max_size=3, unique=True).flatmap(lambda ks: values(ks, 0))
    out_of_range = st.one_of(st.just({}), st.sampled_from(keys).flatmap(lambda k: values([k], 1)))
    free = st.tuples(in_range, out_of_range).map(lambda pair: {**pair[0], **pair[1]})
    return st.tuples(st.just(experiment), free)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    drawn=st.sampled_from(EXPERIMENTS).flatmap(_free_draws),
    n=st.sampled_from([4, 8, 16]),
    t_final=st.sampled_from(["0.05", "0.1", "0.2"]),
)
def test_main_keeps_documented_exit_codes(drawn, n, t_final):
    experiment, free = drawn
    overrides = {"grid.n": str(n)}
    if experiment in _KEYS["time.t_final"][2]:
        overrides["time.t_final"] = t_final
    overrides.update(free)
    args = [experiment]
    for key, value in overrides.items():
        args += ["--override", f"{key}={value}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args + ["--out", out])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


# keys an experiment accepts but does not read: the experiments that draw
# nothing take a seed
_ACCEPTED_UNREAD = {
    "control-nonlinear": {"seed"},
    "observability": {"seed"},
    "lemmas": {"seed"},
}


def _tiny_configs(tmp_path, experiment):
    """Configs of `experiment` at grid.n = 8, over both gains and both kinds of initial data."""
    variants = [{}, {"profile.kind": "bump", "init.kind": "random"}]
    # control-nonlinear reads neither key, so its second variant would repeat the first
    for i, variant in enumerate(variants[: 1 if experiment == "control-nonlinear" else 2]):
        sizes = {"grid.n": "8", "time.t_final": "0.1", **variant}
        overrides = [f"{k}={v}" for k, v in sizes.items() if experiment in _KEYS[k][2]]
        yield parse_config("", experiment, overrides + [f"out={tmp_path / experiment / str(i)}"])


def test_key_table_matches_the_runners(tmp_path, monkeypatch):
    # record every key a run reads, the model parameters through cfg.params,
    # over both gains and both kinds of initial data
    reads = set()
    names = {f.name for f in fields(ModelParams)}
    recorded = None
    read_key = RunConfig.__getitem__
    monkeypatch.setattr(RunConfig, "__getitem__", lambda cfg, key: reads.add(key) or read_key(cfg, key))

    class RecordedParams(ModelParams):
        def __getattribute__(self, name):
            # a copy made with dataclasses.replace is not the config's, and is not recorded
            if name in names and self is recorded:
                reads.add(f"params.{name}")
            return super().__getattribute__(name)

    for experiment in EXPERIMENTS:
        declared = {key for key, entry in _KEYS.items() if experiment in entry[2]} - {"experiment"}
        read = set()
        for cfg in _tiny_configs(tmp_path, experiment):
            recorded = cfg.params = RecordedParams(**{name: getattr(cfg.params, name) for name in names})
            reads.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                run(cfg)
            read |= reads
        assert read <= declared, (experiment, read - declared)
        expected = declared - _ACCEPTED_UNREAD.get(experiment, set())
        assert read == expected, (experiment, expected ^ read)


def test_exports_are_run_or_acceptance_called(tmp_path):
    # every function or class that dgblab exports is reached by an experiment
    # or imported by the acceptance suite; a class is reached when any of its
    # methods runs
    package = Path(dgblab.__file__).resolve().parent
    reached = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and Path(code.co_filename).parent == package:
            reached.add((frame.f_globals["__name__"], code.co_qualname.split(".")[0]))

    for experiment in EXPERIMENTS:
        for cfg in _tiny_configs(tmp_path, experiment):
            sys.setprofile(record)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    run(cfg)
            finally:
                sys.setprofile(None)

    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dgblab"
        for alias in node.names
    }
    exported = {
        name: obj
        for name, obj in vars(dgblab).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
    }
    unused = sorted(
        name
        for name, obj in exported.items()
        if (obj.__module__, obj.__qualname__) not in reached and name not in imported
    )
    assert not unused, f"exported but neither run nor called by the acceptance suite: {unused}"


def test_readme_config_parses():
    # the README's example config is a valid config
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = [b for b in readme.split("```")[1::2] if b.lstrip("\n").startswith("experiment = ")]
    cfg = parse_config(block)
    assert cfg.experiment == "stabilize"
    assert cfg["profile.kind"] == "bump"


def test_readme_library_example_runs():
    # the README's library example runs as written, and its decay rate is the loop's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = [b.removeprefix("python\n") for b in readme.split("```")[1::2] if b.startswith("python\n")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    rate, abscissa_rate = map(float, out.getvalue().split())
    assert rate == pytest.approx(abscissa_rate, rel=0.01)


def test_cli_import_leaves_scipy_integrate_unloaded():
    # the CLI's startup cost depends on which scipy subpackages it pulls in
    env = dict(os.environ)
    src = str(Path(dgblab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, dgblab.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_cli_runs_on_numpy_alone():
    # every experiment, linear steering's Pade expm included, runs without
    # importing scipy
    env = dict(os.environ)
    src = str(Path(dgblab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import contextlib, io, sys, tempfile\n"
        "from dgblab.cli import main\n"
        "print('import', 'scipy' in sys.modules)\n"
        "bump = ['profile.kind=bump', 'profile.modes=64', 'grid.n=8', 'time.t_final=0.1']\n"
        "runs = {'observability': bump, 'stabilize': bump, 'control-linear': bump,\n"
        "        'control-nonlinear': ['grid.n=8', 'time.t_final=0.1'], 'lemmas': ['grid.n=16']}\n"
        "for name, overrides in runs.items():\n"
        "    args = [name]\n"
        "    for item in overrides:\n"
        "        args += ['--override', item]\n"
        "    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(args + ['--out', out])\n"
        "    print(name, code, 'scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.splitlines() == [
        "import False",
        "observability 0 False",
        "stabilize 0 False",
        "control-linear 0 False",
        "control-nonlinear 0 False",
        "lemmas 0 False",
    ]


def _fmt_oracle(value) -> str:
    # the per-value formatting the CSV writer must reproduce byte for byte
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def test_write_csv_matches_per_value_format(tmp_path):
    floats = [0.1, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300]
    size = len(floats)
    columns = {
        "bool": [bool(i % 2) for i in range(size)],
        "np_bool": np.arange(size) % 3 == 0,
        "np_bool_scalars": tuple(np.bool_(i % 2 == 0) for i in range(size)),
        "int": [0, -3, 7, 2**40, -(2**53) - 1, 12, 1],
        "np_int": np.arange(-3, size - 3, dtype=np.int64) * 10**15,
        "np_int_scalars": tuple(np.int64(i - 2) for i in range(size)),
        "float": floats,
        "np_float": np.array(floats),
        "np_float_scalars": tuple(np.float64(f) for f in floats),
        "str": ["1|2|3", "a", "", "-4", "x y", "7", "nan"],
    }
    header = list(columns)
    rows = zip(*columns.values())
    lines = [",".join(header)] + [",".join(_fmt_oracle(v) for v in row) for row in rows]
    expected = "\n".join(lines) + "\n"
    write_csv(tmp_path / "all.csv", header, columns.values())
    assert (tmp_path / "all.csv").read_bytes() == expected.encode()

    write_csv(tmp_path / "empty.csv", ["a", "b"], zip(*[]))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


@pytest.mark.parametrize(
    "experiment, solver, n, overrides",
    [
        ("control-linear", "linear_control_gramian", 8, ["profile.kind=bump"]),
        ("control-nonlinear", "nonlinear_control_global", 16, []),
    ],
    ids=["control-linear", "control-nonlinear"],
)
def test_control_csv_round_trips_the_half_spectrum(tmp_path, monkeypatch, experiment, solver, n, overrides):
    # control.csv holds k = 0..N per sample time, and %.17g reads back to the
    # same bits; conjugate-extending each time's rows gives the full band -N..N
    solutions = []
    synthesize = getattr(dgblab.cli, solver)

    def capture(*args, **kwargs):
        solutions.append(synthesize(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(dgblab.cli, solver, capture)
    args = [experiment, "--out", str(tmp_path), "--override", f"grid.n={n}"]
    for item in overrides:
        args += ["--override", item]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0
    (solution,) = solutions
    n_times = solution.times.size

    lines = (tmp_path / "control.csv").read_text().splitlines()
    assert lines[0] == "t,k,re,im"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == (n + 1) * n_times
    t, k, re, im = zip(*rows)
    assert np.array_equal(np.array(t, dtype=float), np.repeat(solution.times, n + 1))
    assert [int(x) for x in k] == list(range(n + 1)) * n_times
    re, im = np.array(re, dtype=float), np.array(im, dtype=float)
    assert np.array_equal(re, solution.samples.real.ravel())
    assert np.array_equal(im, solution.samples.imag.ravel())
    for half, field in zip((re + 1j * im).reshape(n_times, n + 1), solution.fields, strict=True):
        assert np.array_equal(conjugate_extend(half), conjugate_extend(field.half))


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("simulate", ["profile.kind=bump", "grid.n=16", "time.t_final=0.5", "params.mu=0.3"]),
        ("stabilize", ["grid.n=16", "init.kind=random", "time.t_final=1"]),
    ],
    ids=["simulate-nonzero-mean", "stabilize-random"],
)
def test_snapshots_round_trip_the_half_spectrum(tmp_path, monkeypatch, experiment, overrides):
    # snapshots.json holds k = 0..N of the first and last states, and JSON floats
    # read back to the same bits; conjugate-extending them gives the full band -N..N
    records = []
    integrate = dgblab.cli.simulate

    def capture(*args, **kwargs):
        records.append(integrate(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(dgblab.cli, "simulate", capture)
    args = [experiment, "--out", str(tmp_path)]
    for item in overrides:
        args += ["--override", item]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0
    (record,) = records

    data = json.loads((tmp_path / "snapshots.json").read_text())
    for key, i, state in (("initial", 0, record.initial), ("final", -1, record.final)):
        assert data[key]["t"] == record.times[i]
        assert data[key]["state"]["n_modes"] == state.n_modes == 16
        half = np.array([complex(re, im) for re, im in data[key]["state"]["coeffs"]])
        assert half.size == state.n_modes + 1
        assert np.array_equal(conjugate_extend(half), conjugate_extend(state.half))
        assert half.tobytes() == state.half.tobytes()


def test_version_matches_pyproject():
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        assert dgblab.__version__ == tomllib.load(f)["project"]["version"]
