"""Configuration parsing, experiment orchestration, and stable result emission.

Configs are flat ``key = value`` lines with dotted namespaces and ``#``
comments; unknown keys are rejected.  Every run writes a ``manifest.json``
with the config echo and summary scalars, plus experiment-specific CSV/JSON
artifacts with 17-significant-digit floats, so reruns with the same config
and seed are byte-identical.

Exit codes: 0 success, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .control import (
    ControlProblem,
    decay_rate_predict,
    linear_control_gramian,
    nonlinear_control_global,
)
from .damping import DampingProfile, make_profile_bump, make_profile_global
from .dynamics import decay_fit, simulate_damped
from .errors import ConfigError, DgbError
from .spectral import SpectralField, constant_field, cosine_field, random_field
from .symbols import (
    ModelParams,
    build_symbols,
    gap_check,
    modulation_check,
    multiplicity_scan,
    resonance_check,
)

EXPERIMENTS = (
    "simulate",
    "stabilize",
    "control-linear",
    "control-nonlinear",
    "observability",
    "lemmas",
)

# key -> (type, default); defaults of None mean "derived later"
_KEYS = {
    "experiment": (str, None),
    "seed": (int, 0),
    "out": (str, None),
    "params.alpha": (float, 1.0),
    "params.beta": (float, 1.0),
    "params.m": (float, 1.0),
    "params.r": (float, 0.5),
    "params.mu": (float, 0.0),
    "params.delta": (float, 1.0),
    "profile.kind": (str, "global"),
    "profile.a": (float, float(np.pi / 2)),
    "profile.b": (float, float(3 * np.pi / 2)),
    "profile.modes": (int, 64),
    "grid.n": (int, 128),
    "time.dt": (float, 1e-3),
    "time.t_final": (float, 1.0),
    "init.kind": (str, "cosine"),
    "init.mode": (int, 1),
    "init.amplitude": (float, 0.1),
    "init.mean": (float, 0.0),
    "init.decay": (float, 1.5),
    "record.every": (int, 10),
    "fit.t0": (float, None),
    "fit.t1": (float, None),
    "control.amplitude": (float, 1.0),
    "control.decay": (float, 1.5),
    "control.dt": (float, 1e-2),
    "control.u0_mode": (int, 1),
    "control.u0_amplitude": (float, 0.05),
    "control.u1_mode": (int, 2),
    "control.u1_amplitude": (float, 0.05),
    "lemmas.n_max": (int, 64),
    "lemmas.a_threshold": (int, 8),
    "lemmas.floor": (int, 8),
    "lemmas.tol": (float, 0.0),
}


@dataclass
class RunConfig:
    experiment: str
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment '{self.experiment}'")
        try:
            self.params = ModelParams(
                alpha=self["params.alpha"],
                beta=self["params.beta"],
                m=self["params.m"],
                r=self["params.r"],
                mu=self["params.mu"],
                delta=self["params.delta"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # numpy's Generator seeds only from non-negative integers
        if self["seed"] < 0:
            raise ConfigError("seed must be nonnegative")
        if self["grid.n"] < 4:
            raise ConfigError("grid.n must be at least 4")
        for key in ("init.mode", "control.u0_mode", "control.u1_mode"):
            if not 1 <= self[key] <= self["grid.n"]:
                raise ConfigError(f"{key} must lie in 1..grid.n")
        # (1, 1, -2) is the smallest zero-sum triple the resonance scan needs
        if self["lemmas.n_max"] < 2:
            raise ConfigError("lemmas.n_max must be at least 2")
        if self["lemmas.floor"] < 1:
            raise ConfigError("lemmas.floor must be at least 1")
        if self["time.t_final"] <= 0:
            raise ConfigError("time.t_final must be positive")
        for key in ("time.dt", "control.dt"):
            # the integrators round the step count time.t_final / dt
            if not (self[key] > 0 and np.isfinite(self["time.t_final"] / self[key])):
                raise ConfigError(f"{key} must be positive, with a finite time.t_final / {key}")
        if self["lemmas.tol"] < 0:
            raise ConfigError("lemmas.tol must be nonnegative")
        if self["profile.kind"] not in ("global", "bump"):
            raise ConfigError("profile.kind must be 'global' or 'bump'")
        if self.experiment == "control-nonlinear" and self["profile.kind"] != "global":
            raise ConfigError("control-nonlinear needs the constant gain: profile.kind = global")
        # simulate and stabilize step the drift mu = init.mean, control-nonlinear mu = 0
        drift = {"simulate": self["init.mean"], "stabilize": self["init.mean"], "control-nonlinear": 0.0}
        mu = drift.get(self.experiment)
        if mu is not None and self.raw.get("params.mu", mu) != mu:
            raise ConfigError(
                f"{self.experiment} steps the drift mu = {mu!r}; params.mu must equal it or be unset"
            )
        if self["profile.kind"] == "bump" and not (
            0 <= self["profile.a"] < self["profile.b"] <= 2 * np.pi and self["profile.modes"] >= 1
        ):
            raise ConfigError("a bump needs 0 <= profile.a < profile.b <= 2 pi and profile.modes >= 1")
        if self["init.kind"] not in ("cosine", "random"):
            raise ConfigError("init.kind must be 'cosine' or 'random'")
        if self["record.every"] < 1:
            raise ConfigError("record.every must be at least 1")
        draws = [("control.amplitude", "control.decay")] if self.experiment == "control-linear" else []
        if self.experiment in ("simulate", "stabilize") and self["init.kind"] == "random":
            draws.append(("init.amplitude", "init.decay"))
        for amp, decay in draws:
            # random_field scales mode k by (1 + k)^-decay, largest at k = grid.n when decay < 0
            with np.errstate(over="ignore", invalid="ignore"):
                scale = abs(self[amp]) * np.float64(1 + self["grid.n"]) ** -self[decay]
            if not np.isfinite(scale):
                raise ConfigError(f"{amp} * (1 + grid.n)^-{decay} must be finite")
        if self.experiment == "stabilize":
            t0, t1 = self.fit_window()
            if not 0 <= t0 < t1 <= self["time.t_final"]:
                raise ConfigError("the fit window needs 0 <= fit.t0 < fit.t1 <= time.t_final")

    def fit_window(self) -> tuple:
        """(fit.t0, fit.t1), defaulting to the second half of the run."""
        t_final = self["time.t_final"]
        t0 = self["fit.t0"] if self["fit.t0"] is not None else t_final / 2.0
        t1 = self["fit.t1"] if self["fit.t1"] is not None else t_final
        return t0, t1

    def __getitem__(self, key: str):
        if key in self.raw:
            return self.raw[key]
        return _KEYS[key][1]

    def echo(self) -> dict:
        return {"experiment": self.experiment, **{key: self.raw[key] for key in sorted(self.raw)}}


def _parse_value(key: str, text: str):
    if key not in _KEYS:
        raise ConfigError(f"unknown key '{key}'")
    typ = _KEYS[key][0]
    try:
        if typ is int:
            return int(text)
        if typ is float:
            value = float(text)
            if not np.isfinite(value):
                raise ConfigError(f"key '{key}': {text} is not a finite number")
            return value
        return text
    except ValueError as exc:
        raise ConfigError(f"key '{key}': cannot parse '{text}' as {typ.__name__}") from exc


def parse_config(text: str, experiment: str | None = None, overrides=()) -> RunConfig:
    """Parse a flat key-value document into a validated RunConfig.

    `overrides` are extra ``key=value`` strings applied after the document.
    The experiment may come from the document or the caller; when both are
    present they must agree.
    """
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{line}'")
        key, value = (part.strip() for part in line.split("=", 1))
        raw[key] = _parse_value(key, value)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        raw[key] = _parse_value(key, value)

    doc_experiment = raw.pop("experiment", None)
    if experiment is None:
        experiment = doc_experiment
    elif doc_experiment is not None and doc_experiment != experiment:
        raise ConfigError(
            f"config names experiment '{doc_experiment}' but '{experiment}' was requested"
        )
    if experiment is None:
        raise ConfigError("no experiment given (config key or subcommand)")
    return RunConfig(experiment=experiment, raw=raw)


# numpy dtype kind -> printf conversion: bools as 1/0, integers exactly,
# floats to 17 significant digits, anything else through str
_CONVERSIONS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}


def write_csv(path: Path, header, columns):
    """Write equal-length columns under `header` in one formatting pass.

    Each column holds values of one type; its numpy dtype picks the
    conversion of the one row format, and every row is formatted by a
    single `%` over the flattened values.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    row = ",".join(_CONVERSIONS.get(c.dtype.kind, "%s") for c in columns) + "\n"
    values = [None] * (n_rows * len(columns))
    for j, c in enumerate(columns):
        values[j :: len(columns)] = c.tolist()
    path.write_text(",".join(header) + "\n" + (row * n_rows) % tuple(values))


def _short_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


def _write_manifest(out_dir: Path, cfg: RunConfig, summary: dict, wall: float):
    echo = cfg.echo()
    manifest = {
        "version": __version__,
        "experiment": cfg.experiment,
        "run_id": _short_hash(echo),
        "config": echo,
        "summary": summary,
        "wall_time_s": wall,
    }
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, out_dir / "manifest.json")


def _build_profile(cfg: RunConfig) -> DampingProfile:
    if cfg["profile.kind"] == "global":
        return make_profile_global(cfg.params.delta)
    return make_profile_bump(
        cfg["profile.a"], cfg["profile.b"], cfg["profile.modes"], cfg.params.delta
    )


def _build_initial(cfg: RunConfig, rng: np.random.Generator) -> SpectralField:
    n = cfg["grid.n"]
    if cfg["init.kind"] == "cosine":
        u = cosine_field(n, cfg["init.mode"], cfg["init.amplitude"])
    else:
        u = random_field(n, rng, amplitude=cfg["init.amplitude"], decay=cfg["init.decay"])
    return u + constant_field(n, cfg["init.mean"])


def _write_profile_artifacts(out_dir: Path, profile: DampingProfile, n: int):
    (out_dir / "profile.json").write_text(
        json.dumps(profile.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )
    ks = np.arange(1, 2 * n + 1)
    d = profile.d_symbol(ks)
    weight = (1.0 + ks.astype(float) ** 2) ** (0.5 * profile.delta)
    header = ["k", "d", "bracket_pow_delta", "ratio"]
    write_csv(out_dir / "dsymbol.csv", header, [ks, d, weight, d / weight])


def _write_trajectory(out_dir: Path, record):
    resid = record.energy_residuals
    if resid is None:
        resid = np.full(record.times.size, np.nan)
    write_csv(
        out_dir / "trajectory.csv",
        ["t", "l2norm", "mean", "energy_residual"],
        [record.times, record.l2norms, record.means, resid],
    )


def _spectral_dump(field_):
    return {"n_modes": field_.n_modes, "coeffs": [[c.real, c.imag] for c in field_.half.tolist()]}


def _write_snapshots(out_dir: Path, record):
    """Write `snapshots.json`: the run's two endpoint states, as coefficients k = 0..N each."""
    data = {
        "initial": {"t": float(record.times[0]), "state": _spectral_dump(record.initial)},
        "final": {"t": float(record.times[-1]), "state": _spectral_dump(record.final)},
    }
    (out_dir / "snapshots.json").write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_control(out_dir: Path, solution):
    """Write `control.csv`: a row (t, k, re, im) per sample time and k = 0..N.

    The control is a real field, so its negative modes are the conjugates
    of the rows written, and are not written.
    """
    n_times, width = solution.samples.shape
    times = np.repeat(solution.times, width)
    ks = np.tile(np.arange(width), n_times)
    coeffs = solution.samples.ravel()
    write_csv(
        out_dir / "control.csv", ["t", "k", "re", "im"], [times, ks, coeffs.real, coeffs.imag]
    )


def _damped_run(cfg: RunConfig, u0: SpectralField) -> tuple:
    """Integrate the damped closed loop from u0; returns the profile, the record and the summary."""
    profile = _build_profile(cfg)
    record = simulate_damped(
        cfg.params,
        profile,
        u0,
        cfg["time.t_final"],
        cfg["time.dt"],
        record_every=cfg["record.every"],
    )
    resid = record.energy_residuals
    max_resid = float(np.nanmax(np.abs(resid))) if resid is not None else float("nan")
    summary = {
        "profile_hash": _short_hash(profile.to_json_dict()),
        "final_norm": float(record.l2norms[-1]),
        "mean_drift": float(np.abs(record.means - record.means[0]).max()),
        "max_energy_residual": max_resid,
        "max_norm_increase": float(np.diff(record.l2norms).max(initial=-np.inf)),
    }
    return profile, record, summary


def _write_damped_artifacts(out_dir: Path, cfg: RunConfig, profile: DampingProfile, record):
    _write_profile_artifacts(out_dir, profile, cfg["grid.n"])
    _write_trajectory(out_dir, record)
    _write_snapshots(out_dir, record)


def _run_simulate(cfg: RunConfig, out_dir: Path) -> dict:
    u0 = _build_initial(cfg, np.random.default_rng(cfg["seed"]))
    profile, record, summary = _damped_run(cfg, u0)
    _write_damped_artifacts(out_dir, cfg, profile, record)
    return summary


def _run_stabilize(cfg: RunConfig, out_dir: Path) -> dict:
    """The damped run and its decay fit; an unusable fit exits before any artifact is written."""
    u0 = _build_initial(cfg, np.random.default_rng(cfg["seed"]))
    if not np.any(u0.half[1:]):
        raise ConfigError(
            "the initial fluctuation is zero and has no decay rate; start from a nonzero state"
        )
    profile, record, summary = _damped_run(cfg, u0)
    try:
        fit = decay_fit(record, cfg.fit_window())
    except ValueError as exc:
        # too few recorded samples in the window, or only underflowed ones
        raise ConfigError(f"{exc}; widen it or start from a larger state") from exc
    # the stepped loop's drift comes from the initial mean, not params.mu
    abscissa = record.run_meta["spectral_abscissa"]
    summary.update(
        {
            "decay_rate": fit.rate,
            "prefactor": fit.prefactor,
            "r_squared": fit.r_squared,
            "spectral_abscissa": abscissa,
            "rate_over_abscissa": fit.rate / (-abscissa),
        }
    )
    _write_damped_artifacts(out_dir, cfg, profile, record)
    return summary


def _run_control_linear(cfg: RunConfig, out_dir: Path) -> dict:
    rng = np.random.default_rng(cfg["seed"])
    profile = _build_profile(cfg)
    n = cfg["grid.n"]
    v0 = random_field(n, rng, amplitude=cfg["control.amplitude"], decay=cfg["control.decay"])
    v1 = random_field(n, rng, amplitude=cfg["control.amplitude"], decay=cfg["control.decay"])
    problem = ControlProblem(cfg.params, profile, n, cfg["time.t_final"], v0, v1)
    solution = linear_control_gramian(problem)
    _write_profile_artifacts(out_dir, profile, n)
    _write_control(out_dir, solution)
    return {
        "method": solution.method,
        "terminal_error": solution.terminal_error,
        "control_norm": solution.control_norm,
        "gramian_min_eig": solution.info["gramian_min_eig"],
        "gramian_cond": solution.info["gramian_cond"],
    }


def _run_control_nonlinear(cfg: RunConfig, out_dir: Path) -> dict:
    n = cfg["grid.n"]
    profile = _build_profile(cfg)
    u0 = cosine_field(n, cfg["control.u0_mode"], cfg["control.u0_amplitude"])
    u1 = cosine_field(n, cfg["control.u1_mode"], cfg["control.u1_amplitude"])
    problem = ControlProblem(cfg.params, profile, n, cfg["time.t_final"], u0, u1)
    solution = nonlinear_control_global(problem, dt=cfg["control.dt"])
    _write_profile_artifacts(out_dir, profile, n)
    _write_control(out_dir, solution)
    return {
        "method": solution.method,
        "terminal_error": solution.terminal_error,
        "control_norm": solution.control_norm,
    }


def _run_observability(cfg: RunConfig, out_dir: Path) -> dict:
    profile = _build_profile(cfg)
    n = cfg["grid.n"]
    table = build_symbols(cfg.params, n)
    rates = decay_rate_predict(table, profile, cfg["time.t_final"], n)
    _write_profile_artifacts(out_dir, profile, n)
    return {
        "c_obs": rates.report.c_obs,
        "rho": rates.report.rho,
        "gamma_gramian": rates.gamma_gramian,
        "gamma_abscissa": rates.gamma_abscissa,
    }


def _run_lemmas(cfg: RunConfig, out_dir: Path) -> dict:
    n = cfg["grid.n"]
    n_max = min(cfg["lemmas.n_max"], n)
    table = build_symbols(cfg.params, n)

    mult = multiplicity_scan(table, tol=cfg["lemmas.tol"])
    mult_rows = [
        (c.representative, c.count, c.eigenvalue, "|".join(str(m) for m in c.members))
        for c in mult.classes
    ]
    write_csv(
        out_dir / "lemma_multiplicity.csv",
        ["representative", "count", "eigenvalue", "members"],
        zip(*mult_rows),
    )

    gaps = gap_check(table)
    gap_rows = [(r.k, r.gap, r.bound, r.passed) for r in gaps.rows]
    write_csv(out_dir / "lemma_gap.csv", ["k", "gap", "bound", "passed"], zip(*gap_rows))

    # the sizes below n_max, then n_max itself, whose scan is the summary's
    scans = [
        resonance_check(table, size, a_threshold=min(cfg["lemmas.a_threshold"], size))
        for size in [s for s in (8, 16, 32, 64, 128) if s < n_max] + [n_max]
    ]
    res_rows = [(rep.n_max, rep.a_threshold, rep.min_ratio) + rep.witness for rep in scans]
    write_csv(
        out_dir / "lemma_resonance.csv",
        ["n_max", "a_threshold", "min_ratio", "k1", "k2", "k3"],
        zip(*res_rows),
    )

    mod = modulation_check(table, n_max, floor=min(cfg["lemmas.floor"], n_max))
    write_csv(
        out_dir / "lemma_modulation.csv",
        ["n_max", "floor", "min_ratio", "k", "n"],
        [[v] for v in (mod.n_max, mod.floor, mod.min_ratio) + mod.witness],
    )

    final = scans[-1]
    return {
        "max_multiplicity": mult.max_multiplicity,
        "simple_beyond": mult.simple_beyond,
        "gap_threshold": -1 if gaps.threshold is None else gaps.threshold,
        "resonance_min_ratio": final.min_ratio,
        "resonance_witness_k1": final.witness[0],
        "resonance_witness_k2": final.witness[1],
        "resonance_witness_k3": final.witness[2],
        "modulation_min_ratio": mod.min_ratio,
        "modulation_witness_k": mod.witness[0],
        "modulation_witness_n": mod.witness[1],
    }


_RUNNERS = {
    "simulate": _run_simulate,
    "stabilize": _run_stabilize,
    "control-linear": _run_control_linear,
    "control-nonlinear": _run_control_nonlinear,
    "observability": _run_observability,
    "lemmas": _run_lemmas,
}


def _make_out_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory '{path}': {exc}") from exc
    return path


def run(cfg: RunConfig, out_dir=None) -> dict:
    """Execute one experiment; returns the manifest dict.

    A floating-point overflow, invalid operation or division by zero raises
    FloatingPointError; code that overflows on purpose ignores it locally.
    """
    if out_dir is None:
        out_dir = cfg["out"] or f"runs/{cfg.experiment}"
    out_dir = _make_out_dir(Path(out_dir))
    started = time.perf_counter()
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        summary = _RUNNERS[cfg.experiment](cfg, out_dir)
    wall = time.perf_counter() - started
    _write_manifest(out_dir, cfg, summary, wall)
    return {"experiment": cfg.experiment, "summary": summary, "out": str(out_dir)}


def _read_config(path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc


def _single_run(experiment, args) -> int:
    text = _read_config(args.config) if args.config else ""
    overrides = list(args.override or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    cfg = parse_config(text, experiment=experiment, overrides=overrides)
    result = run(cfg, out_dir=args.out)
    print(json.dumps(result["summary"], indent=2, sort_keys=True))
    return 0


def _sweep(args) -> int:
    """Run every config into <out>/<file stem>; all are validated before the first runs."""
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    base = Path(args.out or "runs/sweep")
    jobs = {}
    for path in args.configs:
        name = Path(path).stem
        if name in jobs:
            raise ConfigError(f"two configs share the file stem '{name}' and so one output directory")
        jobs[name] = parse_config(_read_config(path))
    _make_out_dir(base)

    def work(item):
        name, cfg = item
        run(cfg, out_dir=base / name)
        return name

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for name in pool.map(work, jobs.items()):
            print(f"done: {name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dgblab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--seed", type=int, help="override the seed")
        sp.add_argument("--override", action="append", metavar="KEY=VALUE")
    sweep = sub.add_parser("sweep", help="run several configs concurrently")
    sweep.add_argument("--configs", nargs="+", required=True)
    sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    sweep.add_argument("--out", help="base output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _sweep(args)
        return _single_run(args.command, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DgbError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
