"""Configuration parsing, experiment orchestration, and stable result emission.

Configs are flat ``key = value`` lines with dotted namespaces and ``#``
comments; unknown keys, and keys the experiment does not read, are rejected.
Each experiment's runner only computes: it returns its summary scalars and
its experiment-specific CSV/JSON artifacts, and `run` alone writes them, with
17-significant-digit floats, so reruns with the same config and seed are
byte-identical.  ``manifest.json``, with the config echo and the summary, is
written last, so a run that fails writes no manifest, and one that fails in
its computation writes no file; an earlier run's manifest in the directory is
removed first, and a failed write removes what the run wrote before it.

Exit codes: 0 success, 2 validation failure or an unwritable output file,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .control import (
    ControlProblem,
    linear_control_gramian,
    nonlinear_control_global,
    observability_constant,
)
from .damping import DampingProfile, make_profile_bump, make_profile_global
from .dynamics import decay_fit, simulate
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

_ALL = frozenset(EXPERIMENTS)
_PROFILED = frozenset({"simulate", "stabilize", "control-linear", "observability"})
_DAMPED = frozenset({"simulate", "stabilize"})
# the acceptance suite's steering bound: a certificate (terminal error, or the
# linear steering's Gramian residual) above it exits 3
_STEERING_TOL = 1e-6
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_POSITIVE = (lambda v: v > 0, "must be positive")


def _at_least(bound: int) -> tuple:
    return lambda v: v >= bound, f"must be at least {bound}"


def _one_of(*choices: str) -> tuple:
    return lambda v: v in choices, "must be " + " or ".join(f"'{c}'" for c in choices)


# key -> (type, default, the experiments that read it, its own check or None);
# a default of None means "derived later", and a check is (predicate, wording).
# seed and out are accepted by every experiment, so any set of runs can be seeded alike
_KEYS = {
    "experiment": (str, None, _ALL, None),
    # numpy's Generator seeds only from non-negative integers
    "seed": (int, 0, _ALL, _NONNEGATIVE),
    "out": (str, None, _ALL, None),
    "params.alpha": (float, 1.0, _ALL, None),
    "params.beta": (float, 1.0, _ALL, None),
    "params.m": (float, 1.0, _ALL, None),
    "params.r": (float, 0.5, _ALL, None),
    "params.mu": (float, 0.0, _ALL, None),
    # the damping's order, and the lemmas' modulation weight <k>^delta
    "params.delta": (float, 1.0, _ALL, None),
    "profile.kind": (str, "global", _PROFILED, _one_of("global", "bump")),
    "profile.a": (float, float(np.pi / 2), _PROFILED, None),
    "profile.b": (float, float(3 * np.pi / 2), _PROFILED, None),
    "profile.modes": (int, 64, _PROFILED, _at_least(1)),
    "grid.n": (int, 128, _ALL, _at_least(4)),
    "time.dt": (float, 1e-3, _DAMPED, _POSITIVE),
    "time.t_final": (float, 1.0, _ALL - {"lemmas"}, _POSITIVE),
    "init.kind": (str, "cosine", _DAMPED, _one_of("cosine", "random")),
    "init.mode": (int, 1, _DAMPED, _at_least(1)),
    "init.amplitude": (float, 0.1, _DAMPED, None),
    "init.decay": (float, 1.5, _DAMPED, None),
    "record.every": (int, 10, _DAMPED, _at_least(1)),
    "fit.t0": (float, None, {"stabilize"}, None),
    "fit.t1": (float, None, {"stabilize"}, None),
    "control.amplitude": (float, 1.0, {"control-linear"}, None),
    "control.decay": (float, 1.5, {"control-linear"}, None),
    "control.dt": (float, 1e-2, {"control-nonlinear"}, _POSITIVE),
    "control.u0_mode": (int, 1, {"control-nonlinear"}, _at_least(1)),
    "control.u0_amplitude": (float, 0.05, {"control-nonlinear"}, None),
    "control.u1_mode": (int, 2, {"control-nonlinear"}, _at_least(1)),
    "control.u1_amplitude": (float, 0.05, {"control-nonlinear"}, None),
    # (1, 1, -2) is the smallest zero-sum triple the resonance scan needs
    "lemmas.n_max": (int, 64, {"lemmas"}, _at_least(2)),
    "lemmas.a_threshold": (int, 8, {"lemmas"}, None),
    "lemmas.floor": (int, 8, {"lemmas"}, _at_least(1)),
    "lemmas.tol": (float, 0.0, {"lemmas"}, _NONNEGATIVE),
}


@dataclass
class RunConfig:
    experiment: str
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment '{self.experiment}'")
        ignored = sorted(key for key in self.raw if self.experiment not in _KEYS[key][2])
        if ignored:
            raise ConfigError(f"{self.experiment} does not read {', '.join(ignored)}")
        for key, value in self.raw.items():
            check = _KEYS[key][3]
            if check is not None and not check[0](value):
                raise ConfigError(f"{key} {check[1]}")
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
        for key in ("init.mode", "control.u0_mode", "control.u1_mode"):
            if self[key] > self["grid.n"]:
                raise ConfigError(f"{key} must not exceed grid.n")
        for key in ("time.dt", "control.dt"):
            # the integrators round the step count time.t_final / dt
            if self.experiment in _KEYS[key][2] and not np.isfinite(self["time.t_final"] / self[key]):
                raise ConfigError(f"time.t_final / {key} must be finite")
        if self["profile.kind"] == "bump" and not 0 <= self["profile.a"] < self["profile.b"] <= 2 * np.pi:
            raise ConfigError("a bump needs 0 <= profile.a < profile.b <= 2 pi")
        draws = [("control.amplitude", "control.decay")] if self.experiment == "control-linear" else []
        if self.experiment in _DAMPED and self["init.kind"] == "random":
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


def _write_json(path: Path, data: dict):
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


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
    return u + constant_field(n, cfg.params.mu)


def _profile_artifacts(profile: DampingProfile, n: int) -> dict:
    """`profile.json`, and `dsymbol.csv`: the gain's symbol d(k) against <k>^delta."""
    ks = np.arange(1, 2 * n + 1)
    d = profile.d_symbol(ks)
    weight = (1.0 + ks.astype(float) ** 2) ** (0.5 * profile.delta)
    return {
        "profile.json": profile.to_json_dict(),
        "dsymbol.csv": (["k", "d", "bracket_pow_delta", "ratio"], [ks, d, weight, d / weight]),
    }


def _control_artifacts(profile: DampingProfile, n: int, solution) -> dict:
    """The profile's artifacts, then `control.csv`: a row (t, k, re, im) per sample time and k = 0..N.

    The control is a real field, so its negative modes are the conjugates
    of the rows written, and are not written.
    """
    n_times, width = solution.samples.shape
    coeffs = solution.samples.ravel()
    columns = [np.repeat(solution.times, width), np.tile(np.arange(width), n_times), coeffs.real, coeffs.imag]
    return {**_profile_artifacts(profile, n), "control.csv": (["t", "k", "re", "im"], columns)}


def _spectral_dump(field_):
    return {"n_modes": field_.n_modes, "coeffs": [[c.real, c.imag] for c in field_.half.tolist()]}


def _damped_run(cfg: RunConfig, u0: SpectralField) -> tuple:
    """Integrate the damped closed loop from u0; returns the record, the summary and the artifacts.

    `snapshots.json` holds the run's two endpoint states, as coefficients k = 0..N each.
    """
    profile = _build_profile(cfg)
    record = simulate(
        build_symbols(cfg.params, cfg["grid.n"]),
        profile,
        u0,
        cfg["time.t_final"],
        cfg["time.dt"],
        record_every=cfg["record.every"],
    )
    resid = record.energy_residuals
    max_resid = float(np.nanmax(np.abs(resid))) if resid is not None else float("nan")
    if resid is None:
        resid = np.full(record.times.size, np.nan)
    summary = {
        "profile_hash": _short_hash(profile.to_json_dict()),
        "final_norm": float(record.l2norms[-1]),
        "mean_drift": float(np.abs(record.means - record.means[0]).max()),
        "max_energy_residual": max_resid,
        "max_norm_increase": float(np.diff(record.l2norms).max(initial=-np.inf)),
    }
    artifacts = {
        **_profile_artifacts(profile, cfg["grid.n"]),
        "trajectory.csv": (
            ["t", "l2norm", "mean", "energy_residual"],
            [record.times, record.l2norms, record.means, resid],
        ),
        "snapshots.json": {
            "initial": {"t": float(record.times[0]), "state": _spectral_dump(record.initial)},
            "final": {"t": float(record.times[-1]), "state": _spectral_dump(record.final)},
        },
    }
    return record, summary, artifacts


def _run_simulate(cfg: RunConfig) -> tuple:
    u0 = _build_initial(cfg, np.random.default_rng(cfg["seed"]))
    _, summary, artifacts = _damped_run(cfg, u0)
    return summary, artifacts


def _run_stabilize(cfg: RunConfig) -> tuple:
    u0 = _build_initial(cfg, np.random.default_rng(cfg["seed"]))
    if not np.any(u0.half[1:]):
        raise ConfigError(
            "the initial fluctuation is zero and has no decay rate; start from a nonzero state"
        )
    record, summary, artifacts = _damped_run(cfg, u0)
    try:
        fit = decay_fit(record, cfg.fit_window())
    except ValueError as exc:
        # too few recorded samples in the window, or only underflowed ones
        raise ConfigError(f"{exc}; widen it or start from a larger state") from exc
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
    return summary, artifacts


def _check_certificate(name: str, value: float, where: str = ""):
    if not value <= _STEERING_TOL:
        raise DgbError(f"{name} {value:.3g} exceeds {_STEERING_TOL:g}{where}")


def _run_control_linear(cfg: RunConfig) -> tuple:
    rng = np.random.default_rng(cfg["seed"])
    profile = _build_profile(cfg)
    n = cfg["grid.n"]
    shift = constant_field(n, cfg.params.mu)
    v0 = random_field(n, rng, amplitude=cfg["control.amplitude"], decay=cfg["control.decay"]) + shift
    v1 = random_field(n, rng, amplitude=cfg["control.amplitude"], decay=cfg["control.decay"]) + shift
    problem = ControlProblem(cfg.params, profile, n, cfg["time.t_final"], v0, v1)
    solution = linear_control_gramian(problem)
    _check_certificate("steering certificate", solution.terminal_error)
    _check_certificate("Gramian residual", solution.info["gramian_residual"])
    summary = {
        "method": solution.method,
        "terminal_error": solution.terminal_error,
        "control_norm": solution.control_norm,
        "gramian_min_eig": solution.info["gramian_min_eig"],
        "gramian_cond": solution.info["gramian_cond"],
        "gramian_residual": solution.info["gramian_residual"],
    }
    return summary, _control_artifacts(profile, n, solution)


def _run_control_nonlinear(cfg: RunConfig) -> tuple:
    n = cfg["grid.n"]
    # the nonlinear construction steers with the constant gain only
    profile = make_profile_global(cfg.params.delta)
    shift = constant_field(n, cfg.params.mu)
    u0 = cosine_field(n, cfg["control.u0_mode"], cfg["control.u0_amplitude"]) + shift
    u1 = cosine_field(n, cfg["control.u1_mode"], cfg["control.u1_amplitude"]) + shift
    problem = ControlProblem(cfg.params, profile, n, cfg["time.t_final"], u0, u1)
    solution = nonlinear_control_global(problem, dt=cfg["control.dt"])
    _check_certificate("steering certificate", solution.terminal_error, f" at control.dt = {cfg['control.dt']:g}")
    summary = {
        "method": solution.method,
        "terminal_error": solution.terminal_error,
        "control_norm": solution.control_norm,
    }
    return summary, _control_artifacts(profile, n, solution)


def _run_observability(cfg: RunConfig) -> tuple:
    profile = _build_profile(cfg)
    n = cfg["grid.n"]
    report = observability_constant(build_symbols(cfg.params, n), profile, cfg["time.t_final"], n)
    summary = {
        "c_obs": report.c_obs,
        "rho": report.rho,
        "gamma_gramian": report.gamma_gramian,
        "gamma_abscissa": report.gamma_abscissa,
    }
    return summary, _profile_artifacts(profile, n)


def _run_lemmas(cfg: RunConfig) -> tuple:
    n = cfg["grid.n"]
    n_max = min(cfg["lemmas.n_max"], n)
    table = build_symbols(cfg.params, n)
    mult = multiplicity_scan(table, tol=cfg["lemmas.tol"])
    gaps = gap_check(table)
    # the sizes below n_max, then n_max itself, whose scan is the summary's
    scans = [
        resonance_check(table, size, a_threshold=min(cfg["lemmas.a_threshold"], size))
        for size in [s for s in (8, 16, 32, 64, 128) if s < n_max] + [n_max]
    ]
    mod = modulation_check(table, n_max, floor=min(cfg["lemmas.floor"], n_max))

    mult_rows = [
        (c.representative, c.count, c.eigenvalue, "|".join(str(m) for m in c.members))
        for c in mult.classes
    ]
    gap_rows = [(r.k, r.gap, r.bound, r.passed) for r in gaps.rows]
    res_rows = [(rep.n_max, rep.a_threshold, rep.min_ratio) + rep.witness for rep in scans]
    artifacts = {
        "lemma_multiplicity.csv": (["representative", "count", "eigenvalue", "members"], zip(*mult_rows)),
        "lemma_gap.csv": (["k", "gap", "bound", "passed"], zip(*gap_rows)),
        "lemma_resonance.csv": (["n_max", "a_threshold", "min_ratio", "k1", "k2", "k3"], zip(*res_rows)),
        "lemma_modulation.csv": (
            ["n_max", "floor", "min_ratio", "k", "n"],
            [[v] for v in (mod.n_max, mod.floor, mod.min_ratio) + mod.witness],
        ),
    }
    final = scans[-1]
    summary = {
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
    return summary, artifacts


_RUNNERS = {
    "simulate": _run_simulate,
    "stabilize": _run_stabilize,
    "control-linear": _run_control_linear,
    "control-nonlinear": _run_control_nonlinear,
    "observability": _run_observability,
    "lemmas": _run_lemmas,
}


def _unwritable(out_dir: Path, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write into output directory '{out_dir}': {exc}")


def _make_out_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory '{path}': {exc}") from exc
    return path


def run(cfg: RunConfig, out_dir=None) -> dict:
    """Execute one experiment, then write its artifacts and, last, its manifest; returns a result dict.

    An earlier run's `manifest.json` in the directory is removed before the
    computation, so a manifest there always belongs to the last run. The
    runner only computes, and returns its summary and its artifacts (file
    name -> a dict for JSON, or (header, columns) for `write_csv`). Every file
    is written here, after the computation, with `manifest.json` last: a run
    that fails in its computation writes nothing, and a manifest follows every
    artifact. A file that cannot be written raises ConfigError, once the
    files this run wrote before it are removed.

    A floating-point overflow, invalid operation or division by zero raises
    FloatingPointError; code that overflows on purpose ignores it locally.
    """
    if out_dir is None:
        out_dir = cfg["out"] or f"runs/{cfg.experiment}"
    out_dir = _make_out_dir(Path(out_dir))
    try:
        (out_dir / "manifest.json").unlink(missing_ok=True)
    except OSError as exc:
        raise _unwritable(out_dir, exc) from exc
    started = time.perf_counter()
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        summary, artifacts = _RUNNERS[cfg.experiment](cfg)
    written = []
    try:
        for name, content in artifacts.items():
            path = out_dir / name
            if name.endswith(".json"):
                _write_json(path, content)
            else:
                write_csv(path, *content)
            written.append(path)
        wall = time.perf_counter() - started
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
        _write_json(tmp, manifest)
        written.append(tmp)
        os.replace(tmp, out_dir / "manifest.json")
    except OSError as exc:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        raise _unwritable(out_dir, exc) from exc
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
    """Run every config in turn into <out>/<file stem>, so none may set `out`; all are validated
    before the first runs, and a failing run ends the sweep with its exit code, as it ends one run."""
    base = Path(args.out or "runs/sweep")
    jobs = {}
    for path in args.configs:
        name = Path(path).stem
        if name in jobs:
            raise ConfigError(f"two configs share the file stem '{name}' and so one output directory")
        jobs[name] = parse_config(_read_config(path))
        if "out" in jobs[name].raw:
            raise ConfigError(f"config '{path}' sets out, but a sweep writes each run into <out>/{name}")
    _make_out_dir(base)
    for name, cfg in jobs.items():
        run(cfg, out_dir=base / name)
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
    sweep = sub.add_parser("sweep", help="run several configs in turn")
    sweep.add_argument("--configs", nargs="+", required=True)
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
