"""The benchmark's workloads, their seeded free inputs, and the output checks.

An iteration of a workload is its fixed list of CLI experiments.  Sizes
(grid, step, horizon, profile modes) are pinned here; the workload seed
draws only free inputs: each config's `seed` key, the initial amplitude of
`damped-bump` and the endpoint amplitudes of `steer-nonlinear`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BUMP = ("profile.kind=bump", "profile.modes=64")


@dataclass(frozen=True)
class Experiment:
    """One CLI experiment: the subcommand and its `key=value` overrides."""

    name: str
    overrides: tuple

    def cli_args(self) -> list:
        args = [self.name]
        for item in self.overrides:
            args += ["--override", item]
        return args


def _config_seed(rng) -> str:
    return f"seed={int(rng.integers(0, 2**31))}"


def _damped_bump(rng):
    amplitude = float(rng.uniform(0.05, 0.1))
    return [
        Experiment(
            "stabilize",
            (
                *BUMP,
                "grid.n=64",
                "time.t_final=4",
                "time.dt=1e-3",
                "init.kind=cosine",
                "init.mode=1",
                f"init.amplitude={amplitude!r}",
                _config_seed(rng),
            ),
        )
    ]


def _steer_linear(rng):
    # The RK certificate's step count, and its time more than in proportion,
    # depends on the drawn v0/v1: one draw at n=12 spreads the step count by
    # 19% (quartile distance over median), one at n=8 by 8% in a quarter of
    # the time.  Three draws at n=8 average that out and still leave time
    # for three rounds in a run.
    return [
        Experiment("control-linear", (*BUMP, "grid.n=8", "time.t_final=1", _config_seed(rng)))
        for _ in range(3)
    ]


def _observe_scan(rng):
    return [
        Experiment("observability", (*BUMP, "grid.n=64", _config_seed(rng))),
        Experiment("lemmas", ("grid.n=128", "lemmas.n_max=128", _config_seed(rng))),
    ]


def _steer_nonlinear(rng):
    u0, u1 = (float(a) for a in rng.uniform(0.04, 0.06, size=2))
    return [
        Experiment(
            "control-nonlinear",
            (
                "grid.n=128",
                "control.dt=1e-3",
                f"control.u0_amplitude={u0!r}",
                f"control.u1_amplitude={u1!r}",
                _config_seed(rng),
            ),
        )
    ]


WORKLOADS = {
    "damped-bump": _damped_bump,
    "steer-linear": _steer_linear,
    "observe-scan": _observe_scan,
    "steer-nonlinear": _steer_nonlinear,
}


def experiments(workload: str, seed: int) -> list:
    """The iteration of `workload` with its free inputs drawn from `seed`."""
    return WORKLOADS[workload](np.random.default_rng(seed))


# experiment -> [(summary key, relation, bound or other summary key)]
CHECKS = {
    "stabilize": [
        ("mean_drift", "<=", 1e-10),
        ("max_norm_increase", "<=", 1e-10),
        ("max_energy_residual", "<=", 1e-5),
    ],
    "control-linear": [("terminal_error", "<=", 1e-6)],
    "observability": [("c_obs", ">", 2.0), ("gamma_gramian", "<=", "gamma_abscissa")],
    "lemmas": [("max_multiplicity", "<=", 5), ("resonance_min_ratio", ">", 0.0)],
    "control-nonlinear": [("terminal_error", "<=", 1e-6)],
}


def check_summary(experiment: str, summary: dict) -> list:
    """Messages for every failed output check; NaN or a missing key fails."""
    failures = []
    for key, rel, bound in CHECKS[experiment]:
        value = summary.get(key, float("nan"))
        limit = summary.get(bound, float("nan")) if isinstance(bound, str) else bound
        ok = value <= limit if rel == "<=" else value > limit
        if not ok:
            failures.append(f"{experiment}: {key} = {value!r} fails {rel} {limit!r}")
    return failures


def artifact_digest(out_dir: Path) -> dict:
    """File name -> sha256 of every artifact; the manifest without its wall time."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


def artifact_bytes(out_dir: Path) -> int:
    """Bytes of every artifact but the manifest, whose wall time varies in length."""
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.name != "manifest.json")
