"""Benchmark for dgblab: four workloads timed end to end, or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload damped-bump --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off:

- experiment_s: warm wall time of one iteration, run in this process
  through `dgblab.cli.run` with artifacts written to a fresh directory;
  each sample is the mean over a slice of at least SLICE_S seconds of
  iterations, and the metric is the median of the samples;
- serial_s: the same in a fresh process with OPENBLAS_NUM_THREADS=1;
- cold_run_s: the same for the iteration run as fresh
  `python -m dgblab.cli <experiment>` processes, timed spawn to exit;
- setup_s: median time to `import dgblab.cli` in a fresh interpreter;
- peak_rss_mb: median over cold slices of the largest peak resident
  memory of their CLI processes.

Samples are taken in rounds that interleave all of these, so each metric
sees the whole run.

`--trace 1` runs the iteration untraced and then traced (see tracer.py),
prints the per-layer metrics of `tracer.LAYER_UNITS` plus
`cli.artifact_bytes` and `trace.overhead_s`, and writes every span to
`perfbench/results/`.

Every experiment run is checked (exception, exit code, traceback on
stderr, the bounds in workloads.CHECKS, and byte-identical artifacts
across the iterations of one process).  The environment and all samples
go to `perfbench/results/`; the last line of standard output is the JSON
result.  Only the BLAS thread count of the serial run is changed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 5
MIN_ROUNDS = 3
# On a shared host the machine's speed can flip between states lasting
# seconds; a sample that spans several of them is steadier than one iteration.
SLICE_S = 1.5
CHILD_TIMEOUT_S = 120
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dgblab.cli; "
    "print(repr(time.perf_counter() - t))"
)

END_TO_END_UNITS = {
    "experiment_s": "s",
    "serial_s": "s",
    "cold_run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    pass


def load_cli():
    """Import dgblab.cli from this checkout's sources, and nowhere else."""
    if not (SRC / "dgblab" / "cli.py").is_file():
        raise ProgramMissing(f"no dgblab sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import dgblab.cli

    if Path(dgblab.cli.__file__).resolve().parent != SRC / "dgblab":
        raise ProgramMissing(f"dgblab imported from {dgblab.cli.__file__}, not {SRC}")
    return dgblab.cli


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


# -- environment record -------------------------------------------------------


def _blas_libraries() -> list:
    """Loaded OpenBLAS libraries with their version string and thread count."""
    import ctypes

    found = []
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        found.append(info)
    return found


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_loaded": _blas_libraries(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- measurement --------------------------------------------------------------


class Tally:
    """Experiment runs attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def record(self, problems: list):
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))


def parse_configs(cli, exps) -> list:
    return [cli.parse_config("", experiment=e.name, overrides=list(e.overrides)) for e in exps]


def rounds(seconds: float, minimum: int):
    """Yield while the next round, as long as the last one, ends within `seconds`.

    Yields at least `minimum` times.
    """
    start = last = perf_counter()
    round_s = 0.0
    done = 0
    while done < minimum or last + round_s - start <= seconds:
        yield done
        done += 1
        now = perf_counter()
        round_s, last = now - last, now


def warm_iteration(cli, cfgs, work, tally, reference, tracer=None) -> tuple:
    """Run the iteration once in this process; returns its wall time and artifact bytes.

    `reference` maps experiment index to the artifact digest of its first
    run in this process; later runs must match it byte for byte.
    """
    dirs = [Path(tempfile.mkdtemp(dir=work)) for _ in cfgs]
    errors = [None] * len(cfgs)
    results = [None] * len(cfgs)
    if tracer is not None:
        tracer.iteration += 1
    gc.collect()
    t0 = perf_counter()
    for i, (cfg, out) in enumerate(zip(cfgs, dirs)):
        try:
            results[i] = cli.run(cfg, out_dir=out)
        except Exception:  # a failed experiment is counted, not fatal
            errors[i] = traceback.format_exc(limit=3)
    seconds = perf_counter() - t0
    size = 0
    for i, (cfg, out) in enumerate(zip(cfgs, dirs)):
        if errors[i] is not None:
            tally.record([f"{cfg.experiment} raised: {errors[i]}"])
            continue
        problems = wl.check_summary(cfg.experiment, results[i]["summary"])
        digest = wl.artifact_digest(out)
        if reference.setdefault(i, digest) != digest:
            problems.append(f"{cfg.experiment}: artifacts differ from the first run in this process")
        tally.record(problems)
        size += wl.artifact_bytes(out)
        shutil.rmtree(out)
    return seconds, size


def warm_slice(cli, cfgs, work, tally, reference) -> float:
    """Mean wall time of warm iterations run back to back for at least SLICE_S seconds."""
    times = []
    while sum(times) < SLICE_S:
        times.append(warm_iteration(cli, cfgs, work, tally, reference)[0])
    return statistics.fmean(times)


def run_child(cmd, work, env, timeout=CHILD_TIMEOUT_S):
    """Spawn `cmd` and wait for it; returns (exit code, seconds, peak RSS in kB, stdout, stderr).

    Seconds run from spawn to exit.  A child still running after `timeout`
    seconds is killed.
    """
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    return proc.returncode, seconds, usage.ru_maxrss, stdout, stderr


def cold_iteration(exps, work, tally) -> tuple:
    """The iteration as fresh CLI processes: total seconds and largest peak RSS (kB)."""
    env = child_env()
    total, peak = 0.0, 0
    for exp in exps:
        out = Path(tempfile.mkdtemp(dir=work))
        cmd = [sys.executable, "-m", "dgblab.cli", *exp.cli_args(), "--out", str(out)]
        code, seconds, rss_kb, _, stderr = run_child(cmd, work, env)
        total += seconds
        peak = max(peak, rss_kb)
        problems = []
        if code != 0:
            problems.append(f"{exp.name}: exit code {code}")
        if "Traceback" in stderr:
            problems.append(f"{exp.name}: traceback on stderr: {stderr[-500:]}")
        if not problems:
            try:
                manifest = json.loads((out / "manifest.json").read_text())
                problems += wl.check_summary(exp.name, manifest["summary"])
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{exp.name}: unreadable manifest: {exc!r}")
        tally.record(problems)
        shutil.rmtree(out)
    return total, peak


def cold_slice(exps, work, tally) -> tuple:
    """Mean seconds of cold iterations run for at least SLICE_S seconds, and their peak RSS (MB)."""
    times, peak = [], 0
    while sum(times) < SLICE_S:
        seconds, rss_kb = cold_iteration(exps, work, tally)
        times.append(seconds)
        peak = max(peak, rss_kb)
    return statistics.fmean(times), peak / 1024.0


def setup_time(work) -> float:
    """Seconds to import dgblab.cli in a fresh interpreter."""
    code, _, _, stdout, stderr = run_child([sys.executable, "-c", IMPORT_PROBE], work, child_env())
    if code != 0:
        raise RuntimeError(f"importing dgblab.cli failed:\n{stderr}")
    return float(stdout.strip().splitlines()[-1])


class SerialWorker:
    """A fresh process with one BLAS thread that runs warm iterations on request.

    The process warms up as soon as it starts; `warm_slice` runs one slice
    of iterations there and returns their mean wall time.  `serial_child`
    is the other side.
    """

    def __init__(self, workload, seed, work):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--serial-child",
            "--workload", workload, "--seed", str(seed),
        ]
        self._err = tempfile.TemporaryFile(dir=work)
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._err, text=True,
            env=child_env(OPENBLAS_NUM_THREADS="1"), cwd=ROOT,
        )
        self._killer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._killer.start()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self._err.seek(0)
            raise RuntimeError(f"serial worker stopped:\n{self._err.read().decode()[-2000:]}")
        return json.loads(line)

    def ready(self) -> list:
        """Wait for the warm-up; returns the worker's BLAS libraries."""
        return self._reply()["blas_loaded"]

    def warm_slice(self) -> float:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        return self._reply()["time"]

    def finish(self, tally):
        """Stop the worker and add its experiment runs to `tally`."""
        self.proc.stdin.close()
        got = self._reply()
        tally.attempted += got["attempted"]
        tally.failures += got["failures"]

    def close(self):
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._killer.cancel()
        self.proc.stdout.close()
        self._err.close()


def serial_child(args) -> int:
    """Worker side of `SerialWorker`: one warm slice per line read from stdin."""
    cli = load_cli()
    cfgs = parse_configs(cli, wl.experiments(args.workload, args.seed))
    tally = Tally()
    reference: dict = {}
    with tempfile.TemporaryDirectory(dir=RESULTS) as work:
        warm_iteration(cli, cfgs, work, tally, reference)
        print(json.dumps({"blas_loaded": _blas_libraries()}), flush=True)
        for _ in sys.stdin:
            print(json.dumps({"time": warm_slice(cli, cfgs, work, tally, reference)}), flush=True)
    print(json.dumps({"attempted": tally.attempted, "failures": tally.failures}), flush=True)
    return 0


# -- the two kinds of run -----------------------------------------------------


def end_to_end(cli, args, exps, work, tally) -> tuple:
    """Rounds of one import, one warm slice, one serial slice and one cold slice.

    Rounds repeat while they fit in `--seconds` (at least MIN_ROUNDS).
    Interleaving spreads every metric's samples over the whole run, so a
    change in machine speed during the run moves them alike.
    """
    cfgs = parse_configs(cli, exps)
    reference: dict = {}
    warm_iteration(cli, cfgs, work, tally, reference)
    # the worker warms up only now: two BLAS thread pools spinning on two
    # cores at once slow each other down many times over
    serial = SerialWorker(args.workload, args.seed, work)
    try:
        serial_blas = serial.ready()
        samples = {name: [] for name in END_TO_END_UNITS}
        for _ in rounds(args.seconds, MIN_ROUNDS):
            samples["setup_s"].append(setup_time(work))
            samples["experiment_s"].append(warm_slice(cli, cfgs, work, tally, reference))
            samples["serial_s"].append(serial.warm_slice())
            cold_s, rss_mb = cold_slice(exps, work, tally)
            samples["cold_run_s"].append(cold_s)
            samples["peak_rss_mb"].append(rss_mb)
        while len(samples["setup_s"]) < SETUP_REPEATS:
            samples["setup_s"].append(setup_time(work))
        serial.finish(tally)
    finally:
        serial.close()
    metrics = {
        name: {"value": statistics.median(xs), "unit": END_TO_END_UNITS[name]}
        for name, xs in samples.items()
    }
    samples["serial_blas_loaded"] = serial_blas
    return metrics, samples


def traced(cli, args, exps, work, tally) -> tuple:
    """Untraced and traced iterations in turn; per-layer metrics of the traced ones.

    Times are medians over the traced iterations; counts come from the
    first and must repeat exactly in every other.
    """
    cfgs = parse_configs(cli, exps)
    reference: dict = {}
    warm_iteration(cli, cfgs, work, tally, reference)
    tracer = tr.Tracer()
    plain, times, sizes = [], [], []
    # alternate untraced and traced iterations so drift in machine speed
    # does not show up as tracing overhead
    for _ in rounds(args.seconds, MIN_ROUNDS):
        plain.append(warm_iteration(cli, cfgs, work, tally, reference)[0])
        with tracer:
            seconds, size = warm_iteration(cli, cfgs, work, tally, reference, tracer)
        times.append(seconds)
        sizes.append(size)
    per_iter = [
        tr.layer_metrics(tr.iteration_spans(tracer.spans, i + 1), tracer.counts[i + 1])
        for i in range(len(times))
    ]
    counts = [k for k, unit in tr.LAYER_UNITS.items() if unit == "count"]
    for i, got in enumerate(per_iter[1:], 2):
        moved = [k for k in counts if got[k] != per_iter[0][k]]
        if sizes[i - 1] != sizes[0]:
            moved.append("cli.artifact_bytes")
        if moved:
            tally.failures.append(f"traced iteration {i}: counts differ from iteration 1: {moved}")
    metrics = {}
    for name, unit in tr.LAYER_UNITS.items():
        value = per_iter[0][name] if unit == "count" else statistics.median(m[name] for m in per_iter)
        metrics[name] = {"value": value, "unit": unit}
    metrics["cli.artifact_bytes"] = {"value": sizes[0], "unit": "bytes"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(times) - statistics.median(plain),
        "unit": "s",
    }
    path = RESULTS / f"spans-{args.workload}.json"
    tracer.dump(path, {"workload": args.workload, "seed": args.seed})
    samples = {"untraced_s": plain, "traced_s": times, "per_iteration": per_iter, "spans": path.name}
    return metrics, samples


def report(args, env, metrics, samples, tally) -> dict:
    failed = len(tally.failures)
    print("env " + json.dumps(env, sort_keys=True))
    for msg in tally.failures:
        print(f"FAILED {msg}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        count = samples.get(name)
        note = f"  (median of {len(count)})" if isinstance(count, list) else ""
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}{note}")
    frac = failed / max(tally.attempted, 1)
    print(f"  {'failed_frac':42s} {frac:>14.6g} 1  ({failed} of {tally.attempted} experiment runs)")
    result = {
        "correct": failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    record = {"env": env, "result": result, "samples": samples, "failures": tally.failures}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serial-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        RESULTS.mkdir(exist_ok=True)
        if args.serial_child:
            return serial_child(args)
        cli = load_cli()
        exps = wl.experiments(args.workload, args.seed)
        tally = Tally()
        with tempfile.TemporaryDirectory(dir=RESULTS) as work:
            run = traced if args.trace else end_to_end
            metrics, samples = run(cli, args, exps, Path(work), tally)
        env = environment(args.workload, args.seed)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report(args, env, metrics, samples, tally)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
