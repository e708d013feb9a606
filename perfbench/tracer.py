"""In-memory span tracer for dgblab, installed from outside the package.

A `Tracer` wraps, while it is installed, every public function of the
dgblab modules named in `MODULES`, a few named private functions and
methods (`NAMED`), and the numpy/scipy kernels the package calls
(`KERNELS`).  A wrapped name is replaced in every dgblab module namespace
that holds the same object, so a function imported into another module
(for example `linear_control_gramian` in `dgblab.cli`) is traced wherever
it is called from.  Nothing in the package is edited; `uninstall` puts
every original object back.

Each span is ``[name, start, end, parent, iteration, attrs]``: the parent
is the index of the enclosing span (-1 for a root) and `iteration` is the
tracer's current iteration id.  A span's self time is its duration minus
the durations of its children; calls are single-threaded and nest, so
the children of a span never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "dynamics", "damping", "control", "symbols", "spectral")

# span name -> (module, attribute path); private functions and methods
NAMED = {
    "dynamics.step": ("dgblab.dynamics", "Etdrk4Integrator.step"),
    "dynamics.nonlinearity": ("dgblab.dynamics", "Etdrk4Integrator.nonlinearity"),
    "dynamics.integrator_setup": ("dgblab.dynamics", "Etdrk4Integrator.__init__"),
    "control.certificate": ("dgblab.control", "_certify_linear"),
}


def _size(args, kwargs, out):
    return {"points": int(np.size(args[0]))}


def _dim(args, kwargs, out):
    return {"dim": int(np.shape(args[0])[0])}


def _ivp_work(args, kwargs, out):
    return {"nfev": int(out.nfev), "steps": int(len(out.t) - 1)}


# span name -> ([(module, attribute), ...], attrs recorder); the real and
# scipy.fft transforms are listed so a switch to them is still counted
KERNELS = {
    "kernels.fft": (
        [(mod, f) for mod in ("numpy.fft", "scipy.fft") for f in ("fft", "ifft", "rfft", "irfft")],
        _size,
    ),
    "kernels.expm": ([("scipy.linalg", "expm")], _dim),
    "kernels.eig": (
        [(mod, f) for mod in ("numpy.linalg", "scipy.linalg") for f in ("eig", "eigvals", "eigh", "eigvalsh")],
        None,
    ),
    "kernels.solve_ivp": ([("scipy.integrate", "solve_ivp")], _ivp_work),
}

# per-layer metrics of one iteration: name -> unit
LAYER_UNITS = {
    "dynamics.step.calls": "count",
    "dynamics.step.self_s": "s",
    "dynamics.step.p50_us": "us",
    "dynamics.step.p99_us": "us",
    "dynamics.nonlinearity.calls": "count",
    "dynamics.nonlinearity.self_s": "s",
    "dynamics.integrator_setup.calls": "count",
    "dynamics.integrator_setup.s": "s",
    "dynamics.build_closed_loop.calls": "count",
    "dynamics.build_closed_loop.s": "s",
    "dynamics.energy_residual.s": "s",
    "damping.feedback_matrix.calls": "count",
    "damping.feedback_matrix.s": "s",
    "damping.dissipation_form.calls": "count",
    "damping.dissipation_form.s": "s",
    "damping.make_profile_bump.s": "s",
    "control.certificate.s": "s",
    "control.certificate.nfev": "count",
    "control.certificate.steps": "count",
    "control.linear_control_gramian.self_s": "s",
    "control.observability_constant.calls": "count",
    "control.observability_constant.self_s": "s",
    "control.nonlinear_control_global.self_s": "s",
    "symbols.multiplicity_scan.s": "s",
    "symbols.gap_check.s": "s",
    "symbols.resonance_check.s": "s",
    "symbols.modulation_check.s": "s",
    "spectral.nonlinear_term.calls": "count",
    "spectral.nonlinear_term.self_s": "s",
    "spectral.fields_built": "count",
    "kernels.fft.calls": "count",
    "kernels.fft.s": "s",
    "kernels.fft.points": "count",
    "kernels.expm.calls": "count",
    "kernels.expm.s": "s",
    "kernels.expm.max_dim": "count",
    "kernels.eig.calls": "count",
    "kernels.eig.s": "s",
    "cli.run.self_s": "s",
    "cli.write_csv.calls": "count",
    "cli.write_csv.s": "s",
}


def _dgblab_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "dgblab" or name.startswith("dgblab."))
    ]


class Tracer:
    """Records spans around dgblab's layers while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(Counter)  # iteration -> counts
        self.iteration = 0
        self._stack: list = []
        self._patches: list = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, attrs=None):
        """Return `fn` wrapped in a span called `name`."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.iteration, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out

        return traced

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper, homes=()):
        for owner in (*homes, *_dgblab_modules()):
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, attr, wrapper)

    def install(self):
        """Wrap every traced name; call `uninstall` to restore them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import dgblab.cli  # noqa: F401  (loads every traced module)

        for span_name, (targets, attrs) in KERNELS.items():
            for mod_name, attr in targets:
                home = sys.modules.get(mod_name)
                original = getattr(home, attr, None) if home is not None else None
                if original is None:
                    continue
                self._replace_everywhere(original, self.wrap(span_name, original, attrs), (home,))

        for span_name, (mod_name, path) in NAMED.items():
            owner = sys.modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if span_name == "dynamics.integrator_setup":
                wrapper = self._wrap_setup(original)
            else:
                wrapper = self.wrap(span_name, original)
            if inspect.ismodule(owner):
                self._replace_everywhere(original, wrapper)
            else:
                self._set(owner, attr, wrapper)

        for short in MODULES:
            mod = sys.modules[f"dgblab.{short}"]
            for attr, value in list(vars(mod).items()):
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    self._replace_everywhere(value, self.wrap(f"{short}.{attr}", value))

        field_cls = sys.modules["dgblab.spectral"].SpectralField
        post_init = field_cls.__post_init__
        counts = self.counts

        def counted_post_init(field):
            counts[self.iteration]["spectral.fields_built"] += 1
            post_init(field)

        self._set(field_cls, "__post_init__", counted_post_init)

    def _wrap_setup(self, init):
        """Integrator construction span; also traces the forcing callback it keeps."""

        def setup(integrator, *args, **kwargs):
            init(integrator, *args, **kwargs)
            forcing = getattr(integrator, "forcing", None)
            if forcing is not None:
                integrator.forcing = self.wrap("dynamics.forcing", forcing)

        return self.wrap("dynamics.integrator_setup", functools.wraps(init)(setup))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -------------------------------------------------------------

    def dump(self, path, meta: dict):
        """Write every span as JSON: name table plus [name, start_ns, end_ns, parent, iteration]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[s[0]], round((s[1] - t0) * 1e9), round((s[2] - t0) * 1e9), s[3], s[4]]
            for s in self.spans
        ]
        doc = {**meta, "fields": ["name", "start_ns", "end_ns", "parent", "iteration"], "names": names}
        doc["spans"] = rows
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def self_times(spans) -> list:
    """Self time of every span: its duration minus its children's durations."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _ancestor_names(spans) -> list:
    """For each span, the frozenset of names of its ancestors (shared, interned)."""
    out = []
    intern: dict = {}
    empty = frozenset()
    for s in spans:
        if s[3] < 0:
            out.append(empty)
            continue
        key = (out[s[3]], spans[s[3]][0])
        got = intern.get(key)
        if got is None:
            got = intern[key] = key[0] | {key[1]}
        out.append(got)
    return out


def iteration_spans(spans, iteration: int) -> list:
    """The spans of one iteration, re-indexed so parents point into the sublist."""
    keep = [i for i, s in enumerate(spans) if s[4] == iteration]
    where = {old: new for new, old in enumerate(keep)}
    return [
        [s[0], s[1], s[2], where.get(s[3], -1), s[4], s[5]] for s in (spans[i] for i in keep)
    ]


def layer_metrics(spans, counts) -> dict:
    """The per-layer metrics (`LAYER_UNITS`) of one iteration's spans and counts.

    `.s` sums the durations of a name's outermost spans, `.self_s` the self
    times of all its spans, `.calls` counts them.
    """
    own = self_times(spans)
    anc = _ancestor_names(spans)
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    step_us = []
    nfev = steps = points = max_dim = 0
    for s, own_s, above in zip(spans, own, anc):
        name = s[0]
        calls[name] += 1
        self_s[name] += own_s
        if name not in above:
            total[name] += s[2] - s[1]
        attrs = s[5] or {}
        if name == "dynamics.step":
            step_us.append((s[2] - s[1]) * 1e6)
        elif name == "kernels.fft":
            points += attrs.get("points", 0)
        elif name == "kernels.expm":
            max_dim = max(max_dim, attrs.get("dim", 0))
        elif name == "kernels.solve_ivp" and "control.certificate" in above:
            nfev += attrs.get("nfev", 0)
            steps += attrs.get("steps", 0)
        elif name == "dynamics.forcing" and "control.nonlinear_control_global" in above:
            self_s["control.nonlinear_control_global"] += own_s

    out = {}
    for metric in LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[layer]
        elif kind == "s":
            out[metric] = total[layer]
        elif kind == "self_s":
            out[metric] = self_s[layer]
    pct = np.percentile(step_us, [50, 99]) if step_us else (0.0, 0.0)
    out["dynamics.step.p50_us"] = float(pct[0])
    out["dynamics.step.p99_us"] = float(pct[1])
    out["control.certificate.nfev"] = nfev
    out["control.certificate.steps"] = steps
    out["kernels.fft.points"] = points
    out["kernels.expm.max_dim"] = max_dim
    out["spectral.fields_built"] = counts.get("spectral.fields_built", 0)
    return out
