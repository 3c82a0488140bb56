"""Span tracing of the smallmass layers, installed from outside the package.

The tracer replaces public functions and methods of the package with thin
wrappers for the duration of a ``with tracer.installed():`` block and puts the
originals back afterwards, so untraced rounds run the unmodified code.  A
function imported by name into another module (``from .linalg import expm``)
is replaced in every module that holds it.

Spans are aggregated as they close: for each span name the tracer keeps the
call count, the inclusive time, and the self time (inclusive time minus the
time covered by the spans it directly caused).  Because every interval of the
root span is attributed to exactly one span's self time, the self times of a
traced round add up to the round's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

ROOT = "round"

MODULES = (
    "smallmass.cli",
    "smallmass.convergence",
    "smallmass.driver",
    "smallmass.dynamics",
    "smallmass.linalg",
    "smallmass.measures",
    "smallmass.models",
)

# (module, attribute) of every traced entry point.  A dotted attribute names a
# method on a class of that module.
TARGETS = (
    ("smallmass.cli", "parse_config"),
    ("smallmass.convergence", "run_convergence"),
    ("smallmass.convergence", "fit_rate"),
    ("smallmass.convergence", "report_to_json"),
    ("smallmass.convergence", "report_to_csv"),
    ("smallmass.driver", "NoiseDriver.fast_increments"),
    ("smallmass.driver", "NoiseDriver.fast_increments_batch"),
    ("smallmass.driver", "NoiseDriver.coarse_from_fast"),
    ("smallmass.dynamics", "simulate_coupled"),
    ("smallmass.dynamics", "run_limit_path"),
    ("smallmass.dynamics", "diagnostics_velocity"),
    ("smallmass.dynamics", "validate_assumptions"),
    ("smallmass.dynamics", "write_path_csv"),
    ("smallmass.linalg", "expm"),
    ("smallmass.linalg", "lyapunov_batch"),
    ("smallmass.linalg", "sylvester_batch"),
    ("smallmass.measures", "wasserstein2_assignment"),
    ("smallmass.models", "SystemModel.force_field"),
    ("smallmass.models", "SystemModel.noise_field"),
    ("smallmass.models", "SystemModel.friction_field"),
    ("smallmass.models", "SystemModel.friction_dx_field"),
    ("smallmass.models", "SystemModel.friction_dmu_field"),
    ("smallmass.models", "limit_drift_fields"),
)


def _batch_count(shape) -> int:
    return int(np.prod(shape[:-2], dtype=np.int64))


def _count_increments(counts, a):
    replicas, n_steps = a["replicas"], a["n_steps"]
    n_particles, n_components = a["n_particles"], a["n_components"]
    streams = len(replicas) * n_particles * n_components
    counts["driver.streams"] += streams
    mb = streams * n_steps * 8 / 2.0**20
    counts["driver.increment_mb"] = max(counts["driver.increment_mb"], mb)


def _count_pairs(counts, a):
    # B * m evaluation points against n measure samples (or Lions points Y)
    X = a["X"]
    n = a["Y"].shape[1] if "Y" in a else a["samples"].shape[1]
    counts["models.pair_evals"] += X.shape[0] * X.shape[1] * n


def _count_solves(counts, a):
    mats = list(a.values())
    n = _batch_count(np.broadcast_shapes(*(np.shape(m) for m in mats)))
    d = np.shape(mats[0])[-1]
    counts["linalg.matrix_solves"] += n
    counts["linalg.solve_flops"] += n * (2.0 / 3.0) * d**6


COUNTERS = {
    "NoiseDriver.fast_increments_batch": _count_increments,
    "SystemModel.friction_field": _count_pairs,
    "SystemModel.friction_dx_field": _count_pairs,
    "SystemModel.friction_dmu_field": _count_pairs,
    "lyapunov_batch": _count_solves,
    "sylvester_batch": _count_solves,
}


class Tracer:
    """Aggregating span recorder; one instance per traced phase."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []   # [name, start, time covered by child spans]

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        span = time.perf_counter() - start
        self.calls[name] += 1
        self.total_s[name] += span
        self.self_s[name] += span - child
        if self._stack:
            self._stack[-1][2] += span

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        params = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                named = dict(zip(params, args))
                named.update(kwargs)
                named.pop("self", None)
                count(self.counts, named)
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the block; the block itself is the root span."""
        modules = [importlib.import_module(m) for m in MODULES]
        undo = []
        try:
            for module_name, attr in TARGETS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(attr, original))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(attr, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, original))
            self._enter(ROOT)
            try:
                yield self
            finally:
                self._exit()
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)
