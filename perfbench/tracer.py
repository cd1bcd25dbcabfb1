"""In-memory span tracer for the diracmaxwell package, installed from outside it.

``Tracer.install`` wraps every function and plain method defined in the
package's modules, then rebinds *every* module-level binding of each wrapped
function.  The package imports by name (``from .fourier import
poisson_solve`` in evolve_dm, evolve_limits and studies), so rebinding only
the defining module would miss those calls; function-local imports such as
the ``gradient`` import inside ``_advect_apply`` read the module attribute at
call time and so see the wrapper too.

Each call records a span ``[name, start, end, parent]`` in a list.  A span's
self time is its duration minus the durations of its direct children (calls
are nested and single-threaded, so children never overlap).  Span names are
``<module>.<function>`` or ``<module>.<Class>.<method>``.

Besides spans the tracer keeps counts made at the same boundaries:

* FFT components: every ``Lattice.fft``/``Lattice.ifft`` call adds its number
  of leading components (1 for a scalar field), split into forward/inverse
  and real/complex input, to the innermost enclosing ``dm_strang_step`` or
  ``pauli_step`` span (or to ``other``).
* Retained memory: the bytes of the arrays held by each returned
  ``Trajectory``, ``SPTrajectory``, ``PauliTrajectory`` and ``PicardResult``,
  computed from array sizes (not measured).
* Snapshot bytes: the payload size passed to ``write_fld``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import pkgutil
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "diracmaxwell"
ROOT_SPAN = "workload"
DM_STEP = "evolve_dm.dm_strang_step"
PAULI_STEP = "evolve_limits.pauli_step"
_STEP_SPANS = (DM_STEP, PAULI_STEP)
_FFT_SPANS = ("fourier.Lattice.fft", "fourier.Lattice.ifft")
_STUDY_SPANS = ("studies.nonrel_convergence_study", "studies.seminonrel_study")
_STUDY_SOLVERS = ("studies._dm_run", "evolve_limits.simulate_sp", "evolve_limits.simulate_pauli")


def retained_bytes(obj) -> int:
    """Bytes of the distinct ndarrays reachable through dataclass fields,
    lists, tuples and dicts of ``obj`` (computed from array sizes)."""
    seen = set()
    total = 0
    todo = [obj]
    while todo:
        x = todo.pop()
        if isinstance(x, np.ndarray):
            if id(x) not in seen:
                seen.add(id(x))
                total += x.nbytes
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend(x.values())
    return total


def _components(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-3])) if len(shape) > 3 else 1


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []
        # (step span or "other", "fwd"/"inv", "real"/"complex") -> components
        self.fft_components: Counter = Counter()
        self.retained: dict = defaultdict(int)   # label -> max bytes of one result
        self.written_bytes = 0
        self._hooks = {
            "fourier.Lattice.fft": self._count_fft("fwd"),
            "fourier.Lattice.ifft": self._count_fft("inv"),
            "fourier.write_fld": self._count_written,
            "evolve_dm.simulate_dm": self._keep_max("evolve_dm.trajectory"),
            "evolve_dm.picard_solve": self._keep_max("evolve_dm.picard"),
            "evolve_limits.simulate_sp": self._keep_max("evolve_limits.trajectory"),
            "evolve_limits.simulate_pauli": self._keep_max("evolve_limits.trajectory"),
        }

    # -- hooks, run after the span closes ---------------------------------------

    def _innermost_step(self) -> str:
        for idx in reversed(self._stack):
            if self.spans[idx][0] in _STEP_SPANS:
                return self.spans[idx][0]
        return "other"

    def _count_fft(self, direction):
        def hook(args, kwargs, result):
            field = args[1] if len(args) > 1 else next(iter(kwargs.values()))
            kind = "complex" if np.iscomplexobj(field) else "real"
            self.fft_components[(self._innermost_step(), direction, kind)] += _components(field)
        return hook

    def _count_written(self, args, kwargs, result):
        values = args[2] if len(args) > 2 else kwargs["values"]
        self.written_bytes += np.asarray(values).nbytes

    def _keep_max(self, label):
        def hook(args, kwargs, result):
            self.retained[label] = max(self.retained[label], retained_bytes(result))
        return hook

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _modules():
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def install(self) -> "Tracer":
        """Wrap the package's functions and methods and rebind every binding
        of them in the package's modules."""
        modules = self._modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for mattr, mobj in list(vars(obj).items()):
                        if isinstance(mobj, types.FunctionType) and not mattr.startswith("__"):
                            setattr(obj, mattr, self._wrap(f"{short}.{obj.__name__}.{mattr}", mobj))
                            self._restore.append((obj, mattr, mobj))
        for ns in modules:
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(ns, attr, wrappers[obj])
                    self._restore.append((ns, attr, obj))
        return self

    def uninstall(self) -> None:
        while self._restore:
            ns, attr, obj = self._restore.pop()
            setattr(ns, attr, obj)

    @contextmanager
    def root(self):
        """Span around the workload's entry call; the per-layer shares use it."""
        idx = len(self.spans)
        self.spans.append([ROOT_SPAN, time.perf_counter(), 0.0, -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    # -- results ------------------------------------------------------------------

    def span_stats(self):
        """Per span name: calls, total seconds and self seconds, and per
        (parent name, child name) the seconds of direct child spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        by_pair = defaultdict(float)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
                by_pair[(spans[parent][0], name)] += t1 - t0
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for (name, t0, t1, _), c in zip(spans, child):
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - c
        return calls, total, self_s, by_pair

    def counts(self) -> dict:
        """Everything that must repeat exactly between two traced runs."""
        return {
            "calls": dict(sorted(Counter(span[0] for span in self.spans).items())),
            "fft_components": {"/".join(k): v for k, v in sorted(self.fft_components.items())},
            "retained_bytes": dict(sorted(self.retained.items())),
            "written_bytes": self.written_bytes,
        }

    def layer_metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json, by name -> (value, unit)."""
        calls, total, self_s, by_pair = self.span_stats()
        dm_steps = calls[DM_STEP]
        pauli_steps = calls[PAULI_STEP]

        def per(x, n):
            return x / n if n else 0.0

        def ms_per_call(name):
            return 1e3 * per(total[name], calls[name])

        def fft(step, direction=None, kind=None):
            return sum(v for (s, d, k), v in self.fft_components.items()
                       if s == step and direction in (None, d) and kind in (None, k))

        def outside(parents, children):
            """Time in ``parents`` spans outside their direct ``children``."""
            return sum(total[p] - sum(by_pair[(p, c)] for c in children) for p in parents)

        fft_self = sum(self_s[n] for n in _FFT_SPANS)
        mb = 1.0 / 2**20
        return {
            "fourier.fft.fwd_components_per_dm_step": (per(fft(DM_STEP, "fwd"), dm_steps), "count"),
            "fourier.fft.inv_components_per_dm_step": (per(fft(DM_STEP, "inv"), dm_steps), "count"),
            "fourier.fft.real_input_components_per_dm_step": (per(fft(DM_STEP, kind="real"), dm_steps), "count"),
            "fourier.fft.components_per_pauli_step": (per(fft(PAULI_STEP), pauli_steps), "count"),
            "fourier.fft.self_s": (fft_self, "s"),
            "fourier.fft.share": (per(fft_self, total[ROOT_SPAN]), "fraction"),
            "fourier.poisson_solve.calls_per_dm_step": (per(calls["fourier.poisson_solve"], dm_steps), "count"),
            "fourier.gradient.calls_per_pauli_step": (per(calls["fourier.gradient"], pauli_steps), "count"),
            "fourier.sobolev_norm.self_s": (self_s["fourier.sobolev_norm"], "s"),
            "fourier.write_fld.self_s": (self_s["fourier.write_fld"], "s"),
            "fourier.write_fld.mb": (self.written_bytes * mb, "MB"),
            "spinors.pi_eps.self_s": (self_s["spinors.pi_eps"], "s"),
            "spinors.mat.calls_per_dm_step": (per(calls["spinors.mat"], dm_steps), "count"),
            "spinors.mat.self_s": (self_s["spinors.mat"], "s"),
            "spinors.current_density.ms_per_call": (ms_per_call("spinors.current_density"), "ms"),
            "spinors.charge_density.ms_per_call": (ms_per_call("spinors.charge_density"), "ms"),
            "evolve_dm.dm_strang_step.ms_per_call": (ms_per_call(DM_STEP), "ms"),
            "evolve_dm.free_dirac_step.ms_per_call": (ms_per_call("evolve_dm.free_dirac_step"), "ms"),
            "evolve_dm.free_dirac_step.calls_per_dm_step": (per(calls["evolve_dm.free_dirac_step"], dm_steps), "count"),
            "evolve_dm.potential_kick.ms_per_call": (ms_per_call("evolve_dm.potential_kick"), "ms"),
            "evolve_dm.potential_kick.calls_per_dm_step": (per(calls["evolve_dm.potential_kick"], dm_steps), "count"),
            "evolve_dm.wave_step.ms_per_call": (ms_per_call("evolve_dm.wave_step"), "ms"),
            "evolve_dm.diagnose.ms_per_call": (ms_per_call("evolve_dm._diagnose"), "ms"),
            "evolve_dm.trajectory.retained_mb": (self.retained["evolve_dm.trajectory"] * mb, "MB"),
            "evolve_dm.picard_solve.self_s": (self_s["evolve_dm.picard_solve"], "s"),
            "evolve_dm.picard_solve.free_dirac_calls": (calls["evolve_dm.free_dirac_step"] if calls["evolve_dm.picard_solve"] else 0, "count"),
            "evolve_dm.duhamel_dirac.self_s": (self_s["evolve_dm._duhamel_dirac"], "s"),
            "evolve_dm.picard.retained_mb": (self.retained["evolve_dm.picard"] * mb, "MB"),
            "evolve_limits.sp_step.calls": (calls["evolve_limits.sp_step"], "count"),
            "evolve_limits.sp_step.ms_per_call": (ms_per_call("evolve_limits.sp_step"), "ms"),
            "evolve_limits.pauli_step.ms_per_call": (ms_per_call(PAULI_STEP), "ms"),
            "evolve_limits.advect_apply.ms_per_call": (ms_per_call("evolve_limits._advect_apply"), "ms"),
            "evolve_limits.gauge_source_at.ms_per_call": (ms_per_call("evolve_limits.GaugeSource.at"), "ms"),
            "evolve_limits.trajectory.retained_mb": (self.retained["evolve_limits.trajectory"] * mb, "MB"),
            # sample matching and error norms: the study minus its solver runs
            "studies.study.self_s": (outside(_STUDY_SPANS, _STUDY_SOLVERS), "s"),
            # config checks, data generation, CSV and manifest writing
            "cli.cmd_run_dm.self_s": (outside(["cli.cmd_run_dm"], ["evolve_dm.simulate_dm", "fourier.write_fld"]), "s"),
        }
