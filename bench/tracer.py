"""Per-layer tracing of restent from outside the program.

``Tracer.install`` wraps the public functions of each layer module (spd,
metrics, dynamics, entropy, props, cli) and rebinds every name under which a
restent module holds them, including names bound by ``from ... import`` and
the command table of the CLI.  Each wrapped function aggregates its call
count, busy time (outermost calls only, so recursion is not counted twice)
and self time (busy time minus the time of wrapped callees).  Leaf kernels
such as ``power``, ``geodesic`` and the system right-hand sides are therefore
counters plus time, not one span per call.

A name that a later version of the program removes is reported as absent:
its metrics read 0 and ``Tracer.absent`` names it.
"""
from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import inspect
import math
import sys
import time
import warnings

import numpy as np

LAYERS = ("spd", "metrics", "dynamics", "entropy", "props", "cli")
# Symmetrisation is two array operations; a wrapper would cost more than it.
UNWRAPPED = {"spd.sym"}
COMMANDS = ("lanford", "bound", "sweep", "oracle", "props")


class _Stat:
    __slots__ = ("calls", "busy", "own", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.own = 0.0
        self.depth = 0


def _rows(x) -> int:
    return math.prod(np.shape(x)[:-1])


def _matrices(a) -> int:
    return math.prod(np.shape(a)[:-2])


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts = collections.Counter()
        self.absent: set[str] = set()
        self._stack: list[float] = []
        self._patches: list = []

    # --- wrapping ----------------------------------------------------------

    def timed(self, key, fn):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.depth += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.own += elapsed - stack.pop()
                stat.calls += 1
                stat.depth -= 1
                if not stat.depth:
                    stat.busy += elapsed
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _active(self, key) -> bool:
        stat = self.stats.get(key)
        return stat is not None and stat.depth > 0

    def _count_matrices(self, key):
        """Counter of the matrices in the batch passed as first argument."""
        def wrap(fn):
            def counted(p, *args, **kwargs):
                self.counts[key] += _matrices(p)
                return fn(p, *args, **kwargs)
            return counted
        return wrap

    def _count_barycenter(self, fn):
        geodesic = self.stats.get("spd.geodesic") or _Stat()

        def barycenter(*args, **kwargs):
            before = geodesic.calls
            caught = []
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    return fn(*args, **kwargs)
            finally:
                self.counts["spd.inductive_barycenter.geodesics"] += geodesic.calls - before
                for w in caught:
                    if "barycenter stopped" in str(w.message):
                        self.counts["spd.inductive_barycenter.unconverged"] += 1
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return barycenter

    def _count_cache(self, fn):
        def evaluate(metric, x, *args, **kwargs):
            if metric.kind == "tabulated" and np.ndim(x) == 1:
                cache = getattr(metric, "_cache", None)
                if cache is None:
                    self.absent.add("metrics.cache_hit_ratio")
                else:
                    self.counts["metrics.cache_lookups"] += 1
                    self.counts["metrics.cache_hits"] += (
                        np.asarray(x, dtype=float).tobytes() in cache)
            return fn(metric, x, *args, **kwargs)
        return evaluate

    def _count_propagate(self, fn):
        def propagate(*args, **kwargs):
            prop = fn(*args, **kwargs)
            self.counts["dynamics.propagate.rows"] += len(prop.escaped)
            self.counts["dynamics.escaped"] += int(np.count_nonzero(prop.escaped))
            return prop
        return propagate

    def _count_samples(self, fn):
        def sample_set(*args, **kwargs):
            pts = fn(*args, **kwargs)
            for kind in ("ct_bound", "dt_bound"):
                if self._active(f"entropy.{kind}"):
                    self.counts[f"entropy.{kind}.points"] += len(pts)
            return pts
        return sample_set

    def _count_bound(self, kind):
        from restent.errors import NumericError

        def wrap(fn):
            def bound(*args, **kwargs):
                before = self.counts[f"entropy.{kind}.points"]
                try:
                    report = fn(*args, **kwargs)
                except NumericError:
                    # a bound with no surviving point raises: all are excluded
                    self.counts["entropy.excluded"] += (
                        self.counts[f"entropy.{kind}.points"] - before)
                    raise
                self.counts["entropy.refinements"] += getattr(report, "refinements", 0)
                self.counts["entropy.excluded"] += len(report.excluded)
                return report
            return bound
        return wrap

    def _count_oracle(self, fn):
        def lyapunov_oracle(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["entropy.excluded"] += len(result.excluded)
            return result
        return lyapunov_oracle

    def _time_metric_rule(self, fn):
        def minimizing_metric(*args, **kwargs):
            metric = fn(*args, **kwargs)
            if metric.kind != "tabulated":
                return metric
            return dataclasses.replace(
                metric, eval_rule=self.timed("entropy.metric_rule", metric.eval_rule))
        return minimizing_metric

    def _counted_rows(self, key, fn, propagated=False):
        def counted(x):
            n = _rows(x)
            self.counts[f"{key}.rows"] += n
            if (propagated and self._active("dynamics.propagate")
                    and not self._active("dynamics.select_step")):
                self.counts["dynamics.propagate.rhs_rows"] += n
            return fn(x)
        return self.timed(key, counted)

    def _count_system(self, fn):
        def factory(*args, **kwargs):
            system = fn(*args, **kwargs)
            return dataclasses.replace(
                system,
                rhs=self._counted_rows("dynamics.rhs", system.rhs, propagated=True),
                jacobian=self._counted_rows("dynamics.jacobian", system.jacobian))
        return factory

    # --- install / uninstall -------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"restent.{layer}") for layer in LAYERS}
        counters = {
            "spd.power": self._count_matrices("spd.power.matrices"),
            "metrics.ct_spectrum_values": self._count_matrices(
                "metrics.ct_spectrum_values.points"),
            "dynamics.propagate": self._count_propagate,
            "dynamics.sample_set": self._count_samples,
            "entropy.ct_bound": self._count_bound("ct_bound"),
            "entropy.dt_bound": self._count_bound("dt_bound"),
            "entropy.lyapunov_oracle": self._count_oracle,
            "entropy.minimizing_metric_dt": self._time_metric_rule,
            "entropy.minimizing_metric_ct": self._time_metric_rule,
        }
        builtin = getattr(modules["dynamics"], "builtin_systems", None)
        factories = set(builtin().values()) if builtin else set()
        # geodesic precedes the barycenter, whose counter reads its stat
        ordered = sorted(
            ((layer, name, obj) for layer, mod in modules.items()
             for name, obj in vars(mod).items()
             if inspect.isfunction(obj) and obj.__module__ == mod.__name__
             and not name.startswith("_") and f"{layer}.{name}" not in UNWRAPPED),
            key=lambda item: item[1] == "inductive_barycenter")
        replacements = {}
        for layer, name, obj in ordered:
            key = f"{layer}.{name}"
            inner = obj
            if key in counters:
                inner = counters[key](obj)
            elif key == "spd.inductive_barycenter":
                inner = self._count_barycenter(obj)
            elif obj in factories:
                inner = self._count_system(obj)
            replacements[obj] = self.timed(key, inner)
        for key in ("dynamics.rhs", "dynamics.jacobian") if factories else ():
            self.stats.setdefault(key, _Stat())
        if {"entropy.minimizing_metric_dt", "entropy.minimizing_metric_ct"} & self.stats.keys():
            self.stats.setdefault("entropy.metric_rule", _Stat())

        for modname, mod in list(sys.modules.items()):
            if modname != "restent" and not modname.startswith("restent."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._patch(mod, attr, replacements[value])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in replacements:
                            self._patch_item(value, k, replacements[v])

        self._patch_method(modules["metrics"], "MetricField", "evaluate",
                           "metrics.evaluate", self._count_cache)
        self._patch_method(modules["entropy"], "BoundReport", "to_json",
                           "entropy.report.to_json")
        self._patch_method(modules["entropy"], "BoundReport", "to_csv",
                           "entropy.report.to_csv")

    def _patch(self, owner, attr, value):
        self._patches.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_item(self, table, key, value):
        self._patches.append((dict.__setitem__, table, key, table[key]))
        table[key] = value

    def _patch_method(self, module, cls_name, method, key, counter=None):
        cls = getattr(module, cls_name, None)
        fn = getattr(cls, method, None)
        if fn is None:
            self.absent.add(key)
            return
        self._patch(cls, method, self.timed(key, counter(fn) if counter else fn))

    def uninstall(self):
        while self._patches:
            restore, owner, attr, original = self._patches.pop()
            restore(owner, attr, original)

    # --- reporting -----------------------------------------------------------

    def _stat(self, key) -> _Stat:
        stat = self.stats.get(key)
        if stat is None:
            self.absent.add(key)
            return _Stat()
        return stat

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        out = {}

        def put(name, value, unit="count"):
            out[name] = (value, unit)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        c, st = self.counts, self._stat
        put("spd.power.calls", st("spd.power").calls)
        put("spd.power.matrices", c["spd.power.matrices"])
        put("spd.power.s", st("spd.power").busy, "s")
        put("spd.geodesic.calls", st("spd.geodesic").calls)
        put("spd.geodesic.s", st("spd.geodesic").busy, "s")
        bar = st("spd.inductive_barycenter")
        put("spd.inductive_barycenter.calls", bar.calls)
        put("spd.inductive_barycenter.s", bar.busy, "s")
        put("spd.inductive_barycenter.geodesics_per_call",
            ratio(c["spd.inductive_barycenter.geodesics"], bar.calls))
        put("spd.inductive_barycenter.unconverged", c["spd.inductive_barycenter.unconverged"])
        put("spd.distance.calls", st("spd.distance").calls)

        put("metrics.evaluate.calls", st("metrics.evaluate").calls)
        put("metrics.evaluate.s", st("metrics.evaluate").busy, "s")
        put("metrics.cache_lookups", c["metrics.cache_lookups"])
        put("metrics.cache_hit_ratio",
            ratio(c["metrics.cache_hits"], c["metrics.cache_lookups"]), "ratio")
        put("metrics.metric_sv_values.calls", st("metrics.metric_sv_values").calls)
        put("metrics.metric_sv_values.self_s", st("metrics.metric_sv_values").own, "s")
        spectrum = st("metrics.ct_spectrum_values")
        put("metrics.ct_spectrum_values.calls", spectrum.calls)
        put("metrics.ct_spectrum_values.points", c["metrics.ct_spectrum_values.points"])
        put("metrics.ct_spectrum_values.self_s", spectrum.own, "s")
        put("metrics.orbital_derivative_fd.calls", st("metrics.orbital_derivative_fd").calls)
        put("metrics.orbital_derivative_fd.s", st("metrics.orbital_derivative_fd").busy, "s")

        prop, select = st("dynamics.propagate"), st("dynamics.select_step")
        put("dynamics.propagate.calls", prop.calls)
        put("dynamics.propagate.self_s", prop.own, "s")
        put("dynamics.propagate.rows_per_call",
            ratio(c["dynamics.propagate.rows"], prop.calls))
        # propagation time outside step selection per rhs row it evaluated
        put("dynamics.propagate.ns_per_row",
            ratio(prop.busy - select.busy, c["dynamics.propagate.rhs_rows"], 1e9), "ns")
        put("dynamics.select_step.calls", select.calls)
        put("dynamics.select_step.s", select.busy, "s")
        put("dynamics.invariance_spot_check.s", st("dynamics.invariance_spot_check").busy, "s")
        for key in ("dynamics.rhs", "dynamics.jacobian"):
            st(key)     # absent when no system factory was found to wrap
            put(f"{key}.rows", c[f"{key}.rows"])
        put("dynamics.escaped", c["dynamics.escaped"])

        for kind in ("ct_bound", "dt_bound"):
            stat = st(f"entropy.{kind}")
            put(f"entropy.{kind}.calls", stat.calls)
            put(f"entropy.{kind}.self_s", stat.own, "s")
            put(f"entropy.{kind}.us_per_point",
                ratio(stat.busy, c[f"entropy.{kind}.points"], 1e6), "us")
        put("entropy.points", c["entropy.ct_bound.points"] + c["entropy.dt_bound.points"])
        put("entropy.refinements", c["entropy.refinements"])
        put("entropy.excluded", c["entropy.excluded"])
        oracle = st("entropy.lyapunov_oracle")
        put("entropy.lyapunov_oracle.s", oracle.busy, "s")
        put("entropy.lyapunov_oracle.self_s", oracle.own, "s")
        put("entropy.metric_rule.calls", st("entropy.metric_rule").calls)
        put("entropy.metric_rule.s", st("entropy.metric_rule").busy, "s")
        put("entropy.report.to_json.s", st("entropy.report.to_json").busy, "s")
        put("entropy.report.to_csv.s", st("entropy.report.to_csv").busy, "s")

        put("cli.main.calls", st("cli.main").calls)
        put("cli.main.self_s", st("cli.main").own, "s")
        for command in COMMANDS:
            put(f"cli.{command}.s", st(f"cli.cmd_{command}").busy, "s")
        return out
