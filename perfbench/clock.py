"""Repetition times less swayed by the host's changing speed.

The benchmark runs on a shared host whose cores change speed: a fixed
7 ms pure-Python loop takes about 6.5 ms in a fast state and 9 to 10.5 ms
in the contended state it spends most of its time in.  The share of
fast moments changes from one minute to the next, and the raw time of a
repetition follows it, so that ten runs of the same code spread by a
fifth or more.  The 90th percentile of many short, equal pieces of work
stays in the contended state unless the fast one holds most of the
time.  Over runs made in a calm hour it moved by 4% where the raw time
moved by 15%; when the contended state itself changes speed, it moves
with it (README.md, Noise).

So every call of a function in UNITS is timed, wall and thread CPU, and
its calls are grouped by the work they do: every RK4 step, every
diagnostics sample, and certificates of one kind (the eight evolution
tensors have equal term counts).  A repetition's estimate is the sum,
over its unit calls, of the 90th percentile of the call's group within
the run, plus the 90th percentile over the run's repetitions of the time
outside unit calls.  It is the time of a repetition in which every step,
sample and certificate takes as long as nine in ten of its kind did,
which reads above the median raw time.
"""
from __future__ import annotations

import importlib
import inspect
import time

import numpy as np

from tracer import Patcher

QUANTILE = 0.9


def _certify_kind(sig):
    def kind(args, kwargs):
        a = sig.bind(*args, **kwargs)
        a.apply_defaults()
        p = a.arguments
        return (p["which"], p["preflight"], p["subsystem"],
                p["mutate_entry"] is None)
    return kind


# (module, function, unit name, maker of kind(args, kwargs) or None when
# every call does the same work)
UNITS = (
    ("abiwave.simulate", "_step_rk4_hat", "simulate.step", None),
    ("abiwave.diagnostics", "sample_diagnostics", "diagnostics.sample", None),
    ("abiwave.symbolic.certify", "certify", "symbolic.certify",
     _certify_kind),
)


class UnitClock(Patcher):
    """Times the unit calls of one worker's untraced repetitions."""

    def __init__(self):
        super().__init__()
        self.missing = []
        self.reps = []          # (wall, cpu, [(kind key, wall, cpu)]) each
        self._calls = None      # unit calls of the open repetition
        self._start = None      # (wall, cpu) clocks at its start

    def install(self):
        self.missing = []
        for modname, attr, name, kind in UNITS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            kind = kind(inspect.signature(fn)) if kind else None
            self._rebind(fn, self._wrap(fn, name, kind), (mod,))

    def _wrap(self, fn, name, kind):
        clock = self

        def wrapper(*args, **kwargs):
            calls = clock._calls
            if calls is None:
                return fn(*args, **kwargs)
            key = (name,) + (kind(args, kwargs) if kind else ())
            clock._calls = None     # a unit called inside a unit is not one
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((key, time.perf_counter() - w0,
                              time.thread_time() - c0))
                clock._calls = calls

        return wrapper

    def begin(self):
        self._calls = []
        self._start = (time.perf_counter(), time.thread_time())

    def end(self):
        wall = time.perf_counter() - self._start[0]
        cpu = time.thread_time() - self._start[1]
        self.reps.append((wall, cpu, self._calls))
        self._calls = None

    def estimates(self):
        """(wall, cpu) estimate of every repetition, and calls per kind."""
        groups = {}
        for _, _, calls in self.reps:
            for key, wall, cpu in calls:
                groups.setdefault(key, []).append((wall, cpu))
        q = {key: np.quantile(np.array(v), QUANTILE, axis=0)
             for key, v in groups.items()}
        outside = np.array([
            (wall - sum(c[1] for c in calls), cpu - sum(c[2] for c in calls))
            for wall, cpu, calls in self.reps])
        rest = np.quantile(outside, QUANTILE, axis=0)
        est = [rest + sum((q[c[0]] for c in calls), np.zeros(2))
               for _, _, calls in self.reps]
        sizes = {" ".join(map(str, key)): len(v) for key, v in groups.items()}
        return [tuple(float(x) for x in e) for e in est], sizes
