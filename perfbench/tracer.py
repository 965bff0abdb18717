"""Spans and counters recorded around calls into abiwave, from outside it.

A :class:`Tracer` replaces the public entry points of the package (and
the FFT functions of ``scipy.fft`` and ``numpy.fft``) with wrappers that
record a span per call: name, start, end, parent span, repetition id and
a category inherited from the enclosing span.  Nothing in ``src/`` is
edited; the wrappers are installed by rebinding every module attribute
that refers to the original function, so ``from x import f`` bindings
are caught as well.  :meth:`Tracer.uninstall` restores the originals.

Spans stay in memory until :meth:`Tracer.dump` writes them out, and
:func:`layer_metrics` turns the spans of one repetition into the
per-layer metrics listed in ``BENCHMARK.json``.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name, category the span opens or None)
FUNCTIONS = (
    ("abiwave.simulate", "simulate", "simulate.run", "step"),
    ("abiwave.simulate", "_step_rk4_hat", "simulate.step", None),
    ("abiwave.simulate", "_rhs_hat", "simulate.rhs", None),
    ("abiwave.simulate", "write_snapshot", "simulate.write_snapshot", None),
    ("abiwave.diagnostics", "sample_diagnostics", "diagnostics.sample", "diag"),
    ("abiwave.spectral", "decompose_spectral", "diagnostics.decompose", None),
    ("abiwave.diagnostics", "constraint_residual",
     "diagnostics.constraint_residual", None),
    ("abiwave.diagnostics", "besov_norms", "diagnostics.besov", None),
    ("abiwave.diagnostics", "w1inf_norm", "diagnostics.w1inf", None),
    ("abiwave.diagnostics", "manifold_residual", "diagnostics.manifold", None),
    ("abiwave.spectral", "apply_projector", "spectral.apply_projector", None),
    ("abiwave.spectral", "apply_A0", "spectral.apply_A0", None),
    ("abiwave.spectral", "_geometry", "spectral.geometry", None),
    ("abiwave.spectral", "compose_interaction",
     "spectral.compose_interaction", None),
    ("abiwave.model", "admissible_perturbation", "model.initial_field", None),
    ("abiwave.cli", "parse_sim_config", "cli.parse_config", None),
    ("abiwave.symbolic.certify", "certify_all", "symbolic.certify_all", None),
    ("abiwave.symbolic.certify", "certify", "symbolic.certify", None),
    ("abiwave.symbolic.certify", "preflight_annihilation",
     "symbolic.certify.preflight_annihilation", None),
    ("abiwave.symbolic.certify", "preflight_float_crosscheck",
     "symbolic.certify.preflight_float", None),
    ("abiwave.symbolic.certify", "write_certificates",
     "symbolic.certify.write", None),
    ("abiwave.symbolic.tensors", "build_interaction_tensor",
     "symbolic.tensors.build", None),
    ("abiwave.symbolic.ideal", "reduce_terms", "symbolic.ideal.reduce", None),
)

# (module, class, method, span name)
METHODS = (
    ("abiwave.grid", "Grid", "fwd", "grid.fwd"),
    ("abiwave.grid", "Grid", "inv", "grid.inv"),
    ("abiwave.grid", "Grid", "inv_real", "grid.inv_real"),
    ("abiwave.diagnostics", "DiagnosticsSeries", "write_csv",
     "diagnostics.write_csv"),
    ("abiwave.cli", "RunManifest", "write", "cli.manifest_write"),
    ("abiwave.symbolic.tensors", "InteractionTensor", "max_degree",
     "symbolic.tensors.max_degree"),
    ("abiwave.symbolic.tensors", "InteractionTensor", "term_counts",
     "symbolic.tensors.term_counts"),
)

# library transforms counted as FFTs wherever they are called from
FFT_MODULES = ("scipy.fft", "numpy.fft")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

# kernel functions counted (not timed): millions of calls per certificate
KERNEL_COUNTERS = (("mul_add_into", "symbolic.kernel.mul_add_calls"),
                   ("degree", "symbolic.kernel.degree_calls"))

FFT_SPLITS = ("step", "diag")

# name -> unit of every per-layer metric, in print order
LAYER_UNITS = {}
for _m, _u in (("grid.fft_calls", "count"), ("grid.fft_fields", "count"),
               ("grid.fft_s", "s"), ("grid.fft_bytes", "B_computed")):
    LAYER_UNITS[_m] = _u
    for _s in FFT_SPLITS:
        LAYER_UNITS[f"{_m}.{_s}"] = _u
LAYER_UNITS.update({
    "simulate.steps": "count",
    "simulate.rhs_calls": "count",
    "simulate.step_s": "s",
    "simulate.step_self_s": "s",
    "spectral.apply_A0_s": "s",
    "spectral.apply_A0_calls": "count",
    "diagnostics.samples": "count",
    "diagnostics.sample_s": "s",
    "diagnostics.decompose_s": "s",
    "diagnostics.constraint_residual_s": "s",
    "diagnostics.besov_s": "s",
    "diagnostics.w1inf_s": "s",
    "diagnostics.manifold_s": "s",
    "diagnostics.sample_self_s": "s",
    "diagnostics.fft_fields_per_sample": "count",
    "spectral.apply_projector_s": "s",
    "spectral.apply_projector_calls": "count",
    "spectral.geometry_s": "s",
    "model.initial_field_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "symbolic.tensors.build_s": "s",
    "symbolic.tensors.terms_built": "count",
    "symbolic.ideal.reduce_s": "s",
    "symbolic.ideal.reduce_calls": "count",
    "symbolic.ideal.terms_in": "count",
    "symbolic.certify.preflight_annihilation_s": "s",
    "symbolic.certify.preflight_float_s": "s",
    "spectral.compose_interaction_calls": "count",
    "symbolic.certify.stats_s": "s",
    "symbolic.certify.self_s": "s",
    "symbolic.kernel.mul_add_calls": "count",
    "symbolic.kernel.degree_calls": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.root_self_s": "s",
})

# counts derived from a call's arguments or result: span -> (counter, fn)
_RESULT_COUNTS = {
    "symbolic.tensors.build": (
        "symbolic.tensors.terms_built",
        lambda args, t: sum(len(e) for _, e in t.iter_entries())),
    "symbolic.ideal.reduce": (
        "symbolic.ideal.terms_in", lambda args, t: len(args[0])),
}

# span -> (call-count metric, seconds metric)
_SPAN_METRICS = {
    "simulate.step": ("simulate.steps", None),
    "simulate.rhs": ("simulate.rhs_calls", None),
    "spectral.apply_A0": ("spectral.apply_A0_calls",
                          "spectral.apply_A0_s"),
    "diagnostics.sample": ("diagnostics.samples",
                           "diagnostics.sample_s"),
    "diagnostics.decompose": (None, "diagnostics.decompose_s"),
    "diagnostics.constraint_residual":
        (None, "diagnostics.constraint_residual_s"),
    "diagnostics.besov": (None, "diagnostics.besov_s"),
    "diagnostics.w1inf": (None, "diagnostics.w1inf_s"),
    "diagnostics.manifold": (None, "diagnostics.manifold_s"),
    "spectral.apply_projector": ("spectral.apply_projector_calls",
                                 "spectral.apply_projector_s"),
    "spectral.geometry": (None, "spectral.geometry_s"),
    "model.initial_field": (None, "model.initial_field_s"),
    "cli.write": (None, "cli.write_s"),
    "symbolic.tensors.build": (None, "symbolic.tensors.build_s"),
    "symbolic.ideal.reduce": ("symbolic.ideal.reduce_calls",
                              "symbolic.ideal.reduce_s"),
    "symbolic.certify.preflight_annihilation":
        (None, "symbolic.certify.preflight_annihilation_s"),
    "symbolic.certify.preflight_float":
        (None, "symbolic.certify.preflight_float_s"),
    "spectral.compose_interaction":
        ("spectral.compose_interaction_calls", None),
    "symbolic.tensors.max_degree": (None, "symbolic.certify.stats_s"),
    "symbolic.tensors.term_counts": (None, "symbolic.certify.stats_s"),
}

# span slots
NAME, T0, T1, PARENT, REP, CAT, INFO = range(7)


class Patcher:
    """Replaces functions in loaded modules, and puts the originals back."""

    def __init__(self):
        self._patches = []      # (owner, attribute, original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper, owners):
        """Point every abiwave module attribute that is ``fn`` at ``wrapper``."""
        mods = list(owners) + [m for n, m in list(sys.modules.items())
                               if n.startswith("abiwave") and m is not None]
        seen = set()
        for mod in mods:
            if id(mod) in seen:
                continue
            seen.add(id(mod))
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapper)


class Tracer(Patcher):
    """Records spans and counts for one worker process."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self.counts = {}        # (rep, counter name) -> count
        self.rep = -1           # -1 is set-up; 0, 1, ... are repetitions
        self.missing = []
        self._stack = []

    # -- spans ------------------------------------------------------

    def _open(self, name, cat=None):
        parent = self._stack[-1] if self._stack else -1
        if cat is None and parent >= 0:
            cat = self.spans[parent][CAT]
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.rep, cat, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][T1] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, cat=None):
        idx = self._open(name, cat)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name, n=1):
        key = (self.rep, name)
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers ---------------------------------------------------

    def _timed(self, fn, name, cat):
        tracer = self
        counter = _RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            idx = tracer._open(name, cat)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter:
                tracer.count(counter[0], counter[1](args, result))
            return result

        return wrapper

    def _fft(self, fn, name):
        tracer = self

        def wrapper(x, *args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][NAME].startswith("fft."):
                return fn(x, *args, **kwargs)  # nested library call
            idx = tracer._open(name)
            try:
                out = fn(x, *args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.spans[idx][INFO] = (_fields(out, name, args, kwargs),
                                       getattr(x, "nbytes", 0) + out.nbytes)
            return out

        return wrapper

    def _counted(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every entry point; targets absent from the code are listed."""
        self.missing = []
        for modname, attr, name, cat in FUNCTIONS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._rebind(fn, self._timed(fn, name, cat), (mod,))
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(modname), cls_name, None)
            fn = cls.__dict__.get(attr) if cls is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{cls_name}.{attr}")
                continue
            self._set(cls, attr, self._timed(fn, name, None))
        for modname in FFT_MODULES:
            mod = importlib.import_module(modname)
            for attr in FFT_NAMES:
                fn = getattr(mod, attr, None)
                if fn is not None:
                    self._rebind(fn, self._fft(fn, f"fft.{modname}.{attr}"),
                                 (mod,))
        from abiwave.symbolic import _kernel_py, poly
        kernels = {id(k): k for k in (poly.get_kernels()[0], _kernel_py)}
        for kern in kernels.values():
            for attr, name in KERNEL_COUNTERS:
                self._set(kern, attr, self._counted(getattr(kern, attr), name))

    # -- output -----------------------------------------------------

    def dump(self, path, meta):
        keys = ("name", "start", "end", "parent", "rep", "cat", "info")
        with open(path, "w") as f:
            json.dump({"meta": meta,
                       "spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": [{"rep": r, "name": n, "count": c}
                                  for (r, n), c in self.counts.items()]}, f)


def _fields(out, name, args, kwargs):
    """Number of independent transforms in one library call."""
    shape = out.shape
    base = name.rsplit(".", 1)[1]
    if base.endswith("n"):
        axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
        axes = range(len(shape)) if axes is None else axes
    elif base.endswith("2"):
        axes = kwargs.get("axes", args[1] if len(args) > 1 else (-2, -1))
    else:
        axes = (kwargs.get("axis", args[1] if len(args) > 1 else -1),)
    size = 1
    for a in axes:
        size *= shape[a]
    return out.size // size if size else 0


def _self_times(spans):
    """Self time of each span: its duration minus its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[T1] - s[T0]
    return [s[T1] - s[T0] - c for s, c in zip(spans, child)]


def layer_metrics(tracer: Tracer, rep: int, untraced_wall: float) -> dict:
    """Per-layer metrics of set-up plus one traced repetition."""
    idx = [i for i, s in enumerate(tracer.spans) if s[REP] in (-1, rep)]
    spans = tracer.spans
    selfs = _self_times(spans)
    m = {name: 0.0 for name in LAYER_UNITS}

    def dur(i):
        return spans[i][T1] - spans[i][T0]

    cat_self = {}
    root_wall = root_self = 0.0
    for i in idx:
        s = spans[i]
        name, cat = s[NAME], s[CAT]
        cat_self[cat] = cat_self.get(cat, 0.0) + selfs[i]
        if name.startswith("fft."):
            fields, nbytes = s[INFO] or (0, 0)
            keys = ["grid.fft_%s"] + (["grid.fft_%s." + cat]
                                      if cat in FFT_SPLITS else [])
            for k in keys:
                m[k % "calls"] += 1
                m[k % "fields"] += fields
                m[k % "s"] += dur(i)
                m[k % "bytes"] += nbytes
            continue
        if name == "bench.rep" and s[REP] == rep:
            root_wall, root_self = dur(i), selfs[i]
        simple = _SPAN_METRICS.get(name)
        if simple:
            calls, secs = simple
            if calls:
                m[calls] += 1
            if secs:
                m[secs] += dur(i)
        if name == "diagnostics.sample":
            m["diagnostics.sample_self_s"] += selfs[i]
        elif name == "symbolic.certify":
            m["symbolic.certify.self_s"] += selfs[i]
        elif name == "spectral.apply_A0" and cat == "step":
            m["simulate.step_self_s"] -= dur(i)
    for (r, name), c in tracer.counts.items():
        if r in (-1, rep):
            m[name] += c
    # time inside simulate() outside the diagnostics spans
    m["simulate.step_s"] = cat_self.get("step", 0.0)
    m["simulate.step_self_s"] += m["simulate.step_s"] - m["grid.fft_s.step"]
    if m["diagnostics.samples"]:
        m["diagnostics.fft_fields_per_sample"] = (m["grid.fft_fields.diag"]
                                                  / m["diagnostics.samples"])
    m["trace.wall_s"] = root_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = root_wall - untraced_wall
    m["trace.overhead_frac"] = (m["trace.overhead_s"] / untraced_wall
                                if untraced_wall else 0.0)
    m["trace.root_self_s"] = root_self
    return m
