"""Pseudo-spectral solver for the full ten-component system.

Method of lines: spectral derivatives, pointwise products with the
two-thirds dealiasing rule, classical RK4 in time.  The state advances
as the half spectrum of the real fields (:mod:`abiwave.grid`).  A run
holds one :class:`Workspace`: each right-hand side synthesizes the
fields into it, then takes one component at a time, synthesizing its
three derivatives and adding the products that differentiate it, and
analyses the products; an RK4 step keeps its stages in its spectra.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dfield
from pathlib import Path

import numpy as np

from . import system
from .diagnostics import DiagnosticsSeries, sample_diagnostics
from .errors import BlowUpError, ConfigError
from .fields import StateField
from .grid import Grid
from .model import admissible_perturbation
from .spectral import _geometry, apply_A0
from .state import ConstantState, metric_matrix


@dataclass
class SimConfig:
    """Resolved simulation configuration.

    :func:`abiwave.cli.parse_sim_config` reads it from the JSON config
    and holds the schema.
    """

    grid: Grid
    state: ConstantState
    t_end: float = 5.0
    cfl: float = 0.4
    dt: float | None = None
    dealias: bool = True
    cadence: float = 0.5
    sobolev_n: int = 8
    ic_kind: str = "bi_lift"
    amplitude: float = 1e-2
    k0: float | None = None
    width: float | None = None
    seed: int = 1234
    snapshots: tuple = ()

    def max_speed(self) -> float:
        return metric_matrix(self.state).max_speed \
            + float(np.linalg.norm(self.state.v0))

    def resolved_dt(self) -> float:
        """The time step; rejects a bad t_end and a dt past the CFL bound."""
        if not 0 < self.t_end < math.inf:
            raise ConfigError(f"t_end must be a finite number > 0, "
                              f"got {self.t_end}")
        limit = 0.5 * self.grid.dx / self.max_speed()
        dt = self.dt if self.dt is not None else \
            self.cfl * self.grid.dx / self.max_speed()
        if not 0 < dt <= limit * (1 + 1e-12):
            raise ConfigError(
                f"dt = {dt} violates the CFL bound {limit} (cfl <= 0.5)")
        return dt

    def initial_field(self) -> StateField:
        return admissible_perturbation(
            self.seed, self.amplitude, self.state, self.grid,
            k0=self.k0, width=self.width, kind=self.ic_kind)


class Workspace:
    """Buffers and counts of one run's solver and diagnostics.

    Built once per run from the grid and the background: the mode
    geometry, the dealias mask and the v0 transport multiplier
    ``i k.v0`` (None at rest); three RK4 spectra (``acc``, ``stage``,
    ``k``), (10, N, N, N//2+1) complex, and ``masked``, one masked
    component (N, N, N//2+1); the real fields ``u`` and the products
    ``prod``, (10, N, N, N).  Between steps the RK4 spectra are idle and
    :func:`abiwave.diagnostics.sample_diagnostics` forms Ahat U and
    Ahat^2 U in them.

    Every transform of the run goes through :meth:`rfwd`, :meth:`rinv`
    and :meth:`gradient`, which count the fields they transform in
    ``fields_transformed`` (a derivative counts as one field);
    :func:`_rhs_hat` counts its calls in ``rhs_calls``.
    """

    def __init__(self, grid: Grid, state: ConstantState):
        self.grid = grid
        self.geo = _geometry(grid, state)
        self.mask = grid.dealias_mask
        self.transport = None
        if np.any(state.v0):
            k = grid.kvec
            self.transport = 1j * (k[0] * state.v0[0] + k[1] * state.v0[1]
                                   + k[2] * state.v0[2])
        n = grid.N
        half = (10, n, n, grid.n_half)
        self.acc, self.stage, self.k = (
            np.empty(half, dtype=complex) for _ in range(3))
        self.masked = np.empty(half[1:], dtype=complex)
        self.u = np.empty((10, n, n, n))
        self.prod = np.empty((10, n, n, n))
        self.rhs_calls = 0
        self.fields_transformed = 0

    def _fields(self, a: np.ndarray) -> int:
        """Fields in a stack of real fields or of half spectra."""
        return a.size // (a.shape[-1] * self.grid.N ** 2)

    def rfwd(self, f: np.ndarray) -> np.ndarray:
        """:meth:`Grid.rfwd`, counted."""
        self.fields_transformed += self._fields(f)
        return self.grid.rfwd(f)

    def rinv(self, fh: np.ndarray) -> np.ndarray:
        """:meth:`Grid.rinv`, counted."""
        self.fields_transformed += self._fields(fh)
        return self.grid.rinv(fh)

    def gradient(self, fh: np.ndarray) -> np.ndarray:
        """:meth:`Grid.gradient`, counted: three fields per component."""
        self.fields_transformed += 3 * self._fields(fh)
        return self.grid.gradient(fh)

    def stats(self) -> dict:
        """The counts so far."""
        return {"rhs_calls": self.rhs_calls,
                "fields_transformed": self.fields_transformed}


def rhs(field: StateField, state: ConstantState, dealias: bool = True) -> StateField:
    """Right-hand side in physical variables (perturbation form)."""
    if not np.all(np.isfinite(field.data)):
        raise BlowUpError("non-finite field")
    g = field.grid
    out = _rhs_hat(field.spectral(), Workspace(g, state), dealias)
    return StateField(g, g.rinv(out))


def _rhs_hat(Uhat: np.ndarray, ws: Workspace, dealias: bool) -> np.ndarray:
    """Spectral-side right-hand side: -i A0 U + advection + nonlinearity.

    ``Uhat`` is a half spectrum (10, N, N, N//2+1), and no workspace
    buffer but ``ws.stage``.  The result is ``ws.k``, overwritten by the
    next call.  A component is masked into ``ws.masked`` to be synthesized
    into ``ws.u`` and again to be differentiated; the products go to
    ``ws.prod``, and one component's derivatives exist at a time.
    """
    ws.rhs_calls += 1
    out = apply_A0(Uhat, ws.geo, ws.k)
    out *= -1j
    if ws.transport is not None:
        for c in range(10):
            out[c] += ws.transport * Uhat[c]
    mask = ws.mask if dealias else ws.grid.nyquist_mask

    def masked(c):
        return np.multiply(Uhat[c], mask, out=ws.masked)

    u = ws.u
    for c in range(10):
        u[c] = ws.rinv(masked(c))
    if not np.all(np.isfinite(u)):
        raise BlowUpError("non-finite field in a right-hand side")
    prod = system.quadratic(system.EVOLUTION_TERMS, u,
                            lambda c: ws.gradient(masked(c)), ws.prod)
    for row in range(10):
        nlh = ws.rfwd(prod[row])
        if dealias:
            nlh *= ws.mask
        out[row] += nlh
    return out


def _step_rk4_hat(Uh: np.ndarray, ws: Workspace, dt: float,
                  dealias: bool) -> None:
    """One classical RK4 step of the half spectrum ``Uh``, in place.

    ``ws.k`` holds each stage's right-hand side, ``ws.stage`` the next
    stage's argument and ``ws.acc`` the sum ((k1 + 2 k2) + 2 k3) + k4;
    ``Uh`` changes only once all four stages are formed.
    """
    acc, stage = ws.acc, ws.stage

    def next_stage(h, k):
        np.multiply(k, h, out=stage)
        np.add(stage, Uh, out=stage)

    # non-finite intermediates raise BlowUpError; keep their transient
    # arithmetic quiet
    with np.errstate(invalid="ignore", over="ignore"):
        k = _rhs_hat(Uh, ws, dealias)
        np.copyto(acc, k)
        next_stage(0.5 * dt, k)
        k = _rhs_hat(stage, ws, dealias)
        next_stage(0.5 * dt, k)
        k *= 2.0
        acc += k
        k = _rhs_hat(stage, ws, dealias)
        next_stage(dt, k)
        k *= 2.0
        acc += k
        acc += _rhs_hat(stage, ws, dealias)
    acc *= dt / 6.0
    Uh += acc


@dataclass
class SimResult:
    """A run's diagnostics, final field and snapshots.

    ``snapshots`` holds one (sample time, StateField) pair per sample
    that answered a requested snapshot time; ``snapshot_times`` lists,
    for each of them, the requested times it answers (more than one
    when requested times round to one sample).  ``stats`` counts the
    steps attempted, the samples, the right-hand sides and the fields
    transformed (:class:`Workspace`).
    """

    config: SimConfig
    series: DiagnosticsSeries
    final: StateField
    snapshots: list = dfield(default_factory=list)
    snapshot_times: list = dfield(default_factory=list)
    stats: dict = dfield(default_factory=dict)


def simulate(config: SimConfig, initial: StateField | None = None) -> SimResult:
    """Integrate to t_end, sampling diagnostics at the configured cadence.

    A blow-up terminates the run; the partial series is returned with
    its flag set and the time and step of the failed step recorded
    (step 0 at t = 0 for a non-finite initial field), and the CLI exits
    with its blow-up code.
    """
    g = config.grid
    state = config.state
    dt = config.resolved_dt()
    nsteps = int(np.ceil(config.t_end / dt - 1e-12))
    dt = config.t_end / max(nsteps, 1)
    per_sample = max(1, int(round(config.cadence / dt)))
    ws = Workspace(g, state)
    field = initial if initial is not None else config.initial_field()
    series = DiagnosticsSeries(sobolev_n=config.sobolev_n)
    steps = 0

    def result(final, snapshots=(), snapshot_times=()):
        stats = {"steps": steps, "samples": len(series.rows), **ws.stats()}
        return SimResult(config=config, series=series, final=final,
                         snapshots=list(snapshots),
                         snapshot_times=list(snapshot_times), stats=stats)

    if not np.all(np.isfinite(field.data)):
        series.mark_blowup(0.0, 0)
        return result(field)
    Uh = g.strip_nyquist(ws.rfwd(field.data))
    snaps, answered = [], []
    pending = sorted(config.snapshots)

    def emit(t, Uh):
        # a requested time is due at the first sample within half a step
        f = StateField(g, ws.rinv(Uh))
        series.append(**sample_diagnostics(f, Uh, state, t,
                                           config.sobolev_n, ws))
        due = 0
        while due < len(pending) and t >= pending[due] - 0.5 * dt:
            due += 1
        if due:
            snaps.append((t, f.copy()))
            answered.append(pending[:due])
            del pending[:due]
        return f

    # the sampled field of Uh as it stands; None once a step moves Uh on
    sampled = emit(0.0, Uh)
    for n in range(1, nsteps + 1):
        t = n * dt
        steps, sampled = n, None
        try:
            _step_rk4_hat(Uh, ws, dt, config.dealias)
            finite = np.all(np.isfinite(Uh.view(float)))
        except BlowUpError:
            finite = False
        if not finite:
            series.mark_blowup(t, n)
            break
        if n % per_sample == 0 or n == nsteps:
            sampled = emit(t, Uh)
    final = sampled if sampled is not None else StateField(g, ws.rinv(Uh))
    return result(final, snaps, answered)


def u0_smallness_probe(config: SimConfig, amplitudes=None) -> dict:
    """Quadratic-smallness probe for the kernel branch.

    Two runs differing only in amplitude; reports
    r(t) = ||u0||_{H1} / ||u+ + u-||_{H1} for both and their ratio,
    which quadratic scaling predicts to be near two when the amplitude
    is halved.  A blow-up in either run raises :class:`BlowUpError`
    naming its amplitude, step and time.
    """
    from dataclasses import replace
    amplitudes = amplitudes or (config.amplitude, 0.5 * config.amplitude)
    a_big, a_small = amplitudes
    runs = []
    for a in (a_big, a_small):
        s = simulate(replace(config, amplitude=a)).series
        if s.blowup:
            raise BlowUpError(f"numerical blow-up at amplitude {a:g} in "
                              f"step {s.blowup_step} (t = {s.blowup_t:g})")
        up = s.column("H1_up")
        um = s.column("H1_um")
        u0 = s.column("H1_u0")
        runs.append(u0 / (up + um))
    ratio = runs[0] / runs[1]
    return {
        "amplitudes": [a_big, a_small],
        "r_big": runs[0].tolist(),
        "r_small": runs[1].tolist(),
        "ratio": ratio.tolist(),
        "ratio_min": float(np.min(ratio)),
        "ratio_max": float(np.max(ratio)),
    }


# ----------------------------------------------------------------------
# snapshot files
# ----------------------------------------------------------------------

def write_snapshot(path, field: StateField, state: ConstantState, t: float):
    """Raw little-endian float64, component-major, with a JSON sidecar."""
    path = Path(path)
    data = np.ascontiguousarray(field.data, dtype="<f8")
    data.tofile(path)
    sidecar = {
        "N": field.grid.N,
        "L": field.grid.L,
        "t": t,
        "state": state.to_dict(),
        "layout": "tau,v,b,d",
    }
    with open(path.with_suffix(path.suffix + ".json"), "w") as f:
        json.dump(sidecar, f, indent=2)


def read_snapshot(path) -> tuple[StateField, ConstantState, float]:
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".json")
    with open(sidecar) as f:
        try:
            meta = json.load(f)
        except ValueError as exc:
            raise ValueError(f"snapshot sidecar {sidecar} is not valid "
                             f"JSON ({exc})") from None

    def entry(key, convert):
        try:
            return convert(meta[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"snapshot sidecar {sidecar}: field {key!r} is "
                             f"missing or malformed ({exc!r})") from None

    N, L = entry("N", int), entry("L", float)
    try:
        g = Grid(N=N, L=L)
    except ValueError as exc:
        raise ValueError(f"snapshot sidecar {sidecar}: {exc}") from None
    want = 10 * g.N ** 3 * 8
    size = path.stat().st_size
    if size != want:
        raise ValueError(f"snapshot {path} holds {size} bytes; N = {g.N} "
                         f"needs 10 * N^3 * 8 = {want}")
    data = np.fromfile(path, dtype="<f8").reshape(10, g.N, g.N, g.N)
    return (StateField(g, data), entry("state", ConstantState.from_dict),
            entry("t", float))
