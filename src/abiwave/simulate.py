"""Pseudo-spectral solver for the full ten-component system.

Method of lines: spectral derivatives, pointwise products with the
two-thirds dealiasing rule, classical RK4 in time.  The state advances
as the half spectrum of the real fields (:mod:`abiwave.grid`).  A run
holds one :class:`Workspace`: each right-hand side synthesizes the
fields into it, then takes one component at a time, synthesizing its
three derivatives and adding the products that differentiate it, and
analyses the products into the spectrum whose storage held the fields;
an RK4 step keeps its stages in its spectra, and a sample synthesizes
the state into the product buffer.
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
from .state import ConstantState, finite_number, metric_matrix


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
    ``i k.v0`` (None at rest).  Its N^3-sized storage is four ten-field
    buffers and one component:

    * ``acc``, ``stage`` and ``k``, half spectra (10, N, N, N//2+1)
      complex.  In a step ``k`` holds each stage's right-hand side,
      ``stage`` the next stage's argument and ``acc`` the RK4 sum.  In a
      sample, between steps, ``acc`` and ``stage`` receive Ahat U and
      Ahat^2 U.
    * ``u``, the real fields (10, N, N, N): the first 10 N^3 doubles of
      ``k``, a contiguous view.  A right-hand side synthesizes the
      masked state into it and forms its result in ``k`` only once the
      products are formed; a sample forms the full variables in it.
    * ``scratch``, real fields (10, N, N, N): the first 10 N^3 doubles
      of ``stage``.  Once Ahat^2 U is consumed, a sample forms the five
      constraint rows and then the squares of the energy in it.
    * ``prod``, real fields (10, N, N, N): a right-hand side's products;
      a sample's synthesized state, which stays there until the next
      step.
    * ``masked``, one half-spectrum component: each component masked
      for synthesis, and a Besov shell.

    The aliasing rule: a view is written only while the buffer it views
    holds nothing that is read later.

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
        self.u = self._real(self.k)
        self.scratch = self._real(self.stage)
        self.prod = np.empty((10, n, n, n))
        self.rhs_calls = 0
        self.fields_transformed = 0

    def _real(self, spectra: np.ndarray) -> np.ndarray:
        """Ten real fields in the first 10 N^3 doubles of ten spectra."""
        n = self.grid.N
        return spectra.view(float).reshape(-1)[:10 * n ** 3].reshape(
            10, n, n, n)

    def _fields(self, a: np.ndarray) -> int:
        """Fields in a stack of real fields or of half spectra."""
        return a.size // (a.shape[-1] * self.grid.N ** 2)

    def rfwd(self, f: np.ndarray) -> np.ndarray:
        """:meth:`Grid.rfwd`, counted."""
        self.fields_transformed += self._fields(f)
        return self.grid.rfwd(f)

    def rinv(self, fh: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """:meth:`Grid.rinv`, counted."""
        self.fields_transformed += self._fields(fh)
        return self.grid.rinv(fh, out)

    def gradient(self, fh: np.ndarray) -> np.ndarray:
        """:meth:`Grid.gradient`, counted: three fields per component."""
        self.fields_transformed += 3 * self._fields(fh)
        return self.grid.gradient(fh)

    def stats(self) -> dict:
        """The counts so far."""
        return {"rhs_calls": self.rhs_calls,
                "fields_transformed": self.fields_transformed}


def _rhs_hat(Uhat: np.ndarray, ws: Workspace, dealias: bool) -> np.ndarray:
    """Spectral-side right-hand side: -i A0 U + advection + nonlinearity.

    ``Uhat`` is a half spectrum (10, N, N, N//2+1), and no workspace
    buffer but ``ws.stage``.  The result is ``ws.k``, overwritten by the
    next call.  A component is masked into ``ws.masked`` to be synthesized
    into ``ws.u`` and again to be differentiated; the products go to
    ``ws.prod``, and one component's derivatives exist at a time.  Only
    then, with ``ws.u`` read for the last time, is the result formed in
    ``ws.k``, whose storage ``ws.u`` shares.  Nothing is checked: a
    non-finite ``Uhat`` gives a non-finite result, which the caller
    detects.
    """
    ws.rhs_calls += 1
    mask = ws.mask if dealias else ws.grid.nyquist_mask

    def masked(c):
        return np.multiply(Uhat[c], mask, out=ws.masked)

    u = ws.u
    for c in range(10):
        ws.rinv(masked(c), out=u[c])
    prod = system.quadratic(system.EVOLUTION_TERMS, u,
                            lambda c: ws.gradient(masked(c)), ws.prod)
    out = apply_A0(Uhat, ws.geo, ws.k)
    out *= -1j
    if ws.transport is not None:
        for c in range(10):
            out[c] += ws.transport * Uhat[c]
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
    ``Uh`` changes only once all four stages are formed.  A stage that
    overflows carries inf or NaN into ``Uh``; :func:`simulate` checks
    the state after the step and keeps the arithmetic quiet.
    """
    acc, stage = ws.acc, ws.stage

    def next_stage(h, k):
        np.multiply(k, h, out=stage)
        np.add(stage, Uh, out=stage)

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
    when requested times round to one sample).  ``final`` is the last
    snapshot when the last sample answered one, and otherwise the field
    in the run's workspace buffer, not a copy.  ``stats`` counts the
    steps attempted, the samples, the right-hand sides and the fields
    transformed (:class:`Workspace`).
    """

    series: DiagnosticsSeries
    final: StateField
    snapshots: list = dfield(default_factory=list)
    snapshot_times: list = dfield(default_factory=list)
    stats: dict = dfield(default_factory=dict)


def simulate(config: SimConfig, initial: StateField | None = None) -> SimResult:
    """Integrate to t_end, sampling diagnostics at the configured cadence.

    One rule decides a blow-up: a non-finite value in the state after a
    step, or in a sampled diagnostics row, ends the run as a blow-up of
    that step.  The initial field and its sample are step 0 at t = 0.
    The partial series is returned with its flag set and the time and
    step recorded, and the CLI exits with its blow-up code.  Overflow
    and invalid arithmetic stay quiet throughout: the initial transform,
    every step and every sample run under one ``np.errstate``.  A run
    copies only what it returns: each snapshot, when it is due.
    """
    g = config.grid
    state = config.state
    dt = config.resolved_dt()
    nsteps = int(np.ceil(config.t_end / dt - 1e-12))
    dt = config.t_end / max(nsteps, 1)
    per_sample = max(1, int(round(config.cadence / dt)))
    ws = Workspace(g, state)
    field = initial if initial is not None else config.initial_field()
    series = DiagnosticsSeries()
    snaps, answered = [], []
    pending = sorted(config.snapshots)

    def emit(t, Uh):
        """Sample ``Uh``: its field, and whether its row is finite.

        The field is synthesized into ``ws.prod`` and stays there until
        the next step; a snapshot that is due is a copy of it.
        """
        f = StateField(g, ws.rinv(Uh, out=ws.prod))
        row = sample_diagnostics(f, Uh, state, t, config.sobolev_n, ws)
        if not all(map(math.isfinite, row.values())):
            return f, False
        series.append(**row)
        # a requested time is due at the first sample within half a step
        due = 0
        while due < len(pending) and t >= pending[due] - 0.5 * dt:
            due += 1
        if due:
            f = f.copy()
            snaps.append((t, f))
            answered.append(pending[:due])
            del pending[:due]
        return f, True

    with np.errstate(over="ignore", invalid="ignore"):
        Uh = ws.rfwd(field.data)
        Uh *= g.nyquist_mask
        for n in range(nsteps + 1):
            if n:
                _step_rk4_hat(Uh, ws, dt, config.dealias)
            # the field of Uh as it stands, once sampled
            t, final = n * dt, None
            finite = np.all(np.isfinite(Uh.view(float)))
            if finite and (n % per_sample == 0 or n == nsteps):
                final, finite = emit(t, Uh)
            if not finite:
                series.mark_blowup(t, n)
                break
        if final is None:
            final = StateField(g, ws.rinv(Uh, out=ws.prod))
    stats = {"steps": n, "samples": len(series.rows), **ws.stats()}
    return SimResult(series=series, final=final,
                     snapshots=snaps, snapshot_times=answered, stats=stats)


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

    def integer(x) -> int:
        if type(x) is not int:
            raise ValueError(f"must be an integer, got {x!r}")
        return x

    N, L = entry("N", integer), entry("L", finite_number)
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
            entry("t", finite_number))
