"""Pseudo-spectral solver for the full ten-component system.

Method of lines: spectral derivatives, pointwise products with the
two-thirds dealiasing rule, classical RK4 in time.  The state advances
as the half spectrum of the real fields (:mod:`abiwave.grid`); each
right-hand side synthesizes the fields and all their first derivatives
in two transforms and analyses the products in a third.
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


def rhs(field: StateField, state: ConstantState, dealias: bool = True) -> StateField:
    """Right-hand side in physical variables (perturbation form)."""
    if not np.all(np.isfinite(field.data)):
        raise BlowUpError("non-finite field")
    g = field.grid
    out = _rhs_hat(field.spectral(), g, state, _geometry(g, state), dealias)
    return StateField(g, g.rinv(out))


def _rhs_hat(Uhat: np.ndarray, grid: Grid, state: ConstantState, geo,
             dealias: bool) -> np.ndarray:
    """Spectral-side right-hand side: -i A0 U + advection + nonlinearity.

    ``Uhat`` and the result are half spectra (10, N, N, N//2+1).
    """
    out = -1j * apply_A0(Uhat, geo)
    if np.any(state.v0):
        kdotv0 = (geo.k[0] * state.v0[0] + geo.k[1] * state.v0[1]
                  + geo.k[2] * state.v0[2])
        out += 1j * kdotv0 * Uhat
    mask = grid.dealias_mask
    Uhd = Uhat * mask if dealias else grid.strip_nyquist(Uhat)
    u = grid.rinv(Uhd)
    du = grid.gradient(Uhd)  # du[c, j] = d_j u_c
    if not np.all(np.isfinite(u)):
        raise BlowUpError("non-finite field in a right-hand side")
    nlh = grid.rfwd(system.quadratic(system.EVOLUTION_TERMS, u, du))
    if dealias:
        nlh *= mask
    out += nlh
    return out


def _step_rk4_hat(Uh, grid, state, geo, dt, dealias):
    # non-finite intermediates raise BlowUpError; keep their transient
    # arithmetic quiet
    with np.errstate(invalid="ignore", over="ignore"):
        k1 = _rhs_hat(Uh, grid, state, geo, dealias)
        k2 = _rhs_hat(Uh + 0.5 * dt * k1, grid, state, geo, dealias)
        k3 = _rhs_hat(Uh + 0.5 * dt * k2, grid, state, geo, dealias)
        k4 = _rhs_hat(Uh + dt * k3, grid, state, geo, dealias)
    return Uh + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class SimResult:
    config: SimConfig
    series: DiagnosticsSeries
    final: StateField
    snapshots: list = dfield(default_factory=list)  # (t, StateField)


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
    geo = _geometry(g, state)
    field = initial if initial is not None else config.initial_field()
    series = DiagnosticsSeries(sobolev_n=config.sobolev_n)
    if not np.all(np.isfinite(field.data)):
        series.mark_blowup(0.0, 0)
        return SimResult(config=config, series=series, final=field,
                         snapshots=[])
    Uh = g.strip_nyquist(field.spectral())
    snaps = []
    snap_times = sorted(config.snapshots)

    def emit(t, Uh):
        f = StateField(g, g.rinv(Uh))
        series.append(**sample_diagnostics(f, state, t, config.sobolev_n, geo))
        while snap_times and t >= snap_times[0] - 0.5 * dt:
            snaps.append((t, f.copy()))
            snap_times.pop(0)
        return f

    emit(0.0, Uh)
    for n in range(1, nsteps + 1):
        t = n * dt
        try:
            Uh = _step_rk4_hat(Uh, g, state, geo, dt, config.dealias)
            finite = np.all(np.isfinite(Uh.view(float)))
        except BlowUpError:
            finite = False
        if not finite:
            series.mark_blowup(t, n)
            break
        if n % per_sample == 0 or n == nsteps:
            emit(t, Uh)
    final = StateField(g, g.rinv(Uh))
    return SimResult(config=config, series=series, final=final, snapshots=snaps)


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
