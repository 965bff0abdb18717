"""The run as it was before the right-hand side shared its storage.

The workspace held the synthesized fields in a buffer of their own,
``u``, beside the three RK4 spectra; a right-hand side applied A0 to
its result spectrum first and synthesized each masked component into a
fresh array that it copied into ``u``.  A sample synthesized the state
into a fresh array, and a run's final field was that array; its norms
and residuals formed their temporaries as fresh arrays, the vector
manifold residual through ``np.cross``.  The package now synthesizes
into the storage of the result spectrum and of the product buffer and
forms those temporaries in workspace storage; every element sees the
same operations in the same order, so these oracles must agree with it
bit for bit (``tests/test_workspace.py``).
"""
import math

import numpy as np

from abiwave import system
from abiwave.diagnostics import DiagnosticsSeries, besov_norms
from abiwave.fields import StateField
from abiwave.simulate import SimResult
from abiwave.spectral import _geometry, apply_A0, decompose_spectral


class Workspace:
    """Three RK4 spectra, one masked component and two real buffers."""

    def __init__(self, grid, state):
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

    def rfwd(self, f):
        return self.grid.rfwd(f)

    def rinv(self, fh):
        return self.grid.rinv(fh)

    def gradient(self, fh):
        return self.grid.gradient(fh)


def rhs_hat(Uhat, ws, dealias):
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
    prod = system.quadratic(system.EVOLUTION_TERMS, u,
                            lambda c: ws.gradient(masked(c)), ws.prod)
    for row in range(10):
        nlh = ws.rfwd(prod[row])
        if dealias:
            nlh *= ws.mask
        out[row] += nlh
    return out


def step_rk4_hat(Uh, ws, dt, dealias):
    acc, stage = ws.acc, ws.stage

    def next_stage(h, k):
        np.multiply(k, h, out=stage)
        np.add(stage, Uh, out=stage)

    k = rhs_hat(Uh, ws, dealias)
    np.copyto(acc, k)
    next_stage(0.5 * dt, k)
    k = rhs_hat(stage, ws, dealias)
    next_stage(0.5 * dt, k)
    k *= 2.0
    acc += k
    k = rhs_hat(stage, ws, dealias)
    next_stage(dt, k)
    k *= 2.0
    acc += k
    acc += rhs_hat(stage, ws, dealias)
    acc *= dt / 6.0
    Uh += acc


def l2_norm(grid, f):
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * grid.dx ** 3))


def sobolev_norm(grid, fh, s):
    grid.sobolev_norm(fh, s)  # builds the cached weight
    w = grid._sobolev_weights[s]
    return float(np.sqrt(grid.spectral_weight * np.sum(w * np.abs(fh) ** 2)))


def constraint_residual(field, state, derivative, full):
    g = field.grid
    r = system.quadratic(system.CONSTRAINT_TERMS, full, derivative)

    def norms(r):
        return {"sup": float(np.max(np.abs(r))), "l2": l2_norm(g, r)}

    return norms(r[0]), norms(r[1]), norms(r[2:5])


def manifold_residual(field_abs):
    f = field_abs.data
    scalar = np.sum(f * f, axis=0) - 1.0
    vec = f[0] * f[1:4] - np.cross(f[7:10], f[4:7], axis=0)
    return float(np.max(np.abs(scalar))), float(np.max(np.abs(vec)))


def sample_diagnostics(field, Uh, state, t, sobolev_n, ws):
    g = field.grid
    AU, A2U = decompose_spectral(Uh, ws.geo, (ws.acc, ws.stage))
    h1_wave = np.hypot(sobolev_norm(g, A2U, 1), sobolev_norm(g, AU, 1)) / 2.0
    h1_zero = sobolev_norm(g, np.subtract(Uh, A2U, out=A2U), 1)
    grad_sup = 0.0

    def derivative(c):
        nonlocal grad_sup
        d = ws.gradient(Uh[c])
        grad_sup = max(grad_sup, float(np.max(np.abs(d))))
        return d

    full = np.add(field.data, state.as_vector().reshape(10, 1, 1, 1),
                  out=ws.u)
    r1, r2, r3 = constraint_residual(field, state, derivative, full)
    man_s, man_v = manifold_residual(StateField(g, full))
    b0n, b1n = besov_norms(g, field.data, Uh, ws)
    return dict(
        t=t,
        H1_U=sobolev_norm(g, Uh, 1),
        H6_U=sobolev_norm(g, Uh, 6),
        HN_U=sobolev_norm(g, Uh, sobolev_n),
        H1_up=h1_wave,
        H1_um=h1_wave,
        H1_u0=h1_zero,
        W1inf_U=float(np.max(np.abs(field.data))) + grad_sup,
        B0inf1=b0n,
        B1inf1=b1n,
        res_divb_sup=r1["sup"],
        res_divd_sup=r2["sup"],
        res_rot_sup=r3["sup"],
        man_scalar_sup=man_s,
        man_vector_sup=man_v,
        energy=l2_norm(g, field.data) ** 2,
    )


def simulate(config, initial):
    """The run loop: a fresh field per sample, one more for the final."""
    g = config.grid
    state = config.state
    dt = config.resolved_dt()
    nsteps = int(np.ceil(config.t_end / dt - 1e-12))
    dt = config.t_end / max(nsteps, 1)
    per_sample = max(1, int(round(config.cadence / dt)))
    ws = Workspace(g, state)
    series = DiagnosticsSeries()
    snaps, answered = [], []
    pending = sorted(config.snapshots)

    def emit(t, Uh):
        f = StateField(g, ws.rinv(Uh))
        row = sample_diagnostics(f, Uh, state, t, config.sobolev_n, ws)
        if not all(map(math.isfinite, row.values())):
            return None
        series.append(**row)
        due = 0
        while due < len(pending) and t >= pending[due] - 0.5 * dt:
            due += 1
        if due:
            snaps.append((t, f.copy()))
            answered.append(pending[:due])
            del pending[:due]
        return f

    with np.errstate(over="ignore", invalid="ignore"):
        Uh = g.strip_nyquist(ws.rfwd(initial.data))
        for n in range(nsteps + 1):
            if n:
                step_rk4_hat(Uh, ws, dt, config.dealias)
            t, sampled = n * dt, None
            finite = np.all(np.isfinite(Uh.view(float)))
            if finite and (n % per_sample == 0 or n == nsteps):
                sampled = emit(t, Uh)
                finite = sampled is not None
            if not finite:
                series.mark_blowup(t, n)
                break
        final = sampled if sampled is not None else StateField(g, ws.rinv(Uh))
    return SimResult(series=series, final=final, snapshots=snaps,
                     snapshot_times=answered)
