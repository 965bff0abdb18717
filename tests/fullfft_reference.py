"""Full-lattice complex-FFT reference for the half-spectrum solver and
diagnostics.

These are the right-hand side and the diagnostics row as they were
computed before real fields moved to the half spectrum: every real
field is transformed on the full N^3 lattice with ``Grid.fwd``/``inv``,
one derivative per transform, and synthesized fields keep the real
part.  ``tests/test_half_spectrum.py`` compares the package against
them.
"""
import numpy as np

from abiwave import system
from abiwave.diagnostics import manifold_residual
from abiwave.fields import StateField
from abiwave.spectral import _ModeGeometry, apply_A0, apply_projector


def full_geometry(grid, state):
    return _ModeGeometry(grid.kvec, state)


def inv_real(grid, fh):
    return grid.inv(fh).real


def rhs_hat(Uhat, grid, state, geo, dealias):
    """Full-lattice spectral right-hand side."""
    out = -1j * apply_A0(Uhat, geo, state)
    if np.any(state.v0):
        kdotv0 = (geo.k[0] * state.v0[0] + geo.k[1] * state.v0[1]
                  + geo.k[2] * state.v0[2])
        out += 1j * kdotv0 * Uhat
    Uhd = Uhat * grid.dealias_mask if dealias else Uhat * grid.nyquist_mask
    u = inv_real(grid, Uhd)
    du = np.empty((10, 3) + u.shape[1:])
    for c in range(10):
        for j in range(3):
            du[c, j] = inv_real(grid, grid.deriv(Uhd[c], j))
    nl = np.zeros_like(u)
    for row, a, c, j, sign in system.EVOLUTION_TERMS:
        if sign == 1:
            nl[row] += u[a] * du[c, j]
        else:
            nl[row] -= u[a] * du[c, j]
    nlh = grid.fwd(nl)
    if dealias:
        nlh *= grid.dealias_mask
    return out + nlh


def sobolev_norm(grid, fh, s):
    """H^s norm from a full-lattice spectrum."""
    w = (1.0 + grid.k_norm ** 2) ** s
    return float(np.sqrt(grid.spectral_weight * np.sum(w * np.abs(fh) ** 2)))


def constraint_residual(field, state):
    g = field.grid
    tau = state.tau0 + field.tau
    b = state.b0.reshape(3, 1, 1, 1) + field.b
    d = state.d0.reshape(3, 1, 1, 1) + field.d
    fh = g.fwd(field.data)

    def dj(c, j):
        return inv_real(g, g.deriv(fh[c], j))

    grad_tau = np.stack([dj(0, j) for j in range(3)])
    div_b = sum(dj(4 + j, j) for j in range(3))
    div_d = sum(dj(7 + j, j) for j in range(3))
    curl_v = np.stack([dj(3, 1) - dj(2, 2), dj(1, 2) - dj(3, 0),
                       dj(2, 0) - dj(1, 1)])
    grad_b = np.stack([[dj(4 + i, j) for j in range(3)] for i in range(3)])
    grad_d = np.stack([[dj(7 + i, j) for j in range(3)] for i in range(3)])
    r1 = tau * div_b - np.einsum("j...,j...->...", b, grad_tau)
    r2 = tau * div_d - np.einsum("j...,j...->...", d, grad_tau)
    r3 = tau * curl_v - np.einsum("j...,ij...->i...", b, grad_d) \
        + np.einsum("j...,ij...->i...", d, grad_b)
    return [float(np.max(np.abs(r))) for r in (r1, r2, r3)]


def sample_diagnostics(field, state, t, sobolev_n):
    """The diagnostics row, all on the full lattice."""
    g = field.grid
    fh = g.fwd(field.data)
    geo = full_geometry(g, state)
    plus, minus, zero = (apply_projector(fh, geo, br) for br in (1, -1, 0))
    r1, r2, r3 = constraint_residual(field, state)
    absolute = StateField(g, field.data
                          + state.as_vector().reshape(10, 1, 1, 1))
    man_s, man_v = manifold_residual(absolute)
    dsup = max(float(np.max(np.abs(inv_real(g, g.deriv(fh, j)))))
               for j in range(3))
    b0 = b1 = 0.0
    for j, mask in g.shell_masks():
        sup = float(np.max(np.abs(inv_real(g, fh * mask))))
        b0 += sup
        b1 += 2.0 ** j * sup
    return dict(
        t=t,
        H1_U=sobolev_norm(g, fh, 1),
        H6_U=sobolev_norm(g, fh, 6),
        HN_U=sobolev_norm(g, fh, sobolev_n),
        H1_up=sobolev_norm(g, plus, 1),
        H1_um=sobolev_norm(g, minus, 1),
        H1_u0=sobolev_norm(g, zero, 1),
        W1inf_U=float(np.max(np.abs(field.data))) + dsup,
        B0inf1=b0,
        B1inf1=b1,
        res_divb_sup=r1,
        res_divd_sup=r2,
        res_rot_sup=r3,
        man_scalar_sup=man_s,
        man_vector_sup=man_v,
        energy=g.l2_norm(field.data) ** 2,
    )


def simulate_final(field, state, dt, nsteps, dealias):
    """RK4 on the full lattice; the physical field after ``nsteps``."""
    g = field.grid
    geo = full_geometry(g, state)
    Uh = g.fwd(field.data) * g.nyquist_mask
    for _ in range(nsteps):
        k1 = rhs_hat(Uh, g, state, geo, dealias)
        k2 = rhs_hat(Uh + 0.5 * dt * k1, g, state, geo, dealias)
        k3 = rhs_hat(Uh + 0.5 * dt * k2, g, state, geo, dealias)
        k4 = rhs_hat(Uh + dt * k3, g, state, geo, dealias)
        Uh = Uh + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return inv_real(g, Uh)
