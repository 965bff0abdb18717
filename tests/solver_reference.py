"""The solver and diagnostics as they were before the run workspace.

Each right-hand side synthesized the fields and the 30-field gradient of
all ten components in two transforms, formed every product of the
evolution table from them and analysed the products in a third; an RK4
step held its four stages as fresh spectra; a diagnostics sample took
the 30-field gradient once for W1inf_U and the constraint residuals.
The package now differentiates one component at a time on reused
buffers, which reorders the terms within a row; these are the oracles
its tests compare against.
"""
import numpy as np

from abiwave import system
from abiwave.diagnostics import manifold_residual
from abiwave.errors import BlowUpError
from abiwave.fields import StateField
from abiwave.spectral import _geometry, apply_A0
from wave_parts_reference import branch_parts


def quadratic(terms, u, du):
    """Rows ``sum sign * u[a] * du[c, j]``, in table order."""
    rows = 1 + max(t[0] for t in terms)
    out = np.zeros((rows,) + u.shape[1:], dtype=np.result_type(u, du))
    for row, a, c, j, sign in terms:
        if sign == 1:
            out[row] += u[a] * du[c, j]
        else:
            out[row] -= u[a] * du[c, j]
    return out


def rhs_hat(Uhat, grid, state, geo, dealias):
    out = -1j * apply_A0(Uhat, geo)
    if np.any(state.v0):
        k = grid.kvec
        kdotv0 = (k[0] * state.v0[0] + k[1] * state.v0[1]
                  + k[2] * state.v0[2])
        out += 1j * kdotv0 * Uhat
    mask = grid.dealias_mask
    Uhd = Uhat * mask if dealias else grid.strip_nyquist(Uhat)
    u = grid.rinv(Uhd)
    du = grid.gradient(Uhd)  # du[c, j] = d_j u_c
    if not np.all(np.isfinite(u)):
        raise BlowUpError("non-finite field in a right-hand side")
    nlh = grid.rfwd(quadratic(system.EVOLUTION_TERMS, u, du))
    if dealias:
        nlh *= mask
    out += nlh
    return out


def step_rk4_hat(Uh, grid, state, geo, dt, dealias):
    with np.errstate(invalid="ignore", over="ignore"):
        k1 = rhs_hat(Uh, grid, state, geo, dealias)
        k2 = rhs_hat(Uh + 0.5 * dt * k1, grid, state, geo, dealias)
        k3 = rhs_hat(Uh + 0.5 * dt * k2, grid, state, geo, dealias)
        k4 = rhs_hat(Uh + dt * k3, grid, state, geo, dealias)
    return Uh + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def constraint_residual(field, state, grad=None):
    g = field.grid
    if grad is None:
        grad = g.gradient(field.spectral())
    full = field.data + state.as_vector().reshape(10, 1, 1, 1)
    r = quadratic(system.CONSTRAINT_TERMS, full, grad)

    def norms(r):
        return {"sup": float(np.max(np.abs(r))), "l2": g.l2_norm(r)}

    return norms(r[0]), norms(r[1]), norms(r[2:5])


def besov_norms(grid, fh):
    b0 = b1 = 0.0
    for j, mask in grid.shell_masks:
        sup = float(np.max(np.abs(grid.rinv(fh * mask))))
        b0 += sup
        b1 += 2.0 ** j * sup
    return b0, b1


def sample_diagnostics(field, state, t, sobolev_n, geo=None):
    g = field.grid
    fh = field.spectral()
    grad = g.gradient(fh)
    parts = branch_parts(fh, geo or _geometry(g, state))
    r1, r2, r3 = constraint_residual(field, state, grad)
    absolute = StateField(g, field.data + state.as_vector().reshape(10, 1, 1, 1))
    man_s, man_v = manifold_residual(absolute)
    b0n, b1n = besov_norms(g, fh)
    h1_wave = np.hypot(g.sobolev_norm(parts.plus, 1),
                       g.sobolev_norm(parts.minus, 1)) / np.sqrt(2.0)
    return dict(
        t=t,
        H1_U=g.sobolev_norm(fh, 1),
        H6_U=g.sobolev_norm(fh, 6),
        HN_U=g.sobolev_norm(fh, sobolev_n),
        H1_up=h1_wave,
        H1_um=h1_wave,
        H1_u0=g.sobolev_norm(parts.zero, 1),
        W1inf_U=float(np.max(np.abs(field.data)))
        + float(np.max(np.abs(grad))),
        B0inf1=b0n,
        B1inf1=b1n,
        res_divb_sup=r1["sup"],
        res_divd_sup=r2["sup"],
        res_rot_sup=r3["sup"],
        man_scalar_sup=man_s,
        man_vector_sup=man_v,
        energy=g.l2_norm(field.data) ** 2,
    )
