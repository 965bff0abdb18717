"""Fourier-fiber structure of the linearized system.

For each frequency xi the symmetric matrix A0(xi) has eigenvalues
0, +|xi|_0, -|xi|_0 with multiplicities 4/3/3.  A0 is linear in the
multipliers (tau0 xi, b0.xi, d0.xi), whose squares sum to |xi|_0^2; its
five matrices ``A0_SYMBOL`` are read from the evolution table of
:mod:`abiwave.system`.  The projectors onto the eigenspaces are
polynomials in Ahat = A0 / |xi|_0: P+- = (Ahat^2 +- Ahat) / 2 and
P0 = I - Ahat^2; so is the flow exp(-i t A0) = I + (cos t|xi|_0 - 1)
Ahat^2 - i sin t|xi|_0 Ahat.  Every grid-level branch quantity is thus
formed from the two fields Ahat U and Ahat^2 U.  The 5x10 constraint
operator L0(xi), the constraint table contracted with the background,
annihilates the wave branches and is injective on the kernel branch.

Conventions (transform, propagator signs) are fixed in
:mod:`abiwave.conventions`.
"""
from __future__ import annotations

import numpy as np

from . import system
from .fields import StateField
from .grid import Grid
from .state import ConstantState, alpha_beta_delta, norm0

BRANCHES = (0, +1, -1)


def _symbol_matrices() -> np.ndarray:
    """(T_1, T_2, T_3, T_b, T_d): A0 = tau0 xi.T + (b0.xi) T_b + (d0.xi) T_d.

    The table sums the b.grad and d.grad terms over j, so the b and d
    slices of ``bilinear_symbol(e_j)`` must be delta_ij T_b, delta_ij T_d.
    """
    B = np.stack([system.bilinear_symbol(unit) for unit in np.eye(3)])
    T = np.concatenate([B[..., 0], B[:1, ..., 4], B[:1, ..., 7]])
    delta = np.eye(3)[:, None, None, :]  # [j, row, c, i] -> delta_ij
    if not (np.array_equal(B[..., 4:7], delta * T[3, ..., None])
            and np.array_equal(B[..., 7:10], delta * T[4, ..., None])
            and np.isin(T, (-1, 0, 1)).all()):
        raise RuntimeError("evolution table: A0 is not "
                           "tau0 xi.T + (b0.xi) T_b + (d0.xi) T_d with unit entries")
    return T


A0_SYMBOL = _symbol_matrices()
# (multiplier, row, column, sign) of each nonzero entry of A0_SYMBOL
_A0_ENTRIES = tuple(zip(*np.nonzero(A0_SYMBOL), A0_SYMBOL[A0_SYMBOL != 0]))


def _multipliers(k: np.ndarray, state: ConstantState) -> np.ndarray:
    """(tau0 k_1, tau0 k_2, tau0 k_3, b0.k, d0.k) for k of shape (3, ...)."""
    return np.concatenate([state.tau0 * k,
                           np.tensordot([state.b0, state.d0], k, axes=1)])


def frequency_frame(xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal direct frame (e1, e2, e3) with e1 along xi.

    e2 is taken in the horizontal plane when xi is not (numerically)
    vertical, otherwise the axes are permuted; e3 = e1 ^ e2 in both
    cases, so the frame is always direct.
    """
    xi = np.asarray(xi, dtype=float)
    n = np.linalg.norm(xi)
    if n == 0:
        raise ValueError("frame undefined at xi = 0")
    e1 = xi / n
    if xi[0] ** 2 + xi[1] ** 2 > 1e-30 * n ** 2:
        e2 = np.array([xi[1], -xi[0], 0.0])
    else:
        e2 = np.array([xi[2], 0.0, -xi[0]])
    e2 /= np.linalg.norm(e2)
    e3 = np.cross(e1, e2)
    return e1, e2, e3


def assemble_A0(xi, state: ConstantState) -> np.ndarray:
    """Real symmetric 10x10 symbol of the linearized evolution.

    The evolution table contracted with the background in its rest
    frame: ``A0[row, c] = sum sign * U0_a * xi_j``.  The Fourier-side
    flow is dU/dt = -i A0(xi) U; A0(0) = 0.  An (..., 3) array of
    frequencies gives one symbol each, shape (..., 10, 10).
    """
    xi = np.moveaxis(np.asarray(xi, dtype=float), -1, 0)
    m = _multipliers(xi, state)  # v0 left out
    return np.tensordot(m, A0_SYMBOL, axes=(0, 0))


def eigen_basis(xi, state: ConstantState) -> dict:
    """Closed-form eigenvectors of A0(xi), keyed by branch 0, +1, -1.

    Vectors are returned as matrix columns, unnormalized; branches are
    mutually orthogonal.
    """
    xi = np.asarray(xi, dtype=float)
    if np.linalg.norm(xi) == 0:
        raise ValueError("eigenbasis undefined at xi = 0")
    e1, e2, e3 = frequency_frame(xi)
    a, b, d = alpha_beta_delta(xi, state)

    def vec(t, v, bb, dd):
        return np.concatenate(([t], v, bb, dd))

    z = np.zeros(3)
    E0 = [
        vec(-b, z, a * e1, z),
        vec(-d, z, z, a * e1),
        vec(0.0, a * e2, d * e3, -b * e3),
        vec(0.0, a * e3, -d * e2, b * e2),
    ]
    Ep = [
        vec(a, e1, b * e1, d * e1),
        vec(0.0, d * e2 - b * a * e3, b * d * e2 - a * e3, (1 - b * b) * e2),
        vec(0.0, b * a * e2 + d * e3, a * e2 + b * d * e3, (1 - b * b) * e3),
    ]
    Em = [
        vec(-a, e1, -b * e1, -d * e1),
        vec(0.0, -d * e2 - b * a * e3, b * d * e2 + a * e3, (1 - b * b) * e2),
        vec(0.0, b * a * e2 - d * e3, -a * e2 + b * d * e3, (1 - b * b) * e3),
    ]
    return {0: np.array(E0).T, +1: np.array(Ep).T, -1: np.array(Em).T}


def projector(xi, state: ConstantState, branch: int) -> np.ndarray:
    """Spectral projector P^branch(xi), a polynomial in Ahat = A0 / |xi|_0.

    Idempotent, symmetric; P0 + P+ + P- = I.  The xi = 0 fiber is
    rejected (grid-level routines send the mean mode to the kernel
    branch).  An (..., 3) array of frequencies gives one projector each.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    n0 = norm0(xi, state)
    if np.any(n0 == 0):
        raise ValueError("projector undefined at xi = 0")
    A = assemble_A0(xi, state) / np.asarray(n0)[..., None, None]
    A2 = A @ A
    return np.eye(10) - A2 if branch == 0 else 0.5 * (A2 + branch * A)


def assemble_L0(xi, state: ConstantState) -> np.ndarray:
    """Constraint symbol, 5x10: two divergence rows, three curl rows.

    The constraint table contracted with the background, with the
    table's signs: row 0 is the symbol of -tau div b + b.grad tau and
    rows 2-4 that of -tau curl v + b.grad d - d.grad b.  ker L0(xi)
    contains both wave branches; the restriction to the kernel branch
    has rank 4 (the five rows carry one redundancy).
    """
    return (system.bilinear_symbol(np.asarray(xi, dtype=float), "constraint")
            @ state.as_vector())


# ----------------------------------------------------------------------
# Grid-level (vectorized over all Fourier modes) operations
# ----------------------------------------------------------------------

class _ModeGeometry:
    """Per-mode multipliers of A0 and the norm |k|_0 on a lattice.

    Built from a broadcastable wavenumber triple (kx, ky, kz) whose first
    entry is the k = 0 mode, such as ``Grid.kvec``.  ``multipliers``
    weigh ``A0_SYMBOL``; ``inv_norm0`` is 1 where k = 0 (the mean mode,
    and the Nyquist corners of ``Grid.kvec``), where A0 = 0, so P0 keeps
    those modes.
    """

    def __init__(self, kvec, state: ConstantState):
        k = np.array(np.broadcast_arrays(*kvec), dtype=float)
        self.multipliers = _multipliers(k, state)
        self.norm0 = np.sqrt(np.sum(self.multipliers ** 2, axis=0))
        self.inv_norm0 = 1.0 / np.where(self.norm0 == 0, 1.0, self.norm0)


def _geometry(grid: Grid, state: ConstantState) -> _ModeGeometry:
    """Mode geometry on the half spectrum of ``grid``."""
    return _ModeGeometry(grid.kvec, state)


def apply_projector(Uhat: np.ndarray, geo: _ModeGeometry, branch: int) -> np.ndarray:
    """Apply P^branch mode-wise to transformed components (10, ...).

    U - Ahat^2 U for the kernel branch, (Ahat^2 U +- Ahat U) / 2 for the
    wave branches.  The modes are those of ``geo``; those with k = 0
    (the mean mode) are routed wholly to the kernel branch.
    """
    AU, A2U = decompose_spectral(Uhat, geo)
    if branch == 0:
        return Uhat - A2U
    return 0.5 * (A2U + AU if branch > 0 else A2U - AU)


def apply_A0(Uhat: np.ndarray, geo: _ModeGeometry, out=None) -> np.ndarray:
    """Mode-wise A0(k) U-hat (real symmetric symbol, not the -i factor).

    One product per nonzero entry of ``A0_SYMBOL``: its multiplier
    times a component of U-hat, added to or subtracted from a row.  The
    result goes to ``out`` when given (zeroed first; not ``Uhat``).
    """
    if out is None:
        out = np.zeros_like(Uhat)
    else:
        out[...] = 0.0
    for m, row, c, sign in _A0_ENTRIES:
        if sign == 1:
            out[row] += geo.multipliers[m] * Uhat[c]
        else:
            out[row] -= geo.multipliers[m] * Uhat[c]
    return out


def decompose_spectral(Uhat: np.ndarray, geo: _ModeGeometry,
                       out=None) -> tuple[np.ndarray, np.ndarray]:
    """(Ahat U, Ahat^2 U), the two fields every branch part is formed from.

    Ahat = A0(k) / |k|_0, 0 on the mean mode.  P+- U = (Ahat^2 U +-
    Ahat U) / 2 and P0 U = U - Ahat^2 U.  ``out``, two arrays shaped
    like ``Uhat``, receives them in that order (the second may be
    ``Uhat``, the first not); they are new otherwise.
    """
    AU, A2U = (None, None) if out is None else out
    AU = apply_A0(Uhat, geo, AU)
    AU *= geo.inv_norm0
    A2U = apply_A0(AU, geo, A2U)
    A2U *= geo.inv_norm0
    return AU, A2U


def propagate_linear(field: StateField, state: ConstantState, t: float,
                     direction: str = "forward") -> StateField:
    """Exact linear flow: each mode multiplied by exp(-+ i t A0(k)).

    ``forward`` applies U + (cos t|k|_0 - 1) Ahat^2 U - i sin t|k|_0 Ahat U,
    so a + branch mode acquires the phase exp(-i t |k|_0); ``profile``
    flips the sign of the sine term, the inverse map, so
    profile(forward(U)) = U.  Unitary on L^2 mode by mode.
    """
    if direction not in ("forward", "profile"):
        raise ValueError("direction must be 'forward' or 'profile'")
    grid = field.grid
    geo = _geometry(grid, state)
    # the flow runs on the resolved space, the Nyquist planes left empty
    Uhat = grid.strip_nyquist(field.spectral())
    AU, A2U = decompose_spectral(Uhat, geo)
    sign = -1.0 if direction == "forward" else +1.0
    wt = t * geo.norm0
    out = Uhat + (np.cos(wt) - 1.0) * A2U + (sign * 1j) * np.sin(wt) * AU
    return StateField(grid, grid.rinv(out))


# ----------------------------------------------------------------------
# Floating-point interaction composition (oracle for the exact tensors)
# ----------------------------------------------------------------------

def compose_interaction(xi, eta, state: ConstantState, eps: tuple[int, int, int],
                        which: str = "evolution") -> np.ndarray:
    """Projected, normalized bilinear symbol as a dense float tensor.

    For the evolution this is P^{e1}(xi) . B(u) . [P^{e2}(xi-eta) (x)
    P^{e3}(eta)] with u the Euclidean unit vector of xi - eta and one
    factor -i |xi - eta| stripped from B; the constraint variant drops
    the outer projector (five rows).  ``xi`` and ``eta`` may be (n, 3)
    arrays of points, giving one tensor per point.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    w = xi - eta
    unit = w / np.linalg.norm(w, axis=-1, keepdims=True)
    e1, e2, e3 = eps
    Bt = system.bilinear_symbol(unit, which=which)
    P2 = projector(w, state, e2)
    P3 = projector(eta, state, e3)
    # inner[..., r] = P2^T Bt[..., r] P3, one matrix product per row r
    inner = (np.swapaxes(P2, -1, -2)[..., None, :, :] @ Bt
             @ P3[..., None, :, :])
    if which == "evolution":
        P1 = projector(xi, state, e1)
        return np.einsum("...ir,...rjk->...ijk", P1, inner)
    return inner
