"""Fourier-fiber structure of the linearized system.

For each frequency xi the symmetric matrix A0(xi) has eigenvalues
0, +|xi|_0, -|xi|_0 with multiplicities 4/3/3; the closed-form
orthogonal projectors P0, P+, P- onto the eigenspaces are assembled
from the direction cosines (alpha, beta, delta) and the frame attached
to xi.  The 5x10 constraint operator L0(xi) annihilates the wave
branches and is injective on the kernel branch.

Conventions (transform, propagator signs) are fixed in
:mod:`abiwave.conventions`.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import system
from .fields import StateField
from .grid import Grid
from .state import ConstantState, alpha_beta_delta, norm0

BRANCHES = (0, +1, -1)


def _cross_matrix(xi: np.ndarray) -> np.ndarray:
    x, y, z = xi
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


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

    The Fourier-side flow is dU/dt = -i A0(xi) U; A0(0) = 0.
    """
    xi = np.asarray(xi, dtype=float)
    A = np.zeros((10, 10))
    t0 = state.tau0
    bxi = state.b0 @ xi
    dxi = state.d0 @ xi
    r = _cross_matrix(xi)
    A[0, 1:4] = t0 * xi
    A[1:4, 0] = t0 * xi
    A[1:4, 4:7] = bxi * np.eye(3)
    A[4:7, 1:4] = bxi * np.eye(3)
    A[1:4, 7:10] = dxi * np.eye(3)
    A[7:10, 1:4] = dxi * np.eye(3)
    A[4:7, 7:10] = -t0 * r
    A[7:10, 4:7] = t0 * r
    return A


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
    """Spectral projector P^branch(xi) from its closed-form blocks.

    Idempotent, symmetric; P0 + P+ + P- = I.  The xi = 0 fiber is
    rejected (grid-level routines send the mean mode to the kernel
    branch).
    """
    xi = np.asarray(xi, dtype=float)
    n = np.linalg.norm(xi)
    if n == 0:
        raise ValueError("projector undefined at xi = 0")
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    e = xi / n
    a, b, d = alpha_beta_delta(xi, state)
    ee = np.outer(e, e)
    C = _cross_matrix(e)
    I3 = np.eye(3)
    P = np.zeros((10, 10))
    if branch == 0:
        P[0, 0] = 1 - a * a
        P[0, 4:7] = -a * b * e
        P[0, 7:10] = -a * d * e
        P[4:7, 0] = -a * b * e
        P[7:10, 0] = -a * d * e
        P[1:4, 1:4] = a * a * (I3 - ee)
        P[1:4, 4:7] = -a * d * C
        P[4:7, 1:4] = a * d * C
        P[1:4, 7:10] = a * b * C
        P[7:10, 1:4] = -a * b * C
        P[4:7, 4:7] = d * d * I3 + a * a * ee
        P[7:10, 7:10] = b * b * I3 + a * a * ee
        P[4:7, 7:10] = -b * d * I3
        P[7:10, 4:7] = -b * d * I3
        return P
    s = float(branch)
    P[0, 0] = a * a
    P[0, 1:4] = s * a * e
    P[1:4, 0] = s * a * e
    P[0, 4:7] = a * b * e
    P[4:7, 0] = a * b * e
    P[0, 7:10] = a * d * e
    P[7:10, 0] = a * d * e
    P[1:4, 1:4] = (1 - a * a) * I3 + a * a * ee
    P[1:4, 4:7] = s * b * I3 + a * d * C
    P[4:7, 1:4] = s * b * I3 - a * d * C
    P[1:4, 7:10] = s * d * I3 - a * b * C
    P[7:10, 1:4] = s * d * I3 + a * b * C
    P[4:7, 4:7] = (1 - d * d) * I3 - a * a * ee
    P[7:10, 7:10] = (1 - b * b) * I3 - a * a * ee
    P[4:7, 7:10] = b * d * I3 - s * a * C
    P[7:10, 4:7] = b * d * I3 + s * a * C
    return 0.5 * P


def assemble_L0(xi, state: ConstantState) -> np.ndarray:
    """Constraint symbol, 5x10: two divergence rows, three curl rows.

    ker L0(xi) contains both wave branches; the restriction to the
    kernel branch has rank 4 (the five rows carry one redundancy).
    """
    xi = np.asarray(xi, dtype=float)
    t0 = state.tau0
    bxi = state.b0 @ xi
    dxi = state.d0 @ xi
    L = np.zeros((5, 10))
    L[0, 0] = bxi
    L[0, 4:7] = -t0 * xi
    L[1, 0] = dxi
    L[1, 7:10] = -t0 * xi
    L[2:5, 1:4] = t0 * _cross_matrix(xi)
    L[2:5, 4:7] = dxi * np.eye(3)
    L[2:5, 7:10] = -bxi * np.eye(3)
    return L


# ----------------------------------------------------------------------
# Grid-level (vectorized over all Fourier modes) operations
# ----------------------------------------------------------------------

class _ModeGeometry:
    """Per-mode alpha, beta, delta and unit vector fields on a lattice.

    Built from a broadcastable wavenumber triple (kx, ky, kz) whose first
    entry is the k = 0 mode: ``Grid.kvec`` for the full lattice, or its
    slice to a half spectrum.
    """

    def __init__(self, kvec, state: ConstantState):
        k = np.array(np.broadcast_arrays(*kvec), dtype=float)
        knorm = np.sqrt(np.sum(k * k, axis=0))
        n0 = np.sqrt((state.tau0 * knorm) ** 2
                     + np.tensordot(state.b0, k, axes=(0, 0)) ** 2
                     + np.tensordot(state.d0, k, axes=(0, 0)) ** 2)
        safe0 = n0.copy()
        safe0[0, 0, 0] = 1.0
        safe = knorm.copy()
        safe[0, 0, 0] = 1.0
        self.e = k / safe
        self.alpha = state.tau0 * knorm / safe0
        self.beta = np.tensordot(state.b0, k, axes=(0, 0)) / safe0
        self.delta = np.tensordot(state.d0, k, axes=(0, 0)) / safe0
        self.norm0 = n0
        self.k = k

    def dot(self, V):
        return np.einsum("i...,i...->...", self.e, V)

    def cross(self, V):
        e = self.e
        return np.stack([
            e[1] * V[2] - e[2] * V[1],
            e[2] * V[0] - e[0] * V[2],
            e[0] * V[1] - e[1] * V[0],
        ])


def _geometry(grid: Grid, state: ConstantState) -> _ModeGeometry:
    """Mode geometry on the half spectrum of ``grid``."""
    kx, ky, kz = grid.kvec
    return _ModeGeometry((kx, ky, kz[..., :grid.n_half]), state)


def apply_projector(Uhat: np.ndarray, geo: _ModeGeometry, branch: int) -> np.ndarray:
    """Apply P^branch mode-wise to transformed components (10, ...).

    The modes are those of ``geo`` (full lattice or half spectrum).  The
    mean (k = 0) mode is routed wholly to the kernel branch.
    """
    a, b, d, e = geo.alpha, geo.beta, geo.delta, geo.e
    t = Uhat[0]
    V = Uhat[1:4]
    Bc = Uhat[4:7]
    Dc = Uhat[7:10]
    eV, eB, eD = geo.dot(V), geo.dot(Bc), geo.dot(Dc)
    out = np.empty_like(Uhat)
    if branch == 0:
        cV, cB, cD = geo.cross(V), geo.cross(Bc), geo.cross(Dc)
        out[0] = (1 - a * a) * t - a * b * eB - a * d * eD
        out[1:4] = a * a * (V - e * eV) - a * d * cB + a * b * cD
        out[4:7] = (-a * b * t) * e + a * d * cV + d * d * Bc \
            + (a * a * eB) * e - b * d * Dc
        out[7:10] = (-a * d * t) * e - a * b * cV - b * d * Bc \
            + b * b * Dc + (a * a * eD) * e
        out[:, 0, 0, 0] = Uhat[:, 0, 0, 0]
        return out
    s = float(branch)
    cV, cB, cD = geo.cross(V), geo.cross(Bc), geo.cross(Dc)
    out[0] = 0.5 * (a * a * t + s * a * eV + a * b * eB + a * d * eD)
    out[1:4] = 0.5 * ((s * a * t) * e + (1 - a * a) * V + (a * a * eV) * e
                      + s * b * Bc + a * d * cB + s * d * Dc - a * b * cD)
    out[4:7] = 0.5 * ((a * b * t) * e + s * b * V - a * d * cV
                      + (1 - d * d) * Bc - (a * a * eB) * e
                      + b * d * Dc - s * a * cD)
    out[7:10] = 0.5 * ((a * d * t) * e + s * d * V + a * b * cV
                       + b * d * Bc + s * a * cB
                       + (1 - b * b) * Dc - (a * a * eD) * e)
    out[:, 0, 0, 0] = 0.0
    return out


def apply_A0(Uhat: np.ndarray, geo: _ModeGeometry, state: ConstantState) -> np.ndarray:
    """Mode-wise A0(k) U-hat (real symmetric symbol, not the -i factor)."""
    t0 = state.tau0
    k = geo.k
    bk = np.tensordot(state.b0, k, axes=(0, 0))
    dk = np.tensordot(state.d0, k, axes=(0, 0))
    t = Uhat[0]
    V = Uhat[1:4]
    Bc = Uhat[4:7]
    Dc = Uhat[7:10]
    kV = np.einsum("i...,i...->...", k, V)
    out = np.empty_like(Uhat)
    out[0] = t0 * kV
    out[1:4] = t0 * k * t + bk * Bc + dk * Dc
    out[4:7] = bk * V - t0 * np.stack([
        k[1] * Dc[2] - k[2] * Dc[1],
        k[2] * Dc[0] - k[0] * Dc[2],
        k[0] * Dc[1] - k[1] * Dc[0],
    ])
    out[7:10] = dk * V + t0 * np.stack([
        k[1] * Bc[2] - k[2] * Bc[1],
        k[2] * Bc[0] - k[0] * Bc[2],
        k[0] * Bc[1] - k[1] * Bc[0],
    ])
    return out


BranchParts = namedtuple("BranchParts", ["plus", "minus", "zero"])


def decompose_spectral(Uhat: np.ndarray, grid: Grid, state: ConstantState,
                       geo: _ModeGeometry | None = None) -> BranchParts:
    """Branch parts of a spectrum; half spectra unless ``geo`` says otherwise.

    On a half spectrum the wave parts are not half spectra of real
    fields: P+(-k) = P-(k), so ``plus`` at k pairs with ``minus`` at -k.
    """
    geo = geo or _geometry(grid, state)
    return BranchParts(
        plus=apply_projector(Uhat, geo, +1),
        minus=apply_projector(Uhat, geo, -1),
        zero=apply_projector(Uhat, geo, 0),
    )


def decompose(field: StateField, state: ConstantState) -> BranchParts:
    """Physical-space branch fields (complex arrays; their sum is real).

    The wave-branch parts are complex conjugates of each other for real
    input; the kernel part is real up to round-off.  Works on the full
    lattice, since the wave parts are not real fields.
    """
    grid = field.grid
    geo = _ModeGeometry(grid.kvec, state)
    parts = decompose_spectral(grid.fwd(field.data), grid, state, geo)
    return BranchParts(*(grid.inv(p) for p in parts))


def propagate_linear(field: StateField, state: ConstantState, t: float,
                     direction: str = "forward") -> StateField:
    """Exact linear flow: each mode multiplied by exp(-+ i t A0(k)).

    ``forward`` advances the solution (a + branch mode acquires the
    phase exp(-i t |k|_0)); ``profile`` applies the inverse map, so
    profile(forward(U)) = U.  Unitary on L^2 mode by mode.
    """
    if direction not in ("forward", "profile"):
        raise ValueError("direction must be 'forward' or 'profile'")
    grid = field.grid
    geo = _geometry(grid, state)
    # Complex per-mode phases are Hermitian-consistent only off the
    # self-conjugate Nyquist planes; the flow is exact on the resolved space.
    Uhat = grid.strip_nyquist(field.spectral())
    parts = decompose_spectral(Uhat, grid, state, geo)
    sign = -1.0 if direction == "forward" else +1.0
    phase_p = np.exp(sign * 1j * t * geo.norm0)
    out = phase_p * parts.plus + np.conj(phase_p) * parts.minus + parts.zero
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
    the outer projector (five rows).
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    w = xi - eta
    unit = w / np.linalg.norm(w)
    e1, e2, e3 = eps
    Bt = system.bilinear_symbol(unit, which=which)
    P2 = projector(w, state, e2)
    P3 = projector(eta, state, e3)
    inner = np.einsum("rcb,cj,bk->rjk", Bt, P2, P3)
    if which == "evolution":
        P1 = projector(xi, state, e1)
        return np.einsum("ir,rjk->ijk", P1, inner)
    return inner
