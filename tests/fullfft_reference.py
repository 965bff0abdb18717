"""Reference implementations the package is tested against.

Full-lattice complex FFT: the transform pair ``fwd``/``inv`` with the
per-axis ``deriv`` and ``solenoidal_project`` and the lattice arrays
``kvec``, ``k_norm``, ``nyquist_mask``, ``dealias_mask`` and
``shell_masks``, which the package held before every field and lattice
array moved to the half spectrum, and what was computed with them: the right-hand side, the diagnostics row, the physical-space
branch fields ``decompose`` and the random generators
``solenoidal_pair`` and ``admissible_perturbation`` (bi_lift and
chaplygin data), the latter lifting whole fields with ``abi_from_bi``,
the lift oracle.  Every real field is transformed on the full N^3
lattice, one derivative per transform, and synthesized fields keep the
real part.  The lattice holds F(q) at index q and keeps fftfreq's
-pi N / L on the Nyquist planes; the package's half spectrum holds
F(-q) there (``Grid.kvec`` is -q, and 0 on the Nyquist planes), so its
conjugate agrees with the reference's kz >= 0 half off those planes
only.  ``tests/test_half_spectrum.py`` and ``tests/test_model.py``
compare the package against them.

Hand-written block layouts: ``assemble_A0``, ``assemble_L0``,
``apply_A0`` and the einsum constraint residual, as they were written
out before they were derived from the quadratic tables of
:mod:`abiwave.system`, and the closed-form projectors ``projector`` and
``apply_projector`` (built from the direction cosines alpha, beta,
delta and the unit vector of xi), as they were written out before they
became polynomials in A0 / |xi|_0.  ``tests/test_tables.py`` compares
the package against them.
"""
import numpy as np
import scipy.fft

from abiwave import model, system
from abiwave.diagnostics import manifold_residual
from abiwave.fields import StateField
from abiwave.spectral import _ModeGeometry
from abiwave.state import alpha_beta_delta, bi_lift_constant
from wave_parts_reference import BranchParts, branch_parts


def fwd(f):
    """Analysis transform over the last three axes, full lattice."""
    return scipy.fft.ifftn(f, axes=(-3, -2, -1), norm="forward")


def inv(fh):
    """Synthesis transform (complex output; take .real for real fields)."""
    return scipy.fft.fftn(fh, axes=(-3, -2, -1), norm="forward")


def inv_real(fh):
    return inv(fh).real


def kvec(grid):
    """Broadcastable full-lattice wavenumbers (kx, ky, kz)."""
    k = grid.k1d
    return (k[:, None, None], k[None, :, None], k[None, None, :])


def k_norm(grid):
    kx, ky, kz = kvec(grid)
    return np.sqrt(kx ** 2 + ky ** 2 + kz ** 2)


def _lattice_mask(keep):
    return keep[:, None, None] & keep[None, :, None] & keep[None, None, :]


def nyquist_mask(grid):
    """Full-lattice modes off the three Nyquist planes."""
    m = np.fft.fftfreq(grid.N, d=1.0 / grid.N)
    return _lattice_mask(m != -(grid.N // 2))


def dealias_mask(grid):
    """Two-thirds rule on the full lattice: integer modes |m_j| <= N//3."""
    m = np.abs(np.fft.fftfreq(grid.N, d=1.0 / grid.N))
    return _lattice_mask(m <= grid.N // 3)


def shell_masks(grid):
    """Dyadic shells 2^j <= |k| < 2^{j+1} on the full lattice."""
    kn = k_norm(grid)
    jlo = int(np.floor(np.log2(2.0 * np.pi / grid.L)))
    jhi = int(np.ceil(np.log2(float(kn.max()))))
    shells = []
    for j in range(jlo, jhi + 1):
        mask = (kn >= 2.0 ** j) & (kn < 2.0 ** (j + 1))
        if mask.any():
            shells.append((j, mask))
    return shells


def deriv(grid, fh, axis):
    """Spectral derivative along spatial axis 0, 1 or 2 (full lattice)."""
    shape = [1, 1, 1]
    shape[axis] = grid.N
    return (-1j) * grid.k1d.reshape(shape) * fh


def solenoidal_project(grid, vh):
    """Project a transformed 3-vector field (3,N,N,N) onto div-free."""
    kx, ky, kz = kvec(grid)
    k2 = kx ** 2 + ky ** 2 + kz ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        kdotv = (kx * vh[0] + ky * vh[1] + kz * vh[2]) / k2
    kdotv[0, 0, 0] = 0.0
    out = vh.copy()
    out[0] -= kx * kdotv
    out[1] -= ky * kdotv
    out[2] -= kz * kdotv
    return out


def decompose(field, state):
    """Physical-space branch fields (complex arrays; their sum is real).

    The wave-branch parts are complex conjugates of each other for real
    input; the kernel part is real up to round-off.
    """
    grid = field.grid
    parts = branch_parts(fwd(field.data), full_geometry(grid, state))
    return BranchParts(*(inv(p) for p in parts))


def band_draw(rng, prof, lead=()):
    """Complex Gaussian modes weighted by ``prof``, in the generators' order."""
    shape = lead + prof.shape
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * prof


def solenoidal_pair(grid, seed, amplitude, k0, width):
    """(B, D): projected on the full lattice, real part of the synthesis."""
    rng = model._philox(seed)
    prof = model.band_profile(grid, k0, width)
    out = []
    for _ in range(2):
        v = inv_real(solenoidal_project(grid, band_draw(rng, prof, (3,))))
        sup = np.max(np.abs(v))
        if sup > 0:
            v *= amplitude / sup
        out.append(v)
    return out[0], out[1]


def abi_from_bi(B, D, grid):
    """The lift of two (3,N,N,N) electromagnetic fields to absolute
    variables, by the formulas of :mod:`abiwave.model`: h = sqrt(1 + B^2
    + D^2 + |D ^ B|^2), tau = 1/h, v = tau (D ^ B), b = tau B, d = tau D.
    """
    B, D = np.asarray(B, float), np.asarray(D, float)
    if not (np.all(np.isfinite(B)) and np.all(np.isfinite(D))):
        raise ValueError("non-finite electromagnetic input")
    V = np.cross(D, B, axis=0)
    h = np.sqrt(1.0 + np.sum(B ** 2, axis=0) + np.sum(D ** 2, axis=0)
                + np.sum(V ** 2, axis=0))
    tau = 1.0 / h
    data = np.empty((10,) + tau.shape)
    data[0] = tau
    data[1:4] = tau * V
    data[4:7] = tau * B
    data[7:10] = tau * D
    return StateField(grid, data)


def admissible_perturbation(seed, amplitude, state, grid, k0, width, kind):
    """The (10,N,N,N) data of ``model.admissible_perturbation``."""
    if kind == "bi_lift":
        B0, D0 = model.state_em_constants(state)
        B, D = solenoidal_pair(grid, seed, amplitude, k0, width)
        full = abi_from_bi(B + B0.reshape(3, 1, 1, 1),
                           D + D0.reshape(3, 1, 1, 1), grid)
        return full.data - bi_lift_constant(B0, D0).as_vector().reshape(
            10, 1, 1, 1)
    rng = model._philox(seed)
    prof = model.band_profile(grid, k0, width)
    psih = band_draw(rng, prof)
    tauh = band_draw(rng, prof)
    data = np.zeros((10,) + prof.shape)
    for j in range(3):
        data[1 + j] = inv_real(deriv(grid, psih, j))
    data[0] = inv_real(tauh)
    sup = max(np.max(np.abs(data[0])), np.max(np.abs(data[1:4])))
    if sup > 0:
        data *= amplitude / sup
    return data


def _cross_matrix(xi):
    x, y, z = xi
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def assemble_A0(xi, state):
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


def assemble_L0(xi, state):
    """Rows 2-4 carry the residual's sign, the opposite of the table's."""
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


def apply_A0(Uhat, kvec, state):
    """A0(k) U-hat for the broadcastable wavenumbers ``kvec`` of its modes."""
    t0 = state.tau0
    k = np.array(np.broadcast_arrays(*kvec), dtype=float)
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


def projector(xi, state, branch):
    """P^branch(xi) from its closed-form blocks."""
    xi = np.asarray(xi, dtype=float)
    e = xi / np.linalg.norm(xi)
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


class ClosedFormGeometry:
    """Per-mode alpha, beta, delta and unit vector fields on a lattice."""

    def __init__(self, kvec, state):
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

    def dot(self, V):
        return np.einsum("i...,i...->...", self.e, V)

    def cross(self, V):
        e = self.e
        return np.stack([
            e[1] * V[2] - e[2] * V[1],
            e[2] * V[0] - e[0] * V[2],
            e[0] * V[1] - e[1] * V[0],
        ])


def apply_projector(Uhat, geo, branch):
    """P^branch mode-wise from the closed-form blocks; ``geo`` is a
    :class:`ClosedFormGeometry`.  The mean mode goes to the kernel branch."""
    a, b, d, e = geo.alpha, geo.beta, geo.delta, geo.e
    t = Uhat[0]
    V = Uhat[1:4]
    Bc = Uhat[4:7]
    Dc = Uhat[7:10]
    eV, eB, eD = geo.dot(V), geo.dot(Bc), geo.dot(Dc)
    cV, cB, cD = geo.cross(V), geo.cross(Bc), geo.cross(Dc)
    out = np.empty_like(Uhat)
    if branch == 0:
        out[0] = (1 - a * a) * t - a * b * eB - a * d * eD
        out[1:4] = a * a * (V - e * eV) - a * d * cB + a * b * cD
        out[4:7] = (-a * b * t) * e + a * d * cV + d * d * Bc \
            + (a * a * eB) * e - b * d * Dc
        out[7:10] = (-a * d * t) * e - a * b * cV - b * d * Bc \
            + b * b * Dc + (a * a * eD) * e
        out[:, 0, 0, 0] = Uhat[:, 0, 0, 0]
        return out
    s = float(branch)
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


def full_geometry(grid, state):
    return _ModeGeometry(kvec(grid), state)


def rhs_hat(Uhat, grid, state, dealias):
    """Full-lattice spectral right-hand side."""
    k = kvec(grid)
    out = -1j * apply_A0(Uhat, k, state)
    if np.any(state.v0):
        kdotv0 = (k[0] * state.v0[0] + k[1] * state.v0[1]
                  + k[2] * state.v0[2])
        out += 1j * kdotv0 * Uhat
    Uhd = Uhat * dealias_mask(grid) if dealias else Uhat * nyquist_mask(grid)
    u = inv_real(Uhd)
    du = np.empty((10, 3) + u.shape[1:])
    for c in range(10):
        for j in range(3):
            du[c, j] = inv_real(deriv(grid, Uhd[c], j))
    nl = np.zeros_like(u)
    for row, a, c, j, sign in system.EVOLUTION_TERMS:
        if sign == 1:
            nl[row] += u[a] * du[c, j]
        else:
            nl[row] -= u[a] * du[c, j]
    nlh = fwd(nl)
    if dealias:
        nlh *= dealias_mask(grid)
    return out + nlh


def sobolev_norm(grid, fh, s):
    """H^s norm from a full-lattice spectrum."""
    w = (1.0 + k_norm(grid) ** 2) ** s
    return float(np.sqrt(grid.spectral_weight * np.sum(w * np.abs(fh) ** 2)))


def residual_fields(field, state, grad):
    """The three constraint residuals in full variables, with einsums.

    ``grad[c, j] = d_j U_c``; the signs are those of the residual,
    the opposite of the table's.
    """
    tau = state.tau0 + field.tau
    b = state.b0.reshape(3, 1, 1, 1) + field.b
    d = state.d0.reshape(3, 1, 1, 1) + field.d
    grad_tau = grad[0]
    div_b = grad[4, 0] + grad[5, 1] + grad[6, 2]
    div_d = grad[7, 0] + grad[8, 1] + grad[9, 2]
    curl_v = np.stack([
        grad[3, 1] - grad[2, 2],
        grad[1, 2] - grad[3, 0],
        grad[2, 0] - grad[1, 1],
    ])
    grad_b = grad[4:7]  # grad_b[i, j] = d_j b_i
    grad_d = grad[7:10]
    r1 = tau * div_b - np.einsum("j...,j...->...", b, grad_tau)
    r2 = tau * div_d - np.einsum("j...,j...->...", d, grad_tau)
    r3 = tau * curl_v - np.einsum("j...,ij...->i...", b, grad_d) \
        + np.einsum("j...,ij...->i...", d, grad_b)
    return r1, r2, r3


def constraint_residual(field, state):
    """Sups of the residuals, derivatives on the full lattice."""
    g = field.grid
    fh = fwd(field.data)
    grad = np.stack([[inv_real(deriv(g, fh[c], j)) for j in range(3)]
                     for c in range(10)])
    return [float(np.max(np.abs(r)))
            for r in residual_fields(field, state, grad)]


def sample_diagnostics(field, state, t, sobolev_n):
    """The diagnostics row, all on the full lattice."""
    g = field.grid
    fh = fwd(field.data)
    geo = ClosedFormGeometry(kvec(g), state)
    plus, minus, zero = (apply_projector(fh, geo, br) for br in (1, -1, 0))
    r1, r2, r3 = constraint_residual(field, state)
    absolute = StateField(g, field.data
                          + state.as_vector().reshape(10, 1, 1, 1))
    man_s, man_v = manifold_residual(absolute)
    dsup = max(float(np.max(np.abs(inv_real(deriv(g, fh, j)))))
               for j in range(3))
    b0 = b1 = 0.0
    for j, mask in shell_masks(g):
        sup = float(np.max(np.abs(inv_real(fh * mask))))
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
    Uh = fwd(field.data) * nyquist_mask(g)
    for _ in range(nsteps):
        k1 = rhs_hat(Uh, g, state, dealias)
        k2 = rhs_hat(Uh + 0.5 * dt * k1, g, state, dealias)
        k3 = rhs_hat(Uh + 0.5 * dt * k2, g, state, dealias)
        k4 = rhs_hat(Uh + dt * k3, g, state, dealias)
        Uh = Uh + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return inv_real(Uh)
