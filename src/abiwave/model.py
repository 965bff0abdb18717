"""Admissible data: the electromagnetic lift and constraint-satisfying
perturbations.

Absolute fields obtained from the lift

    h = sqrt(1 + B^2 + D^2 + |D ^ B|^2),
    tau = 1/h, v = tau (D ^ B), b = tau B, d = tau D

lie pointwise on the algebraic manifold tau^2+v^2+b^2+d^2 = 1,
tau v = d ^ b and, as long as B and D are divergence free, satisfy the
three constraint equations.  Subtracting the lift of the constant part
of (B, D) yields an admissible perturbation of that background.

The random fields are drawn as complex Gaussian modes on the full
lattice and synthesized from the half spectrum of their Hermitian part,
which is the real part of their full-lattice synthesis.
"""
from __future__ import annotations

import numpy as np

from .fields import StateField
from .grid import Grid
from .state import AdmissibilityError, ConstantState, bi_lift_constant


def _philox(seed: int) -> np.random.Generator:
    """All randomness flows from one 64-bit seed through Philox."""
    return np.random.Generator(np.random.Philox(np.uint64(seed)))


def band_profile(grid: Grid, k0: float, width: float) -> np.ndarray:
    """Gaussian band |k| ~ k0 on the full lattice, hard-cut at the
    dealiasing boundary (which empties the Nyquist planes)."""
    k = grid.k1d
    kn = np.sqrt(k[:, None, None] ** 2 + k[None, :, None] ** 2
                 + k[None, None, :] ** 2)
    prof = np.exp(-0.5 * ((kn - k0) / width) ** 2)
    kcut = 2.0 * np.pi * (grid.N // 3) / grid.L
    prof *= kn <= kcut
    prof[0, 0, 0] = 0.0
    return prof


def _band_half_spectrum(grid: Grid, rng: np.random.Generator,
                        prof: np.ndarray, lead: tuple = ()) -> np.ndarray:
    """Half spectrum of a random real band-limited field.

    The complex Gaussian modes are drawn on the full lattice, so the
    Philox stream does not depend on the transform, and weighted by
    ``prof``.  The real part of their synthesis is the synthesis of the
    Hermitian part h(k) = (v(k) + conj v(-k)) / 2.  The half spectrum
    stores the mode -q at lattice index q (:mod:`abiwave.grid`), so the
    value returned there is h(-q) = (conj v(q) + v(-q)) / 2.
    """
    shape = lead + prof.shape
    vh = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * prof
    neg = -np.arange(grid.N) % grid.N  # lattice index of -k
    mirror = vh[..., neg[:, None, None], neg[None, :, None],
                neg[:grid.n_half]]
    return 0.5 * (np.conj(vh[..., :grid.n_half]) + mirror)


def solenoidal_pair(grid: Grid, seed: int, amplitude: float,
                    k0: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Random divergence-free (B, D) pair, each normalized to the requested sup.

    Each field is projected to k . v = 0 on the half spectrum and
    synthesized with ``Grid.rinv``.  Deterministic in (seed, amplitude,
    k0, width); the spectral divergence vanishes to round-off.
    """
    rng = _philox(seed)
    prof = band_profile(grid, k0, width)
    k = grid.kvec
    k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    k2[k2 == 0] = 1.0  # no 0/0: the profile empties k = 0 modes
    out = []
    for _ in range(2):
        vh = _band_half_spectrum(grid, rng, prof, (3,))
        kdotv = (k[0] * vh[0] + k[1] * vh[1] + k[2] * vh[2]) / k2
        for j in range(3):
            vh[j] -= k[j] * kdotv
        v = grid.rinv(vh)
        sup = np.max(np.abs(v))
        if sup > 0:
            v *= amplitude / sup
        out.append(v)
    return out[0], out[1]


def state_em_constants(state: ConstantState) -> tuple[np.ndarray, np.ndarray]:
    """(B0, D0) whose lift reproduces the state; error if there is none.

    Only manifold backgrounds are reachable by the lift; for them
    B0 = b0/tau0 and D0 = d0/tau0.
    """
    B0 = state.b0 / state.tau0
    D0 = state.d0 / state.tau0
    ref = bi_lift_constant(B0, D0)
    err = max(abs(ref.tau0 - state.tau0), np.max(np.abs(ref.v0 - state.v0)),
              np.max(np.abs(ref.b0 - state.b0)), np.max(np.abs(ref.d0 - state.d0)))
    if err > 1e-10 * max(1.0, state.tau0):
        raise AdmissibilityError(
            "state is not on the lift manifold; admissible data generation "
            "supports manifold backgrounds (or the chaplygin mode)")
    return B0, D0


# the kinds of initial data admissible_perturbation builds
IC_KINDS = ("bi_lift", "chaplygin")


def check_background(state: ConstantState, amplitude: float,
                     kind: str) -> None:
    """The checks of :func:`admissible_perturbation` that need no draw."""
    if amplitude == 0.0:
        return
    if kind == "bi_lift":
        state_em_constants(state)
    elif np.max(np.abs(state.b0)) > 0 or np.max(np.abs(state.d0)) > 0:
        raise AdmissibilityError("chaplygin data needs b0 = d0 = 0")


def admissible_perturbation(seed: int, amplitude: float, state: ConstantState,
                            grid: Grid, k0: float | None = None,
                            width: float | None = None,
                            kind: str = "bi_lift") -> StateField:
    """Constraint-satisfying perturbation of a background.

    ``bi_lift``: band-limited divergence-free fluctuations are added to
    the constant (B0, D0) corresponding to the state, lifted, and the
    lifted constant subtracted; the difference is formed term by term,
    so its round-off is relative to the amplitude.  Constraints hold to
    spectral accuracy and tau0 + tau > 0 is automatic.

    ``chaplygin``: b = d = 0, v = grad psi (``Grid.gradient`` of a
    random half spectrum) and an independent random tau; exact for
    backgrounds with b0 = d0 = 0.

    Deterministic given (seed, amplitude, profile).
    """
    if kind not in IC_KINDS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    k0 = 3.0 * 2.0 * np.pi / grid.L if k0 is None else k0
    width = 0.75 * 2.0 * np.pi / grid.L if width is None else width
    check_background(state, amplitude, kind)
    if amplitude == 0.0:
        return StateField.zeros(grid)

    if kind == "bi_lift":
        # formed from differences, so its round-off scales with the
        # amplitude: with B = B0 + b, D = D0 + d and D ^ B = V0 + dV,
        # h^2 - h0^2 = b.(2B0 + b) + d.(2D0 + d) + dV.(2V0 + dV) and
        # tau - tau0 = -(h^2 - h0^2) / (h h0 (h + h0))
        B0, D0 = (c.reshape(3, 1, 1, 1) for c in state_em_constants(state))
        b, d = solenoidal_pair(grid, seed, amplitude, k0, width)
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(d))):
            raise ValueError("non-finite electromagnetic input")
        V0 = np.cross(D0, B0, axis=0)
        dV = (np.cross(D0, b, axis=0) + np.cross(d, B0, axis=0)
              + np.cross(d, b, axis=0))
        h0sq = 1.0 + np.sum(B0 ** 2) + np.sum(D0 ** 2) + np.sum(V0 ** 2)
        dh2 = np.sum(b * (2.0 * B0 + b) + d * (2.0 * D0 + d)
                     + dV * (2.0 * V0 + dV), axis=0)
        h0, h = np.sqrt(h0sq), np.sqrt(h0sq + dh2)
        tau = 1.0 / h
        dtau = -dh2 / (h * h0 * (h + h0))
        pert = np.empty((10,) + dtau.shape)
        pert[0] = dtau
        pert[1:4] = tau * dV + dtau * V0
        pert[4:7] = tau * b + dtau * B0
        pert[7:10] = tau * d + dtau * D0
        if np.min(state.tau0 + pert[0]) <= 0:
            raise AdmissibilityError("perturbation drives tau nonpositive")
        return StateField(grid, pert)

    if kind == "chaplygin":
        rng = _philox(seed)
        prof = band_profile(grid, k0, width)
        psih = _band_half_spectrum(grid, rng, prof)
        tauh = _band_half_spectrum(grid, rng, prof)
        data = np.zeros((10,) + prof.shape)
        data[1:4] = grid.gradient(psih)
        data[0] = grid.rinv(tauh)
        sup = max(np.max(np.abs(data[0])), np.max(np.abs(data[1:4])))
        if sup > 0:
            data *= amplitude / sup
        if np.min(state.tau0 + data[0]) <= 0:
            raise AdmissibilityError("perturbation drives tau nonpositive")
        return StateField(grid, data)


def galilean_shift(field: StateField, v0, t: float) -> StateField:
    """Frame transport: sample the field at x + v0 t (whole cells only).

    The shift v0 t must be an integer number of cells along each axis;
    fractional shifts are rejected rather than interpolated.
    """
    v0 = np.asarray(v0, dtype=float)
    grid = field.grid
    cells = v0 * t / grid.dx
    icells = np.rint(cells).astype(int)
    if np.max(np.abs(cells - icells)) > 1e-9:
        raise ValueError(f"shift {cells} is not a whole number of cells")
    out = field.data
    for axis in range(3):
        if icells[axis] % grid.N:
            # f(x + s) on a periodic grid is a roll by -s cells
            out = np.roll(out, -icells[axis], axis=1 + axis)
    return StateField(grid, out.copy() if out is field.data else out)
