"""Reference branch algebra through the explicit wave parts P+U and P-U.

The differential oracle for :mod:`abiwave.spectral` and the decay probe
of :mod:`abiwave.diagnostics`, which form every branch quantity directly
from Ahat U and Ahat^2 U.  Here the two wave parts are built first and
everything else is composed from them: the kernel part as
U - P+U - P-U, the flow as P0 U + e^{-it|k|_0} P+U + e^{it|k|_0} P-U,
the kernel-free probe field as e^{-it|k|_0} P+U + e^{it|k|_0} P-U.
The probe's bump enters as the ten-component field it once built.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from abiwave.diagnostics import gaussian_bump, wrap_time
from abiwave.fields import StateField
from abiwave.spectral import _geometry, apply_A0

BranchParts = namedtuple("BranchParts", ["plus", "minus", "zero"])


def _apply_Ahat(Uhat, geo):
    """Mode-wise Ahat U-hat, Ahat = A0(k) / |k|_0 (0 on the mean mode)."""
    return apply_A0(Uhat, geo) * geo.inv_norm0


def gaussian_bump_field(grid, sigma, amplitude=1.0, component=0):
    """The bump in one component of an otherwise zero state field."""
    f = StateField.zeros(grid)
    f.data[component] = gaussian_bump(grid, sigma, amplitude)
    return f


def wave_parts(AU, geo):
    """(P+ U-hat, P- U-hat) from ``AU`` = Ahat U-hat, which is overwritten."""
    A2U = _apply_Ahat(AU, geo)
    AU *= 0.5
    A2U *= 0.5
    return A2U + AU, np.subtract(A2U, AU, out=A2U)


def apply_projector(Uhat, geo, branch):
    AU = _apply_Ahat(Uhat, geo)
    if branch == 0:
        return Uhat - _apply_Ahat(AU, geo)
    return wave_parts(AU, geo)[0 if branch > 0 else 1]


def branch_parts(Uhat, geo):
    """(P+ U-hat, P- U-hat, P0 U-hat) on the modes of ``geo``."""
    plus, minus = wave_parts(_apply_Ahat(Uhat, geo), geo)
    return BranchParts(plus=plus, minus=minus, zero=Uhat - plus - minus)


def propagate_linear(field, state, t, direction="forward"):
    grid = field.grid
    geo = _geometry(grid, state)
    Uhat = grid.strip_nyquist(field.spectral())
    parts = branch_parts(Uhat, geo)
    sign = -1.0 if direction == "forward" else +1.0
    phase_p = np.exp(sign * 1j * t * geo.norm0)
    out = phase_p * parts.plus + np.conj(phase_p) * parts.minus + parts.zero
    return StateField(grid, grid.rinv(out))


def probe_samples(state, grid, times, sigma=2.0, amplitude=1.0, component=0):
    """The samples of :func:`abiwave.diagnostics.dispersion_probe`."""
    times = sorted(float(t) for t in times)
    assert times[-1] < wrap_time(grid, state)
    geo = _geometry(grid, state)
    bump = gaussian_bump_field(grid, sigma, amplitude, component)
    plus, minus = wave_parts(
        _apply_Ahat(grid.strip_nyquist(bump.spectral()), geo), geo)
    samples = []
    for t in times:
        phase = np.exp(-1j * t * geo.norm0)
        evolved = grid.rinv(phase * plus + np.conj(phase) * minus)
        samples.append({"t": t, "sup": float(np.max(np.abs(evolved))),
                        "l2": grid.l2_norm(evolved)})
    return samples
