"""Reference branch algebra through the explicit wave parts P+U and P-U.

The differential oracle for :mod:`abiwave.spectral` and the decay probe
of :mod:`abiwave.diagnostics`, which form every branch quantity directly
from Ahat U and Ahat^2 U.  Here the two wave parts are built first and
everything else is composed from them: the kernel part as
U - P+U - P-U, the flow as P0 U + e^{-it|k|_0} P+U + e^{it|k|_0} P-U,
the kernel-free probe field as e^{-it|k|_0} P+U + e^{it|k|_0} P-U.
The probe's bump enters as the ten-component field it once built.
:func:`ten_component_probe` keeps the probe as it stood before it
evolved the bump's one spectrum through the two real fields Ahat e and
Ahat^2 e: it still forms the complex stacks Ahat U and Ahat^2 U over all
ten components.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from abiwave.diagnostics import (DecayReport, gaussian_bump, loglog_fit,
                                 wrap_time)
from abiwave.fields import StateField
from abiwave.spectral import _geometry, apply_A0, decompose_spectral

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


def ten_component_probe(state, grid, times, sigma=2.0, amplitude=1.0,
                        component=0):
    """:func:`abiwave.diagnostics.dispersion_probe` over the stacks
    Ahat U and Ahat^2 U of the ten-component bump field."""
    times = sorted(float(t) for t in times)
    tw = wrap_time(grid, state)
    assert times[-1] < tw
    geo = _geometry(grid, state)
    Uhat = np.zeros((10, grid.N, grid.N, grid.n_half), dtype=complex)
    Uhat[component] = grid.rfwd(gaussian_bump(grid, sigma, amplitude))
    Uhat[component] *= grid.nyquist_mask
    AU, A2U = decompose_spectral(Uhat, geo, (None, Uhat))
    # the buffer's real part is cos a2.re + sin a.im, its imaginary
    # cos a2.im - sin a.re
    buf = np.empty(AU.shape[1:], dtype=complex)
    re, im = buf.real, buf.imag
    cos, sin, scratch = (np.empty(AU.shape[1:]) for _ in range(3))
    samples = []
    for t in times:
        np.multiply(t, geo.norm0, out=sin)
        np.cos(sin, out=cos)
        np.sin(sin, out=sin)
        sup = l2sq = 0.0
        for a, a2 in zip(AU, A2U):
            np.multiply(cos, a2.real, out=re)
            re += np.multiply(sin, a.imag, out=scratch)
            np.multiply(cos, a2.imag, out=im)
            im -= np.multiply(sin, a.real, out=scratch)
            evolved = grid.rinv(buf).ravel()
            sup = max(sup, float(evolved.max()), -float(evolved.min()))
            l2sq += float(np.dot(evolved, evolved)) * grid.dx ** 3
        samples.append({"t": t, "sup": sup, "l2": float(np.sqrt(l2sq))})
    slope, ci = loglog_fit(np.array(times),
                           np.array([s["sup"] for s in samples]))
    return DecayReport(norm="sup", window=(times[0], times[-1]), t_wrap=tw,
                       exponent=slope, ci95=ci, samples=samples)
