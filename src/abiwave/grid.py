"""Periodic cubic grid, spectral transforms and dealiasing.

The analysis transform follows the package convention
(:mod:`abiwave.conventions`): ``F[f](k) = sum_x f(x) exp(+i k.x)``, so
``F[d_j f] = -i k_j F[f]``.  This is numpy's inverse-FFT kernel; the
wrappers below hide the bookkeeping.

Real fields live on the half spectrum: the modes with kz >= 0, i.e.
last-axis indices 0..N//2 (``n_half`` entries).  ``F[f](-k)`` is
``conj(F[f](k))``, so the other half carries no information.
``scipy.fft.rfftn`` computes ``sum_x f(x) exp(-i k.x)``, the conjugate
of the package transform; :meth:`Grid.rfwd` and :meth:`Grid.rinv`
conjugate on the way in and out.  Lattice arrays (``kvec``, ``k_norm``,
the masks) are defined once on the full lattice; half-spectrum code
slices them to ``[..., :n_half]``, which keeps fftfreq's sign: the
last half-spectrum plane kz = N/2 carries ``k1d[N//2] = -pi N / L``.

A quadratic quantity of a half spectrum sums each kz = 0 and kz = N/2
mode once and every other mode twice (:meth:`Grid.sobolev_norm`).  That
holds for spectra of real fields only.  A mode-wise projection onto a
wave branch is not one: ``P+(-k) = P-(k)``, so the full-lattice sum of
``|P+ U|^2`` pairs the half-spectrum values of ``P+ U`` and ``P- U``
(the pair rule, used by the branch norms in
:func:`abiwave.diagnostics.sample_diagnostics`).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft


def fft_workers() -> int:
    """Worker cap for the FFT backend, from ABI_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("ABI_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class Grid:
    """Cubic periodic grid with N points per axis on [0, L)^3."""

    N: int
    L: float

    def __post_init__(self):
        if self.N <= 0 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two, got {self.N}")
        if self.L <= 0:
            raise ValueError("L must be positive")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @cached_property
    def k1d(self) -> np.ndarray:
        """Physical wavenumbers along one axis (fftfreq ordering)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)

    @cached_property
    def kvec(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable wavenumber arrays (kx, ky, kz)."""
        k = self.k1d
        return (k[:, None, None], k[None, :, None], k[None, None, :])

    @cached_property
    def k_norm(self) -> np.ndarray:
        kx, ky, kz = self.kvec
        return np.sqrt(kx ** 2 + ky ** 2 + kz ** 2)

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """Resolved modes: the three self-conjugate Nyquist planes excluded.

        Complex mode-wise multipliers are only Hermitian-consistent off
        those planes, so real-field generators and propagators keep them
        empty.
        """
        m = np.fft.fftfreq(self.N, d=1.0 / self.N)
        keep = m != -(self.N // 2)
        return (keep[:, None, None] & keep[None, :, None]
                & keep[None, None, :])

    @property
    def n_half(self) -> int:
        """Last-axis length of a half spectrum."""
        return self.N // 2 + 1

    def strip_nyquist(self, fh: np.ndarray) -> np.ndarray:
        """Zero the three Nyquist planes of a full or half spectrum.

        On a half spectrum the kz = N/2 plane is its last entry, which
        the sliced mask zeroes together with the kx and ky planes.
        """
        return fh * self.nyquist_mask[..., :fh.shape[-1]]

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule mask: keep integer modes |m_j| <= N//3."""
        m = np.abs(np.fft.fftfreq(self.N, d=1.0 / self.N))
        keep = m <= self.N // 3
        return (keep[:, None, None] & keep[None, :, None]
                & keep[None, None, :])

    @property
    def k_max_dealiased(self) -> float:
        return 2.0 * np.pi * (self.N // 3) / self.L * np.sqrt(3.0)

    @cached_property
    def x1d(self) -> np.ndarray:
        return np.arange(self.N) * self.dx

    # -- transforms -------------------------------------------------

    def fwd(self, f: np.ndarray) -> np.ndarray:
        """Analysis transform over the last three axes."""
        return scipy.fft.ifftn(f, axes=(-3, -2, -1), norm="forward",
                               workers=fft_workers())

    def inv(self, fh: np.ndarray) -> np.ndarray:
        """Synthesis transform (complex output; take .real for real fields)."""
        return scipy.fft.fftn(fh, axes=(-3, -2, -1), norm="forward",
                              workers=fft_workers())

    def rfwd(self, f: np.ndarray) -> np.ndarray:
        """Analysis transform of real fields: their half spectra.

        Equals ``fwd(f)[..., :n_half]``; ``rfftn`` has the opposite sign
        in its exponent, hence the conjugate.
        """
        return np.conj(scipy.fft.rfftn(f, axes=(-3, -2, -1),
                                       workers=fft_workers()))

    def rinv(self, fh: np.ndarray) -> np.ndarray:
        """Synthesis of real fields from their half spectra."""
        n = self.N
        return scipy.fft.irfftn(np.conj(fh), s=(n, n, n), axes=(-3, -2, -1),
                                workers=fft_workers())

    def gradient(self, fh: np.ndarray) -> np.ndarray:
        """All first derivatives of real fields, in one transform.

        Takes half spectra (..., N, N, n_half) and returns
        (..., 3, N, N, N) with ``out[..., j, :, :, :] = d_j f``.  The
        derivative along axis j is zero on that axis's Nyquist plane,
        whose mode is real and self-conjugate (the value the real part
        of a full-lattice synthesis gives).
        """
        n = self.N
        c = np.conj(fh)
        dh = np.empty(fh.shape[:-3] + (3,) + fh.shape[-3:], dtype=c.dtype)
        for j, k in enumerate(self.kvec):
            # irfftn takes conjugates (see rinv): conj(-i k F) = i k conj(F)
            ik = 1j * k[..., :fh.shape[-1]]
            ik.flat[n // 2] = 0.0
            np.multiply(ik, c, out=dh[..., j, :, :, :])
        return scipy.fft.irfftn(dh, s=(n, n, n), axes=(-3, -2, -1),
                                workers=fft_workers())

    def deriv(self, fh: np.ndarray, axis: int) -> np.ndarray:
        """Spectral derivative along spatial axis 0, 1 or 2 (full lattice)."""
        shape = [1, 1, 1]
        shape[axis] = self.N
        karr = self.k1d.reshape(shape)
        return (-1j) * karr * fh

    # -- norms ------------------------------------------------------

    @property
    def spectral_weight(self) -> float:
        """Weight w with ||f||_{L^2}^2 = w * sum_k |F[f](k)|^2."""
        return self.L ** 3 / self.N ** 3

    def l2_norm(self, f: np.ndarray) -> float:
        """Discrete L^2 norm of a (possibly multi-component) field."""
        return float(np.sqrt(np.sum(np.abs(f) ** 2) * self.dx ** 3))

    def sobolev_norm(self, fh: np.ndarray, s: float) -> float:
        """H^s norm of real fields from their half spectra (..., N, N, n_half).

        Hermitian weight: the kz = 0 and kz = N/2 planes count once,
        every other plane twice (for its mirror at -k).
        """
        herm = np.full(self.n_half, 2.0)
        herm[[0, -1]] = 1.0
        w = (1.0 + self.k_norm[..., :self.n_half] ** 2) ** s * herm
        return float(np.sqrt(self.spectral_weight
                             * np.sum(w * np.abs(fh) ** 2)))

    def sup_norm(self, f: np.ndarray) -> float:
        return float(np.max(np.abs(f)))

    # -- helpers ----------------------------------------------------

    def solenoidal_project(self, vh: np.ndarray) -> np.ndarray:
        """Project a transformed 3-vector field (3,N,N,N) onto div-free."""
        kx, ky, kz = self.kvec
        k2 = kx ** 2 + ky ** 2 + kz ** 2
        with np.errstate(invalid="ignore", divide="ignore"):
            kdotv = (kx * vh[0] + ky * vh[1] + kz * vh[2]) / k2
        kdotv[0, 0, 0] = 0.0
        out = vh.copy()
        out[0] -= kx * kdotv
        out[1] -= ky * kdotv
        out[2] -= kz * kdotv
        return out

    def spectral_divergence(self, vh: np.ndarray) -> np.ndarray:
        """Transformed divergence of a transformed 3-vector field.

        Takes a full or a half spectrum (3, N, N, m).
        """
        kx, ky, kz = self.kvec
        kz = kz[..., :vh.shape[-1]]
        return (-1j) * (kx * vh[0] + ky * vh[1] + kz * vh[2])

    def shell_masks(self):
        """Dyadic shell masks 2^j <= |k| < 2^{j+1} covering the lattice.

        Returns a list of (j, mask) pairs; the k = 0 mode belongs to no
        shell (homogeneous norms ignore the mean).
        """
        kn = self.k_norm
        kmin = 2.0 * np.pi / self.L
        kmax = float(kn.max())
        jlo = int(np.floor(np.log2(kmin)))
        jhi = int(np.ceil(np.log2(kmax)))
        shells = []
        for j in range(jlo, jhi + 1):
            mask = (kn >= 2.0 ** j) & (kn < 2.0 ** (j + 1))
            if mask.any():
                shells.append((j, mask))
        return shells
