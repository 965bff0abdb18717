"""Periodic cubic grid, real-field spectral transforms and dealiasing.

The analysis transform follows the package convention
(:mod:`abiwave.conventions`): ``F[f](k) = sum_x f(x) exp(+i k.x)``, so
``F[d_j f] = -i k_j F[f]``.

Every field is real and lives on the half spectrum, the one transform
pair (there is no full-lattice complex transform): the modes with
kz >= 0, i.e. last-axis indices 0..N//2 (``n_half`` entries).
``F[f](-k)`` is ``conj(F[f](k))``, so the other half carries no
information.  ``scipy.fft.rfftn`` computes ``sum_x f(x) exp(-i k.x)``,
the conjugate of the package transform; :meth:`Grid.rfwd` and
:meth:`Grid.rinv` conjugate on the way in and out.  ``scipy.fft`` is
imported by the first transform, not with the module, so code that
never transforms (the certifier) runs without SciPy.  Every lattice array
(``kvec``, ``k_norm``, the masks, the shells) is built on the half
spectrum, with shape (N, N, n_half) once broadcast; only
:mod:`abiwave.model` draws its random modes on the full lattice, from
``k1d``.

The Nyquist planes are decided in ``kvec`` alone.  On axis j's Nyquist
plane the indices N/2 and -N/2 are one lattice point, so an odd
multiplier such as k_j or A0(k) maps a real field's spectrum to one only
if it vanishes there: ``kvec[j]`` is 0 on that plane.  Every mode-wise
operator built from ``kvec`` (the gradient, A0, the v0 transport, the
projectors, for which P+(-k) = P-(k)) then maps half spectra of real
fields to half spectra of real fields.  ``k_norm`` is even in k and
keeps the true magnitude pi N / L there, so the Sobolev norms and the
Besov shells count those modes at their full wavenumber.

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
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


def _fft():
    """The ``scipy.fft`` module, imported by the first transform.

    Importing the package loads no SciPy; the certifier never
    transforms.  Callers read ``_fft().<name>`` at every call, so a
    function replaced on the module later (the benchmark tracer wraps
    them) is the one that runs.
    """
    import scipy.fft
    return scipy.fft


def fft_workers() -> int:
    """Worker cap for the FFT backend, from ABI_THREADS (default 1)."""
    return _workers_from(os.environ.get("ABI_THREADS", "1"))


@lru_cache(maxsize=None)
def _workers_from(text: str) -> int:
    """Parse an ABI_THREADS value; warn once per value that is not >= 1."""
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        print(f"warning: ABI_THREADS={text!r} is not a positive integer; "
              f"using 1 FFT worker", file=sys.stderr)
    return max(1, workers)


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
        """Physical wavenumbers along one axis of the full lattice
        (fftfreq ordering, -pi N / L at index N/2)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)

    @property
    def n_half(self) -> int:
        """Last-axis length of a half spectrum."""
        return self.N // 2 + 1

    def _half(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A per-axis array as three arrays broadcasting to (N, N, n_half)."""
        return a[:, None, None], a[None, :, None], a[None, None, :self.n_half]

    @cached_property
    def kvec(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Half-spectrum wavenumbers (kx, ky, kz); k_j = 0 on axis j's
        Nyquist plane, the one place that plane is decided."""
        k = self.k1d.copy()
        k[self.N // 2] = 0.0
        return self._half(k)

    @cached_property
    def k_norm(self) -> np.ndarray:
        """|k| on the half spectrum; a Nyquist component counts pi N / L."""
        kx, ky, kz = self._half(self.k1d)
        return np.sqrt(kx ** 2 + ky ** 2 + kz ** 2)

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """Resolved modes: the three self-conjugate Nyquist planes excluded."""
        m = np.fft.fftfreq(self.N, d=1.0 / self.N)
        kx, ky, kz = self._half(m != -(self.N // 2))
        return kx & ky & kz

    def strip_nyquist(self, fh: np.ndarray) -> np.ndarray:
        """Zero the three Nyquist planes of a half spectrum."""
        return fh * self.nyquist_mask

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule mask: keep integer modes |m_j| <= N//3."""
        m = np.abs(np.fft.fftfreq(self.N, d=1.0 / self.N))
        kx, ky, kz = self._half(m <= self.N // 3)
        return kx & ky & kz

    @cached_property
    def x1d(self) -> np.ndarray:
        return np.arange(self.N) * self.dx

    # -- transforms -------------------------------------------------

    def rfwd(self, f: np.ndarray) -> np.ndarray:
        """Analysis transform of real fields: their half spectra.

        The package transform at kz >= 0; ``rfftn`` has the opposite
        sign in its exponent, hence the conjugate, taken in place.
        """
        fh = _fft().rfftn(f, axes=(-3, -2, -1), workers=fft_workers())
        return np.conj(fh, out=fh)

    def rinv(self, fh: np.ndarray) -> np.ndarray:
        """Synthesis of real fields from their half spectra."""
        n = self.N
        return _fft().irfftn(np.conj(fh), s=(n, n, n), axes=(-3, -2, -1),
                             workers=fft_workers())

    def gradient(self, fh: np.ndarray) -> np.ndarray:
        """All first derivatives of real fields, in one transform.

        Takes half spectra (..., N, N, n_half) and returns
        (..., 3, N, N, N) with ``out[..., j, :, :, :] = d_j f``.  The
        derivative along axis j is zero on that axis's Nyquist plane,
        where ``kvec[j]`` is 0 (the value the real part of a
        full-lattice synthesis gives).
        """
        n = self.N
        c = np.conj(fh)
        dh = np.empty(fh.shape[:-3] + (3,) + fh.shape[-3:], dtype=c.dtype)
        for j, k in enumerate(self.kvec):
            # irfftn takes conjugates (see rinv): conj(-i k F) = i k conj(F)
            np.multiply(1j * k, c, out=dh[..., j, :, :, :])
        return _fft().irfftn(dh, s=(n, n, n), axes=(-3, -2, -1),
                             workers=fft_workers())

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
        w = self._sobolev_weights.get(s)
        if w is None:
            # (1 + |k|^2)^s * herm, in place: one array per s is kept
            herm = np.full(self.n_half, 2.0)
            herm[[0, -1]] = 1.0
            w = self.k_norm ** 2
            w += 1.0
            w **= s
            w *= herm
            self._sobolev_weights[s] = w
        return float(np.sqrt(self.spectral_weight
                             * np.sum(w * np.abs(fh) ** 2)))

    @cached_property
    def _sobolev_weights(self) -> dict:
        """s -> the weight (1 + |k|^2)^s * herm of :meth:`sobolev_norm`."""
        return {}

    def sup_norm(self, f: np.ndarray) -> float:
        return float(np.max(np.abs(f)))

    # -- helpers ----------------------------------------------------

    def shell_masks(self):
        """Dyadic shell masks 2^j <= |k| < 2^{j+1} covering the half spectrum.

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
