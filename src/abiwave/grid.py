"""Periodic cubic grid, real-field spectral transforms and dealiasing.

The analysis transform follows the package convention
(:mod:`abiwave.conventions`): ``F[f](k) = sum_x f(x) exp(+i k.x)``, so
``F[d_j f] = -i k_j F[f]``.

Every field is real and lives on the half spectrum, the one transform
pair (there is no full-lattice complex transform): last-axis indices
0..N//2 (``n_half`` entries), as ``F[f](-k)`` is ``conj(F[f](k))``.
At lattice index q ``scipy.fft.rfftn`` computes ``F[f](-q)``, so the
stored half spectrum is the package transform on the modes kz <= 0, the
mode at index q has wavevector -q (``kvec``), and :meth:`Grid.rfwd` and
:meth:`Grid.rinv` are bitwise ``rfftn`` and ``irfftn``.  Every lattice
array (``kvec``, ``k_norm``, the masks, the shells) is built on the half
spectrum, with shape (N, N, n_half) once broadcast; only
:mod:`abiwave.model` draws its random modes on the full lattice, from
``k1d``.

The transforms call SciPy's compiled pocketfft module
(``scipy.fft._pocketfft.pypocketfft``) directly, through the module
functions :func:`r2c` and :func:`c2r`, which every transform looks up at
call time.  They pass what ``rfftn`` and ``irfftn`` pass: the last
three axes, ``inorm`` 0 forward and 2 inverse (SciPy's "backward"
norm) and :func:`fft_workers` threads.  The kernel is the same, so
every result is bitwise that of ``scipy.fft``.  The synthesis also
passes pocketfft's own output array: ``c2r(fh, n, out=buf)`` and
``Grid.rinv(fh, out=buf)`` write the fields, with the same bits, into
a given float64 buffer of the result's shape, so a caller that owns
one (the run workspace) synthesizes without allocating.  What is left
out is the ``scipy.fft`` package, whose import loads
``scipy.special`` and SciPy's array-API layer.  Leaving it out cut the
``desk`` run's peak RSS from 90.8 to 72.3 MB and its set-up from 0.37
to 0.19 s (benchmark medians on a 2-vCPU host, SciPy 1.17.1,
NumPy 2.4.6).  The module is loaded by the first transform, not with
this module, so code that never transforms (the certifier) runs without
SciPy.  Its signature is private to SciPy; the bitwise test against
``scipy.fft`` in ``tests/test_half_spectrum.py`` is what pins it, so a
SciPy release that changes it fails there.

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

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


@lru_cache(maxsize=None)
def _fft():
    """SciPy's compiled pocketfft module, loaded by the first transform.

    It is found on SciPy's path without running SciPy's package code.
    It is not registered in ``sys.modules``: a later ``import scipy.fft``
    loads it in the normal way, which sets the attribute ``pypocketfft``
    of its package, and gets this same object back from CPython's cache
    of loaded extension modules (``tests/test_repo.py`` checks both).
    """
    module = sys.modules.get(_POCKETFFT)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            _POCKETFFT, [os.path.join(d, "fft", "_pocketfft")
                         for d in scipy.submodule_search_locations])
        if spec is None:
            raise ModuleNotFoundError(
                f"the transforms need SciPy: no module named {_POCKETFFT!r}",
                name=_POCKETFFT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def r2c(f: np.ndarray) -> np.ndarray:
    """Half spectra of real fields over the last three axes, bitwise
    ``scipy.fft.rfftn(f, axes=(-3, -2, -1), workers=fft_workers())``.

    Integer and boolean fields are cast to float64, as SciPy's wrapper
    casts them.
    """
    if f.dtype.kind in "biu":
        f = f.astype(np.float64)
    elif f.dtype.kind != "f":
        raise TypeError(f"the analysis transform takes real fields, "
                        f"got dtype {f.dtype}")
    return _fft().r2c(f, list(range(f.ndim - 3, f.ndim)), True, 0, None,
                      fft_workers())


def c2r(fh: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Real fields on n^3 points from their half spectra, bitwise
    ``scipy.fft.irfftn(fh, s=(n, n, n), axes=(-3, -2, -1),
    workers=fft_workers())`` for complex half spectra.

    ``out``, a float64 array of the result's shape, receives the fields
    when given and is returned; a new array is returned otherwise.
    pocketfft takes the transform length from ``out``, so one of
    another shape is refused here rather than given a shorter transform.
    """
    if fh.dtype.kind != "c":
        raise TypeError(f"the synthesis transform takes half spectra, "
                        f"got dtype {fh.dtype}")
    shape = fh.shape[:-1] + (n,)
    if out is not None and (out.shape != shape or out.dtype != np.float64):
        raise ValueError(f"the synthesis writes float64 fields of shape "
                         f"{shape}, got {out.dtype} {out.shape}")
    return _fft().c2r(fh, list(range(fh.ndim - 3, fh.ndim)), n, False, 2,
                      out, fft_workers())


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
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be a finite number > 0, got {self.L!r}")

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
        """Wavevectors (kx, ky, kz) of the stored modes, -q at lattice
        index q; k_j = 0 on axis j's Nyquist plane, the one place that
        plane is decided."""
        k = -self.k1d
        k[self.N // 2] = 0.0
        return self._half(k)

    @cached_property
    def _ikvec(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``-1j * kvec[j]``, the multipliers of :meth:`gradient`."""
        return tuple(-1j * k for k in self.kvec)

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
        """Analysis transform of real fields: their half spectra, the
        package transform on the modes ``kvec`` (kz <= 0)."""
        return r2c(f)

    def rinv(self, fh: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """Synthesis of real fields from their half spectra, into ``out``
        when given (see :func:`c2r`)."""
        return c2r(fh, self.N, out)

    def gradient(self, fh: np.ndarray) -> np.ndarray:
        """All first derivatives of real fields, in one transform.

        Takes half spectra (..., N, N, n_half) and returns
        (..., 3, N, N, N) with ``out[..., j, :, :, :] = d_j f``.  The
        derivative along axis j is zero on that axis's Nyquist plane,
        where ``kvec[j]`` is 0 (the value the real part of a
        full-lattice synthesis gives).
        """
        dh = np.empty(fh.shape[:-3] + (3,) + fh.shape[-3:], dtype=fh.dtype)
        for j, ik in enumerate(self._ikvec):
            np.multiply(ik, fh, out=dh[..., j, :, :, :])
        return c2r(dh, self.N)

    # -- norms ------------------------------------------------------

    @property
    def spectral_weight(self) -> float:
        """Weight w with ||f||_{L^2}^2 = w * sum_k |F[f](k)|^2."""
        return self.L ** 3 / self.N ** 3

    def l2_norm(self, f: np.ndarray,
                scratch: np.ndarray | None = None) -> float:
        """Discrete L^2 norm of a (possibly multi-component) field.

        ``scratch``, a float64 array of ``f``'s shape, receives |f|^2
        when given; it may be ``f`` itself, which is then overwritten.
        """
        sq = np.abs(f, out=scratch)
        np.square(sq, out=sq)
        return float(np.sqrt(np.sum(sq) * self.dx ** 3))

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
        sq = np.abs(fh)
        np.square(sq, out=sq)
        sq *= w
        return float(np.sqrt(self.spectral_weight * np.sum(sq)))

    @cached_property
    def _sobolev_weights(self) -> dict:
        """s -> the weight (1 + |k|^2)^s * herm of :meth:`sobolev_norm`."""
        return {}

    # -- helpers ----------------------------------------------------

    @cached_property
    def shell_masks(self) -> tuple[tuple[int, np.ndarray], ...]:
        """Dyadic shell masks 2^j <= |k| < 2^{j+1} covering the half spectrum.

        (j, mask) pairs, built once per grid; the k = 0 mode belongs to
        no shell (homogeneous norms ignore the mean).
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
        return tuple(shells)
