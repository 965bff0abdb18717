"""The half-spectrum layout that stored F(q) at lattice index q.

``scipy.fft.rfftn`` computes ``F(-q)`` at index q, where F is the
package transform (:mod:`abiwave.conventions`).  The package stores
exactly that, the modes kz <= 0 with ``kvec`` = -q.  It used to store
the modes kz >= 0 instead: ``rfwd`` conjugated the ``rfftn`` output in
place, ``rinv`` and ``gradient`` conjugated their input into a fresh
array before ``irfftn``, ``kvec`` was +q, and
``model._band_half_spectrum`` returned the Hermitian part at kz >= 0.
:class:`ConjugatingGrid` and :func:`band_half_spectrum` are that code.
Every other mode-wise operator reads ``kvec`` or is even in k, so a run
on a :class:`ConjugatingGrid` with :func:`band_half_spectrum` in place
of the package's is a run of the old layout; ``tests/test_layout.py``
checks that the package reproduces it bit for bit.  It calls
``scipy.fft`` itself, not the package's transforms, so the oracle does
not share the package's path to SciPy's compiled module.
"""
from functools import cached_property

import numpy as np
import scipy.fft

from abiwave.grid import Grid, fft_workers


class ConjugatingGrid(Grid):
    """A :class:`Grid` holding F(q) at index q: the modes kz >= 0."""

    @cached_property
    def kvec(self):
        k = self.k1d.copy()
        k[self.N // 2] = 0.0
        return self._half(k)

    @cached_property
    def _ikvec(self):
        return tuple(1j * k for k in self.kvec)

    def rfwd(self, f):
        fh = scipy.fft.rfftn(f, axes=(-3, -2, -1), workers=fft_workers())
        return np.conj(fh, out=fh)

    def rinv(self, fh, out=None):
        n = self.N
        f = scipy.fft.irfftn(np.conj(fh), s=(n, n, n),
                             axes=(-3, -2, -1), workers=fft_workers())
        if out is None:
            return f
        out[...] = f
        return out

    def gradient(self, fh):
        n = self.N
        c = np.conj(fh)
        dh = np.empty(fh.shape[:-3] + (3,) + fh.shape[-3:], dtype=c.dtype)
        for j, ik in enumerate(self._ikvec):
            # irfftn takes conjugates (see rinv): conj(-i k F) = i k conj(F)
            np.multiply(ik, c, out=dh[..., j, :, :, :])
        return scipy.fft.irfftn(dh, s=(n, n, n), axes=(-3, -2, -1),
                                workers=fft_workers())


def band_half_spectrum(grid, rng, prof, lead=()):
    """``model._band_half_spectrum`` at kz >= 0: h(q) at index q."""
    shape = lead + prof.shape
    vh = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * prof
    neg = -np.arange(grid.N) % grid.N  # lattice index of -k
    mirror = vh[..., neg[:, None, None], neg[None, :, None],
                neg[:grid.n_half]]
    return 0.5 * (vh[..., :grid.n_half] + np.conj(mirror))
