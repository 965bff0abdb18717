"""Convolution-theorem validation of the bilinear symbol.

Ties the shared quadratic table (and its frequency-slot convention:
differentiated factor in the xi - eta slot, one factor -i|xi - eta|
stripped) to the actual physical-space products, independently of the
exact tensors.  Fields are band-limited so products are alias-free and
the identities hold to round-off.
"""
import numpy as np
import pytest

from abiwave import spectral, system
from abiwave.grid import Grid
from abiwave.state import ConstantState
import fullfft_reference as R


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(8)
    g = Grid(N=8, L=2 * np.pi)

    def band_field():
        fh = np.zeros((10, g.N, g.N, g.N), dtype=complex)
        for c in range(10):
            for mx in (-1, 0, 1):
                for my in (-1, 0, 1):
                    for mz in (-1, 0, 1):
                        z = rng.normal() + 1j * rng.normal()
                        fh[c, mx, my, mz] += z
                        fh[c, -mx, -my, -mz] += np.conj(z)
        fh[:, 0, 0, 0] = 0.0
        return R.inv_real(fh)

    return g, band_field(), band_field()


def _physical_bilinear(g, u, v, uh):
    """Term-table evaluation with the derivative on the first factor."""
    W = np.zeros_like(u)
    for row, a, c, j, sign in system.EVOLUTION_TERMS:
        W[row] += sign * v[a] * R.inv_real(R.deriv(g, uh[c], j))
    return W


def test_symbol_matches_physical_products_by_convolution(setup):
    g, u, v = setup
    N = g.N
    uh, vh = R.fwd(u), R.fwd(v)
    Wh = R.fwd(_physical_bilinear(g, u, v, uh))

    k1 = g.k1d
    conv = np.zeros_like(Wh)
    for ix in range(N):
        for iy in range(N):
            for iz in range(N):
                w = np.array([k1[ix], k1[iy], k1[iz]])
                nw = np.linalg.norm(w)
                uw = uh[:, ix, iy, iz]
                if nw == 0 or np.max(np.abs(uw)) == 0:
                    continue
                B = system.bilinear_symbol(w / nw)  # [row, c, a]
                M = np.einsum("rca,c->ra", B, uw) * (-1j) * nw
                vr = np.roll(vh, (ix, iy, iz), axis=(1, 2, 3))  # vh(xi - w)
                conv += np.einsum("ra,a...->r...", M, vr)
    conv /= N ** 3
    err = np.max(np.abs(conv - Wh)) / np.max(np.abs(Wh))
    assert err < 1e-12


def test_projected_composition_matches_grid_operator(setup):
    # P^{e1}(D) N(P^{e2}(D) u, P^{e3}(D) v) evaluated on the grid equals
    # the convolution with compose_interaction's per-pair tensors
    g, u, v = setup
    N = g.N
    st = ConstantState(tau0=0.9, b0=(0.4, 0.1, -0.2), d0=(0.1, -0.3, 0.5))
    eps = (1, -1, 1)
    geo = spectral._ModeGeometry(R.kvec(g), st)  # full lattice: complex fields
    uh = spectral.apply_projector(R.fwd(u), geo, eps[1])
    vh = spectral.apply_projector(R.fwd(v), geo, eps[2])
    up = R.inv(uh)
    vp = R.inv(vh)
    W = np.zeros_like(up)
    for row, a, c, j, sign in system.EVOLUTION_TERMS:
        W[row] += sign * vp[a] * R.inv(R.deriv(g, uh[c], j))
    Wh = spectral.apply_projector(R.fwd(W), geo, eps[0])

    k1 = g.k1d
    idx = [(1, 0, 0), (2, 1, 0), (1, 1, 1), (3, 0, 2)]
    for (ix, iy, iz) in idx:
        xi = np.array([k1[ix], k1[iy], k1[iz]])
        total = np.zeros(10, dtype=complex)
        for ex in range(N):
            for ey in range(N):
                for ez in range(N):
                    eta = np.array([k1[ex], k1[ey], k1[ez]])
                    wv = xi - eta
                    if np.linalg.norm(eta) == 0 or np.linalg.norm(wv) < 1e-12:
                        continue
                    uw = uh[:, (ix - ex) % N, (iy - ey) % N, (iz - ez) % N]
                    ve = vh[:, ex, ey, ez]
                    if np.max(np.abs(uw)) == 0 and np.max(np.abs(ve)) == 0:
                        continue
                    T = spectral.compose_interaction(xi, eta, st, eps)
                    total += (-1j) * np.linalg.norm(wv) * np.einsum(
                        "ijk,j,k->i", T, uw, ve)
        total /= N ** 3
        got = Wh[:, ix, iy, iz]
        scale = max(np.max(np.abs(Wh)), 1e-30)
        assert np.max(np.abs(total - got)) / scale < 1e-10, (ix, iy, iz)
