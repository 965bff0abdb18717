"""A0, L0, the mode-wise A0 and the constraint residual, all derived from
the quadratic tables of :mod:`abiwave.system`, and the projectors, built
as polynomials in A0 / |xi|_0, against the hand-written block layouts
and closed forms they replaced (``fullfft_reference.py``).

Backgrounds move (v0 != 0): A0 is defined in the rest frame, so the
-v.grad terms of the table must not reach it.
"""
import numpy as np
import pytest

from abiwave import diagnostics, model, spectral
from abiwave.fields import StateField
from conftest import random_state, random_xi
import fullfft_reference as R


def _moving_state(rng):
    return random_state(rng).with_v0(rng.normal(size=3))


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_A0_matches_block_layout(rng):
    for _ in range(200):
        st, xi = _moving_state(rng), random_xi(rng)
        assert _rel(spectral.assemble_A0(xi, st), R.assemble_A0(xi, st)) <= 1e-14


def test_L0_matches_block_layout_with_table_signs(rng):
    for _ in range(200):
        st, xi = _moving_state(rng), random_xi(rng)
        want = R.assemble_L0(xi, st)
        want[2:5] *= -1  # the table's sign on the curl rows
        assert _rel(spectral.assemble_L0(xi, st), want) <= 1e-14


def _spectrum_and_geometries(g, st, f, lattice):
    """A spectrum of ``f``, the wavenumbers of its modes and the package
    and closed-form geometries."""
    if lattice == "full":
        kvec, Uhat = R.kvec(g), R.fwd(f)
    else:
        # the half spectrum stores the mode -q at lattice index q
        kx, ky, kz = R.kvec(g)
        kvec, Uhat = (-kx, -ky, -kz[..., :g.n_half]), g.rfwd(f)
    return (Uhat, kvec, spectral._ModeGeometry(kvec, st),
            R.ClosedFormGeometry(kvec, st))


@pytest.mark.parametrize("lattice", ["full", "half"])
def test_apply_A0_matches_block_layout(grid16, rng, lattice):
    g = grid16
    st = _moving_state(rng)
    f = rng.normal(size=(10,) + (g.N,) * 3)
    Uhat, kvec, geo, _ = _spectrum_and_geometries(g, st, f, lattice)
    got = spectral.apply_A0(Uhat, geo)
    assert _rel(got, R.apply_A0(Uhat, kvec, st)) <= 1e-14


def test_projector_matches_closed_form(rng):
    for _ in range(200):
        st, xi = _moving_state(rng), random_xi(rng)
        for branch in spectral.BRANCHES:
            assert _rel(spectral.projector(xi, st, branch),
                        R.projector(xi, st, branch)) <= 1e-14


@pytest.mark.parametrize("lattice", ["full", "half"])
def test_grid_projectors_match_closed_form(grid16, rng, lattice):
    g = grid16
    st = _moving_state(rng)
    f = rng.normal(size=(10,) + (g.N,) * 3)
    Uhat, _, geo, closed = _spectrum_and_geometries(g, st, f, lattice)
    for branch in (+1, -1, 0):
        want = R.apply_projector(Uhat, closed, branch)
        assert _rel(spectral.apply_projector(Uhat, geo, branch), want) <= 1e-14


@pytest.mark.parametrize("lattice", ["full", "half"])
def test_mean_mode_goes_to_the_kernel_branch(grid16, rng, lattice):
    g = grid16
    st = _moving_state(rng)
    f = 1.0 + rng.normal(size=(10,) + (g.N,) * 3)
    Uhat, _, geo, _ = _spectrum_and_geometries(g, st, f, lattice)
    mean = Uhat[:, 0, 0, 0]
    assert np.all(mean != 0)
    assert np.array_equal(spectral.apply_projector(Uhat, geo, 0)[:, 0, 0, 0],
                          mean)
    for branch in (+1, -1):
        assert not np.any(spectral.apply_projector(Uhat, geo, branch)[:, 0, 0, 0])


@pytest.mark.parametrize("kind", ["admissible", "generic"])
def test_constraint_residual_matches_einsums(grid16, manifold_bg, rng, kind):
    g, st, amp = grid16, manifold_bg, 1e-2
    assert np.any(st.v0)
    if kind == "admissible":
        u = model.admissible_perturbation(5, amp, st, g)
    else:
        data = rng.normal(size=(10,) + (g.N,) * 3)
        u = StateField(g, amp * data / np.max(np.abs(data)))
    grad = g.gradient(u.spectral())
    got = diagnostics.constraint_residual(u, st, grad.__getitem__)
    want = R.residual_fields(u, st, grad)
    for norms, r in zip(got, want):
        assert abs(norms["sup"] - np.max(np.abs(r))) <= 1e-15
        assert abs(norms["l2"] - g.l2_norm(r)) <= 1e-15
