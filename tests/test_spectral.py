import numpy as np
import pytest

from abiwave import spectral
from abiwave.fields import StateField
from abiwave.state import ConstantState, norm0
from conftest import random_state, random_xi


def test_A0_zero_frequency_and_symmetry(rng):
    st = random_state(rng)
    assert np.max(np.abs(spectral.assemble_A0(np.zeros(3), st))) == 0.0
    A = spectral.assemble_A0(random_xi(rng), st)
    assert np.allclose(A, A.T, atol=1e-13)


def test_A0_isotropic_eigenvalues(rng):
    # dense symmetric eigensolver; multiplicities 4 / 3 / 3
    st = ConstantState(tau0=1.0)
    xi = random_xi(rng)
    w = np.linalg.eigvalsh(spectral.assemble_A0(xi, st))
    n = np.linalg.norm(xi)
    assert np.allclose(np.sort(w), [-n] * 3 + [0.0] * 4 + [n] * 3,
                       atol=1e-10 * n)


def test_A0_homogeneity(rng):
    st = random_state(rng)
    xi = random_xi(rng)
    lam = rng.uniform(0.1, 5.0)
    assert np.allclose(spectral.assemble_A0(lam * xi, st),
                       lam * spectral.assemble_A0(xi, st), atol=1e-12)


def test_eigen_basis_matches_displayed_vectors(rng):
    for _ in range(50):
        st = random_state(rng)
        xi = random_xi(rng)
        A = spectral.assemble_A0(xi, st)
        n0 = norm0(xi, st)
        eb = spectral.eigen_basis(xi, st)
        for branch, lam in ((0, 0.0), (1, n0), (-1, -n0)):
            M = eb[branch]
            assert np.max(np.abs(A @ M - lam * M)) <= 1e-10 * max(n0, 1.0)
        # branches are mutually orthogonal (Gram block structure)
        for b1, b2 in ((0, 1), (0, -1), (1, -1)):
            G = eb[b1].T @ eb[b2]
            assert np.max(np.abs(G)) <= 1e-10 * max(n0, 1.0)


def test_projector_isotropic_block_structure(rng):
    st = ConstantState(tau0=1.0)
    xi = random_xi(rng)
    e = xi / np.linalg.norm(xi)
    P0 = spectral.projector(xi, st, 0)
    expect = np.zeros((10, 10))
    expect[1:4, 1:4] = np.eye(3) - np.outer(e, e)
    expect[4:7, 4:7] = np.outer(e, e)
    expect[7:10, 7:10] = np.outer(e, e)
    assert np.allclose(P0, expect, atol=1e-12)
    assert np.trace(P0) == pytest.approx(4.0, abs=1e-12)


def test_projector_algebra(rng):
    for _ in range(200):
        st = random_state(rng)
        xi = random_xi(rng)
        Ps = {b: spectral.projector(xi, st, b) for b in (0, 1, -1)}
        S = sum(Ps.values())
        assert np.max(np.abs(S - np.eye(10))) <= 1e-12
        for b, P in Ps.items():
            assert np.max(np.abs(P @ P - P)) <= 1e-12
            assert np.max(np.abs(P - P.T)) <= 1e-12
        for b1 in (0, 1, -1):
            for b2 in (0, 1, -1):
                if b1 != b2:
                    assert np.max(np.abs(Ps[b1] @ Ps[b2])) <= 1e-12


def test_projector_homogeneity_and_reconstruction(rng):
    for _ in range(50):
        st = random_state(rng)
        xi = random_xi(rng)
        lam = rng.uniform(0.1, 7.0)
        n0 = norm0(xi, st)
        Pp = spectral.projector(xi, st, 1)
        Pm = spectral.projector(xi, st, -1)
        assert np.allclose(spectral.projector(lam * xi, st, 1), Pp, atol=1e-12)
        A = spectral.assemble_A0(xi, st)
        assert np.max(np.abs(A - n0 * (Pp - Pm))) <= 1e-10 * n0


def test_projector_frame_independence(rng):
    # projector from a randomly rotated (e2, e3) eigenbasis must agree
    st = random_state(rng)
    xi = random_xi(rng)
    eb = spectral.eigen_basis(xi, st)
    for branch in (0, 1, -1):
        M = eb[branch]
        P_ls = M @ np.linalg.solve(M.T @ M, M.T)
        assert np.max(np.abs(P_ls - spectral.projector(xi, st, branch))) < 1e-9


def test_projector_rejects_zero_frequency():
    st = ConstantState(tau0=1.0)
    with pytest.raises(ValueError):
        spectral.projector(np.zeros(3), st, 1)
    with pytest.raises(ValueError):
        spectral.eigen_basis(np.zeros(3), st)


def test_constraint_operator_isotropic_rows(rng):
    st = ConstantState(tau0=2.0)
    xi = random_xi(rng)
    L = spectral.assemble_L0(xi, st)
    assert np.allclose(L[0, 4:7], -st.tau0 * xi)
    assert np.allclose(L[1, 7:10], -st.tau0 * xi)
    assert np.max(np.abs(L[0, :4])) == 0 and np.max(np.abs(L[2:, 4:])) == 0
    r = L[2:5, 1:4]
    assert np.allclose(r, -r.T, atol=1e-13)


def test_constraint_operator_kernel_and_rank(rng):
    for _ in range(100):
        st = random_state(rng)
        xi = random_xi(rng)
        n0 = norm0(xi, st)
        L = spectral.assemble_L0(xi, st)
        eb = spectral.eigen_basis(xi, st)
        for branch in (1, -1):
            assert np.max(np.abs(L @ eb[branch])) <= 1e-10 * n0
        rank = np.linalg.matrix_rank(L @ eb[0], tol=1e-8 * n0)
        assert rank == 4


def test_decompose_reconstruction_and_parseval(grid16, rng):
    st = random_state(rng)
    g = grid16
    fh = g.strip_nyquist(g.fwd(rng.normal(size=(10,) + (g.N,) * 3)))
    U = StateField(g, g.inv(fh).real)
    parts = spectral.decompose(U, st)
    recon = parts.plus + parts.minus + parts.zero
    assert np.max(np.abs(recon - U.data)) <= 1e-12 * np.max(np.abs(U.data))
    tot = sum(g.l2_norm(p) ** 2 for p in parts)
    assert tot == pytest.approx(g.l2_norm(U.data) ** 2, rel=1e-10)
    # mean mode goes wholly to the kernel branch
    means = U.data.mean(axis=(1, 2, 3))
    assert np.allclose(parts.zero.mean(axis=(1, 2, 3)).real, means, atol=1e-13)


def test_decompose_idempotence(grid16, rng):
    st = random_state(rng)
    g = grid16
    U = StateField(g, rng.normal(size=(10,) + (g.N,) * 3))
    geo = spectral._geometry(g, st)
    up = spectral.apply_projector(g.rfwd(U.data), geo, +1)
    again = spectral.apply_projector(up, geo, +1)
    assert np.max(np.abs(again - up)) <= 1e-12 * max(np.max(np.abs(up)), 1)
    crossed = spectral.apply_projector(up, geo, -1)
    assert np.max(np.abs(crossed)) <= 1e-12 * max(np.max(np.abs(up)), 1)


def test_zero_field_decomposes_to_zero(grid16):
    st = ConstantState(tau0=1.0)
    parts = spectral.decompose(StateField.zeros(grid16), st)
    for p in parts:
        assert np.max(np.abs(p)) == 0.0


def test_propagator_identity_unitarity_roundtrip(grid16, rng):
    st = random_state(rng)
    g = grid16
    fh = g.strip_nyquist(g.fwd(rng.normal(size=(10,) + (g.N,) * 3)))
    U = StateField(g, g.inv(fh).real)
    assert np.allclose(spectral.propagate_linear(U, st, 0.0).data, U.data,
                       atol=1e-13)
    Ut = spectral.propagate_linear(U, st, 1.7)
    assert g.l2_norm(Ut.data) == pytest.approx(g.l2_norm(U.data), rel=1e-12)
    back = spectral.propagate_linear(Ut, st, 1.7, "profile")
    assert np.max(np.abs(back.data - U.data)) <= 1e-11


def test_propagator_single_mode_phase(grid16, rng):
    # scalar oracle on a one-mode field: exp(-i t |k|_0) on the + branch
    st = random_state(rng)
    g = grid16
    i, j, l = 2, 1, 0
    xi = np.array([g.k1d[i], g.k1d[j], g.k1d[l]])
    X = spectral.eigen_basis(xi, st)[+1][:, 0]
    Uh = np.zeros((10,) + (g.N,) * 3, dtype=complex)
    z = 0.3 + 0.4j
    Uh[:, i, j, l] = z * X
    Uh[:, -i, -j, l] = np.conj(z * X)
    U = StateField(g, g.inv(Uh).real)
    t = 0.9
    out = spectral.propagate_linear(U, st, t).spectral()[:, i, j, l]
    want = z * X * np.exp(-1j * t * norm0(xi, st))
    assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(X))
