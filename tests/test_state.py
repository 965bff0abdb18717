import numpy as np
import pytest

from abiwave.state import (AdmissibilityError, ConstantState, alpha_beta_delta,
                           bi_lift_constant, dual_norm0,
                           manifold_residual_constant, metric_matrix, norm0)
from conftest import random_state, random_xi


def test_metric_trivial_cases():
    m = metric_matrix(ConstantState(tau0=1.0))
    assert np.allclose(m.g, np.eye(3))
    m = metric_matrix(ConstantState(tau0=1.0, b0=(1, 0, 0)))
    assert np.allclose(m.g, np.diag([2.0, 1.0, 1.0]))


def test_metric_eigenvalue_floor(rng):
    # dense symmetric eigensolver oracle: smallest eigenvalue >= tau0^2
    for _ in range(100):
        st = random_state(rng)
        w = np.linalg.eigvalsh(metric_matrix(st).g)
        assert w[0] >= st.tau0 ** 2 - 1e-12
        assert np.allclose(metric_matrix(st).g @ metric_matrix(st).g_inv,
                           np.eye(3), atol=1e-10)


def test_inadmissible_background_rejected():
    with pytest.raises(AdmissibilityError):
        ConstantState(tau0=0.0)
    with pytest.raises(AdmissibilityError):
        ConstantState(tau0=-1.0)
    for bad in (dict(tau0=np.nan), dict(tau0=np.inf),
                dict(tau0=1.0, v0=(np.nan, 0, 0)),
                dict(tau0=1.0, b0=(0, np.inf, 0)),
                dict(tau0=1.0, d0=(0, 0, -np.inf))):
        with pytest.raises(AdmissibilityError, match="finite"):
            ConstantState(**bad)


def test_norm0_euclidean_case():
    st = ConstantState(tau0=1.0)
    assert norm0(np.array([3.0, 4.0, 0.0]), st) == pytest.approx(5.0)
    assert norm0(np.zeros(3), st) == 0.0


def test_direction_cosines_unit_sum(rng):
    for _ in range(100):
        st = random_state(rng)
        xi = random_xi(rng)
        a, b, d = alpha_beta_delta(xi, st)
        assert a > 0
        assert a * a + b * b + d * d == pytest.approx(1.0, abs=1e-12)


def test_norm_equivalence(rng):
    for _ in range(100):
        st = random_state(rng)
        xi = random_xi(rng)
        n = np.linalg.norm(xi)
        c1 = st.tau0
        c2 = np.sqrt(st.tau0 ** 2 + st.b0 @ st.b0 + st.d0 @ st.d0)
        assert c1 * n - 1e-12 <= norm0(xi, st) <= c2 * n + 1e-12


def test_dual_norm_inverse_metric(rng):
    st = random_state(rng)
    x = rng.normal(size=3)
    g = metric_matrix(st).g
    assert dual_norm0(g @ x, st) == pytest.approx(
        np.sqrt(x @ g @ x), rel=1e-12)


def test_bi_lift_constant_on_manifold(rng):
    for _ in range(20):
        st = bi_lift_constant(rng.normal(size=3), rng.normal(size=3))
        s, v = manifold_residual_constant(st)
        assert s < 1e-12 and v < 1e-12
        assert st.tau0 > 0
