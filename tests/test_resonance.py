import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abiwave import resonance as R
from abiwave.state import ConstantState
from conftest import random_state


STATE = ConstantState(tau0=1.3, b0=(0.7, -0.3, 0.2), d0=(0.1, 0.5, -0.6))


def test_phase_collinear_wave_split():
    # eta = 0.3 xi is time-resonant for (+,++)
    spec = R.InteractionSpec(1, 1, 1)
    xi = np.array([0.7, -1.2, 0.4])
    assert R.phase(spec, xi, 0.3 * xi, STATE) == pytest.approx(0.0, abs=1e-14)


def test_phase_never_vanishes_for_plus_minus_minus(rng):
    spec = R.InteractionSpec(1, -1, -1)
    xi, eta = R.sample_off_axis(rng, 500)
    ph = R.phase(spec, xi, eta, STATE)
    from abiwave.state import norm0
    total = norm0(xi, STATE) + norm0(eta, STATE) + norm0(xi - eta, STATE)
    assert np.allclose(ph, total)
    assert np.min(ph) > 0


def test_gradients_match_finite_differences(rng):
    xi, eta = R.sample_off_axis(rng, 40)
    spec = R.InteractionSpec(1, -1, 1)
    h = 1e-5
    for which, gradf in (("eta", R.grad_eta_phase), ("xi", R.grad_xi_phase)):
        g = gradf(spec, xi, eta, STATE)
        fd = np.zeros_like(g)
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = h
            if which == "eta":
                fd[:, j] = (R.phase(spec, xi, eta + dp, STATE)
                            - R.phase(spec, xi, eta - dp, STATE)) / (2 * h)
            else:
                fd[:, j] = (R.phase(spec, xi + dp, eta, STATE)
                            - R.phase(spec, xi - dp, eta, STATE)) / (2 * h)
        rel = np.linalg.norm(g - fd, axis=1) / np.linalg.norm(g, axis=1)
        assert np.max(rel) <= 1e-6


def test_on_axis_rejected():
    spec = R.InteractionSpec(1, 1, 1)
    xi = np.array([1.0, 0.0, 0.0])
    with pytest.raises(R.OnAxisError):
        R.grad_eta_phase(spec, xi, 1e-9 * xi, STATE)
    with pytest.raises(R.OnAxisError):
        R.check_gradient_identity(spec, xi, xi * (1 + 1e-12), STATE)


def test_gradient_identity_all_sign_triples(rng):
    xi, eta = R.sample_off_axis(rng, 2000)
    for spec in R.ALL_WAVE_TRIPLES:
        r = R.check_gradient_identity(spec, xi, eta, STATE)
        assert np.max(r) <= 1e-10
    # isotropic reduction: identity with g0 = tau0^2 I
    st0 = ConstantState(tau0=0.7)
    for spec in R.ALL_WAVE_TRIPLES:
        assert np.max(R.check_gradient_identity(spec, xi, eta, st0)) <= 1e-10


def test_gradient_identity_collinear_resonant_point():
    # at a (+,++) space-resonant point both phase and gradient vanish
    spec = R.InteractionSpec(1, 1, 1)
    xi = np.array([1.1, 0.4, -0.7])
    eta = 0.35 * xi
    assert abs(R.phase(spec, xi, eta, STATE)) <= 1e-13
    assert np.linalg.norm(R.grad_eta_phase(spec, xi, eta, STATE)) <= 1e-13
    assert R.check_gradient_identity(spec, xi, eta, STATE) <= 1e-13


def test_resonance_class_of_every_wave_triple():
    want = {"+,++": (1, 1), "-,--": (1, 1),
            "+,-+": (-1, 1), "-,+-": (-1, 1),
            "+,+-": (1, -1), "-,-+": (1, -1),
            "+,--": (-1, -1), "-,++": (-1, -1)}
    assert {spec.label(): spec.resonance_class
            for spec in R.ALL_WAVE_TRIPLES} == want
    for label in ("0,++", "+,0-", "-,+0", "0,00"):
        with pytest.raises(ValueError, match="not a pure wave triple"):
            R.InteractionSpec.parse(label).resonance_class


def test_phase_gradsq_random_and_sign_symmetry(rng):
    xi, eta = R.sample_off_axis(rng, 2000)
    for spec in R.ALL_WAVE_TRIPLES:
        if (spec.eps1, spec.eps2, spec.eps3) in ((1, -1, -1), (-1, 1, 1)):
            with pytest.raises(ValueError):
                R.check_phase_gradsq_identity(spec, xi, eta, STATE)
            continue
        r, skipped = R.check_phase_gradsq_identity(spec, xi, eta, STATE)
        assert np.max(r) <= 1e-10
    # (-,--) equals (+,++) with a global sign: residuals match exactly
    r1, _ = R.check_phase_gradsq_identity(R.InteractionSpec(1, 1, 1), xi, eta, STATE)
    r2, _ = R.check_phase_gradsq_identity(R.InteractionSpec(-1, -1, -1), xi, eta, STATE)
    assert np.allclose(r1, r2, atol=1e-14)


def test_phase_gradsq_denominator_guard():
    # eta = (1+c) xi makes the (+,+-) denominator vanish identically
    spec = R.InteractionSpec(1, 1, -1)
    xi = np.array([0.9, -0.2, 0.5])
    eta = 1.8 * xi
    r, skipped = R.check_phase_gradsq_identity(spec, xi, eta, STATE)
    assert skipped.all()
    assert np.all(r == 0.0)


def test_mixed_identity_random_and_small_eta(rng):
    xi, eta = R.sample_off_axis(rng, 2000)
    for sign in (1, -1):
        assert np.max(R.check_mixed_gradient_identity(sign, xi, eta, STATE)) <= 1e-10
    with pytest.raises(ValueError):
        R.check_mixed_gradient_identity(0, xi, eta, STATE)
    # eta -> 0: both sides vanish linearly in |eta|
    xi = np.array([1.0, 0.3, -0.2])
    eta = np.array([1e-3, -2e-3, 1.5e-3])
    spec = R.InteractionSpec(1, 1, 0)
    from abiwave.state import metric_matrix, norm0
    lhs = norm0(xi, STATE) * R.grad_xi_phase(spec, xi, eta, STATE)
    g = metric_matrix(STATE).g
    rhs = ((norm0(xi - eta, STATE) - norm0(xi, STATE))
           * R.grad_eta_phase(spec, xi, eta, STATE) + g @ eta)
    bound = 10 * np.linalg.norm(g) * np.linalg.norm(eta)
    assert np.linalg.norm(lhs) <= bound
    assert np.linalg.norm(rhs) <= bound


def test_mixed_identity_gradient_cross_check(rng):
    # finite differences of grad_xi for the mixed interaction
    xi, eta = R.sample_off_axis(rng, 20)
    spec = R.InteractionSpec(1, 1, 0)
    h = 1e-5
    g = R.grad_xi_phase(spec, xi, eta, STATE)
    fd = np.zeros_like(g)
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = h
        fd[:, j] = (R.phase(spec, xi + dp, eta, STATE)
                    - R.phase(spec, xi - dp, eta, STATE)) / (2 * h)
    assert np.max(np.linalg.norm(g - fd, axis=1)) <= 1e-6 * np.max(
        np.linalg.norm(g, axis=1) + 1)


def test_cutoff_plateaus_and_range(rng):
    xi, eta = R.sample_off_axis(rng, 300)
    assert np.all(R.cutoff_chi(R.InteractionSpec(1, -1, -1), xi, eta, STATE) == 1)
    assert np.all(R.cutoff_chi(R.InteractionSpec(-1, 1, 1), xi, eta, STATE) == 1)
    assert np.all(R.cutoff_chi(R.InteractionSpec(1, 1, 1), xi, eta, STATE) == 0)
    assert np.all(R.cutoff_chi(R.InteractionSpec(-1, -1, -1), xi, eta, STATE) == 0)
    c = R.cutoff_chi(R.InteractionSpec(1, -1, 1), xi, eta, STATE)
    assert np.all((0 <= c) & (c <= 1))
    # chi_+ + chi_- = 1 by construction
    assert np.allclose(c + (1 - c), 1.0)


def test_cutoff_support_bound(rng):
    # on supp chi_+ for (+,+-): xi . g0 (xi-eta) <= 1/4 |xi|_0 |xi-eta|_0
    from abiwave.state import metric_matrix, norm0
    xi, eta = R.sample_off_axis(rng, 4000)
    spec = R.InteractionSpec(1, 1, -1)
    chi = R.cutoff_chi(spec, xi, eta, STATE)
    on = chi > 0
    g = metric_matrix(STATE).g
    dot = np.einsum("ni,ij,nj->n", xi, g, xi - eta)
    bound = norm0(xi, STATE) * norm0(xi - eta, STATE)
    assert np.all(dot[on] <= 0.25 * bound[on] * (1 + 1e-12))


def test_resonant_set_probe_parametrizations():
    # (+,-+) with eta = 2 xi and (+,+-) with eta = -xi are time-resonant
    xi = np.array([0.8, -0.1, 0.6])
    assert abs(R.phase(R.InteractionSpec(1, -1, 1), xi, 2 * xi, STATE)) <= 1e-13
    assert abs(R.phase(R.InteractionSpec(1, 1, -1), xi, -xi, STATE)) <= 1e-13
    for lab in ("+,-+", "+,+-", "+,++", "-,--", "+,--"):
        spec = R.InteractionSpec.parse(lab)
        p = R.resonant_set_probe(spec, 500, STATE, seed=7)
        assert p["phi_on_T_max"] <= 1e-10
        assert p["grad_eta_on_S_max"] <= 1e-10
        assert p["collinearity_max_dev"] <= 1e-12
        if "support_bound_min" in p and p["support_bound_min"] is not None:
            assert p["support_bound_min"] >= 0.75 - 1e-9


@settings(deadline=None, max_examples=50)
@given(lam=st.floats(0.01, 100.0),
       seed=st.integers(0, 2 ** 31))
def test_phase_homogeneity(lam, seed):
    rng = np.random.default_rng(seed)
    xi, eta = R.sample_off_axis(rng, 1)
    for spec in (R.InteractionSpec(1, -1, 1), R.InteractionSpec(-1, 1, 1),
                 R.InteractionSpec(1, 1, 0)):
        p1 = R.phase(spec, lam * xi, lam * eta, STATE)
        p0 = R.phase(spec, xi, eta, STATE)
        assert p1 == pytest.approx(lam * p0, rel=1e-10, abs=1e-12)


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2 ** 31))
def test_phase_exchange_symmetry(seed):
    rng = np.random.default_rng(seed)
    xi, eta = R.sample_off_axis(rng, 4)
    for e1 in (1, -1):
        for e2 in (1, -1):
            for e3 in (1, -1):
                a = R.phase(R.InteractionSpec(e1, e2, e3), xi, eta, STATE)
                b = R.phase(R.InteractionSpec(e1, e3, e2), xi, xi - eta, STATE)
                assert np.allclose(a, b, rtol=1e-12, atol=1e-12)
