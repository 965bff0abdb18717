import numpy as np
import pytest

from abiwave import diagnostics, model
from abiwave.fields import StateField
from abiwave.grid import Grid
from abiwave.state import AdmissibilityError, ConstantState
import fullfft_reference as R


def test_lift_of_vacuum(grid16):
    B = np.zeros((3,) + (grid16.N,) * 3)
    full = R.abi_from_bi(B, B, grid=grid16)
    assert np.allclose(full.tau, 1.0)
    assert np.max(np.abs(full.data[1:])) == 0.0


def test_lift_manifold_identities(grid16, rng):
    # direct numeric identity check; algebraically forced by the lift
    B = rng.normal(size=(3,) + (grid16.N,) * 3)
    D = rng.normal(size=(3,) + (grid16.N,) * 3)
    full = R.abi_from_bi(B, D, grid=grid16)
    scalar, vector = diagnostics.manifold_residual(full)
    assert scalar <= 1e-12
    assert vector <= 1e-12
    assert np.min(full.tau) > 0


def test_solenoidal_pair_divergence_free(grid32):
    g = grid32
    pair = model.solenoidal_pair(g, seed=5, amplitude=0.1,
                                 k0=3 * 2 * np.pi / g.L,
                                 width=0.75 * 2 * np.pi / g.L)
    for v in pair:
        # the divergence is the trace of the gradient grad[i, j] = d_j v_i
        assert np.max(np.abs(np.trace(g.gradient(g.rfwd(v))))) < 1e-13


def test_band_half_spectrum_is_real_part_of_full_synthesis(grid16):
    # the Hermitian part on the half spectrum synthesizes the real part
    # of the full-lattice synthesis of the same draw
    g = grid16
    prof = model.band_profile(g, 3 * 2 * np.pi / g.L, 0.75 * 2 * np.pi / g.L)
    for lead in ((), (3,)):
        got = g.rinv(model._band_half_spectrum(g, model._philox(7), prof,
                                               lead))
        want = R.inv_real(R.band_draw(model._philox(7), prof, lead))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("kind", ["bi_lift", "chaplygin"])
def test_generators_match_full_lattice(n, kind, manifold_bg):
    g = Grid(N=n, L=2 * np.pi * n / 4)
    st = manifold_bg if kind == "bi_lift" else ConstantState(tau0=1.0)
    k0, width = 3 * 2 * np.pi / g.L, 0.75 * 2 * np.pi / g.L
    # the reference forms the bi_lift perturbation as a difference of
    # O(1) lifted values, so it carries their round-off (2.2e-16)
    # whatever the amplitude
    amp = 0.1
    for seed in (1234, 1, 5):
        u = model.admissible_perturbation(seed, amp, st, g, k0, width, kind)
        want = R.admissible_perturbation(seed, amp, st, g, k0, width, kind)
        assert np.max(np.abs(u.data - want)) <= 1e-14 * amp
        if kind == "bi_lift":
            for v, w in zip(model.solenoidal_pair(g, seed, amp, k0, width),
                            R.solenoidal_pair(g, seed, amp, k0, width)):
                assert np.max(np.abs(v - w)) <= 1e-14 * amp
        # deterministic in (seed, amplitude, profile)
        again = model.admissible_perturbation(seed, amp, st, g, k0, width,
                                              kind)
        assert np.array_equal(u.data, again.data)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64")
@pytest.mark.parametrize("amp", [1e-2, 1e-3, 1e-4])
def test_bi_lift_round_off_scales_with_the_amplitude(amp, grid16,
                                                     manifold_bg):
    # against lift(B0 + b, D0 + d) - lift(B0, D0) in long double, from
    # the same float64 (B0, D0) and (b, d)
    g = grid16
    k0, width = 3 * 2 * np.pi / g.L, 0.75 * 2 * np.pi / g.L
    u = model.admissible_perturbation(5, amp, manifold_bg, g, k0, width)
    B0, D0 = (np.longdouble(c).reshape(3, 1, 1, 1)
              for c in model.state_em_constants(manifold_bg))
    b, d = (np.longdouble(f)
            for f in model.solenoidal_pair(g, 5, amp, k0, width))

    def lift(B, D):
        V = np.cross(D, B, axis=0)
        tau = 1 / np.sqrt(1 + np.sum(B * B + D * D + V * V, axis=0))
        return np.concatenate([tau[None], tau * V, tau * B, tau * D])

    want = lift(B0 + b, D0 + d) - lift(B0, D0)
    assert np.max(np.abs(u.data - want)) <= 1e-13 * np.max(np.abs(want))


def test_admissible_zero_amplitude(grid16, manifold_bg):
    u = model.admissible_perturbation(1, 0.0, manifold_bg, grid16)
    assert np.max(np.abs(u.data)) == 0.0


def test_admissible_constraint_residual(grid32, manifold_bg):
    amp = 1e-2
    u = model.admissible_perturbation(11, amp, manifold_bg, grid32)
    r1, r2, r3 = diagnostics.constraint_residual(u, manifold_bg)
    for r in (r1, r2, r3):
        assert r["sup"] <= 1e-8 * amp
    # deterministic in (seed, amplitude, profile)
    u2 = model.admissible_perturbation(11, amp, manifold_bg, grid32)
    assert np.array_equal(u.data, u2.data)


def test_admissible_rejects_off_manifold_state(grid16):
    st = ConstantState(tau0=1.0, b0=(0.5, 0, 0), d0=(0, 0.5, 0))
    with pytest.raises(AdmissibilityError):
        model.admissible_perturbation(1, 1e-2, st, grid16)


def test_chaplygin_mode_exact_rotational_constraint(grid32):
    st = ConstantState(tau0=1.0)
    u = model.admissible_perturbation(3, 1e-2, st, grid32, kind="chaplygin")
    assert np.max(np.abs(u.b)) == 0 and np.max(np.abs(u.d)) == 0
    _, _, r3 = diagnostics.constraint_residual(u, st)
    assert r3["sup"] < 1e-14


def test_chaplygin_mode_tau_guard(grid16):
    st = ConstantState(tau0=0.3)
    with pytest.raises(AdmissibilityError):
        model.admissible_perturbation(3, 5.0, st, grid16, kind="chaplygin")


def test_galilean_shift_identity_and_period(grid16, rng):
    f = StateField(grid16, rng.normal(size=(10,) + (grid16.N,) * 3))
    out = model.galilean_shift(f, (0, 0, 0), 1.0)
    assert np.array_equal(out.data, f.data)
    out = model.galilean_shift(f, (grid16.L, 0, 0), 1.0)
    assert np.allclose(out.data, f.data)


def test_galilean_shift_half_box_sign_flip(grid16):
    # analytic translation of exp(ikx): half-period flips an odd mode
    g = grid16
    x = g.x1d
    f = StateField.zeros(g)
    f.data[0] = np.cos(2 * np.pi / g.L * x)[:, None, None]
    out = model.galilean_shift(f, (g.L / 2.0, 0, 0), 1.0)
    assert np.allclose(out.data[0], -f.data[0], atol=1e-13)


def test_galilean_shift_rejects_fractional_cells(grid16):
    f = StateField.zeros(grid16)
    with pytest.raises(ValueError):
        model.galilean_shift(f, (0.37 * grid16.dx, 0, 0), 1.0)
