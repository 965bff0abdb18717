"""Half-spectrum transforms, solver and diagnostics against the
full-lattice complex-FFT reference in ``fullfft_reference.py``.

Fields are mostly Nyquist-free, as the solver keeps its state
(``simulate`` strips the Nyquist planes before the first sample and
dealiasing keeps them empty).  On the Nyquist planes the reference gives
every mode the wavenumber -pi N / L, so its odd mode-wise multipliers
there do not map a real field's spectrum to one; ``Grid.kvec`` is 0
there, and the two differ on those planes only.  The round-trip tests
check that the package's operators keep real fields real, Nyquist
content included.
"""
import numpy as np
import pytest

from abiwave import model, simulate, spectral
from abiwave.fields import StateField
from abiwave.grid import Grid
from conftest import random_state
import fullfft_reference as R

RESIDUAL_COLUMNS = ("res_divb_sup", "res_divd_sup", "res_rot_sup")


def _admissible(grid, state, seed):
    u = model.admissible_perturbation(seed, 1e-2, state, grid)
    return StateField(grid, grid.rinv(grid.strip_nyquist(u.spectral())))


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_transforms_match_full_lattice(grid16, rng):
    # a generic real field, Nyquist content included
    g = grid16
    f = rng.normal(size=(10,) + (g.N,) * 3)
    fh = g.rfwd(f)
    full = R.fwd(f)
    assert fh.shape == (10, g.N, g.N, g.n_half)
    assert _rel(fh, full[..., :g.n_half]) <= 1e-15
    assert _rel(g.rinv(fh), f) <= 1e-14
    grad = g.gradient(fh)
    assert grad.shape == (10, 3) + (g.N,) * 3
    for j in range(3):
        want = R.inv_real(R.deriv(g, full, j))
        assert _rel(grad[:, j], want) <= 1e-13
    for s in (0, 1, 6):
        assert g.sobolev_norm(fh, s) == pytest.approx(
            R.sobolev_norm(g, full, s), rel=1e-13)
    stripped = g.strip_nyquist(fh)
    for plane in (stripped[:, g.N // 2], stripped[:, :, g.N // 2],
                  stripped[..., g.N // 2]):  # the last: kz = N/2
        assert np.all(plane == 0)


def test_rfwd_conjugates_in_place_bitwise(grid16, rng):
    # the in-place conjugate must equal the copying one bit for bit
    import scipy.fft
    from abiwave.grid import fft_workers

    f = rng.normal(size=(10,) + (grid16.N,) * 3)
    want = np.conj(scipy.fft.rfftn(f, axes=(-3, -2, -1),
                                   workers=fft_workers()))
    assert np.array_equal(grid16.rfwd(f), want)


def test_transforms_read_scipy_fft_at_call_time(grid16, rng, monkeypatch):
    # a function replaced on scipy.fft after import (the benchmark
    # tracer wraps them) sees every transform of the grid
    import scipy.fft

    calls = []
    for name in ("rfftn", "irfftn"):
        def spy(*args, _fn=getattr(scipy.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, spy)
    fh = grid16.rfwd(rng.normal(size=(2,) + (grid16.N,) * 3))
    grid16.rinv(fh)
    grid16.gradient(fh)
    assert calls == ["rfftn", "irfftn", "irfftn"]


def test_sobolev_weight_is_cached_per_s_bitwise(grid16, rng):
    g = Grid(N=grid16.N, L=grid16.L)  # a fresh cache
    fh = g.rfwd(rng.normal(size=(10,) + (g.N,) * 3))
    herm = np.full(g.n_half, 2.0)
    herm[[0, -1]] = 1.0
    for s in (1, 6, 8, 1, 6.0, 8):
        w = (1.0 + g.k_norm ** 2) ** s * herm
        want = float(np.sqrt(g.spectral_weight * np.sum(w * np.abs(fh) ** 2)))
        assert g.sobolev_norm(fh, s) == want
    assert sorted(g._sobolev_weights) == [1, 6, 8]


@pytest.mark.parametrize("dealias", [True, False])
def test_rhs_matches_full_lattice(grid16, manifold_bg, dealias):
    g, st = grid16, manifold_bg
    assert np.any(st.v0)  # the advection term takes part
    for seed in (3, 4):
        # Nyquist content included
        u = model.admissible_perturbation(seed, 1e-2, st, g)
        new = simulate._rhs_hat(u.spectral(), g, st,
                                spectral._geometry(g, st), dealias)
        ref = R.rhs_hat(R.fwd(u.data), g, st, R.full_geometry(g, st), dealias)
        off = g.nyquist_mask  # the reference's Nyquist planes differ
        assert _rel(new * off, ref[..., :g.n_half] * off) <= 1e-12


def test_lattice_arrays_live_on_the_half_spectrum(grid16):
    g = grid16
    half, ny = (g.N, g.N, g.n_half), g.N // 2
    shells = [m for _, m in g.shell_masks()]
    for a in [*g.kvec, g.k_norm, g.nyquist_mask, g.dealias_mask, *shells]:
        assert np.broadcast_shapes(a.shape, half) == half
    for k in g.kvec:
        # k_j is 0 on axis j's Nyquist plane and k1d elsewhere
        line = k.ravel()
        assert line[ny] == 0.0
        assert np.array_equal(np.delete(line, ny),
                              np.delete(g.k1d[:line.size], ny))
    # |k| keeps the true magnitude pi N / L on the Nyquist planes
    kabs = np.abs(g.k1d)
    want = np.sqrt(kabs[:, None, None] ** 2 + kabs[None, :, None] ** 2
                   + kabs[None, None, :g.n_half] ** 2)
    assert np.array_equal(g.k_norm, want)
    for idx in ((ny, 0, 0), (0, ny, 0), (0, 0, ny)):
        assert g.k_norm[idx] == pytest.approx(np.pi * g.N / g.L, rel=1e-15)


def _stays_real(g, out):
    """Relative change of a half spectrum under rfwd(rinv(.))."""
    return _rel(g.rfwd(g.rinv(out)), out)


@pytest.mark.parametrize("dealias", [True, False])
def test_rhs_maps_real_fields_to_real_fields(grid16, manifold_bg, rng,
                                             dealias):
    # a generic real field, Nyquist content included
    g, st = grid16, manifold_bg
    assert np.any(st.v0)
    fh = g.rfwd(1e-2 * rng.normal(size=(10,) + (g.N,) * 3))
    out = simulate._rhs_hat(fh, g, st, spectral._geometry(g, st), dealias)
    assert _stays_real(g, out) <= 1e-13


def test_mode_wise_operators_map_real_fields_to_real_fields(grid16, rng):
    g = grid16
    st = random_state(rng).with_v0(rng.normal(size=3))
    geo = spectral._geometry(g, st)
    fh = g.rfwd(rng.normal(size=(10,) + (g.N,) * 3))
    # A0 is real and odd in k: -i A0 is the real operator
    flow = -1j * spectral.apply_A0(fh, geo)
    A2U = spectral._apply_Ahat(spectral._apply_Ahat(fh, geo), geo)
    for out in (flow, A2U):
        assert _stays_real(g, out) <= 1e-13


def test_run_without_dealiasing_matches_off_nyquist(grid16, manifold_bg):
    g, st = grid16, manifold_bg
    u = _admissible(g, st, 5)
    cfg = simulate.SimConfig(grid=g, state=st, t_end=1.0, cfl=0.2,
                             cadence=1.0, dealias=False)
    res = simulate.simulate(cfg, initial=u.copy())
    nsteps = int(np.ceil(cfg.t_end / cfg.resolved_dt() - 1e-12))
    ref = R.simulate_final(u, st, cfg.t_end / nsteps, nsteps, dealias=False)
    got = g.strip_nyquist(res.final.spectral())
    assert _rel(got, g.strip_nyquist(g.rfwd(ref))) <= 1e-12


def test_diagnostics_row_matches_full_lattice(grid16, manifold_bg):
    g, st = grid16, manifold_bg
    u = _admissible(g, st, 7)
    row = simulate.sample_diagnostics(u, st, 0.5, 8, spectral._geometry(g, st))
    ref = R.sample_diagnostics(u, st, 0.5, 8)
    assert row.keys() == ref.keys()
    for c, want in ref.items():
        if c in RESIDUAL_COLUMNS:
            # round-off sized values: compared in absolute terms
            assert abs(row[c] - want) <= 1e-12, c
        else:
            assert row[c] == pytest.approx(want, rel=1e-12, abs=1e-300), c


def test_branch_norms_follow_the_pair_rule(grid16, rng):
    # P+(-k) = P-(k): the half-spectrum sum of |P+ U|^2 alone misses
    # the mirror modes, so H1_up pairs it with |P- U|^2
    g = grid16
    st = random_state(rng)
    fh = g.strip_nyquist(g.rfwd(rng.normal(size=(10,) + (g.N,) * 3)))
    u = StateField(g, g.rinv(fh))
    geo = spectral._geometry(g, st)
    row = simulate.sample_diagnostics(u, st, 0.0, 2, geo)
    full = spectral.apply_projector(R.fwd(u.data), R.full_geometry(g, st), +1)
    want = R.sobolev_norm(g, full, 1)
    assert row["H1_up"] == row["H1_um"]
    assert row["H1_up"] == pytest.approx(want, rel=1e-12)
    naive = g.sobolev_norm(spectral.apply_projector(fh, geo, +1), 1)
    assert abs(naive / want - 1.0) > 1e-3


def test_run_series_matches_full_lattice_steps(manifold_bg):
    # two RK4 steps at 32^3 with dealiasing, sampled after each
    g = Grid(N=32, L=2 * np.pi * 8)
    st = manifold_bg
    u = _admissible(g, st, 1234)
    cfg = simulate.SimConfig(grid=g, state=st, t_end=1.0, cfl=0.4,
                             cadence=0.5)
    res = simulate.simulate(cfg, initial=u.copy())
    nsteps = int(np.ceil(cfg.t_end / cfg.resolved_dt() - 1e-12))
    ref = R.simulate_final(u, st, cfg.t_end / nsteps, nsteps, dealias=True)
    assert _rel(res.final.data, ref) <= 1e-12
    last = R.sample_diagnostics(StateField(g, ref), st, 1.0, 8)
    for c in ("H1_U", "HN_U", "H1_up", "H1_u0", "W1inf_U", "B1inf1"):
        assert res.series.rows[-1][c] == pytest.approx(last[c], rel=1e-12), c
