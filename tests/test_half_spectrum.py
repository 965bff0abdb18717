"""Half-spectrum transforms, solver and diagnostics against the
full-lattice complex-FFT reference in ``fullfft_reference.py``.

Fields are mostly Nyquist-free, as the solver keeps its state
(``simulate`` strips the Nyquist planes before the first sample and
dealiasing keeps them empty).  On the Nyquist planes the reference gives
every mode the wavenumber -pi N / L, so its odd mode-wise multipliers
there do not map a real field's spectrum to one; ``Grid.kvec`` is 0
there, and the two differ on those planes only.  The reference holds
F(q) at index q and the package F(-q), so a package spectrum is
compared through its conjugate.  The round-trip tests
check that the package's operators keep real fields real, Nyquist
content included.
"""
import numpy as np
import pytest

from abiwave import grid as grid_module, model, simulate, spectral
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
    assert _rel(np.conj(fh), full[..., :g.n_half]) <= 1e-15
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


def test_transforms_are_bare_scipy_bitwise(grid16, rng, monkeypatch):
    # the stored half spectrum is what rfftn computes: no conjugate on
    # the way in or out, and rinv hands the inverse transform the
    # caller's array itself
    import scipy.fft

    g = grid16
    axes, s = (-3, -2, -1), (g.N,) * 3
    f = rng.normal(size=(10,) + s)
    fh = g.rfwd(f)
    assert np.array_equal(fh, scipy.fft.rfftn(f, axes=axes))
    assert np.array_equal(g.rinv(fh), scipy.fft.irfftn(fh, s=s, axes=axes))
    inputs = []

    def spy(x, *args, _fn=grid_module.c2r, **kwargs):
        inputs.append(x)
        return _fn(x, *args, **kwargs)
    monkeypatch.setattr(grid_module, "c2r", spy)
    g.rinv(fh)
    assert len(inputs) == 1 and inputs[0] is fh


def test_transforms_read_the_grid_functions_at_call_time(grid16, rng,
                                                         monkeypatch):
    # a function replaced on abiwave.grid after import sees every
    # transform of the grid
    calls = []
    for name in ("r2c", "c2r"):
        def spy(*args, _fn=getattr(grid_module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(grid_module, name, spy)
    fh = grid16.rfwd(rng.normal(size=(2,) + (grid16.N,) * 3))
    grid16.rinv(fh)
    grid16.gradient(fh)
    assert calls == ["r2c", "c2r", "c2r"]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("fields", [1, 3, 10])
def test_transforms_match_the_public_scipy_api_bitwise(monkeypatch, threads,
                                                       n, fields):
    # the grid calls SciPy's private compiled module; this pins its
    # signature and arguments to what scipy.fft.rfftn and irfftn pass
    import scipy.fft

    monkeypatch.setenv("ABI_THREADS", threads)
    g = Grid(N=n, L=2 * np.pi * 3)
    axes, s, workers = (-3, -2, -1), (n,) * 3, int(threads)
    shape = (fields,) + s if fields > 1 else s
    rng = np.random.default_rng(1000 * n + fields)
    f = rng.normal(size=shape)
    fh = g.rfwd(f)
    assert np.array_equal(fh, scipy.fft.rfftn(f, axes=axes, workers=workers))
    want = scipy.fft.irfftn(fh, s=s, axes=axes, workers=workers)
    assert np.array_equal(g.rinv(fh), want)
    # into a given buffer, and into a strided view of one
    out = np.empty(shape)
    assert g.rinv(fh, out=out) is out and np.array_equal(out, want)
    out = np.empty(shape[:-1] + (2 * n,))[..., ::2]
    assert g.rinv(fh, out=out) is out and np.array_equal(out, want)
    # a strided half-spectrum view, as a full-lattice array cut to n_half
    full = (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    vh = full[..., :g.n_half]
    assert not vh.flags.c_contiguous
    assert np.array_equal(g.rinv(vh), scipy.fft.irfftn(
        vh, s=s, axes=axes, workers=workers))
    # strided real input: every other point of a 2n lattice
    fs = rng.normal(size=shape[:-3] + (2 * n,) * 3)[..., ::2, ::2, ::2]
    assert np.array_equal(g.rfwd(fs), scipy.fft.rfftn(
        fs, axes=axes, workers=workers))
    grad = g.gradient(fh)
    for j, ik in enumerate(g._ikvec):
        assert np.array_equal(grad[..., j, :, :, :], scipy.fft.irfftn(
            ik * fh, s=s, axes=axes, workers=workers))


def test_transforms_pass_scipys_arguments(grid16, rng, monkeypatch):
    # the thread count does not change a result, so the bitwise test
    # cannot see it: record what reaches the compiled module
    calls = []

    class Recorder:
        def __getattr__(self, name):
            def record(a, *args):
                calls.append((name, a.shape) + args)
                return getattr(module, name)(a, *args)
            return record

    module = grid_module._fft()
    monkeypatch.setattr(grid_module, "_fft", Recorder)
    monkeypatch.setenv("ABI_THREADS", "2")
    fh = grid16.rfwd(rng.normal(size=(2,) + (grid16.N,) * 3))
    grid16.rinv(fh[0])
    n, half = grid16.N, grid16.n_half
    assert calls == [("r2c", (2, n, n, n), [1, 2, 3], True, 0, None, 2),
                     ("c2r", (n, n, half), [0, 1, 2], n, False, 2, None, 2)]


def test_an_integer_field_transforms_as_scipy_does(grid16, rng):
    import scipy.fft

    f = rng.integers(-5, 5, size=(2,) + (grid16.N,) * 3)
    fh = grid16.rfwd(f)
    assert fh.dtype == np.complex128
    assert np.array_equal(fh, scipy.fft.rfftn(f, axes=(-3, -2, -1)))
    assert np.array_equal(grid16.rfwd(f > 0), grid16.rfwd((f > 0) * 1.0))
    # the compiled module would raise a bare "unsupported data type"
    with pytest.raises(TypeError, match="real fields, got dtype complex128"):
        grid16.rfwd(fh)
    with pytest.raises(TypeError, match="half spectra, got dtype float64"):
        grid16.rinv(fh.real)


@pytest.mark.parametrize("shape, dtype", [
    ((2, 16, 16, 15), float), ((2, 16, 16, 17), float), ((16, 16, 16), float),
    ((2, 16, 16, 16), np.float32)], ids=["short", "long", "one", "float32"])
def test_a_synthesis_buffer_of_another_shape_is_refused(grid16, rng, shape,
                                                        dtype):
    # pocketfft would take the transform length from the buffer
    fh = grid16.rfwd(rng.normal(size=(2,) + (grid16.N,) * 3))
    out = np.zeros(shape, dtype=dtype)
    with pytest.raises(ValueError, match=r"float64 fields of shape "
                       r"\(2, 16, 16, 16\)"):
        grid16.rinv(fh, out=out)
    assert not out.any()


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
        new = simulate._rhs_hat(u.spectral(), simulate.Workspace(g, st),
                                dealias)
        ref = R.rhs_hat(R.fwd(u.data), g, st, dealias)
        off = g.nyquist_mask  # the reference's Nyquist planes differ
        assert _rel(np.conj(new) * off, ref[..., :g.n_half] * off) <= 1e-12


def test_lattice_arrays_live_on_the_half_spectrum(grid16):
    g = grid16
    half, ny = (g.N, g.N, g.n_half), g.N // 2
    shells = [m for _, m in g.shell_masks]
    for a in [*g.kvec, g.k_norm, g.nyquist_mask, g.dealias_mask, *shells]:
        assert np.broadcast_shapes(a.shape, half) == half
    for k in g.kvec:
        # index q stores the mode -q: k_j is 0 on axis j's Nyquist plane
        # and -k1d elsewhere
        line = k.ravel()
        assert line[ny] == 0.0
        assert np.array_equal(np.delete(line, ny),
                              np.delete(-g.k1d[:line.size], ny))
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
    out = simulate._rhs_hat(fh, simulate.Workspace(g, st), dealias)
    assert _stays_real(g, out) <= 1e-13


def test_mode_wise_operators_map_real_fields_to_real_fields(grid16, rng):
    g = grid16
    st = random_state(rng).with_v0(rng.normal(size=3))
    geo = spectral._geometry(g, st)
    fh = g.rfwd(rng.normal(size=(10,) + (g.N,) * 3))
    # A0 is real and odd in k: -i A0 is the real operator
    flow = -1j * spectral.apply_A0(fh, geo)
    A2U = spectral.decompose_spectral(fh, geo)[1]
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
    row = simulate.sample_diagnostics(u, u.spectral(), st, 0.5, 8,
                                      simulate.Workspace(g, st))
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
    row = simulate.sample_diagnostics(u, fh, st, 0.0, 2,
                                      simulate.Workspace(g, st))
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
