import numpy as np
import pytest

from abiwave import diagnostics as D
from abiwave import model, spectral
from abiwave.fields import StateField
from abiwave.grid import Grid
from abiwave.state import ConstantState
import wave_parts_reference as W


def test_constraint_residual_generic_field_is_order_one(grid16, manifold_bg, rng):
    f = StateField(grid16, 0.5 * rng.normal(size=(10,) + (grid16.N,) * 3))
    r1, r2, r3 = D.constraint_residual(f, manifold_bg)
    assert min(r["sup"] for r in (r1, r2, r3)) > 1e-2


def test_manifold_residual_of_off_manifold_constant(grid16):
    st = ConstantState(tau0=1.0, b0=(0.5, 0, 0))
    f = StateField(grid16,
                   np.tile(st.as_vector().reshape(10, 1, 1, 1),
                           (1, grid16.N, grid16.N, grid16.N)))
    scalar, vector = D.manifold_residual(f)
    assert scalar > 0.1


def test_besov_zero_field(grid16):
    b0, b1 = D.besov_norms(grid16, np.zeros((10,) + (grid16.N,) * 3))
    assert b0 == 0.0 and b1 == 0.0


def test_besov_single_mode(grid32):
    # one-shell analytic value: B0 ~ amplitude, B1 ~ 2^floor(log2 k)
    g = grid32
    A = 0.7
    m = 3
    k0 = 2 * np.pi / g.L * m
    f = np.zeros((10,) + (g.N,) * 3)
    f[0] = A * np.cos(k0 * g.x1d)[:, None, None]
    b0, b1 = D.besov_norms(g, f)
    assert b0 == pytest.approx(A, rel=1e-10)
    j = np.floor(np.log2(k0))
    assert b1 == pytest.approx(2.0 ** j * A, rel=2.0)
    assert b1 / b0 <= k0 and b1 / b0 >= k0 / 2


def test_w1inf_controlled_by_besov(grid32, rng):
    # sampled form of the embedding W^{1,inf} <= c (B0 + B1)
    g = grid32
    for seed in range(3):
        B, Dv = model.solenoidal_pair(g, seed, 1.0, 3 * 2 * np.pi / g.L,
                                      1.0 * 2 * np.pi / g.L)
        f = np.concatenate([B, Dv, B, Dv[:1]], axis=0)
        f -= f.mean(axis=(1, 2, 3), keepdims=True)
        w = D.w1inf_norm(g, f)
        b0, b1 = D.besov_norms(g, f)
        assert w <= 3.0 * (b0 + b1)


def test_series_columns_and_monotone_time(grid16, manifold_bg):
    s = D.DiagnosticsSeries()
    row = {c: 1.0 for c in D.SERIES_COLUMNS}
    row["t"] = 0.0
    s.append(**row)
    row2 = dict(row)
    row2["t"] = -1.0
    with pytest.raises(ValueError):
        s.append(**row2)
    row3 = dict(row)
    row3["t"] = 1.0
    row3["energy"] = np.nan
    with pytest.raises(ValueError):
        s.append(**row3)


def test_series_csv_roundtrip(tmp_path):
    s = D.DiagnosticsSeries()
    for t in (0.0, 0.5, 1.0):
        row = {c: float(hash(c) % 7 + t) for c in D.SERIES_COLUMNS}
        row["t"] = t
        s.append(**row)
    path = tmp_path / "series.csv"
    s.write_csv(path)
    s2 = D.DiagnosticsSeries.read_csv(path)
    assert s2.rows == s.rows
    header = path.read_text().splitlines()[0]
    assert header == ",".join(D.SERIES_COLUMNS)


def test_dispersion_probe_rejects_wrapped_times():
    g = Grid(N=16, L=2 * np.pi * 4)
    st = ConstantState(tau0=1.0)
    tw = D.wrap_time(g, st)
    with pytest.raises(ValueError):
        D.dispersion_probe(st, g, [0.5 * tw, 1.5 * tw])


def test_dispersion_probe_continuity_and_unitarity():
    g = Grid(N=32, L=2 * np.pi * 8)
    st = ConstantState(tau0=1.0)
    bump = W.gaussian_bump_field(g, sigma=1.5)
    geo = spectral._geometry(g, st)
    base = g.rinv(spectral.decompose_spectral(
        g.strip_nyquist(bump.spectral()), geo)[1])  # Ahat^2 U
    rep = D.dispersion_probe(st, g, [1e-4, 2e-4, 4e-4], sigma=1.5)
    sup0 = float(np.max(np.abs(base)))
    assert rep.samples[0]["sup"] == pytest.approx(sup0, rel=1e-6)
    l2 = [s["l2"] for s in rep.samples]
    assert max(l2) / min(l2) - 1 <= 1e-12


def test_dispersion_probe_transforms_the_bump_component_alone(monkeypatch):
    import scipy.fft

    g = Grid(N=32, L=2 * np.pi * 8)
    st = ConstantState(tau0=1.0, b0=(0.3, 0.0, 0.1))
    shapes = []

    def spy(x, *args, _fn=scipy.fft.rfftn, **kwargs):
        shapes.append(np.shape(x))
        return _fn(x, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "rfftn", spy)
    D.dispersion_probe(st, g, [1.0, 2.0], sigma=1.5, component=4)
    assert shapes == [(g.N,) * 3]
    # bitwise the spectrum of the whole bump field: the other nine
    # components transform to zeros
    field = W.gaussian_bump_field(g, sigma=1.5, component=4).data
    whole = g.rfwd(field)
    assert np.array_equal(whole[4], g.rfwd(field[4]))
    assert not np.any(np.delete(whole, 4, axis=0))


def test_loglog_fit_recovers_slope():
    t = np.geomspace(1, 100, 20)
    y = 3.7 * t ** -1.0
    slope, ci = D.loglog_fit(t, y)
    assert slope == pytest.approx(-1.0, abs=1e-12)


def test_energy_growth_check_linear_run_is_flat(grid16, manifold_bg):
    from abiwave import simulate
    # tiny amplitude: the energy log-derivative is numerically zero
    cfg = simulate.SimConfig(grid=grid16, state=manifold_bg, t_end=1.0,
                             cfl=0.2, cadence=0.2, amplitude=1e-9, seed=2)
    res = simulate.simulate(cfg)
    rep = D.energy_growth_check(res.series)
    assert rep["C_max"] <= 1e-3 / res.series.column("W1inf_U").max()
