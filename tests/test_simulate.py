import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abiwave import model, simulate, spectral
from abiwave.fields import StateField
from abiwave.grid import Grid
from abiwave.state import ConstantState, norm0
import fullfft_reference as R


def test_rhs_of_constant_state_is_zero(grid16, manifold_bg):
    r = simulate.rhs(StateField.zeros(grid16), manifold_bg)
    assert np.max(np.abs(r.data)) == 0.0


def test_rhs_preserves_chaplygin_channels(grid16):
    st = ConstantState(tau0=1.0)
    u = model.admissible_perturbation(3, 1e-2, st, grid16, kind="chaplygin")
    r = simulate.rhs(u, st)
    assert np.max(np.abs(r.data[4:])) == 0.0


def test_rhs_single_mode_is_mostly_linear(grid16, rng):
    # compare against the assembled symbol mode-wise; quadratic
    # contamination scales with the amplitude
    st = ConstantState(tau0=1.1, b0=(0.3, -0.1, 0.2), d0=(0.05, 0.25, -0.15))
    g = grid16
    i, j, l = 1, 2, 0
    xi = np.array([g.k1d[i], g.k1d[j], g.k1d[l]])
    X = spectral.eigen_basis(xi, st)[+1][:, 0]
    amp = 1e-7
    Uh = np.zeros((10,) + (g.N,) * 3, dtype=complex)
    Uh[:, i, j, l] = amp * X
    Uh[:, -i, -j, l] = amp * X
    U = StateField(g, R.inv_real(Uh))
    r = simulate.rhs(U, st)
    # index q stores the mode -q: F(xi) is the conjugate of the value there
    rh = np.conj(r.spectral()[:, i, j, l])
    lin = -1j * spectral.assemble_A0(xi, st) @ (amp * X)
    rel = np.max(np.abs(rh - lin)) / np.max(np.abs(lin))
    assert rel <= 10 * amp


def test_zero_ic_stays_constant(grid16, manifold_bg):
    cfg = simulate.SimConfig(grid=grid16, state=manifold_bg, t_end=1.0,
                             cfl=0.3, cadence=0.5, amplitude=0.0)
    res = simulate.simulate(cfg)
    assert np.max(np.abs(res.final.data)) == 0.0
    assert not res.series.blowup


def test_linearized_mode_phase(grid16):
    # tiny-amplitude wave-branch mode: RK4 phase against the exact
    # propagator phase exp(-i t |k|_0)
    st = ConstantState(tau0=1.1, b0=(0.3, -0.1, 0.2), d0=(0.05, 0.25, -0.15))
    g = grid16
    i = 1
    xi = np.array([g.k1d[i], 0.0, 0.0])
    X = spectral.eigen_basis(xi, st)[+1][:, 0]
    amp = 1e-8
    Uh = np.zeros((10,) + (g.N,) * 3, dtype=complex)
    Uh[:, i, 0, 0] = amp * X
    Uh[:, -i, 0, 0] = amp * X
    U0 = StateField(g, R.inv_real(Uh))
    t_end = 5.0
    cfg = simulate.SimConfig(grid=g, state=st, t_end=t_end, cfl=0.15,
                             cadence=t_end, amplitude=0.0)
    res = simulate.simulate(cfg, initial=U0)
    # index q stores the mode -q: F(xi) is the conjugate of the value there
    got = np.conj(res.final.spectral()[:, i, 0, 0])
    want = amp * X * np.exp(-1j * t_end * norm0(xi, st))
    assert np.max(np.abs(got - want)) / amp <= 1e-6


def test_rk4_self_convergence_order(rk4_finals):
    finals = rk4_finals
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    order = np.log2(e1 / e2)
    assert 3.7 <= order <= 4.3
    # dt halving drops the error by 16 up to 20 percent
    assert 12.8 <= e1 / e2 <= 19.2


def test_reality_and_decomposition_consistency(grid16, manifold_bg):
    cfg = simulate.SimConfig(grid=grid16, state=manifold_bg, t_end=1.0,
                             cfl=0.2, cadence=0.25, amplitude=1e-2, seed=4)
    res = simulate.simulate(cfg)
    f = res.final
    assert np.all(np.isreal(f.data))
    parts = R.decompose(f, manifold_bg)
    recon = (parts.plus + parts.minus + parts.zero).real
    assert np.max(np.abs(recon - f.data)) <= 1e-12 * max(np.max(np.abs(f.data)), 1e-30)
    assert np.max(np.abs((parts.plus + parts.minus + parts.zero).imag)) <= 1e-13


def test_chaplygin_invariance_over_run(grid16):
    st = ConstantState(tau0=1.0)
    ic = model.admissible_perturbation(3, 1e-2, st, grid16, kind="chaplygin")
    cfg = simulate.SimConfig(grid=grid16, state=st, t_end=1.0, cfl=0.2,
                             cadence=1.0)
    res = simulate.simulate(cfg, initial=ic)
    assert np.max(np.abs(res.final.data[4:])) <= 1e-12


def test_cfl_guard():
    g = Grid(N=16, L=2 * np.pi)
    st = ConstantState(tau0=1.0)
    cfg = simulate.SimConfig(grid=g, state=st, t_end=1.0, dt=10.0)
    with pytest.raises(simulate.ConfigError):
        cfg.resolved_dt()
    cfg = simulate.SimConfig(grid=g, state=st, t_end=1.0, cfl=0.8)
    with pytest.raises(simulate.ConfigError):
        cfg.resolved_dt()


def test_blowup_detection(grid16, manifold_bg):
    bad = StateField.zeros(grid16)
    bad.data[0, 0, 0, 0] = np.inf
    with pytest.raises(simulate.BlowUpError):
        simulate.rhs(bad, manifold_bg)
    cfg = simulate.SimConfig(grid=grid16, state=manifold_bg, t_end=0.5,
                             cfl=0.2, cadence=0.25, amplitude=0.0)
    res = simulate.simulate(cfg, initial=bad)
    assert res.series.blowup
    assert (res.series.blowup_t, res.series.blowup_step) == (0.0, 0)
    # finite data whose products overflow: the first step fails
    huge = StateField.zeros(grid16)
    huge.data[0, 0, 0, 0] = 1e140
    res = simulate.simulate(cfg, initial=huge)
    dt = cfg.t_end / int(np.ceil(cfg.t_end / cfg.resolved_dt() - 1e-12))
    assert res.series.blowup and res.series.blowup_step == 1
    assert res.series.blowup_t == pytest.approx(dt, rel=1e-15)
    assert len(res.series.rows) == 1


def test_overflowing_first_sample_is_a_step_0_blowup(grid16, manifold_bg):
    # a finite state whose first diagnostics row overflows
    huge = StateField.zeros(grid16)
    huge.data[0, 0, 0, 0] = 1e155
    cfg = simulate.SimConfig(grid=grid16, state=manifold_bg, t_end=0.5,
                             cfl=0.2, cadence=0.25, amplitude=0.0)
    res = simulate.simulate(cfg, initial=huge)
    assert res.series.blowup
    assert (res.series.blowup_t, res.series.blowup_step) == (0.0, 0)
    assert res.series.rows == [] and res.stats["steps"] == 0


# large data at t_end = 60, cfl = 0.5, seed 3: bi_lift at amplitude 50 on
# the manifold background, chaplygin at amplitude 0.9 with tau0 = 1.  The
# last case's H6_U overflows in the sample of step 4, before the state
# leaves the finite range.
@pytest.mark.parametrize("kind, N, L, dealias, cadence, step, t", [
    ("bi_lift", 8, 12.5, True, 0.1, 24, 18.0),
    ("bi_lift", 16, 25.0, False, 0.1, 4, 3.0),
    ("bi_lift", 16, 25.0, True, 0.1, 18, 13.5),
    ("chaplygin", 8, 12.5, False, 100.0, 8, 6.233766233766234),
    ("chaplygin", 16, 25.0, False, 0.1, 9, 7.012987012987013),
    ("bi_lift", 8, 12.5, False, 0.1, 4, 3.0),
], ids=["bi_lift-8-dealiased", "bi_lift-16", "bi_lift-16-dealiased",
        "chaplygin-8-one-sample", "chaplygin-16", "bi_lift-8-sample"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_detection_step_and_time(manifold_bg, kind, N, L, dealias,
                                        cadence, step, t):
    if kind == "bi_lift":
        state, amplitude = manifold_bg, 50.0
    else:
        state, amplitude = ConstantState(tau0=1.0), 0.9
    cfg = simulate.SimConfig(grid=Grid(N=N, L=L), state=state, t_end=60.0,
                             cfl=0.5, dealias=dealias, cadence=cadence,
                             ic_kind=kind, amplitude=amplitude, seed=3)
    res = simulate.simulate(cfg)
    s = res.series
    assert s.blowup and (s.blowup_step, s.blowup_t) == (step, t)
    assert res.stats["steps"] == step


def test_u0_probe_quadratic_scaling(grid16, manifold_bg):
    cfg = simulate.SimConfig(grid=grid16, state=manifold_bg, t_end=1.0,
                             cfl=0.2, cadence=0.25, amplitude=1e-2, seed=11)
    rep = simulate.u0_smallness_probe(cfg)
    assert 1.5 <= rep["ratio_min"] and rep["ratio_max"] <= 2.5


def test_chaplygin_kernel_branch_is_second_order(grid16):
    # irrotational data have no kernel part initially; it stays O(a^2)
    st = ConstantState(tau0=1.0)
    norms = {}
    for a in (1e-2, 5e-3):
        ic = model.admissible_perturbation(3, a, st, grid16, kind="chaplygin")
        parts = R.decompose(ic, st)
        assert np.max(np.abs(parts.zero)) <= 1e-14
        cfg = simulate.SimConfig(grid=grid16, state=st, t_end=0.5, cfl=0.2,
                                 cadence=0.5)
        res = simulate.simulate(cfg, initial=ic)
        parts = R.decompose(res.final, st)
        norms[a] = np.max(np.abs(parts.zero))
    ratio = norms[1e-2] / norms[5e-3]
    assert 3.0 <= ratio <= 5.0  # quadratic: factor 4


def test_snapshot_roundtrip(tmp_path, grid16, manifold_bg, rng):
    f = StateField(grid16, rng.normal(size=(10,) + (grid16.N,) * 3))
    path = tmp_path / "snap.raw"
    simulate.write_snapshot(path, f, manifold_bg, t=1.25)
    g2, st2, t2 = simulate.read_snapshot(path)
    assert np.array_equal(g2.data, f.data)
    assert t2 == 1.25
    assert st2.tau0 == manifold_bg.tau0


def test_truncated_snapshot_is_rejected(tmp_path, grid16, manifold_bg):
    path = tmp_path / "snap.raw"
    simulate.write_snapshot(path, StateField.zeros(grid16), manifold_bg, t=0.0)
    with open(path, "r+b") as f:
        f.truncate(1000)
    with pytest.raises(ValueError, match=r"snap\.raw holds 1000 .*327680"):
        simulate.read_snapshot(path)


@pytest.mark.parametrize("edit, field", [
    (lambda meta: meta.pop("N"), "'N'"),
    (lambda meta: meta["state"].pop("tau0"), "'state'.*'tau0'"),
    (lambda meta: meta.update(N=None), "'N'"),
    (lambda meta: meta["state"].update(tau0=float("nan")), "'state'.*finite"),
], ids=["missing-N", "missing-tau0", "null-N", "nan-tau0"])
def test_malformed_snapshot_sidecar_is_rejected(tmp_path, grid16, manifold_bg,
                                                edit, field):
    path = tmp_path / "snap.raw"
    simulate.write_snapshot(path, StateField.zeros(grid16), manifold_bg, t=0.0)
    sidecar = tmp_path / "snap.raw.json"
    meta = json.loads(sidecar.read_text())
    edit(meta)
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=rf"snap\.raw\.json: field {field}"):
        simulate.read_snapshot(path)


_SIDECAR_VALUES = [None, "abc", "", [], [1.0], {}, {"x": 1}, True, -1, 0, 3,
                   8, 1e308, float("nan")]


@settings(deadline=None, max_examples=50)
@given(kind=st.sampled_from(["drop", "retype", "truncate", "non-object",
                             "resize"]),
       data=st.data())
def test_damaged_snapshot_raises_naming_the_file(tmp_path_factory, kind,
                                                 data):
    path = tmp_path_factory.mktemp("snap") / "snap.raw"
    simulate.write_snapshot(path, StateField.zeros(Grid(N=4, L=1.0)),
                            ConstantState(tau0=0.8, b0=(0.1, 0.2, 0.0)), 0.5)
    sidecar = path.with_suffix(".raw.json")
    meta = json.loads(sidecar.read_text())
    if kind == "resize":
        path.write_bytes(bytes(data.draw(st.integers(0, 2 * 5120))))
    elif kind == "non-object":
        sidecar.write_text(json.dumps(data.draw(st.sampled_from(
            [None, 0, "snap", [], [meta]]))))
    elif kind == "truncate":
        text = json.dumps(meta)
        sidecar.write_text(text[:data.draw(st.integers(0, len(text) - 1))])
    else:
        parent, key = data.draw(st.sampled_from(
            [(meta, k) for k in meta] + [(meta["state"], k)
                                         for k in meta["state"]]))
        if kind == "drop":
            del parent[key]
        else:
            parent[key] = data.draw(st.sampled_from(_SIDECAR_VALUES))
        sidecar.write_text(json.dumps(meta))
    try:
        simulate.read_snapshot(path)
    except (ValueError, OSError) as exc:
        assert str(path) in str(exc)
