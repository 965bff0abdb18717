"""The run workspace: one component's derivatives at a time on reused
buffers, against the solver and diagnostics it replaced
(``solver_reference.py``), with its memory and its counts.  A sample
reads the branch norms off Ahat U and Ahat^2 U; they are checked against
the H1 norms of the wave parts (``wave_parts_reference.py``).

The right-hand side and the constraint residuals now add the products
of a row grouped by the differentiated component, so they agree with the
reference to round-off; everything else is formed in the same order.
Whole runs are compared bit for bit with the run whose workspace held
the synthesized fields in a buffer of their own
(``workspace_reference.py``).
"""
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from abiwave import (cli, diagnostics, grid as grid_module, model, simulate,
                     system)
from abiwave.fields import StateField
from abiwave.grid import Grid
from abiwave.spectral import _geometry
from abiwave.state import bi_lift_constant
import solver_reference as R
import wave_parts_reference as W
import workspace_reference as X

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.json"

RESIDUAL_COLUMNS = ("res_divb_sup", "res_divd_sup", "res_rot_sup")


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _grid(n):
    return Grid(N=n, L=2 * np.pi * n / 4)


def _spectrum_bytes(grid):
    """S, the bytes of one ten-component half spectrum."""
    return 10 * grid.N * grid.N * grid.n_half * 16


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


def _admissible(grid, state, seed):
    u = model.admissible_perturbation(seed, 1e-2, state, grid)
    return StateField(grid, grid.rinv(grid.strip_nyquist(u.spectral())))


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("dealias", [True, False])
def test_rhs_and_step_match_reference(manifold_bg, n, dealias):
    g, st = _grid(n), manifold_bg
    assert np.any(st.v0)  # the advection term takes part
    geo = _geometry(g, st)
    ws = simulate.Workspace(g, st)
    dt = 0.5 * simulate.SimConfig(grid=g, state=st).resolved_dt()
    for seed in (3, 4):
        Uh = _admissible(g, st, seed).spectral()
        want = R.rhs_hat(Uh, g, st, geo, dealias)
        assert _rel(simulate._rhs_hat(Uh, ws, dealias), want) <= 1e-15
        want = R.step_rk4_hat(Uh, g, st, geo, dt, dealias)
        simulate._step_rk4_hat(Uh, ws, dt, dealias)
        assert _rel(Uh, want) <= 1e-15


@pytest.mark.parametrize("n", [16, 32])
def test_diagnostics_row_matches_reference(manifold_bg, n):
    g, st = _grid(n), manifold_bg
    ws = simulate.Workspace(g, st)
    for seed in (6, 7):
        u = _admissible(g, st, seed)
        row = diagnostics.sample_diagnostics(u, u.spectral(), st, 0.5, 8, ws)
        ref = R.sample_diagnostics(u, st, 0.5, 8, _geometry(g, st))
        assert row.keys() == ref.keys()
        for c, want in ref.items():
            if c in RESIDUAL_COLUMNS:
                # round-off sized values: compared in absolute terms
                assert abs(row[c] - want) <= 1e-15, c
            else:
                assert abs(row[c] - want) <= 1e-13 * abs(want), c


@pytest.mark.parametrize("moving", [False, True])
def test_branch_norms_match_the_wave_parts(manifold_bg, moving):
    g = _grid(16)
    # at rest: the magnetic background of manifold_bg without its D0
    st = manifold_bg if moving else bi_lift_constant((0.3, 0.0, 0.05),
                                                     (0.0, 0.0, 0.0))
    assert np.any(st.v0) == moving
    ws = simulate.Workspace(g, st)
    for seed in (8, 9):
        u = _admissible(g, st, seed)
        Uh = u.spectral()
        row = diagnostics.sample_diagnostics(u, Uh, st, 0.0, 2, ws)
        plus, minus, zero = W.branch_parts(Uh, _geometry(g, st))
        wave = np.hypot(g.sobolev_norm(plus, 1),
                        g.sobolev_norm(minus, 1)) / np.sqrt(2.0)
        assert row["H1_up"] == row["H1_um"]
        assert abs(row["H1_up"] - wave) <= 1e-14 * wave
        want = g.sobolev_norm(zero, 1)
        assert abs(row["H1_u0"] - want) <= 1e-14 * want


def test_sample_transforms_no_field_forward(manifold_bg, monkeypatch):
    g, st = _grid(8), manifold_bg
    ws = simulate.Workspace(g, st)
    u = _admissible(g, st, 5)
    Uh = u.spectral()
    seen = _count_transforms(monkeypatch)
    diagnostics.sample_diagnostics(u, Uh, st, 0.0, 8, ws)
    assert seen["forward"] == 0
    # 30 derivatives for the residuals and W1inf_U, ten fields for each
    # of the three Besov shells
    assert len(g.shell_masks) == 3
    assert seen["fields"] == ws.fields_transformed == 60


def test_constraint_rows_differentiate_every_component():
    # sample_diagnostics reads sup |grad U| off the residuals' derivatives
    assert {c for _, _, c, _, _ in system.CONSTRAINT_TERMS} == set(range(10))


def _above_entry(call):
    """Peak traced bytes of ``call()`` above those held at its entry."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_step_and_sample_stay_within_four_spectra(manifold_bg):
    # S is one ten-component half spectrum; before the workspace a step
    # allocated 13.8 S above its entry and a sample 11.7 S.  A sample now
    # peaks at 0.865 S, in the synthesis of one component's gradient
    g, st = _grid(32), manifold_bg
    S = _spectrum_bytes(g)
    ws = simulate.Workspace(g, st)
    u = _admissible(g, st, 5)
    Uh = u.spectral()
    dt = simulate.SimConfig(grid=g, state=st).resolved_dt()
    # a first call of each, so that lazily built lattice arrays exist
    simulate._step_rk4_hat(Uh, ws, dt, True)
    diagnostics.sample_diagnostics(u, Uh, st, 0.0, 8, ws)
    assert _above_entry(lambda: simulate._step_rk4_hat(Uh, ws, dt, True)) \
        <= 4 * S
    assert _above_entry(
        lambda: diagnostics.sample_diagnostics(u, Uh, st, 0.0, 8, ws)) <= S


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("moving", [False, True])
def test_runs_match_the_separate_buffer_run_bitwise(manifold_bg, n, dealias,
                                                    moving):
    g = _grid(n)
    st = manifold_bg if moving else bi_lift_constant((0.3, 0.0, 0.05),
                                                     (0.0, 0.0, 0.0))
    assert np.any(st.v0) == moving
    # dealiased runs end on a snapshot, the others on the sampled buffer
    cfg = simulate.SimConfig(grid=g, state=st, t_end=1.0, cfl=0.4,
                             cadence=0.5, dealias=dealias, seed=5,
                             snapshots=(0.0, 1.0) if dealias else (0.5,))
    ic = cfg.initial_field()
    new = simulate.simulate(cfg, initial=ic)
    old = X.simulate(cfg, ic)
    assert not new.series.blowup and len(new.series.rows) == 3
    assert new.series.rows == old.series.rows
    assert _bytes(np.array([list(r.values()) for r in new.series.rows])) \
        == _bytes(np.array([list(r.values()) for r in old.series.rows]))
    assert new.snapshot_times == old.snapshot_times
    for (t, f), (t_old, f_old) in zip(new.snapshots, old.snapshots,
                                      strict=True):
        assert t == t_old and _bytes(f.data) == _bytes(f_old.data)
    assert _bytes(new.final.data) == _bytes(old.final.data)


def test_workspace_holds_four_spectra_and_u_shares_k(manifold_bg):
    # before, u had storage of its own: 3 + 2 * 32/34 = 4.88 S at 32^3
    g = _grid(32)
    S = _spectrum_bytes(g)
    ws = simulate.Workspace(g, manifold_bg)
    arrays = [a for a in vars(ws).values() if isinstance(a, np.ndarray)]
    ten = [a for a in arrays if a.shape[:1] == (10,)]
    owned = [a for a in ten if a.base is None]
    assert sum(a.nbytes for a in owned) <= 4 * S
    assert all(any(np.shares_memory(a, b) for b in owned) for a in ten)
    assert np.shares_memory(ws.u, ws.k)
    assert np.shares_memory(ws.scratch, ws.stage)
    for view in (ws.u, ws.scratch):
        assert view.shape == (10,) + (g.N,) * 3
        assert view.dtype == float and view.flags.c_contiguous
    assert ws.masked.nbytes == S // 10


def test_desk_run_stays_within_eight_spectra():
    # S is one ten-component half spectrum (2.8 MB at 32^3); with a buffer
    # for u, a fresh field per sample and per final, the run read 9.9 S
    raw = json.loads(DESK.read_text())
    cfg, _, _ = cli.parse_sim_config(raw)
    ic = cfg.initial_field()
    runs = []
    peak = _above_entry(lambda: runs.append(simulate.simulate(cfg, ic)))
    assert not runs[0].series.blowup
    assert peak <= 8 * _spectrum_bytes(cfg.grid)


def _count_transforms(monkeypatch):
    """Fields given to abiwave.grid's real transforms, the 10-field
    syntheses among them and the fields analysed."""
    seen = {"fields": 0, "states": 0, "forward": 0}
    for name in ("r2c", "c2r"):
        def spy(x, *args, _fn=getattr(grid_module, name), _name=name,
                **kwargs):
            fields = int(np.prod(np.shape(x)[:-3], dtype=int))
            seen["fields"] += fields
            seen["states"] += _name == "c2r" and fields == 10
            seen["forward"] += fields if _name == "r2c" else 0
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(grid_module, name, spy)
    return seen


def test_run_stats_count_what_the_run_does(manifold_bg, monkeypatch):
    g = _grid(8)
    cfg = simulate.SimConfig(grid=g, state=manifold_bg, t_end=1.0, cfl=0.4,
                             cadence=0.25, snapshots=(1.0,))
    ic = cfg.initial_field()
    seen = _count_transforms(monkeypatch)
    res = simulate.simulate(cfg, initial=ic)
    stats = res.stats
    assert stats["steps"] == int(np.ceil(1.0 / cfg.resolved_dt() - 1e-12))
    assert stats["rhs_calls"] == 4 * stats["steps"]
    assert stats["samples"] == len(res.series.rows)
    assert stats["fields_transformed"] == seen["fields"]
    # the initial analysis, 50 fields per right-hand side, and per sample
    # the state's synthesis and the sample's 60 fields (no analysis)
    assert stats["fields_transformed"] == \
        10 + 50 * stats["rhs_calls"] + 70 * stats["samples"]
    # one synthesis of the whole state per sample: the final field is
    # the last sample's snapshot, not synthesized or copied again
    assert seen["states"] == stats["samples"]
    assert res.final is res.snapshots[-1][1]


def test_blown_up_run_synthesizes_its_final_field(manifold_bg, monkeypatch):
    g = _grid(8)
    cfg = simulate.SimConfig(grid=g, state=manifold_bg, t_end=1.0, cfl=0.4,
                             cadence=1.0)
    huge = StateField.zeros(g)
    huge.data[0, 0, 0, 0] = 1e140  # the first step's products overflow
    seen = _count_transforms(monkeypatch)
    res = simulate.simulate(cfg, initial=huge)
    assert res.series.blowup and res.stats["steps"] == 1
    assert len(res.series.rows) == res.stats["samples"] == 1
    # the failed step was not sampled: its state is synthesized once more
    assert seen["states"] == 2
    assert res.stats["fields_transformed"] == seen["fields"]


def test_failed_sample_keeps_its_field_as_the_final(manifold_bg, monkeypatch):
    g = _grid(8)
    cfg = simulate.SimConfig(grid=g, state=manifold_bg, t_end=1.0, cfl=0.4,
                             cadence=1.0)
    huge = StateField.zeros(g)
    huge.data[0, 0, 0, 0] = 1e155  # finite, but its first row overflows
    want = g.rinv(g.strip_nyquist(g.rfwd(huge.data)))
    seen = _count_transforms(monkeypatch)
    res = simulate.simulate(cfg, initial=huge)
    assert res.series.blowup and res.stats["steps"] == 0
    assert res.series.rows == []
    # the sampled field is the final one: the state is synthesized once
    assert seen["states"] == 1
    assert _bytes(res.final.data) == _bytes(want)
