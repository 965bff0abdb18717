"""Runs on the stored half spectrum against the layout it replaced.

The oracle (``conjugating_grid_reference.py``) stores F(q) at index q
and conjugates at every transform; the package stores what ``rfftn``
computes, F(-q).  The two must agree bit for bit: every stored spectrum
of the package is the exact conjugate of the oracle's, and the
syntheses are the same calls on the same numbers.
"""
from dataclasses import replace

import numpy as np
import pytest

from abiwave import diagnostics, model, simulate, spectral
from abiwave.fields import StateField
from abiwave.grid import Grid
from abiwave.state import ConstantState
from conftest import random_state
import conjugating_grid_reference as C

N, L = 16, 2 * np.pi * 4


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


def _run(grid, state, kind, dealias):
    cfg = simulate.SimConfig(grid=grid, state=state, t_end=2.0, cfl=0.4,
                             cadence=0.5, dealias=dealias, ic_kind=kind,
                             amplitude=1e-2, seed=1234, snapshots=(0.0, 2.0))
    return simulate.simulate(cfg)


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("kind", ["bi_lift", "chaplygin"])
def test_runs_match_conjugating_layout_bitwise(manifold_bg, monkeypatch,
                                               kind, dealias):
    if kind == "bi_lift":
        st = manifold_bg
    else:
        st = ConstantState(tau0=0.9).with_v0((0.3, -0.2, 0.1))
    assert np.any(st.v0)  # the transport term takes part
    new = _run(Grid(N=N, L=L), st, kind, dealias)
    with monkeypatch.context() as m:
        m.setattr(model, "_band_half_spectrum", C.band_half_spectrum)
        old = _run(C.ConjugatingGrid(N=N, L=L), st, kind, dealias)
    assert not new.series.blowup and len(new.series.rows) > 2
    assert _bytes(new.final.data) == _bytes(old.final.data)
    for a, b in zip(new.series.rows, old.series.rows, strict=True):
        assert a.keys() == b.keys()
        assert _bytes(np.array(list(a.values()))) == \
            _bytes(np.array(list(b.values())))
    assert new.snapshot_times == old.snapshot_times == [[0.0], [2.0]]
    for (t, f), (t_old, f_old) in zip(new.snapshots, old.snapshots,
                                      strict=True):
        assert t == t_old and _bytes(f.data) == _bytes(f_old.data)


def test_linear_flow_and_decay_probe_match_conjugating_layout_bitwise(rng):
    st = random_state(rng).with_v0(rng.normal(size=3))
    new_g, old_g = Grid(N=N, L=L), C.ConjugatingGrid(N=N, L=L)
    data = rng.normal(size=(10,) + (N,) * 3)
    for t in (0.0, 0.7, 3.1):
        for direction in ("forward", "profile"):
            new = spectral.propagate_linear(StateField(new_g, data), st, t,
                                            direction)
            old = spectral.propagate_linear(StateField(old_g, data), st, t,
                                            direction)
            assert _bytes(new.data) == _bytes(old.data)
    times = (0.5, 1.0, 2.0, 3.0)
    assert times[-1] < diagnostics.wrap_time(new_g, st)
    for component in (0, 4):
        new = diagnostics.dispersion_probe(st, new_g, times,
                                           component=component)
        old = diagnostics.dispersion_probe(st, old_g, times,
                                           component=component)
        assert new.to_dict() == old.to_dict()
        sampled = [np.array([(s["sup"], s["l2"]) for s in r.samples]
                            + [(r.exponent, r.ci95)]) for r in (new, old)]
        assert _bytes(sampled[0]) == _bytes(sampled[1])
