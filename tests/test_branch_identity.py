"""Branch algebra from Ahat U and Ahat^2 U against the wave-part reference.

``wave_parts_reference.py`` builds P+U and P-U first and composes the
kernel part, the linear flow and the decay probe from them.  The package
forms each from Ahat U and Ahat^2 U alone.  Scaling by 1/2 is exact, so
the projectors agree bitwise; the flow and the probe differ in rounding
only.  The probe is also checked against the ten-component probe it
replaced, ``wave_parts_reference.ten_component_probe``.  The branch
norms of a diagnostics sample are checked against these wave parts in
``test_workspace.py``.
"""
import numpy as np
import pytest

from abiwave import diagnostics, model, spectral
from abiwave.grid import Grid
from abiwave.state import CERTIFICATION_BACKGROUND, ConstantState
import wave_parts_reference as W

TIMES = (0.3, 1.7, 12.5)


@pytest.fixture(params=["grid16", "grid32"])
def admissible(request, manifold_bg):
    grid = request.getfixturevalue(request.param)
    return model.admissible_perturbation(5, 1e-2, manifold_bg, grid)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_projectors_and_wave_parts_bitwise(admissible, manifold_bg):
    g = admissible.grid
    fh = admissible.spectral()
    geo = spectral._geometry(g, manifold_bg)
    for branch in spectral.BRANCHES:
        assert np.array_equal(spectral.apply_projector(fh, geo, branch),
                              W.apply_projector(fh, geo, branch))


def test_propagator_matches_wave_parts(admissible, manifold_bg):
    u, st = admissible, manifold_bg
    for t in TIMES:
        for direction in ("forward", "profile"):
            assert _rel(spectral.propagate_linear(u, st, t, direction).data,
                        W.propagate_linear(u, st, t, direction).data) <= 1e-14
        back = spectral.propagate_linear(spectral.propagate_linear(u, st, t),
                                         st, t, "profile")
        ref = W.propagate_linear(W.propagate_linear(u, st, t), st, t,
                                 "profile")
        assert _rel(back.data, ref.data) <= 1e-14


def test_dispersion_probe_matches_wave_parts():
    g = Grid(N=32, L=2 * np.pi * 8)
    st = ConstantState(tau0=1.0)
    times = (0.5, 2.0, 6.0, 10.0)
    rep = diagnostics.dispersion_probe(st, g, times, sigma=1.5)
    ref = W.probe_samples(st, g, times, sigma=1.5)
    for new, old in zip(rep.samples, ref, strict=True):
        assert new["t"] == old["t"]
        assert new["sup"] == pytest.approx(old["sup"], rel=1e-13)
        assert new["l2"] == pytest.approx(old["l2"], rel=1e-13)


@pytest.mark.parametrize("component", [0, 1, 4, 8])
@pytest.mark.parametrize("background", [
    ConstantState(tau0=1.0), "manifold_bg", CERTIFICATION_BACKGROUND,
], ids=["tau0", "manifold", "certification"])
def test_dispersion_probe_matches_ten_component_probe(background, component,
                                                      request):
    st = (request.getfixturevalue(background)
          if isinstance(background, str) else background)
    g = Grid(N=32, L=2 * np.pi * 8)
    times = (0.5, 2.0, 6.0, 10.0)
    kw = dict(sigma=1.5, component=component)
    rep = diagnostics.dispersion_probe(st, g, times, **kw)
    ref = W.ten_component_probe(st, g, times, **kw)
    assert rep.exponent == pytest.approx(ref.exponent, abs=1e-12)
    for new, old in zip(rep.samples, ref.samples, strict=True):
        assert new["t"] == old["t"]
        assert new["sup"] == pytest.approx(old["sup"], rel=1e-14)
        assert new["l2"] == pytest.approx(old["l2"], rel=1e-14)
