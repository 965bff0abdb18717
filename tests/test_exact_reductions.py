"""The diagnostics' sups as exact reductions, max(max f, -min f), against
the sups formed through |f| and f * f buffers (``diagnostics_reference.py``).

The sups, the manifold residuals and the constraint norms agree bit for
bit on fields with signed zeros, infinities, subnormals and a NaN.  The
Besov sups are compared on finite fields: a NaN in one component now
reaches the norm, where the reference's Python ``max`` could drop it.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from abiwave import diagnostics as D, simulate
from abiwave.fields import StateField
from abiwave.grid import Grid
from abiwave.state import bi_lift_constant
import diagnostics_reference as R

N = 4
GRID = Grid(N=N, L=2 * np.pi)
STATE = bi_lift_constant((0.3, 0.0, 0.05), (0.0, 0.2, 0.1))
# overflow and inf - inf are among the drawn cases
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SPECIAL = (0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, -1e-310)


def _values(finite):
    bound = 1e150 if finite else None
    return st.one_of(
        st.sampled_from([x for x in SPECIAL if not finite or np.isfinite(x)]),
        st.floats(min_value=bound and -bound, max_value=bound,
                  allow_nan=False, allow_infinity=not finite))


@st.composite
def _fields(draw, lead=(10,), finite=False, nan=True):
    """A (lead, N, N, N) field; with ``nan``, maybe a NaN in one component."""
    f = draw(arrays(np.float64, lead + (N,) * 3, elements=_values(finite)))
    if nan and draw(st.booleans()):
        c = draw(st.integers(0, lead[0] - 1))
        f[c].flat[draw(st.integers(0, N ** 3 - 1))] = np.nan
    return f


def _bits(x):
    return np.float64(x).tobytes()


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return _bits(a) == _bits(b)


@settings(deadline=None, max_examples=200)
@given(f=_fields())
@example(f=np.full((10, N, N, N), -0.0))  # max(max f, -min f) alone: -0.0
def test_sup_is_bitwise_the_max_of_abs(f):
    assert _bits(D._sup(f)) == _bits(R._sup(f))
    for c in f:
        assert _bits(D._sup(c)) == _bits(R._sup(c))


@settings(deadline=None, max_examples=100)
@given(f=_fields())
def test_manifold_residual_is_bitwise_the_buffered_one(f):
    field = StateField(GRID, f)
    want = R.manifold_residual(field)
    assert _same(D.manifold_residual(field), want)
    assert _same(R.manifold_residual(field, np.empty_like(f)), want)


@settings(deadline=None, max_examples=60)
@given(full=_fields(), grads=_fields(lead=(30,)))
def test_constraint_norms_are_bitwise_the_buffered_ones(full, grads):
    field = StateField(GRID, np.zeros_like(full))
    grads = grads.reshape(10, 3, N, N, N)
    want = R.constraint_residual(field, STATE, grads.__getitem__, full)
    assert _same(D.constraint_residual(field, STATE, grads.__getitem__,
                                       full), want)
    rows = np.empty((5,) + full.shape[1:])
    assert _same(D.constraint_residual(field, STATE, grads.__getitem__, full,
                                       rows), want)
    scratch = np.empty((8,) + full.shape[1:])
    assert _same(R.constraint_residual(field, STATE, grads.__getitem__, full,
                                       scratch), want)


@settings(deadline=None, max_examples=60)
@given(f=_fields(finite=True, nan=False))
def test_besov_sups_are_bitwise_the_buffered_ones_on_finite_fields(f):
    assert _same(D.besov_norms(GRID, f), R.besov_norms(GRID, f))


def test_a_nan_in_one_piece_reaches_the_sup(manifold_bg):
    rng = np.random.default_rng(3)
    g = Grid(N=8, L=2 * np.pi * 2)
    f = rng.normal(size=(10, 8, 8, 8))
    assert np.all(np.isfinite(D.besov_norms(g, f)))
    f[5, 1, 2, 3] = np.nan
    assert np.all(np.isnan(D.besov_norms(g, f)))
    # tau v_z - (d ^ b)_z is the third vector row, and only it reads v_z
    absolute = StateField(g, 0.1 * rng.normal(size=(10, 8, 8, 8)))
    absolute.data[3, 4, 4, 4] = np.nan
    assert np.isnan(D.manifold_residual(absolute)[1])
    # the sample's gradient sup: a NaN in one component of the spectrum
    # it differentiates, under a finite field
    ws = simulate.Workspace(g, manifold_bg)
    u = StateField(g, 1e-2 * rng.normal(size=(10, 8, 8, 8)))
    Uh = u.spectral()
    Uh[5, 1, 1, 1] = np.nan
    row = D.sample_diagnostics(u, Uh, manifold_bg, 0.0, 8, ws)
    assert np.isnan(row["W1inf_U"])
