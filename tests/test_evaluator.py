"""The slot-factored table evaluator against the sparse-matrix one it
replaced (``evaluator_reference.py``), at the points the two float gates
use: the twelve tensor tables and the mutated (+,++) table at the float
cross-check's 30 off-axis points, and the four generator tables at the
annihilation gate's 1000 resonant samples.  Agreement is to 1e-13 of
the sum of the terms' absolute values at each point, the scale of the
round-off of a sum, and for the tensors also to 1e-13 of their largest
value."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evaluator_reference
from abiwave.resonance import resonant_samples, sample_off_axis
from abiwave.state import CERTIFICATION_BACKGROUND
from abiwave.symbolic import _kernel_py, ideal, tensors
from abiwave.symbolic._kernel_py import TermTable, pack

TOL = 1e-13
EVOLUTION = [(e1, e2, e3) for e1 in (1, -1) for e2 in (1, -1)
             for e3 in (1, -1)]
CONSTRAINT = [(0, e2, e3) for e2 in (1, -1) for e3 in (1, -1)]
PAIRS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def _abs_table(table):
    return TermTable.from_arrays(table.exps, table.rows, table.cols,
                                 np.abs(table.coefs), len(table.sizes))


def _check(table, points):
    """Both evaluators at the points; returns the oracle's values."""
    points = np.asarray(points, dtype=float)
    got = _kernel_py.evaluator(table)(points)
    want = evaluator_reference.evaluator(table)(points)
    scale = evaluator_reference.evaluator(_abs_table(table))(np.abs(points))
    assert got.shape == want.shape == (len(points), len(table.sizes))
    assert np.all(np.abs(got - want) <= TOL * scale)
    return got, want


@pytest.fixture(scope="module")
def crosscheck_points():
    # the float cross-check's points (its default n = 30, seed 1)
    xi, eta = sample_off_axis(np.random.default_rng(1), 30)
    return ideal.numeric_embedding(xi, eta, CERTIFICATION_BACKGROUND)


@pytest.mark.parametrize("eps, which",
                         [(e, "evolution") for e in EVOLUTION]
                         + [(e, "constraint") for e in CONSTRAINT],
                         ids=[f"N{e}" for e in EVOLUTION]
                         + [f"Nprime{e[1:]}" for e in CONSTRAINT])
def test_tensor_tables_match_sparse_oracle(eps, which, crosscheck_points):
    table = tensors.build_interaction_tensor(eps, which).table
    got, want = _check(table, crosscheck_points)
    assert np.max(np.abs(got - want)) <= TOL * np.max(np.abs(want))


def test_mutated_table_matches_sparse_oracle(crosscheck_points):
    table = tensors.build_interaction_tensor((1, 1, 1)).table
    row = (1 * 10 + 2) * 10 + 3
    mutated = table.plus_constant(row, 1)
    got, _ = _check(mutated, crosscheck_points)
    # the mutation moves its own entry by exactly the constant one
    before = _kernel_py.evaluator(table)(crosscheck_points)
    moved = np.flatnonzero(np.any(got != before, axis=0))
    assert moved.tolist() == [row]
    assert np.allclose(got[:, row] - before[:, row], 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("eps2, eps3", PAIRS)
def test_generator_tables_match_sparse_oracle(eps2, eps3):
    # the annihilation gate's samples: n = 1000, seed 0
    xi, eta = resonant_samples(eps2 * eps3, np.random.default_rng(0), 1000)
    points = ideal.numeric_embedding(xi, eta, CERTIFICATION_BACKGROUND)
    got, _ = _check(TermTable(ideal.build_ideal_generators(eps2, eps3)),
                    points)
    assert np.max(np.abs(got)) <= 1e-14


def test_empty_table_and_empty_rows():
    points = np.random.default_rng(3).uniform(-1, 1, (5, 18))
    got, _ = _check(TermTable([]), points)
    assert got.shape == (5, 0)
    got, _ = _check(TermTable([{}, {}]), points)
    assert not got.any()
    x1 = pack([1] + [0] * 17)
    got, _ = _check(TermTable([{}, {x1: 3, 0: -1}, {}, {}, {0: 2}, {}]),
                    points)
    assert not got[:, [0, 2, 3, 5]].any()
    assert np.array_equal(got[:, 4], np.full(5, 2.0))
    assert _kernel_py.evaluator(TermTable([{0: 1}]))(np.zeros((0, 18))).shape \
        == (0, 1)


def test_exponents_up_to_127_keep_their_slot_monomials():
    # single powers X_v^e and random monomials with every exponent up
    # to 127, the packing's limit; near 1 so that no value overflows
    rng = np.random.default_rng(11)
    rows = [np.eye(18, dtype=np.int64)[v] * e for v in range(18)
            for e in (1, 2, 8, 64, 127)]
    rows += list(rng.integers(0, 128, (30, 18)))
    points = rng.uniform(0.97, 1.03, (6, 18))
    _check(TermTable([{pack(r): 1} for r in rows]), points)


def _random_table(rng, nrows):
    polys = []
    for _ in range(nrows):
        n = int(rng.integers(0, 8))
        polys.append({pack(rng.integers(0, 6, 18)): int(rng.integers(-50, 50))
                      or 1 for _ in range(n)})
    return TermTable(polys)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 31), nrows=st.integers(0, 8),
       npoints=st.integers(0, 23), step=st.integers(1, 9))
def test_chunks_of_points_match_sparse_oracle(seed, nrows, npoints, step):
    # chunks of ``step`` points; most counts are no multiple of it
    rng = np.random.default_rng(seed)
    table = _random_table(rng, nrows)
    width = 8 * max(len(table), len(table.exps), 1)
    points = rng.uniform(-1.2, 1.2, (npoints, 18))
    saved = _kernel_py._CHUNK_BYTES
    _kernel_py._CHUNK_BYTES = step * width
    try:
        _check(table, points)
    finally:
        _kernel_py._CHUNK_BYTES = saved


def test_chunked_tensor_table_matches_one_chunk(crosscheck_points,
                                                monkeypatch):
    # the default chunk holds one point of an evolution table; 7 points
    # per chunk leave 2 of the 30 for the last one
    table = tensors.build_interaction_tensor((-1, 1, -1)).table
    one = _kernel_py.evaluator(table)(crosscheck_points)
    assert _kernel_py._CHUNK_BYTES // (8 * len(table)) == 1
    monkeypatch.setattr(_kernel_py, "_CHUNK_BYTES", 7 * 8 * len(table))
    assert np.array_equal(_kernel_py.evaluator(table)(crosscheck_points), one)
