"""The NumPy two-stage tensor build against the direct triple-product build."""
import numpy as np
import pytest

from abiwave.resonance import InteractionSpec
from abiwave.symbolic import tensors
from abiwave.symbolic._kernel_py import TermTable, pack

from tensors_reference import build_entries, chaplygin_block

INTERACTIONS = ([((e1, e2, e3), "evolution") for e1 in (1, -1)
                 for e2 in (1, -1) for e3 in (1, -1)]
                + [((0, e2, e3), "constraint") for e2 in (1, -1)
                   for e3 in (1, -1)])


@pytest.mark.parametrize("eps,which", INTERACTIONS,
                         ids=[InteractionSpec(*e).label().replace("0", "'")
                              for e, _ in INTERACTIONS])
def test_every_tensor_entry_matches_triple_product_oracle(eps, which):
    T = tensors.build_interaction_tensor(eps, which)
    want = build_entries(eps, which)
    got = {idx: t for idx, t in T.iter_entries()}
    assert got == {(i, j, k): t for i, plane in enumerate(want)
                   for j, line in enumerate(plane) for k, t in enumerate(line)}

    # the block cut from the table equals the dict substitution of the
    # oracle's entries
    index, table = T.chaplygin_block()
    want_index, want_rows = chaplygin_block(
        (((i, j, k), want[i][j][k]) for i, j, k in np.ndindex(T.shape)),
        which)
    assert len(index) == (4 if which == "evolution" else 5) * 4 * 4
    assert index == want_index
    assert list(table.polys()) == want_rows
    assert np.all(np.diff(table.rows) >= 0)
    assert len(set(table.keys)) == len(table.keys)
    assert all(type(c) is int and c for c in table.coefs)


def _terms(table):
    """The (row, key, coefficient) set of a term table."""
    keys = table.keys
    return set(zip(table.rows.tolist(), (keys[c] for c in table.cols.tolist()),
                   table.coefs.tolist()))


@pytest.mark.parametrize("eps,which", [((1, 1, 1), "evolution"),
                                       ((1, 1, -1), "evolution"),
                                       ((-1, -1, 1), "evolution"),
                                       ((0, -1, 1), "constraint")],
                         ids=["+,++", "+,+-", "-,-+", "',-+"])
def test_built_table_matches_table_of_oracle_entries(eps, which):
    got = tensors.build_interaction_tensor(eps, which).table
    want = TermTable(t for plane in build_entries(eps, which)
                     for line in plane for t in line)
    assert np.array_equal(got.sizes, want.sizes)
    assert got.degree() == want.degree()
    assert len(got) == len(want) == len(_terms(got))
    assert _terms(got) == _terms(want)
    # the table's own contract: terms row by row, distinct monomials,
    # nonzero Python int coefficients
    assert np.all(np.diff(got.rows) >= 0)
    assert len(set(got.keys)) == len(got.keys)
    assert all(type(c) is int and c for c in got.coefs)


def _scaled_projectors(monkeypatch, factor):
    real = tensors.projector_terms

    def scaled(branch, slot):
        return [[{k: v * factor for k, v in t.items()} for t in line]
                for line in real(branch, slot)]

    monkeypatch.setattr(tensors, "projector_terms", scaled)


def test_int64_sums_stay_exact_up_to_the_bound(monkeypatch):
    # the absolute product sum of (+,++) is 136944 < 2^18; every factor
    # scaled by 2^15 keeps it below 2^63, so the entries scale exactly
    plain = tensors.build_interaction_tensor((1, 1, 1)).table
    _scaled_projectors(monkeypatch, 2 ** 15)
    scaled = tensors.build_interaction_tensor((1, 1, 1)).table
    assert _terms(scaled) == {(r, k, c * 2 ** 45) for r, k, c in _terms(plain)}
    _scaled_projectors(monkeypatch, 2 ** 16)
    with pytest.raises(OverflowError, match="int64"):
        tensors.build_interaction_tensor((1, 1, 1))


def test_tensor_build_rejects_coefficient_2_to_40(monkeypatch):
    def fake_projector_terms(branch, slot):
        return [[{0: 2 ** 40} for _ in range(10)] for _ in range(10)]

    monkeypatch.setattr(tensors, "projector_terms", fake_projector_terms)
    with pytest.raises(OverflowError, match="coefficient sums"):
        tensors.build_interaction_tensor((1, 1, 1))


def test_tensor_build_rejects_codes_past_int64(monkeypatch):
    # degree 10 in every variable: total degree 31 packs, but the code
    # radix is 31 per variable and 1000 * 31^18 exceeds 2^63
    def fake_projector_terms(branch, slot):
        return [[{pack([10 if v == (r + c) % 18 else 0 for v in range(18)]): 1}
                 for c in range(10)] for r in range(10)]

    monkeypatch.setattr(tensors, "projector_terms", fake_projector_terms)
    with pytest.raises(OverflowError, match="codes"):
        tensors.build_interaction_tensor((1, 1, 1))
