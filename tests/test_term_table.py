"""The term-table reducer against the per-entry dict reducer it replaced."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abiwave.resonance import InteractionSpec
from abiwave.symbolic import certify as C
from abiwave.symbolic import ideal, tensors
from abiwave.symbolic._kernel_py import TermTable, pack

from ideal_reference import reduce_entry
from tensors_reference import chaplygin_block

INTERACTIONS = ([((e1, e2, e3), "evolution") for e1 in (1, -1)
                 for e2 in (1, -1) for e3 in (1, -1)]
                + [((0, e2, e3), "constraint") for e2 in (1, -1)
                   for e3 in (1, -1)])


def _oracle(polys, s):
    """{row: residue} of the dict reducer, for the nonzero residues."""
    out = {}
    for row, terms in enumerate(polys):
        residue = reduce_entry(terms, s)
        if residue:
            out[row] = residue
    return out


def _mono(**exps):
    """Packed key from 1-based variable names, e.g. _mono(X3=2, X9=1)."""
    row = [0] * 18
    for name, e in exps.items():
        row[int(name[1:]) - 1] = e
    return pack(row)


@pytest.mark.parametrize("eps,which", INTERACTIONS,
                         ids=[InteractionSpec(*e).label().replace("0", "'")
                              for e, _ in INTERACTIONS])
def test_every_tensor_entry_matches_dict_oracle(eps, which):
    T = tensors.build_interaction_tensor(eps, which)
    entries = [dict(t) for _, t in T.iter_entries()]
    # one mutated entry per tensor, inside the chaplygin block, with a
    # part that survives both stages and a coefficient past int64
    row = 1 * 100 + 2 * 10 + 3
    entries[row][0] = entries[row].get(0, 0) + 1
    key = _mono(X3=3, X9=2, X10=1)
    entries[row][key] = entries[row].get(key, 0) + 2 ** 70
    s = eps[1] * eps[2]

    index, chaplygin = chaplygin_block(
        zip(np.ndindex(T.shape), entries), which)
    assert len(index) == (4 if which == "evolution" else 5) * 4 * 4
    for polys, flagged in ((entries, row),
                           (chaplygin, index.index((1, 2, 3)))):
        want = _oracle(polys, s)
        assert list(want) == [flagged]
        assert ideal.reduce_terms(TermTable(polys), s) == want


_exp = st.integers(0, 2)
_monomial = st.lists(_exp, min_size=18, max_size=18).map(pack)
_coef = st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80))
_row = st.dictionaries(_monomial, _coef, max_size=6).map(
    lambda d: {k: c for k, c in d.items() if c})

_BIG = 2 ** 63 + 11


@settings(deadline=None, max_examples=80)
@given(rows=st.lists(_row, max_size=6), s=st.sampled_from([1, -1]))
@example(rows=[], s=1)
@example(rows=[{}, {}], s=-1)
@example(rows=[{_mono(X7=1): 1, _mono(X4=1): -1}, {}], s=1)
@example(rows=[{}, {_mono(X3=120): 1, _mono(X3=119, X9=1): _BIG},
               {_mono(X15=120, X1=7): -_BIG}, {}], s=-1)
@example(rows=[{_mono(X3=120): _BIG}, {_mono(X6=2): -1, 0: _BIG}], s=1)
def test_drawn_tables_match_dict_oracle(rows, s):
    table = TermTable(rows)
    assert len(table) == sum(map(len, rows))
    assert ideal.reduce_terms(table, s) == _oracle(rows, s)


@settings(deadline=None, max_examples=80)
@given(rows=st.lists(_row, min_size=1, max_size=5), data=st.data(),
       c=st.integers(-3, 3))
@example(rows=[{0: 2}, {_mono(X1=1): 1}], data=None, c=-2)
@example(rows=[{_mono(X1=1): 1}, {0: _BIG}], data=None, c=1)
def test_plus_constant_matches_the_dict_edit(rows, data, c):
    row = data.draw(st.integers(0, len(rows) - 1)) if data else 0
    want = [dict(t) for t in rows]
    want[row][0] = want[row].get(0, 0) + c
    if not want[row][0]:
        del want[row][0]
    table = TermTable(rows)
    got = table.plus_constant(row, c)
    assert list(got.polys()) == want
    assert list(table.polys()) == rows  # the original is unchanged
    assert np.array_equal(got.sizes, [len(t) for t in want])
    assert got.degree() == TermTable(want).degree()


def test_table_statistics_read_the_unreduced_entries():
    T = tensors.build_interaction_tensor((1, 1, 1))
    sizes = [len(t) for _, t in T.iter_entries()]
    assert T.term_counts() == (max(sizes), sum(sizes)) == (172, 129984)
    assert len(T.table) == sum(sizes)
    assert T.max_degree() == 13
    assert np.array_equal(np.bincount(T.table.rows, minlength=len(sizes)),
                          sizes)


def test_zero_reducer_leaves_the_mutation_unflagged(monkeypatch):
    # the benchmark's zero-reducer injection replaces certify.reduce_terms;
    # each certificate calls it once, so every verdict reads zero
    cert = C.certify((1, 1, 1), "evolution", preflight=False,
                     mutate_entry=(1, 2, 3))
    assert cert.entries_total == 1000 and cert.entries_nonzero == 1
    assert cert.witnesses == [{
        "entry": [1, 2, 3], "residue_terms": 1,
        "witness_monomial": {"exponents": [0] * 18, "coefficient": "1"}}]

    monkeypatch.setattr(C, "reduce_terms", lambda table, s: {})
    cert = C.certify((1, 1, 1), "evolution", preflight=False,
                     mutate_entry=(1, 2, 3))
    assert cert.verified and cert.witnesses == []
    assert cert.entries_total == 1000
