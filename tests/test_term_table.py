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


def _with_coefs(table, dtype):
    """A copy of a term table with its coefficients cast to ``dtype``."""
    return TermTable.from_arrays(table.exps, table.rows, table.cols,
                                 table.coefs.astype(dtype), len(table.sizes))


@pytest.mark.parametrize("eps,which", INTERACTIONS,
                         ids=[InteractionSpec(*e).label().replace("0", "'")
                              for e, _ in INTERACTIONS])
def test_int64_tables_reduce_as_their_python_int_copies(eps, which,
                                                        monkeypatch):
    # differential test against the Python-int arithmetic the reduction
    # ran before it kept the build's int64 coefficients
    T = tensors.build_interaction_tensor(eps, which)
    s = eps[1] * eps[2]
    # (table, its nonzero residues); a constraint block is empty
    cases = [(T.table, {}), (T.chaplygin_block()[1], {})]
    if eps == (1, 1, 1):
        # entry (1, 2, 3) plus one
        cases.append((T.table.plus_constant(123, 1), {123: {0: 1}}))
    kept = []
    widened = TermTable.widened

    def spy(table, factor=1):
        out = widened(table, factor)
        kept.append(out is table)
        return out

    monkeypatch.setattr(TermTable, "widened", spy)
    for table, want in cases:
        assert table.coefs.dtype == np.int64
        kept.clear()
        got = ideal.reduce_terms(table, s)
        # reduced in int64: no real table is converted
        assert kept == ([True] if len(table) else [])
        assert got == want
        assert got == ideal.reduce_terms(_with_coefs(table, object), s)
        assert all(type(c) is int for r in got.values() for c in r.values())


def test_mutated_certificate_is_the_same_from_python_ints(monkeypatch):
    args = ((1, 1, 1), "evolution")
    want = C.certify(*args, preflight=False, mutate_entry=(1, 2, 3))
    build = C.build_interaction_tensor

    def python_int_build(eps, which):
        T = build(eps, which)
        T.table = _with_coefs(T.table, object)
        return T

    monkeypatch.setattr(C, "build_interaction_tensor", python_int_build)
    got = C.certify(*args, preflight=False, mutate_entry=(1, 2, 3))
    assert (got.entries_total, got.entries_nonzero, got.witnesses) == \
        (want.entries_total, want.entries_nonzero, want.witnesses)
    assert got.witnesses[0]["entry"] == [1, 2, 3]


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


_int64 = st.one_of(st.integers(-3, 3), st.integers(-2 ** 63, 2 ** 63 - 1),
                   st.sampled_from([-2 ** 63, 2 ** 63 - 1]))
_row64 = st.dictionaries(_monomial, _int64, max_size=6).map(
    lambda d: {k: c for k, c in d.items() if c})


@settings(deadline=None, max_examples=80)
@given(rows=st.lists(_row64, max_size=6), s=st.sampled_from([1, -1]))
# X7 -> s X4 merges 2^62 + 2^62 in stage one, past int64
@example(rows=[{_mono(X4=1): 2 ** 62, _mono(X7=1): 2 ** 62}], s=1)
@example(rows=[{_mono(X4=1): 2 ** 62, _mono(X7=1): -2 ** 62}], s=-1)
# the sign flip of -2^63; a stage-two rewrite that cancels a term
@example(rows=[{_mono(X7=1): -2 ** 63}], s=-1)
@example(rows=[{_mono(X3=2): 2 ** 62, _mono(X1=2): 2 ** 62}], s=1)
# (1 - X1^2 - X2^2)^2 has the term 2 X1^2 X2^2: a residue of 2^63
@example(rows=[{_mono(X3=4): 2 ** 62}], s=1)
@example(rows=[{_mono(X3=2, X6=2): 3, 0: -3}], s=1)
def test_drawn_int64_tables_match_dict_oracle(rows, s):
    table = _with_coefs(TermTable(rows), np.int64)
    got = ideal.reduce_terms(table, s)
    assert got == _oracle(rows, s)
    assert all(type(c) is int for r in got.values() for c in r.values())


def _ordered(residues):
    """The residues with the order of their rows and of their terms."""
    return [(row, list(terms.items())) for row, terms in residues.items()]


@settings(deadline=None, max_examples=60)
@given(rows=st.lists(st.one_of(_row, _row64), max_size=8),
       wide=st.booleans(), s=st.sampled_from([1, -1]))
# empty rows around a row of six terms, longer than blocks of 1 and 3
@example(rows=[{}, {_mono(X3=2, X7=1): 3, _mono(X9=1): -1, _mono(X1=1): 2,
                    _mono(X6=3): 1, _mono(X4=1, X8=1): -5, 0: 7}, {}, {}],
         wide=False, s=-1)
@example(rows=[{_mono(X7=1): 1, _mono(X4=1): -1}, {}, {_mono(X3=2): _BIG}],
         wide=True, s=1)
def test_row_blocks_of_any_size_reduce_as_the_default(rows, wide, s):
    # int64 coefficients where they fit and ``wide`` is off, else objects
    table = TermTable(rows)
    if not wide and all(-2 ** 63 <= c < 2 ** 63 for c in table.coefs):
        table = _with_coefs(table, np.int64)
    want = ideal.reduce_terms(table, s)
    for block in (1, 3, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ideal, "_BLOCK", block)
            assert _ordered(ideal.reduce_terms(table, s)) == _ordered(want)


@pytest.mark.parametrize("eps", [(1, 1, 1), (-1, 1, -1)],
                         ids=["+,++", "-,+-"])
def test_tensor_row_blocks_of_any_size_reduce_as_the_default(eps,
                                                             monkeypatch):
    # three mutated entries, one in the last row, so residues fall in
    # several blocks
    table = tensors.build_interaction_tensor(eps).table
    for row, c in ((0, 1), (123, -2), (999, 3)):
        table = table.plus_constant(row, c)
    s = eps[1] * eps[2]
    want = ideal.reduce_terms(table, s)
    assert list(want) == [0, 123, 999]
    for block in (1, 3, 64):
        monkeypatch.setattr(ideal, "_BLOCK", block)
        assert _ordered(ideal.reduce_terms(table, s)) == _ordered(want)


_MAX64 = 2 ** 63 - 1


@pytest.mark.parametrize("row, c", [(0, 1), (0, -1), (0, -_MAX64),
                                    (1, 1), (1, 2 ** 63), (1, 0), (0, 2 ** 70)])
def test_plus_constant_on_an_int64_table_stays_exact(row, c):
    rows = [{0: _MAX64, _mono(X1=1): -2 ** 63}, {_mono(X2=1): 5}]
    table = _with_coefs(TermTable(rows), np.int64)
    want = [dict(t) for t in rows]
    want[row][0] = want[row].get(0, 0) + c
    if not want[row][0]:
        del want[row][0]
    got = table.plus_constant(row, c)
    assert list(got.polys()) == want
    assert list(table.polys()) == rows  # the original is unchanged
    assert table.coefs.dtype == np.int64
    fits = all(-2 ** 63 <= v <= _MAX64 for t in want for v in t.values())
    assert got.coefs.dtype == (np.int64 if fits else object)


def test_chaplygin_block_of_an_int64_table_sums_exactly():
    # alpha = 1 takes X10 and X10^2 of entry (0, 0, 0) to one constant
    entries = [{_mono(X10=1): 2 ** 62, _mono(X10=2): 2 ** 62}] + [{}] * 999
    T = tensors.InteractionTensor(
        eps=(1, 1, 1), which="evolution", scale_log2=3,
        table=_with_coefs(TermTable(entries), np.int64))
    _, block = T.chaplygin_block()
    assert next(block.polys()) == {0: 2 ** 63}


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
