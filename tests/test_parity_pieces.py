"""The parity pieces of the interaction tensors and the batched certificates.

``certify_all`` certifies each kind from one contraction of the even
and odd projector parts: the pieces T_sigma, whose signed sums are the
tensors, and the Hadamard groups of each orientation, whose residues
give every certificate's.  Single ``certify`` calls build and reduce
each tensor directly and are the reference.
"""
import numpy as np
import pytest

from abiwave.resonance import InteractionSpec
from abiwave.state import ConstantState
from abiwave.symbolic import _kernel_py, tensors
from abiwave.symbolic import certify as C

STATE = ConstantState(tau0=0.8, b0=(0.6, 0.2, -0.1), d0=(-0.3, 0.5, 0.2))

INTERACTIONS = ([((e1, e2, e3), "evolution") for e1 in (1, -1)
                 for e2 in (1, -1) for e3 in (1, -1)]
                + [((0, e2, e3), "constraint") for e2 in (1, -1)
                   for e3 in (1, -1)])
IDS = [InteractionSpec(*e).label().replace("0", "'") for e, _ in INTERACTIONS]


@pytest.fixture(scope="module")
def pieces():
    return {which: tensors.build_parity_pieces(which)
            for which in ("evolution", "constraint")}


def _sorted_terms(rows, keys, coefs):
    """(row, key halves, coefficient) of every term, in one sorted array."""
    terms = np.column_stack([rows, keys, coefs])
    return terms[np.lexsort(terms.T[::-1])]


@pytest.mark.parametrize("eps,which", INTERACTIONS, ids=IDS)
def test_tensor_is_the_signed_sum_of_disjoint_pieces(pieces, eps, which):
    P = pieces[which]
    t = P.table
    piece, entry = P.split(t.rows)
    # every monomial belongs to one piece: no two pieces share a term
    owners = np.zeros((len(t.exps), len(P.signs(eps))), dtype=bool)
    owners[t.cols, piece] = True
    assert np.all(owners.sum(axis=1) == 1)
    # T(eps) = sum over sigma of eps^sigma T_sigma, term by term
    T = tensors.build_interaction_tensor(eps, which).table
    halves = _kernel_py.pack_halves
    got = _sorted_terms(entry, halves(t.exps.astype(np.int64))[t.cols],
                        P.signs(eps)[piece] * t.coefs)
    want = _sorted_terms(T.rows, halves(T.exps.astype(np.int64))[T.cols],
                         T.coefs)
    assert np.array_equal(got, want)
    assert np.array_equal(P.entry_sizes(), T.sizes)
    assert P.table.degree() == T.degree()


def _fields(cert):
    """A certificate's fields apart from its times."""
    return {k: v for k, v in cert.to_dict().items()
            if k != "millis" and not k.endswith("_ms")}


@pytest.mark.parametrize("opts", [{}, {"subsystem": "chaplygin"},
                                  {"with_cofactors": True}],
                         ids=["full", "chaplygin", "cofactors"])
def test_certify_all_equals_one_certify_per_interaction(opts):
    batch = C.certify_all(state=STATE, **opts)
    single = [C.certify(eps, which, STATE, preflight=False, **opts)
              for eps, which in INTERACTIONS]
    assert [_fields(c) for c in batch] == [_fields(c) for c in single]
    assert all(c.verified for c in batch)
    for c in batch:
        stages = (c.build_ms, c.preflight_ms, c.reduce_ms)
        assert min(stages) > 0.0 and sum(stages) <= c.millis


@pytest.mark.parametrize("which,sigma,entry", [
    ("evolution", (1, 0, 1), (1, 2, 3)),
    ("evolution", (0, 1, 1), (9, 0, 4)),
    ("constraint", (1, 1), (0, 4, 0)),
])
def test_a_mutated_piece_is_flagged_in_every_certificate(
        monkeypatch, pieces, which, sigma, entry):
    # +1 in one piece's entry enters every tensor of the kind with its
    # sign eps^sigma, so each certificate has that entry, and it alone,
    # nonzero; the groups' residues give it exactly
    P = pieces[which]
    sigma = (0,) * (3 - len(sigma)) + sigma
    i, j, k = entry
    row = (((10 * sigma[0] + i) * 20 + 10 * sigma[1] + j) * 20
           + 10 * sigma[2] + k)
    mutated = tensors.ParityPieces(which, P.table.plus_constant(row, 1),
                                   P.scale_log2)
    piece, at = P.split(np.array([row]))
    assert (piece[0], at[0]) == ((sigma[0] * 2 + sigma[1]) * 2 + sigma[2],
                                 (i * 10 + j) * 10 + k)
    monkeypatch.setattr(C, "build_parity_pieces", lambda which: mutated)
    certs = C.certify_all((which,), preflight=False)
    assert len(certs) == (8 if which == "evolution" else 4)
    for cert, (eps, _) in zip(certs, [job for job in INTERACTIONS
                                      if job[1] == which]):
        sign = int(np.prod([e for e, s in zip(eps, sigma) if s]))
        assert cert.entries_nonzero == 1
        assert cert.witnesses == [{
            "entry": list(entry), "residue_terms": 1,
            "witness_monomial": {"exponents": [0] * 18,
                                 "coefficient": str(sign)}}]


@pytest.mark.parametrize("slot,which", [(tensors.SLOT_XI, "evolution"),
                                        (tensors.SLOT_W, "constraint"),
                                        (tensors.SLOT_ETA, "constraint")],
                         ids=["xi", "xi-eta", "eta"])
def test_a_negated_odd_part_fails_the_float_gate(monkeypatch, slot, which):
    # the pieces would then sum to the tensors of the other sign in that
    # slot, which the float composition tells apart
    real = tensors.projector_parts

    def negated(at):
        E, O = real(at)
        if at == slot:
            O = [[{key: -c for key, c in t.items()} for t in line]
                 for line in O]
        return E, O

    monkeypatch.setattr(tensors, "projector_parts", negated)
    with pytest.raises(C.PreflightError, match="float cross-check"):
        C.certify_all((which,), STATE)
