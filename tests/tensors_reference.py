"""Direct triple-product tensor build the package is tested against.

The interaction tensors as the package built them before
:func:`abiwave.symbolic.tensors.build_interaction_tensor` split the
contraction into an inner B.(P2 (x) P3) stage and an outer P1 stage:
every product P1 * (P2 * X_dir) * P3 is expanded term by term straight
into the entry it lands in, with its own three-factor loop.  It is the
differential oracle of the two-stage build: entries must be equal as
term dicts.  :func:`chaplygin_block` is the (tau, v) subsystem as the
certifier formed it from term dicts, one entry at a time, before
:meth:`abiwave.symbolic.tensors.InteractionTensor.chaplygin_block`
read it off the term table.  :func:`build_table` is the NumPy build as
it formed the outer P1 stage, every product at once, and numbered the
monomials of the whole tensor by one final merge by (code, entry) and a
stable sort of the entries, before the outer stage was merged one P1
line at a time; it is the oracle of the table's arrays, bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from abiwave import system
from abiwave.symbolic import _kernel_py
from abiwave.symbolic._kernel_py import variable
from abiwave.symbolic.tensors import (SLOT_ETA, SLOT_W, SLOT_XI,
                                      _projector_table, projector_terms)


def _mul3_add_into(acc: dict, c: int, p: dict, q: dict, r: dict) -> None:
    """acc += c * p * q * r, dropping cancelled terms."""
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            k12 = k1 + k2
            v12 = c * v1 * v2
            for k3, v3 in r.items():
                k = k12 + k3
                nv = acc.get(k, 0) + v12 * v3
                if nv:
                    acc[k] = nv
                else:
                    del acc[k]


def build_entries(eps: tuple[int, int, int], which: str = "evolution"):
    """Nested lists [i][j][k] of term dicts, the entries that
    ``tensor.iter_entries()`` reads from the table."""
    e1, e2, e3 = eps
    P2 = projector_terms(e2, SLOT_W)
    P3 = projector_terms(e3, SLOT_ETA)
    if which == "evolution":
        P1, terms_table, nrows = (projector_terms(e1, SLOT_XI),
                                  system.EVOLUTION_TERMS, 10)
    else:
        P1, terms_table, nrows = None, system.CONSTRAINT_TERMS, 5
    entries = [[[dict() for _ in range(10)] for _ in range(10)]
               for _ in range(nrows)]
    for row, a_undiff, c_diff, jdir, sign in terms_table:
        dvar = variable(SLOT_W[0] + jdir)
        outer = ([(row, {0: 1})] if P1 is None else
                 [(i, P1[i][row]) for i in range(10) if P1[i][row]])
        for j in range(10):
            m2 = _kernel_py.mul(P2[c_diff][j], dvar)
            if not m2:
                continue
            for k in range(10):
                p3 = P3[a_undiff][k]
                if not p3:
                    continue
                for i, p1 in outer:
                    _mul3_add_into(entries[i][j][k], sign, p1, m2, p3)
    return entries


def chaplygin_substitute(terms: dict) -> dict:
    """Evaluate alpha = 1, beta = delta = 0 in every slot.

    This is the four-component (tau, v) subsystem reduction: monomials
    containing any beta or delta variable vanish, alpha exponents drop.
    """
    bits = _kernel_py.BITS
    mask = _kernel_py.MASK
    out: dict = {}
    alphas = (9, 12, 15)
    zeroed = (10, 11, 13, 14, 16, 17)
    for key, v in terms.items():
        if any((key >> (bits * z)) & mask for z in zeroed):
            continue
        nk = key
        for a in alphas:
            e = (nk >> (bits * a)) & mask
            if e:
                nk -= e << (bits * a)
        nv = out.get(nk, 0) + v
        if nv:
            out[nk] = nv
        else:
            del out[nk]
    return out


def chaplygin_block(entries, which: str):
    """(index, term dicts) of the (tau, v) block of ((i, j, k), terms) pairs.

    Keeps, in order, the entries with j, k < 4 (and i < 4 for the
    evolution) and substitutes each one with :func:`chaplygin_substitute`.
    """
    block = [((i, j, k), chaplygin_substitute(terms))
             for (i, j, k), terms in entries
             if (which != "evolution" or i < 4) and j < 4 and k < 4]
    return [idx for idx, _ in block], [terms for _, terms in block]


def build_table(eps: tuple[int, int, int], which: str = "evolution"):
    """The tensor's TermTable, from whole-array outer products.

    The inner stage, the radix and the codes are those of
    ``build_interaction_tensor``; its overflow checks are left out.
    """
    e1, e2, e3 = eps
    P2 = _projector_table(e2, SLOT_W)
    P3 = _projector_table(e3, SLOT_ETA)
    if which == "evolution":
        P1 = _projector_table(e1, SLOT_XI)
        terms_table, nrows = system.EVOLUTION_TERMS, 10
    else:
        P1 = None
        terms_table, nrows = system.CONSTRAINT_TERMS, 5
    projectors = [P for P in (P1, P2, P3) if P is not None]
    row_t, a_t, c_t, dir_t, sign_t = np.array(terms_table, dtype=np.int64).T
    dvar = SLOT_W[0] + dir_t
    top = sum(P.exps.max(axis=0, initial=0).astype(np.int64)
              for P in projectors)
    top[np.unique(dvar)] += 1
    radix = top + 1
    ncodes = math.prod(radix.tolist())
    nentries = nrows * 100
    place = np.cumprod(np.concatenate(([1], radix[:-1])))

    def codes(P):
        return (P.exps.astype(np.int64) @ place)[P.cols]

    size2, size3 = (P.sizes.reshape(10, 10).sum(axis=1) for P in (P2, P3))
    start2, start3 = np.cumsum(size2) - size2, np.cumsum(size3) - size3
    col2, col3 = P2.rows % 10, P3.rows % 10
    count = size2[c_t] * size3[a_t]
    t = np.repeat(np.arange(len(count)), count)
    local = _kernel_py.ranges(np.zeros_like(count), count)
    width = size3[a_t][t]
    n2 = start2[c_t][t] + local // width
    n3 = start3[a_t][t] + local % width
    entry = (row_t[t] * 10 + col2[n2]) * 10 + col3[n3]
    code = codes(P2)[n2] + place[dvar][t] + codes(P3)[n3]
    coef = (sign_t[t] * P2.coefs.astype(np.int64)[n2]
            * P3.coefs.astype(np.int64)[n3])
    if P1 is not None:
        entry, code, coef = _kernel_py.merge(entry, code, coef, ncodes)
        size = np.bincount(entry // 100, minlength=nrows)
        start = np.cumsum(size) - size
        line1, col1 = np.divmod(P1.rows, 10)
        count = size[col1]
        n = _kernel_py.ranges(start[col1], count)
        entry = np.repeat(line1 * 100, count) + (entry % 100)[n]
        code = np.repeat(codes(P1), count) + code[n]
        coef = np.repeat(P1.coefs.astype(np.int64), count) * coef[n]
    # merged monomial first, so equal codes are adjacent, then put back
    # in entry order by a stable (radix) sort of the small entry numbers
    code, entry, coef = _kernel_py.merge(code, entry, coef, nentries)
    new = np.diff(code, prepend=-1) != 0
    cols = np.cumsum(new) - 1
    rest = code[new]
    exps = np.empty((len(rest), _kernel_py.NVARS), dtype=np.int8)
    for v, r in enumerate(radix.tolist()):  # digits low to high
        rest, exps[:, v] = np.divmod(rest, r)
    order = np.argsort(entry.astype(np.int16), kind="stable")
    return _kernel_py.TermTable.from_arrays(
        exps, entry[order], cols[order], coef[order], nentries)
