"""Exact projected interaction tensors.

Each bilinear interaction (eps1, eps2 eps3) of the evolution is the
10x10x10 tensor

    P^{eps1}(xi) . B(xi,eta) . [P^{eps2}(xi-eta) (x) P^{eps3}(eta)],

normalized by one factor -i |xi - eta| so every entry is an integer
polynomial in the eighteen layout variables (after clearing the halves
carried by the wave projectors).  The constraint interactions drop the
outer projector and have five rows.  Entries are built from the shared
quadratic tables of :mod:`abiwave.system` in two exact contractions:
B.(P2 (x) P3) first, then the outer P1 (see
:func:`build_interaction_tensor`).

Every projector entry and every tensor entry is a term dict of
:mod:`abiwave.symbolic._kernel_py` (packed monomial key -> nonzero
integer); :class:`InteractionTensor` holds the scale and states the
factor -i that the entries leave out.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .. import system
from . import _kernel_py

# variable bases per frequency slot: (unit-vector base, cosine base)
SLOT_XI = (0, 9)
SLOT_ETA = (3, 12)
SLOT_W = (6, 15)  # xi - eta


def projector_terms(branch: int, slot: tuple[int, int]):
    """10x10 matrix of term dicts for a projector at one slot.

    Wave branches are returned doubled (the entries of 2 P^{+-}) so all
    coefficients are integers; the kernel branch is returned as is.
    The caller tracks the factor-of-two count.  Kept hand-written: the
    float projectors derive from A0, so the float cross-check is independent.
    """
    ub, cb = slot
    u = [_kernel_py.variable(ub + i) for i in range(3)]
    al, be, de = (_kernel_py.variable(cb + i) for i in range(3))

    def m(*dicts, c=1):
        out = {0: c}
        for dd in dicts:
            out = _kernel_py.mul(out, dd)
        return out

    def cross(i, j):
        """Entries of the unit-vector cross matrix: C[i][j] x_j = (u ^ x)_i."""
        out: dict = {}
        for k in range(3):
            e = int(system.EPS[i, k, j])
            if e:
                _kernel_py.add_into(out, u[k], e)
        return out

    P = [[{} for _ in range(10)] for _ in range(10)]

    def addto(i, j, terms, c=1):
        _kernel_py.add_into(P[i][j], terms, c)

    if branch == 0:
        addto(0, 0, {0: 1})
        addto(0, 0, m(al, al), -1)
        for i in range(3):
            addto(0, 4 + i, m(al, be, u[i]), -1)
            addto(4 + i, 0, m(al, be, u[i]), -1)
            addto(0, 7 + i, m(al, de, u[i]), -1)
            addto(7 + i, 0, m(al, de, u[i]), -1)
            for j in range(3):
                if i == j:
                    addto(1 + i, 1 + j, m(al, al))
                    addto(4 + i, 4 + j, m(de, de))
                    addto(7 + i, 7 + j, m(be, be))
                    addto(4 + i, 7 + j, m(be, de), -1)
                    addto(7 + i, 4 + j, m(be, de), -1)
                addto(1 + i, 1 + j, m(al, al, u[i], u[j]), -1)
                addto(4 + i, 4 + j, m(al, al, u[i], u[j]))
                addto(7 + i, 7 + j, m(al, al, u[i], u[j]))
                C = cross(i, j)
                addto(1 + i, 4 + j, m(al, de, C), -1)
                addto(4 + i, 1 + j, m(al, de, C), +1)
                addto(1 + i, 7 + j, m(al, be, C), +1)
                addto(7 + i, 1 + j, m(al, be, C), -1)
        return P

    if branch not in (1, -1):
        raise ValueError("branch must be 0, +1 or -1")
    s = branch
    addto(0, 0, m(al, al))
    for i in range(3):
        addto(0, 1 + i, m(al, u[i]), s)
        addto(1 + i, 0, m(al, u[i]), s)
        addto(0, 4 + i, m(al, be, u[i]))
        addto(4 + i, 0, m(al, be, u[i]))
        addto(0, 7 + i, m(al, de, u[i]))
        addto(7 + i, 0, m(al, de, u[i]))
        for j in range(3):
            if i == j:
                addto(1 + i, 1 + j, {0: 1})
                addto(1 + i, 1 + j, m(al, al), -1)
                addto(1 + i, 4 + j, be, s)
                addto(4 + i, 1 + j, be, s)
                addto(1 + i, 7 + j, de, s)
                addto(7 + i, 1 + j, de, s)
                addto(4 + i, 4 + j, {0: 1})
                addto(4 + i, 4 + j, m(de, de), -1)
                addto(7 + i, 7 + j, {0: 1})
                addto(7 + i, 7 + j, m(be, be), -1)
                addto(4 + i, 7 + j, m(be, de))
                addto(7 + i, 4 + j, m(be, de))
            addto(1 + i, 1 + j, m(al, al, u[i], u[j]))
            addto(4 + i, 4 + j, m(al, al, u[i], u[j]), -1)
            addto(7 + i, 7 + j, m(al, al, u[i], u[j]), -1)
            C = cross(i, j)
            addto(1 + i, 4 + j, m(al, de, C))
            addto(4 + i, 1 + j, m(al, de, C), -1)
            addto(1 + i, 7 + j, m(al, be, C), -1)
            addto(7 + i, 1 + j, m(al, be, C))
            addto(4 + i, 7 + j, m(al, C), -s)
            addto(7 + i, 4 + j, m(al, C), +s)
    return P


@dataclass
class InteractionTensor:
    """Exact projected tensor, its scale and the build provenance.

    The tensor is ``-i * 2^-scale_log2 * entries``: the entries are
    integer term dicts, the halves of the wave projectors are cleared
    into ``scale_log2``, and the one factor -i of the single derivative
    is held by no field, since it changes neither reduction nor
    zero-ness.
    """

    eps: tuple[int, int, int]  # (eps1, eps2, eps3); eps1 ignored for Nprime
    which: str                 # "evolution" or "constraint"
    entries: list              # nested lists [i][j][k] of term dicts
    scale_log2: int            # cleared projector halves

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.entries), 10, 10)

    def iter_entries(self):
        for i, plane in enumerate(self.entries):
            for j, line in enumerate(plane):
                for k, terms in enumerate(line):
                    yield (i, j, k), terms

    @cached_property
    def table(self) -> _kernel_py.TermTable:
        """The entries, in :meth:`iter_entries` order, as one term table.

        Built on first use and kept with the tensor: the float
        cross-check, the reduction and the statistics below all read it.
        """
        return _kernel_py.TermTable(t for _, t in self.iter_entries())

    def max_degree(self) -> int:
        """Largest total degree of an entry (before reduction)."""
        return self.table.degree()

    def term_counts(self) -> tuple[int, int]:
        """(largest, total) term count of the entries, before reduction."""
        sizes = self.table.sizes
        return (int(sizes.max(initial=0)), int(sizes.sum()))

    def evaluator(self):
        """Batch numeric evaluator: (npoints, 18) -> (npoints, *shape).

        Built on :func:`abiwave.symbolic._kernel_py.evaluator` over
        :attr:`table`: each call evaluates every distinct monomial once
        from a per-variable power table and contracts with the sparse
        (entries x monomials) coefficient matrix, so the float
        cross-check gate is cheap.  The scale 2^-scale_log2 is included;
        the factor -i is not.
        """
        evaluate = _kernel_py.evaluator(self.table)
        shape = self.shape
        scale = 2.0 ** self.scale_log2

        def _eval(points: np.ndarray) -> np.ndarray:
            vals = evaluate(points)
            return vals.reshape((len(vals),) + shape) / scale

        return _eval


def _max_degree(matrix) -> int:
    """Largest total degree among a projector's entries (0 for None)."""
    if matrix is None:
        return 0
    return _kernel_py.degree(key for line in matrix for t in line
                             for key in t)


def build_interaction_tensor(eps: tuple[int, int, int],
                             which: str = "evolution") -> InteractionTensor:
    """Contract the quadratic table with the slot projectors, exactly.

    The differentiated factor sits in the xi - eta slot; its direction
    index enters as the corresponding unit-vector variable X7..X9.  The
    contraction runs in two stages:

    1. inner: ``inner[row][j][k] = sum sign * (P2[c][j] X_dir) * P3[a][k]``
       over the table terms ``(row, a, c, dir, sign)``, i.e. B.(P2 (x) P3);
    2. outer: ``entries[i][j][k] = sum_row P1[i][row] * inner[row][j][k]``.

    By associativity of the exact polynomial product this is the same
    sum as forming every P1 * (P2 * X_dir) * P3 term by term, so every
    entry is identical; it is cheaper because the terms of each inner
    sum are merged before the outer projector multiplies them.  The
    constraint interactions have no outer projector: their entries are
    the inner stage.
    """
    e1, e2, e3 = eps
    if which not in ("evolution", "constraint"):
        raise ValueError("which must be 'evolution' or 'constraint'")
    for e in ((e1, e2, e3) if which == "evolution" else (e2, e3)):
        if e not in (1, -1):
            raise ValueError("tensor build needs wave-branch signs only")
    P2 = projector_terms(e2, SLOT_W)
    P3 = projector_terms(e3, SLOT_ETA)
    if which == "evolution":
        P1 = projector_terms(e1, SLOT_XI)
        terms_table, nrows, scale = system.EVOLUTION_TERMS, 10, 3
    else:
        P1 = None
        terms_table, nrows, scale = system.CONSTRAINT_TERMS, 5, 2
    # every inner term has degree at most deg(P2 * X_dir) + deg P3 and
    # every outer product adds deg P1: check the packing bound once here
    if (_max_degree(P1) + _max_degree(P2) + 1 + _max_degree(P3)
            > _kernel_py.MAX_EXP):
        raise OverflowError("product degree exceeds packing capacity")

    inner = [[[dict() for _ in range(10)] for _ in range(10)]
             for _ in range(nrows)]
    folded = {}  # (c_diff, jdir) -> nonzero (j, P2[c_diff][j] * X_dir)
    for row, a_undiff, c_diff, jdir, sign in terms_table:
        if (c_diff, jdir) not in folded:
            dvar = _kernel_py.variable(SLOT_W[0] + jdir)
            folded[c_diff, jdir] = [(j, _kernel_py.mul(p2, dvar))
                                    for j, p2 in enumerate(P2[c_diff]) if p2]
        p3_line = [(k, p3) for k, p3 in enumerate(P3[a_undiff]) if p3]
        for j, m2 in folded[c_diff, jdir]:
            line = inner[row][j]
            for k, p3 in p3_line:
                _kernel_py.mul_add_into(line[k], sign, m2, p3)
    if P1 is None:
        entries = inner
    else:
        entries = [[[dict() for _ in range(10)] for _ in range(10)]
                   for _ in range(10)]
        for i in range(10):
            for row, p1 in enumerate(P1[i]):
                if not p1:
                    continue
                for j, line in enumerate(inner[row]):
                    for k, q in enumerate(line):
                        _kernel_py.mul_add_into(entries[i][j][k], 1, p1, q)
    return InteractionTensor(eps=(e1, e2, e3), which=which, entries=entries,
                             scale_log2=scale)


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
