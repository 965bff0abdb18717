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

The projector entries are term dicts of
:mod:`abiwave.symbolic._kernel_py`.  The contractions run on NumPy
arrays: every monomial is one int64 mixed-radix code, so a monomial
product is a code sum, and the result is the tensor's
:class:`~abiwave.symbolic._kernel_py.TermTable`, which
:class:`InteractionTensor` holds with the scale; it states the factor
-i that the entries leave out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import system
from . import _kernel_py

# variable bases per frequency slot: (unit-vector base, cosine base)
SLOT_XI, SLOT_ETA, SLOT_W = _kernel_py.SLOT_BASES  # SLOT_W: xi - eta


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

    def m(*factors, c=1):
        """c times a product of monomials; {} if a factor is zero."""
        key = 0
        for f in factors:
            if not f:
                return {}
            (k, v), = f.items()
            key += k
            c *= v
        return {key: c}

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

    The tensor is ``-i * 2^-scale_log2 * entries``: the entries are the
    rows of ``table``, entry (i, j, k) in row ``(i * 10 + j) * 10 + k``;
    the halves of the wave projectors are cleared into ``scale_log2``,
    and the one factor -i of the single derivative is held by no field,
    since it changes neither reduction nor zero-ness.
    """

    eps: tuple[int, int, int]  # (eps1, eps2, eps3); eps1 ignored for Nprime
    which: str                 # "evolution" or "constraint"
    table: _kernel_py.TermTable  # the entries, one row each
    scale_log2: int            # cleared projector halves

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.table.sizes) // 100, 10, 10)

    def iter_entries(self):
        """((i, j, k), term dict) of every entry, read from the table."""
        return zip(np.ndindex(self.shape), self.table.polys())

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
        from its three slot factors and sums each entry's terms, so the
        float cross-check gate is cheap.  The scale 2^-scale_log2 is
        included; the factor -i is not.
        """
        evaluate = _kernel_py.evaluator(self.table)
        shape = self.shape
        scale = 2.0 ** self.scale_log2

        def _eval(points: np.ndarray) -> np.ndarray:
            vals = evaluate(points)
            return vals.reshape((len(vals),) + shape) / scale

        return _eval


class _Terms:
    """A projector's terms as arrays, listed line by line.

    Term n lies in entry ``[line[n]][col[n]]`` and has the exponent row
    ``exps[n]`` and the Python int coefficient ``coefs[n]``; line r
    holds the ``size[r]`` terms from ``start[r]`` on.
    """

    def __init__(self, matrix):
        keys, coefs, line, col = [], [], [], []
        for r, entries in enumerate(matrix):
            for c, terms in enumerate(entries):
                keys.extend(terms)
                coefs.extend(terms.values())
                line.extend([r] * len(terms))
                col.extend([c] * len(terms))
        self.line = np.array(line, dtype=np.int64)
        self.col = np.array(col, dtype=np.int64)
        self.size = np.bincount(self.line, minlength=len(matrix))
        self.start = np.cumsum(self.size) - self.size
        self.exps = _kernel_py.exponents(keys)
        self.coefs = coefs
        self.degree = int(self.exps.sum(axis=1).max(initial=0))
        self.top = self.exps.max(axis=0, initial=0)

    def abs_sums(self, groups, n: int) -> list:
        """Sum of |coefficient| over the terms of each of ``n`` groups."""
        out = [0] * n
        for g, c in zip(groups.tolist(), self.coefs):
            out[g] += abs(c)
        return out


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

    Each stage forms all its term products at once with NumPy.  A
    monomial is the int64 code ``sum_v e_v * place_v`` of a mixed radix
    whose digit for variable v is one more than the sum of the largest
    exponents of v in P1, P2 * X_dir and P3.  No digit of a product can
    reach its radix, so multiplying monomials adds codes.  A stage
    merges its products by (entry, code) with
    :func:`abiwave.symbolic._kernel_py.merge`, and only the distinct
    monomials of the result are decoded.  Three bounds are checked once
    per tensor, each raising OverflowError past it:

    * the total degree of every product fits a packed key (``MAX_EXP``);
    * entries times the number of codes is at most 2**63, so every
      (entry, code) merge key is an int64;
    * the sum of |coefficient| over every product of the direct triple
      expansion is below 2**63.  It bounds every int64 partial sum of
      both stages, so the coefficients are exact.
    """
    e1, e2, e3 = eps
    if which not in ("evolution", "constraint"):
        raise ValueError("which must be 'evolution' or 'constraint'")
    for e in ((e1, e2, e3) if which == "evolution" else (e2, e3)):
        if e not in (1, -1):
            raise ValueError("tensor build needs wave-branch signs only")
    P2 = _Terms(projector_terms(e2, SLOT_W))
    P3 = _Terms(projector_terms(e3, SLOT_ETA))
    if which == "evolution":
        P1 = _Terms(projector_terms(e1, SLOT_XI))
        terms_table, nrows, scale = system.EVOLUTION_TERMS, 10, 3
    else:
        P1 = None
        terms_table, nrows, scale = system.CONSTRAINT_TERMS, 5, 2
    if ((P1.degree if P1 else 0) + P2.degree + 1 + P3.degree
            > _kernel_py.MAX_EXP):
        raise OverflowError("product degree exceeds packing capacity")
    # each inner product counted once per P1 term of its row, and at
    # least once: no stage's absolute product sum is larger
    l1 = P1.abs_sums(P1.col, nrows) if P1 else [1] * nrows
    l2 = P2.abs_sums(P2.line, 10)
    l3 = P3.abs_sums(P3.line, 10)
    if sum(max(l1[row], 1) * l2[c] * l3[a]
           for row, a, c, _, _ in terms_table) >= 2 ** 63:
        raise OverflowError("coefficient sums exceed int64")

    row_t, a_t, c_t, dir_t, sign_t = np.array(terms_table, dtype=np.int64).T
    dvar = SLOT_W[0] + dir_t
    top = P2.top + P3.top + (P1.top if P1 else 0)
    top[np.unique(dvar)] += 1
    radix = top + 1
    ncodes = math.prod(radix.tolist())
    nentries = nrows * 100
    if ncodes * nentries > 2 ** 63:
        raise OverflowError("monomial codes exceed int64")
    place = np.cumprod(np.concatenate(([1], radix[:-1])))

    # inner products: every P2 term of line c with every P3 term of
    # line a, for each table term t = (row, a, c, dir, sign)
    count = P2.size[c_t] * P3.size[a_t]
    t = np.repeat(np.arange(len(count)), count)
    local = _kernel_py.ranges(np.zeros_like(count), count)
    width = P3.size[a_t][t]
    n2 = P2.start[c_t][t] + local // width
    n3 = P3.start[a_t][t] + local % width
    entry = (row_t[t] * 10 + P2.col[n2]) * 10 + P3.col[n3]
    code = (P2.exps @ place)[n2] + place[dvar][t] + (P3.exps @ place)[n3]
    coef = (sign_t[t] * np.array(P2.coefs, dtype=np.int64)[n2]
            * np.array(P3.coefs, dtype=np.int64)[n3])
    if P1 is not None:
        entry, code, coef = _kernel_py.merge(entry, code, coef, ncodes)
        size = np.bincount(entry // 100, minlength=nrows)
        start = np.cumsum(size) - size
        # P1 term n meets the inner terms of its column's row
        count = size[P1.col]
        n = _kernel_py.ranges(start[P1.col], count)
        entry = np.repeat(P1.line * 100, count) + (entry % 100)[n]
        code = np.repeat(P1.exps @ place, count) + code[n]
        coef = np.repeat(np.array(P1.coefs, dtype=np.int64), count) * coef[n]
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
    table = _kernel_py.TermTable.from_arrays(
        exps, entry[order], cols[order], coef[order].astype(object), nentries)
    return InteractionTensor(eps=(e1, e2, e3), which=which, table=table,
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
