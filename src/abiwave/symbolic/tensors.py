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
:mod:`abiwave.symbolic._kernel_py`, read into one
:class:`~abiwave.symbolic._kernel_py.TermTable` per projector (entry
[line][col] in row 10 line + col).  The contractions run on NumPy
arrays: every monomial is one int64 mixed-radix code, so a monomial
product is a code sum, and the result is the tensor's
:class:`~abiwave.symbolic._kernel_py.TermTable`, with the int64
coefficients the contractions computed, which
:class:`InteractionTensor` holds with the scale; it states the factor
-i that the entries leave out, and cuts the (tau, v) block of the
chaplygin subsystem from it (:meth:`InteractionTensor.chaplygin_block`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import system
from . import _kernel_py

# variable bases per frequency slot: (unit-vector base, cosine base)
SLOT_XI, SLOT_ETA, SLOT_W = _kernel_py.SLOT_BASES  # SLOT_W: xi - eta
# the (tau, v) block of a tensor: entries (i, j, k) with j, k < 4, and
# i < 4 for the evolution; a constraint tensor keeps its five rows
CHAPLYGIN_SHAPES = {"evolution": (4, 4, 4), "constraint": (5, 4, 4)}
_ALPHA = [c for _, c in _kernel_py.SLOT_BASES]
_BETA_DELTA = [c + n for _, c in _kernel_py.SLOT_BASES for n in (1, 2)]


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

    def m(*factors):
        """A product of monomials; {} if a factor is zero."""
        key, c = 0, 1
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

    def chaplygin_block(self):
        """The (tau, v) subsystem of the entries, as (index, table).

        Row r of the table is entry ``index[r]`` of the block
        ``CHAPLYGIN_SHAPES[which]``, in order, evaluated at alpha = 1 and
        beta = delta = 0 in every slot: terms with a beta or delta
        exponent are dropped, alpha exponents are set to zero and equal
        (row, monomial) terms are merged.
        """
        shape = CHAPLYGIN_SHAPES[self.which]
        t = self.table.widened()  # the merge's int64 sums stay exact
        i, j, k = np.unravel_index(t.rows, self.shape)
        alive = ~t.exps[:, _BETA_DELTA].any(axis=1)
        keep = ((i < shape[0]) & (j < shape[1]) & (k < shape[2])
                & alive[t.cols])
        exps = t.exps[t.cols[keep]]
        exps[:, _ALPHA] = 0
        monos, mono = _kernel_py.distinct(exps)
        rows = np.ravel_multi_index((i[keep], j[keep], k[keep]), shape)
        rows, cols, coefs = _kernel_py.merge(rows, mono, t.coefs[keep],
                                             len(monos))
        table = _kernel_py.TermTable.from_arrays(monos, rows, cols, coefs,
                                                 math.prod(shape))
        return list(np.ndindex(shape)), table

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


def _projector_table(branch: int, slot: tuple[int, int]):
    """:func:`projector_terms` as a TermTable: entry [line][col] is row
    ``10 * line + col``."""
    return _kernel_py.TermTable(
        terms for line in projector_terms(branch, slot) for terms in line)


def _abs_sums(groups: np.ndarray, coefs: np.ndarray, n: int) -> list:
    """Sum of |coefficient| over the terms of each of ``n`` groups."""
    out = [0] * n
    for g, c in zip(groups.tolist(), coefs.tolist()):
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

    The inner stage forms all its term products at once with NumPy, the
    outer stage those of one P1 line at a time.  A monomial is the int64
    code ``sum_v e_v * place_v`` of a mixed radix whose digit for
    variable v is one more than the sum of the largest exponents of v in
    P1, P2 * X_dir and P3.  No digit of a product can reach its radix,
    so multiplying monomials adds codes.  The inner products, and the
    outer products of each line, are merged by (entry, code) with
    :func:`abiwave.symbolic._kernel_py.merge`; no two lines share an
    entry, so the merged lines, in order, are the table's terms.  The
    distinct codes of the result are numbered in ascending order, and
    only they are decoded.  Three bounds are checked once per tensor,
    each raising OverflowError past it:

    * the total degree of every product fits a packed key (``MAX_EXP``);
    * entries times the number of codes is at most 2**63, so every
      (entry, code) merge key is an int64;
    * the sum of |coefficient| over every product of the direct triple
      expansion is below 2**63.  It bounds every int64 partial sum of
      both stages, so the coefficients are exact; the table keeps them
      as int64.
    """
    e1, e2, e3 = eps
    if which not in ("evolution", "constraint"):
        raise ValueError("which must be 'evolution' or 'constraint'")
    for e in ((e1, e2, e3) if which == "evolution" else (e2, e3)):
        if e not in (1, -1):
            raise ValueError("tensor build needs wave-branch signs only")
    P2 = _projector_table(e2, SLOT_W)
    P3 = _projector_table(e3, SLOT_ETA)
    if which == "evolution":
        P1 = _projector_table(e1, SLOT_XI)
        terms_table, nrows, scale = system.EVOLUTION_TERMS, 10, 3
    else:
        P1 = None
        terms_table, nrows, scale = system.CONSTRAINT_TERMS, 5, 2
    projectors = [P for P in (P1, P2, P3) if P is not None]
    if sum(P.degree() for P in projectors) + 1 > _kernel_py.MAX_EXP:
        raise OverflowError("product degree exceeds packing capacity")
    # each inner product counted once per P1 term of its row, and at
    # least once: no stage's absolute product sum is larger
    l1 = _abs_sums(P1.rows % 10, P1.coefs, nrows) if P1 else [1] * nrows
    l2 = _abs_sums(P2.rows // 10, P2.coefs, 10)
    l3 = _abs_sums(P3.rows // 10, P3.coefs, 10)
    if sum(max(l1[row], 1) * l2[c] * l3[a]
           for row, a, c, _, _ in terms_table) >= 2 ** 63:
        raise OverflowError("coefficient sums exceed int64")

    row_t, a_t, c_t, dir_t, sign_t = np.array(terms_table, dtype=np.int64).T
    dvar = SLOT_W[0] + dir_t
    top = sum(P.exps.max(axis=0, initial=0).astype(np.int64)
              for P in projectors)
    top[np.unique(dvar)] += 1
    radix = top + 1
    ncodes = math.prod(radix.tolist())
    nentries = nrows * 100
    if ncodes * nentries > 2 ** 63:
        raise OverflowError("monomial codes exceed int64")
    place = np.cumprod(np.concatenate(([1], radix[:-1])))

    def codes(P):
        """The monomial code of each term of ``P``."""
        return (P.exps.astype(np.int64) @ place)[P.cols]

    # inner products: every P2 term of line c with every P3 term of
    # line a, for each table term t = (row, a, c, dir, sign); line r of
    # a projector holds its terms from start[r] on
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
    entry, code, coef = _kernel_py.merge(entry, code, coef, ncodes)
    if P1 is not None:
        size = np.bincount(entry // 100, minlength=nrows)
        start = np.cumsum(size) - size
        # P1 term n meets the inner terms of its column's row; the
        # products of one P1 line land in that line's entries alone, so
        # each line is merged by itself, and the lines follow in order
        jk = entry % 100
        col1 = P1.rows % 10
        code1, coef1 = codes(P1), P1.coefs.astype(np.int64)
        ends = np.cumsum(P1.sizes.reshape(10, 10).sum(axis=1)).tolist()
        lines = []
        for line, (lo, hi) in enumerate(zip([0] + ends[:-1], ends)):
            count = size[col1[lo:hi]]
            n = _kernel_py.ranges(start[col1[lo:hi]], count)
            lines.append(_kernel_py.merge(
                line * 100 + jk[n], np.repeat(code1[lo:hi], count) + code[n],
                np.repeat(coef1[lo:hi], count) * coef[n], ncodes))
        entry, code, coef = (np.concatenate(a) for a in zip(*lines))
        del lines  # before the numbering below allocates its own arrays
    # terms are in entry order, with codes ascending in each entry; the
    # columns number the distinct codes in ascending order
    rest, cols = np.unique(code, return_inverse=True)
    exps = np.empty((len(rest), _kernel_py.NVARS), dtype=np.int8)
    for v, r in enumerate(radix.tolist()):  # digits low to high
        rest, exps[:, v] = np.divmod(rest, r)
    table = _kernel_py.TermTable.from_arrays(exps, entry, cols, coef,
                                             nentries)
    return InteractionTensor(eps=(e1, e2, e3), which=which, table=table,
                             scale_log2=scale)
