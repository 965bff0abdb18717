"""Exact projected interaction tensors.

Each bilinear interaction (eps1, eps2 eps3) of the evolution is the
10x10x10 tensor

    P^{eps1}(xi) . B(xi,eta) . [P^{eps2}(xi-eta) (x) P^{eps3}(eta)],

normalized by one factor -i |xi - eta| so every entry is an integer
polynomial in the eighteen layout variables (after clearing the halves
carried by the wave projectors).  The constraint interactions drop the
outer projector and have five rows.  Entries are built from the shared
quadratic tables of :mod:`abiwave.system` in two exact contractions:
B.(P2 (x) P3) first, then the outer P1 (see :func:`_contract`).

The doubled wave projectors are 2 P^e = E + e O, with hand-written even
and odd parts (:func:`projector_parts`).  :func:`build_interaction_tensor`
contracts the projectors of one eps; :func:`build_parity_pieces`
contracts the parts, stacked, once for every interaction of a kind: the
tensors are signed sums of those parity pieces, whose supports are
disjoint, and :class:`ParityPieces` forms the Hadamard group tables an
orientation's certificates reduce.

The projector entries are term dicts of
:mod:`abiwave.symbolic._kernel_py`, read into one
:class:`~abiwave.symbolic._kernel_py.TermTable` per projector (entry
[line][col] in row 10 line + col).  The contractions run on NumPy
arrays: every monomial is one int64 mixed-radix code, so a monomial
product is a code sum, and the result is the tensor's
:class:`~abiwave.symbolic._kernel_py.TermTable`, with the int64
coefficients the contractions computed, which
:class:`InteractionTensor` holds with the scale; it states the factor
-i that the entries leave out.  :func:`chaplygin_block` cuts the
(tau, v) block of the chaplygin subsystem from a table of entries.
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
# rows of a tensor (the outer index), and the projector halves it clears
_NROWS = {"evolution": 10, "constraint": 5}
_SCALE_LOG2 = {"evolution": 3, "constraint": 2}


def projector_parts(slot: tuple[int, int]):
    """The even and odd parts (E, O) of the doubled wave projectors.

    2 P^{+-} = Ahat^2 +- Ahat, and Ahat is odd under xi -> -xi, so the
    entries of 2 P^s are E + s O: E holds the terms of even degree in the
    slot's unit vector, beta and delta, O those of odd degree.  Both are
    10x10 matrices of term dicts with integer coefficients.  Kept
    hand-written: the float projectors derive from A0, so the float
    cross-check is independent.
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

    E = [[{} for _ in range(10)] for _ in range(10)]
    O = [[{} for _ in range(10)] for _ in range(10)]

    def addto(P, i, j, terms, c=1):
        _kernel_py.add_into(P[i][j], terms, c)

    addto(E, 0, 0, m(al, al))
    for i in range(3):
        addto(O, 0, 1 + i, m(al, u[i]))
        addto(O, 1 + i, 0, m(al, u[i]))
        addto(E, 0, 4 + i, m(al, be, u[i]))
        addto(E, 4 + i, 0, m(al, be, u[i]))
        addto(E, 0, 7 + i, m(al, de, u[i]))
        addto(E, 7 + i, 0, m(al, de, u[i]))
        for j in range(3):
            if i == j:
                addto(E, 1 + i, 1 + j, {0: 1})
                addto(E, 1 + i, 1 + j, m(al, al), -1)
                addto(O, 1 + i, 4 + j, be)
                addto(O, 4 + i, 1 + j, be)
                addto(O, 1 + i, 7 + j, de)
                addto(O, 7 + i, 1 + j, de)
                addto(E, 4 + i, 4 + j, {0: 1})
                addto(E, 4 + i, 4 + j, m(de, de), -1)
                addto(E, 7 + i, 7 + j, {0: 1})
                addto(E, 7 + i, 7 + j, m(be, be), -1)
                addto(E, 4 + i, 7 + j, m(be, de))
                addto(E, 7 + i, 4 + j, m(be, de))
            addto(E, 1 + i, 1 + j, m(al, al, u[i], u[j]))
            addto(E, 4 + i, 4 + j, m(al, al, u[i], u[j]), -1)
            addto(E, 7 + i, 7 + j, m(al, al, u[i], u[j]), -1)
            C = cross(i, j)
            addto(E, 1 + i, 4 + j, m(al, de, C))
            addto(E, 4 + i, 1 + j, m(al, de, C), -1)
            addto(E, 1 + i, 7 + j, m(al, be, C), -1)
            addto(E, 7 + i, 1 + j, m(al, be, C))
            addto(O, 4 + i, 7 + j, m(al, C), -1)
            addto(O, 7 + i, 4 + j, m(al, C), +1)
    return E, O


def projector_terms(branch: int, slot: tuple[int, int]):
    """10x10 matrix of term dicts of the doubled wave projector 2 P^branch.

    The entries are E + branch O of :func:`projector_parts`, so all
    coefficients are integers; the caller tracks the factor-of-two count.
    """
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    E, O = projector_parts(slot)
    for e_line, o_line in zip(E, O):
        for terms, odd in zip(e_line, o_line):
            _kernel_py.add_into(terms, odd, branch)
    return E


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
        """The (tau, v) subsystem of the entries: :func:`chaplygin_block`."""
        return chaplygin_block(self.table, self.which)

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


def chaplygin_block(table: _kernel_py.TermTable, which: str):
    """The (tau, v) subsystem of a table of tensor entries, as (index, table).

    ``table`` holds the entries of one ``which`` tensor, entry (i, j, k)
    in row ``(i * 10 + j) * 10 + k``.  Row r of the result is entry
    ``index[r]`` of the block ``CHAPLYGIN_SHAPES[which]``, in order,
    evaluated at alpha = 1 and beta = delta = 0 in every slot: terms
    with a beta or delta exponent are dropped, alpha exponents are set
    to zero and equal (row, monomial) terms are merged.  The block is
    linear in the table.
    """
    shape = CHAPLYGIN_SHAPES[which]
    t = table.widened()  # the merge's int64 sums stay exact
    i, j, k = np.unravel_index(t.rows, (len(t.sizes) // 100, 10, 10))
    alive = ~t.exps[:, _BETA_DELTA].any(axis=1)
    keep = ((i < shape[0]) & (j < shape[1]) & (k < shape[2])
            & alive[t.cols])
    exps = t.exps[t.cols[keep]]
    exps[:, _ALPHA] = 0
    monos, mono = _kernel_py.distinct(exps)
    rows = np.ravel_multi_index((i[keep], j[keep], k[keep]), shape)
    rows, cols, coefs = _kernel_py.merge(rows, mono, t.coefs[keep],
                                         len(monos))
    block = _kernel_py.TermTable.from_arrays(monos, rows, cols, coefs,
                                             math.prod(shape))
    return list(np.ndindex(shape)), block


def _parity_signs(eps) -> np.ndarray:
    """prod_n eps[n]^b_n for every bit string b, numbered as a binary
    number with the first bit most significant."""
    signs = np.ones(1, dtype=np.int64)
    for e in eps:
        signs = np.outer(signs, (1, e)).ravel()
    return signs


@dataclass
class ParityPieces:
    """The parity pieces of every interaction of one kind, in one table.

    With 2 P^e = E + e O at each projector (:func:`projector_parts`),
    the entries of the tensor ``eps`` are the signed sum

        T(eps) = sum over sigma of eps^sigma T_sigma,

    where sigma picks E (0) or O (1) at each projector (sigma1 sigma2
    sigma3 for the evolution, sigma2 sigma3 for the constraint), T_sigma
    contracts those parts and eps^sigma is the product of the eps_n with
    sigma_n = 1.  ``table`` contracts the parts stacked, [E; O] at the
    outer projector and [E | O] at the inner ones: its entry
    (i', j', k'), in row ``(i' * 20 + j') * 20 + k'``, is entry
    (i' % 10, j' % 10, k' % 10) of the piece (i' // 10, j' // 10,
    k' // 10) (:meth:`split`; i' < 5 for the constraint).  E is even and
    O odd in each slot's unit vector, beta and delta, and the derivative
    variable is odd in the xi - eta slot, so every monomial of T_sigma
    has the parities sigma in the three slots: no two pieces share a
    monomial, and an entry of T(eps) has the terms of its pieces, with
    the signs eps^sigma, for every eps.  ``scale_log2`` is that of
    :class:`InteractionTensor`.
    """

    which: str
    table: _kernel_py.TermTable
    scale_log2: int

    @property
    def nentries(self) -> int:
        """N: the entries of one tensor."""
        return _NROWS[self.which] * 100

    def split(self, rows: np.ndarray):
        """(piece, entry) of rows of ``table``, as int16 arrays: the piece
        is sigma read as a binary number, the entry (i * 10 + j) * 10 + k."""
        i, jk = np.divmod(rows.astype(np.int16), 400)  # rows < 8000
        j, k = np.divmod(jk, 20)
        piece = ((i // 10) * 2 + j // 10) * 2 + k // 10
        return piece, ((i % 10) * 10 + j % 10) * 10 + k % 10

    def _slot_signs(self, eps) -> tuple:
        return tuple(eps) if self.which == "evolution" else tuple(eps[1:])

    def signs(self, eps) -> np.ndarray:
        """eps^sigma of every piece, in piece order."""
        return _parity_signs(self._slot_signs(eps))

    def group_signs(self, eps) -> np.ndarray:
        """The sign of every table of :meth:`groups` in T(eps)."""
        return _parity_signs(self._slot_signs(eps)[:-1])

    def entry_sizes(self) -> np.ndarray:
        """The term count of each entry of T(eps), the same for every eps."""
        sizes = self.table.sizes.reshape(-1, _NROWS[self.which], 2, 10, 2, 10)
        return sizes.sum(axis=(0, 2, 4)).ravel()

    def values(self, eps, table_values: np.ndarray) -> np.ndarray:
        """Values (n, N) of the entries of T(eps), from values (n, rows)
        of the rows of ``table``: the pieces' values summed with the
        signs :meth:`signs`, read in place."""
        n = len(table_values)
        v = table_values.reshape(n, -1, _NROWS[self.which], 2, 10, 2, 10)
        signs = self.signs(eps).reshape(-1, 2, 2).astype(float)
        return np.einsum("abc,naibjck->nijk", signs, v).reshape(n, -1)

    def entry(self, eps, row: int) -> dict:
        """Entry ``row`` of T(eps) as a term dict."""
        t = self.table
        keys = t.keys
        ends = np.cumsum(t.sizes)
        i, j, k = np.unravel_index(row, (_NROWS[self.which], 10, 10))
        out: dict = {}
        for piece, sign in enumerate(self.signs(eps).tolist()):
            r = (((piece >> 2) * 10 + i) * 20
                 + (piece >> 1 & 1) * 10 + j) * 20 + (piece & 1) * 10 + k
            lo, hi = int(ends[r] - t.sizes[r]), int(ends[r])
            _kernel_py.add_into(out, dict(zip(
                [keys[c] for c in t.cols[lo:hi].tolist()],
                t.coefs[lo:hi].tolist())), sign)
        return out

    def groups(self, s: int):
        """The Hadamard group tables of orientation s = eps2 eps3, one by one.

        With eps3 = s eps2, eps2^sigma2 eps3^sigma3 is s^sigma3
        eps2^(sigma2 + sigma3), so T(eps) = sum over g of
        ``group_signs(eps)[g] * G_g``, where G_g sums s^sigma3 T_sigma
        over the pieces with (sigma1, sigma2 xor sigma3) = g (sigma2 xor
        sigma3 alone for the constraint).  The signs of the orientation's
        four (two) tensors form a Hadamard matrix, so their entries lie
        in the ideal exactly when those of every G_g do; the normal form
        is Z-linear, so each residue is the signed sum of the groups'.
        Each table has one row per entry of a tensor and numbers only
        the monomials its terms use.
        """
        n, t = self.nentries, self.table
        piece, entry = self.split(t.rows)
        group = (piece >> 2 << 1) | ((piece >> 1 ^ piece) & 1)
        for g in range(len(t.sizes) // n // 2):
            at = np.flatnonzero(group == g)
            at = at[np.argsort(entry[at], kind="stable")]  # int16: radix
            cols, coefs = t.cols[at], t.coefs[at]
            if s < 0:
                coefs = np.where(piece[at] & 1, -coefs, coefs)
            used = np.zeros(len(t.exps), dtype=bool)
            used[cols] = True
            number = np.cumsum(used) - 1
            G = _kernel_py.TermTable.from_arrays(
                t.exps[used], entry[at].astype(np.int64), number[cols], coefs,
                n)
            del at, cols, coefs, used, number  # not held while G is reduced
            yield G


def _projector_table(branch: int, slot: tuple[int, int]):
    """:func:`projector_terms` as a TermTable: entry [line][col] is row
    ``10 * line + col``."""
    return _kernel_py.TermTable(
        terms for line in projector_terms(branch, slot) for terms in line)


def _parts_table(slot: tuple[int, int], outer: bool):
    """The parts E, O of :func:`projector_parts` as one TermTable.

    For the outer projector they are stacked as 20 lines of 10 columns,
    E[line][col] in row ``10 * line + col`` and O[line][col] in row
    ``10 * (10 + line) + col``; for the inner ones as 10 lines of 20
    columns, E[line][col] in row ``20 * line + col`` and O[line][col] in
    row ``20 * line + 10 + col``.
    """
    E, O = projector_parts(slot)
    if outer:
        lines = E + O
    else:
        lines = [e + o for e, o in zip(E, O)]
    return _kernel_py.TermTable(terms for line in lines for terms in line)


def _abs_sums(groups: np.ndarray, coefs: np.ndarray, n: int) -> list:
    """Sum of |coefficient| over the terms of each of ``n`` groups."""
    out = [0] * n
    for g, c in zip(groups.tolist(), coefs.tolist()):
        out[g] += abs(c)
    return out


def build_interaction_tensor(eps: tuple[int, int, int],
                             which: str = "evolution") -> InteractionTensor:
    """Contract the quadratic table with the slot projectors of ``eps``
    (:func:`projector_terms`), exactly (:func:`_contract`)."""
    e1, e2, e3 = eps
    if which not in _NROWS:
        raise ValueError("which must be 'evolution' or 'constraint'")
    for e in ((e1, e2, e3) if which == "evolution" else (e2, e3)):
        if e not in (1, -1):
            raise ValueError("tensor build needs wave-branch signs only")
    P1 = _projector_table(e1, SLOT_XI) if which == "evolution" else None
    table = _contract(P1, _projector_table(e2, SLOT_W),
                      _projector_table(e3, SLOT_ETA), which)
    return InteractionTensor(eps=(e1, e2, e3), which=which, table=table,
                             scale_log2=_SCALE_LOG2[which])


def build_parity_pieces(which: str = "evolution") -> ParityPieces:
    """Every parity piece of one kind, from one contraction.

    :func:`_contract` takes the parts E and O of each projector stacked
    (:func:`_parts_table`); the result is :attr:`ParityPieces.table`.
    """
    if which not in _NROWS:
        raise ValueError("which must be 'evolution' or 'constraint'")
    P1 = _parts_table(SLOT_XI, outer=True) if which == "evolution" else None
    table = _contract(P1, _parts_table(SLOT_W, outer=False),
                      _parts_table(SLOT_ETA, outer=False), which)
    return ParityPieces(which=which, table=table,
                        scale_log2=_SCALE_LOG2[which])


def _contract(P1, P2, P3, which: str) -> _kernel_py.TermTable:
    """The quadratic table contracted with three projector tables, exactly.

    ``P2`` and ``P3`` hold 10 lines of w columns, entry [line][col] in
    row ``w * line + col``; ``P1`` (None for the constraint) holds n1
    lines of 10 columns, in row ``10 * line + col``.  The differentiated
    factor sits in the xi - eta slot; its direction index enters as the
    corresponding unit-vector variable X7..X9.  The contraction runs in
    two stages:

    1. inner: ``inner[row][j][k] = sum sign * (P2[c][j] X_dir) * P3[a][k]``
       over the table terms ``(row, a, c, dir, sign)``, i.e. B.(P2 (x) P3);
    2. outer: ``entries[i][j][k] = sum_row P1[i][row] * inner[row][j][k]``.

    Entry (i, j, k) is row ``(i * w + j) * w + k`` of the result, for
    i < n1 (the five constraint rows without P1) and j, k < w.  By
    associativity of the exact polynomial product this is the same sum
    as forming every P1 * (P2 * X_dir) * P3 term by term, so every entry
    is identical; it is cheaper because the terms of each inner sum are
    merged before the outer projector multiplies them.

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
    only they are decoded.  Three bounds are checked once per call,
    each raising OverflowError past it:

    * the total degree of every product fits a packed key (``MAX_EXP``);
    * entries times the number of codes is at most 2**63, so every
      (entry, code) merge key is an int64;
    * the sum of |coefficient| over every product of the direct triple
      expansion is below 2**63.  It bounds every int64 partial sum of
      both stages, so the coefficients are exact; the table keeps them
      as int64.
    """
    terms_table = (system.EVOLUTION_TERMS if which == "evolution"
                   else system.CONSTRAINT_TERMS)
    nrows = _NROWS[which]
    w = len(P2.sizes) // 10
    nlines = len(P1.sizes) // 10 if P1 is not None else nrows
    projectors = [P for P in (P1, P2, P3) if P is not None]
    if sum(P.degree() for P in projectors) + 1 > _kernel_py.MAX_EXP:
        raise OverflowError("product degree exceeds packing capacity")
    # each inner product counted once per P1 term of its row, and at
    # least once: no stage's absolute product sum is larger
    l1 = _abs_sums(P1.rows % 10, P1.coefs, nrows) if P1 else [1] * nrows
    l2 = _abs_sums(P2.rows // w, P2.coefs, 10)
    l3 = _abs_sums(P3.rows // w, P3.coefs, 10)
    if sum(max(l1[row], 1) * l2[c] * l3[a]
           for row, a, c, _, _ in terms_table) >= 2 ** 63:
        raise OverflowError("coefficient sums exceed int64")

    row_t, a_t, c_t, dir_t, sign_t = np.array(terms_table, dtype=np.int64).T
    dvar = SLOT_W[0] + dir_t
    top = sum(P.exps.max(axis=0, initial=0).astype(np.int64)
              for P in projectors)
    differentiated = np.zeros(_kernel_py.NVARS, dtype=bool)
    differentiated[dvar] = True
    top += differentiated  # each X_dir raises its own digit once
    radix = top + 1
    ncodes = math.prod(radix.tolist())
    nentries = nlines * w * w
    if ncodes * nentries > 2 ** 63:
        raise OverflowError("monomial codes exceed int64")
    place = np.cumprod(np.concatenate(([1], radix[:-1])))

    def codes(P):
        """The monomial code of each term of ``P``."""
        return (P.exps.astype(np.int64) @ place)[P.cols]

    # inner products: every P2 term of line c with every P3 term of
    # line a, for each table term t = (row, a, c, dir, sign); line r of
    # a projector holds its terms from start[r] on
    size2, size3 = (P.sizes.reshape(10, w).sum(axis=1) for P in (P2, P3))
    start2, start3 = np.cumsum(size2) - size2, np.cumsum(size3) - size3
    col2, col3 = P2.rows % w, P3.rows % w
    count = size2[c_t] * size3[a_t]
    t = np.repeat(np.arange(len(count)), count)
    local = _kernel_py.ranges(np.zeros_like(count), count)
    width = size3[a_t][t]
    n2 = start2[c_t][t] + local // width
    n3 = start3[a_t][t] + local % width
    entry = (row_t[t] * w + col2[n2]) * w + col3[n3]
    code = codes(P2)[n2] + place[dvar][t] + codes(P3)[n3]
    coef = (sign_t[t] * P2.coefs.astype(np.int64)[n2]
            * P3.coefs.astype(np.int64)[n3])
    entry, code, coef = _kernel_py.merge(entry, code, coef, ncodes)
    if P1 is not None:
        size = np.bincount(entry // (w * w), minlength=nrows)
        start = np.cumsum(size) - size
        # P1 term n meets the inner terms of its column's row; the
        # products of one P1 line land in that line's entries alone, so
        # each line is merged by itself, and the lines follow in order
        jk = entry % (w * w)
        col1 = P1.rows % 10
        code1, coef1 = codes(P1), P1.coefs.astype(np.int64)
        ends = np.cumsum(P1.sizes.reshape(nlines, 10).sum(axis=1)).tolist()
        lines = []
        for line, (lo, hi) in enumerate(zip([0] + ends[:-1], ends)):
            count = size[col1[lo:hi]]
            n = _kernel_py.ranges(start[col1[lo:hi]], count)
            lines.append(_kernel_py.merge(
                line * w * w + jk[n],
                np.repeat(code1[lo:hi], count) + code[n],
                np.repeat(coef1[lo:hi], count) * coef[n], ncodes))
        entry, code, coef = (np.concatenate(a) for a in zip(*lines))
        del lines  # before the numbering below allocates its own arrays
    # terms are in entry order, with codes ascending in each entry; the
    # columns number the distinct codes in ascending order
    rest, cols = np.unique(code, return_inverse=True)
    exps = np.empty((len(rest), _kernel_py.NVARS), dtype=np.int8)
    for v, r in enumerate(radix.tolist()):  # digits low to high
        rest, exps[:, v] = np.divmod(rest, r)
    return _kernel_py.TermTable.from_arrays(exps, entry, cols, coef,
                                            nentries)
