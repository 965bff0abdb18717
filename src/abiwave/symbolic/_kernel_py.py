"""Kernel for sparse exact-integer polynomial arithmetic.

A polynomial in the eighteen layout variables is a *term dict*: a plain
``dict`` mapping a packed monomial key to a nonzero Python integer, with
``{}`` the zero polynomial.  It is the certifier's only polynomial type;
the projectors, the ideal generators, the residues and the cofactors
are all term dicts.  A tensor's entries live in its :class:`TermTable`
and are read back as term dicts only for the cofactors.  Exponents
occupy seven bits per variable inside one arbitrary-precision integer
key, so monomial multiplication is a single integer addition.  That
addition is carry-free while every total degree stays at most
``MAX_EXP``.  The bound is checked once where it is decided, not in
the inner loops:

* :func:`mul` and :func:`pack` check their own inputs;
* :func:`mul_add_into` (``acc += c * p * q``) trusts its caller; no
  module of the package calls it (the tensor build multiplies array
  codes, see :mod:`abiwave.symbolic.tensors`), and it is kept because
  the benchmark tracer counts its calls by name;
* the tensor contraction (:func:`abiwave.symbolic.tensors._contract`)
  checks deg P1 + deg P2 + 1 + deg P3 once per call;
* :func:`abiwave.symbolic.ideal.reduce_terms` checks it once per
  :class:`TermTable`, on the table's exponent array (stage one of the
  reduction keeps the total degree, stage two never raises it).

Reading many keys at once is vectorized.  A key of eighteen 7-bit
fields splits into two ``int64`` halves of nine fields each
(``key & (2**63 - 1)`` and ``key >> 63``), and NumPy shifts and masks
unpack those halves into an ``(n, 18)`` exponent array
(:func:`exponents`).  :func:`degree` is a row sum and max over that
array.  A :class:`TermTable` holds many polynomials over one index of
their distinct monomials; it is built from term dicts (Python int
coefficients) or straight from arrays (the tensor build, int64
coefficients), and the float gates (:func:`evaluator`), the
tensor statistics, the chaplygin block and the exact reduction all
read it.  :func:`distinct` numbers the distinct rows of an exponent
array, and :func:`merge` sums equal (row, monomial) terms.

This is the only polynomial kernel; every symbolic module uses it.
"""
from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import count

import numpy as np

NVARS = 18
BITS = 7
MASK = (1 << BITS) - 1
MAX_EXP = MASK

# a key splits into two int64 halves of nine fields each
_HALF_FIELDS = NVARS // 2
_HALF_BITS = BITS * _HALF_FIELDS
_LOW = (1 << _HALF_BITS) - 1
_SHIFTS = np.arange(_HALF_FIELDS, dtype=np.int64) * BITS
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1
_LOW32 = (1 << 32) - 1
# (unit-vector base, cosine base) of the frequency slots xi, eta and
# xi - eta: three variables from each base (see abiwave.symbolic.poly)
SLOT_BASES = ((0, 9), (3, 12), (6, 15))
_SLOT_VARS = tuple(np.array([u, u + 1, u + 2, c, c + 1, c + 2])
                   for u, c in SLOT_BASES)
# size of the (points x terms) array that evaluator() works on at once
_CHUNK_BYTES = 1 << 20


def pack(exps) -> int:
    """Pack an iterable of NVARS exponents into one integer key."""
    key = 0
    for i, e in enumerate(exps):
        if e < 0 or e > MAX_EXP:
            raise ValueError(f"exponent {e} out of range")
        key |= int(e) << (BITS * i)
    return key


def unpack(key: int) -> tuple:
    """Inverse of :func:`pack`."""
    return tuple((key >> (BITS * i)) & MASK for i in range(NVARS))


def variable(index: int) -> dict:
    """The polynomial X_{index+1} (zero-based index)."""
    if not 0 <= index < NVARS:
        raise ValueError("variable index out of range")
    return {1 << (BITS * index): 1}


def to_text(terms: dict) -> str:
    """Canonical text 'c * X1^a1*...*X18^a18 +- ...', keys ascending."""
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms):
        c = terms[key]
        mono = "*".join(f"X{i+1}^{e}" for i, e in enumerate(unpack(key)) if e)
        body = f"{abs(c)}" + (f" * {mono}" if mono else "")
        parts.append(("+ " if c > 0 else "- ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def exponents(keys: list) -> np.ndarray:
    """The (n, NVARS) int64 exponent array of a list of n packed keys.

    Row r is ``unpack(keys[r])``.  Every key must be below 2**126, the
    capacity of eighteen fields; a larger one raises OverflowError.
    """
    n = len(keys)
    halves = np.empty((n, 2), dtype=np.int64)
    halves[:, 0] = np.fromiter((k & _LOW for k in keys), np.int64, n)
    halves[:, 1] = np.fromiter((k >> _HALF_BITS for k in keys), np.int64, n)
    return ((halves[:, :, None] >> _SHIFTS) & MASK).reshape(n, NVARS)


def pack_halves(exps: np.ndarray) -> np.ndarray:
    """The (n, 2) int64 key halves of an (n, NVARS) exponent array.

    Inverse of :func:`exponents`: row r is ``(key & (2**63 - 1),
    key >> 63)`` of the key packed from row r, whose exponents must be
    at most ``MAX_EXP``.
    """
    return (exps.reshape(-1, 2, _HALF_FIELDS) << _SHIFTS).sum(axis=2)


def join_halves(halves: np.ndarray) -> list:
    """The packed keys, as Python ints, of rows of :func:`pack_halves`."""
    return [lo | (hi << _HALF_BITS) for lo, hi in halves.tolist()]


def degree(terms) -> int:
    """Total degree (0 for the zero polynomial).

    Takes a term dict or any iterable of packed keys, so the largest
    degree over many polynomials costs one call: the row sum and max of
    :func:`exponents`.
    """
    return int(exponents(list(terms)).sum(axis=1).max(initial=0))


def add_into(acc: dict, p: dict, c: int) -> None:
    """acc += c * p, dropping cancelled terms."""
    if c == 0:
        return
    for k, v in p.items():
        nv = acc.get(k, 0) + c * v
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)


def mul(p: dict, q: dict) -> dict:
    """Product of two polynomials (carry-guarded)."""
    if not p or not q:
        return {}
    if degree(p) + degree(q) > MAX_EXP:
        raise OverflowError("product degree exceeds packing capacity")
    out: dict = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            k = k1 + k2
            nv = out.get(k, 0) + v1 * v2
            if nv:
                out[k] = nv
            else:
                del out[k]
    return out


def mul_add_into(acc: dict, c: int, p: dict, q: dict) -> None:
    """acc += c * p * q, dropping cancelled terms.

    Nothing in the package calls it, and ``tests/test_repo.py`` keeps
    it so: it stays because the benchmark tracer counts its calls by
    name.  Precondition: degree(p) + degree(q) <= MAX_EXP, not checked
    here.
    """
    if c == 0 or not p or not q:
        return
    for k1, v1 in p.items():
        v1 *= c
        for k2, v2 in q.items():
            k = k1 + k2
            nv = acc.get(k, 0) + v1 * v2
            if nv:
                acc[k] = nv
            else:
                del acc[k]


def ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The ranges [start[i], start[i] + size[i]), concatenated."""
    ends = np.cumsum(size)
    return (np.arange(ends[-1] if len(ends) else 0)
            + np.repeat(start - ends + size, size))


def distinct(exps: np.ndarray):
    """Distinct rows of an exponent array, and each row's index among them."""
    halves = pack_halves(exps)
    order = np.lexsort(halves.T)
    halves = halves[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (halves[1:] != halves[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return exps[order[new]], inverse


def merge(rows, monos, coefs, nmonos: int):
    """Sum the coefficients of equal (row, monomial) pairs; drop zero sums.

    ``rows`` and ``monos`` are int64 arrays with ``monos < nmonos`` and
    ``rows * nmonos`` below 2**63; ``coefs`` is an int64 or object
    array.  Returns (rows, monomials, sums), sorted by row and then
    monomial.
    """
    code = rows * nmonos + monos
    order = np.argsort(code)
    code = code[order]
    head = np.flatnonzero(np.diff(code, prepend=-1))
    sums = np.add.reduceat(coefs[order], head) if len(head) else coefs[:0]
    keep = sums != 0
    code = code[head[keep]]
    return code // nmonos, code % nmonos, sums[keep]


class TermTable:
    """Many polynomials over one index of their distinct monomials.

    * ``exps``: the ``(K, NVARS)`` exponent array of the distinct
      monomials (``int8``: no exponent of a packed key exceeds
      ``MAX_EXP`` = 127), and ``keys``, their packed keys as Python
      ints, decoded from ``exps`` on first use;
    * ``rows`` and ``cols``: for every term, its polynomial (row) and
      its monomial column; terms are stored row by row;
    * ``coefs``: the exact coefficients, nonzero, in one of two dtypes:
      ``int64`` (the tensor build and the tables derived from it) or
      ``object`` holding Python ints (tables read from term dicts,
      whose coefficients may have any size);
    * ``sizes``: the number of terms of each row.

    ``TermTable(polys)`` builds it in one Python pass over an iterable
    of term dicts, numbering the keys on sight; :meth:`from_arrays`
    takes the arrays as they are.  ``len(table)`` is the number of
    terms, and :meth:`polys` reads the rows back as term dicts, with
    Python int coefficients whatever the dtype.  An operation whose
    ``int64`` sums could leave the int64 range first moves the table to
    Python ints (:meth:`widened`), so every result is exact.
    """

    def __init__(self, polys):
        # key -> column, numbered on sight
        index = defaultdict(count().__next__)
        cols: list = []
        coefs: list = []
        sizes: list = []
        for terms in polys:
            cols.extend(map(index.__getitem__, terms))
            coefs.extend(terms.values())
            sizes.append(len(terms))
        self.exps = exponents(list(index)).astype(np.int8)
        self.sizes = np.array(sizes, dtype=np.int64)
        self.rows = np.repeat(np.arange(len(sizes), dtype=np.int64),
                              self.sizes)
        self.cols = np.array(cols, dtype=np.int64)
        self.coefs = np.empty(len(coefs), dtype=object)
        self.coefs[:] = coefs

    @classmethod
    def from_arrays(cls, exps, rows, cols, coefs, nrows: int) -> "TermTable":
        """A table of ``nrows`` rows from its arrays, taken as they are.

        ``rows`` must be sorted, each (row, column) pair may occur once
        and every coefficient must be nonzero; ``coefs`` is an ``int64``
        array or an object array of Python ints.
        """
        table = cls.__new__(cls)
        table.exps, table.rows, table.cols, table.coefs = (exps, rows, cols,
                                                           coefs)
        table.sizes = np.bincount(rows, minlength=nrows)
        return table

    def __len__(self) -> int:
        return len(self.cols)

    @cached_property
    def keys(self) -> list:
        return join_halves(pack_halves(self.exps.astype(np.int64)))

    def degree(self) -> int:
        """Largest total degree over all rows (0 for an empty table)."""
        return int(self.exps.sum(axis=1).max(initial=0))

    def polys(self):
        """The rows, in order, as term dicts with Python int coefficients."""
        keys = self.keys
        terms = [keys[c] for c in self.cols.tolist()]
        coefs = self.coefs.tolist()
        start = 0
        for stop in np.cumsum(self.sizes).tolist():
            yield dict(zip(terms[start:stop], coefs[start:stop]))
            start = stop

    def widened(self, factor: int = 1) -> "TermTable":
        """This table, or a copy with Python int coefficients.

        An ``int64`` table is copied when ``factor`` times the sum of
        its absolute coefficients reaches 2**63.  Below that bound, int64
        arithmetic is exact for any sums of products ``c * f`` in which
        the factors ``f`` of each coefficient ``c`` have absolute values
        summing to at most ``factor``: no partial sum can reach 2**63.
        """
        if self.coefs.dtype == object:
            return self
        # |c| as uint64 is exact, also for -2**63; summing its 32-bit
        # halves apart cannot wrap
        mag = np.abs(self.coefs).view(np.uint64)
        total = (int((mag >> 32).sum()) << 32) + int((mag & _LOW32).sum())
        if total * factor < 2 ** 63:
            return self
        return TermTable.from_arrays(self.exps, self.rows, self.cols,
                                     self.coefs.astype(object),
                                     len(self.sizes))

    def plus_constant(self, row: int, c: int) -> "TermTable":
        """A new table: this one with ``c`` added to one row's constant term.

        An ``int64`` table whose new constant leaves the int64 range
        comes back with Python int coefficients.
        """
        exps = self.exps
        zero = np.flatnonzero(~exps.any(axis=1))
        if len(zero):
            col = int(zero[0])
        else:
            col = len(exps)
            exps = np.vstack([exps, np.zeros((1, NVARS), dtype=exps.dtype)])
        stop = int(self.sizes[:row + 1].sum())
        start = stop - int(self.sizes[row])
        hit = start + np.flatnonzero(self.cols[start:stop] == col)
        # the (row, col) pair occurs at most once
        value = sum(self.coefs[hit].tolist()) + c
        rows, cols, coefs = self.rows, self.cols, self.coefs
        if coefs.dtype != object and not _INT64_MIN <= value <= _INT64_MAX:
            coefs = coefs.astype(object)
        else:
            coefs = coefs.copy()
        if len(hit):
            coefs[hit] = value
            keep = coefs != 0
            rows, cols, coefs = rows[keep], cols[keep], coefs[keep]
        elif c:
            rows = np.insert(rows, stop, row)
            cols = np.insert(cols, stop, col)
            coefs = np.insert(coefs, stop, c)
        return TermTable.from_arrays(exps, rows, cols, coefs, len(self.sizes))


def evaluator(table: TermTable):
    """Batch float evaluator: (npoints, NVARS) -> (npoints, rows).

    A monomial is the product of three slot monomials, one per
    frequency slot of the layout (xi: X1-X3 and X10-X12, eta: X4-X6
    and X13-X15, xi - eta: X7-X9 and X16-X18; see
    :mod:`abiwave.symbolic.poly`), and each slot has only a few dozen
    distinct ones.  Evaluation computes those from the points, gathers
    each monomial's three factors (three gathers in place of one per
    variable), then gathers every term's monomial, scales it by the
    coefficient and sums each row's terms with ``np.add.reduceat``.
    The points go through in chunks whose (points x terms) array stays
    near ``_CHUNK_BYTES``; an empty row evaluates to zero.
    """
    nrows = len(table.sizes)
    slots = []
    for var in _SLOT_VARS:
        sub = table.exps[:, var].astype(np.int64)
        _, first, inverse = np.unique((sub << _SHIFTS[:6]).sum(axis=1),
                                      return_index=True, return_inverse=True)
        slots.append((var, sub[first], inverse))
    cols = table.cols
    coefs = table.coefs.astype(float)
    full = np.flatnonzero(table.sizes)
    starts = (np.cumsum(table.sizes) - table.sizes)[full]
    step = max(1, _CHUNK_BYTES // (8 * max(len(cols), len(table.exps), 1)))

    def evaluate(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        out = np.zeros((len(points), nrows))
        for lo in range(0, len(points), step):
            chunk = points[lo:lo + step, None, :]
            mono = 1.0
            for var, sub, inverse in slots:
                mono = mono * np.prod(chunk[..., var] ** sub,
                                      axis=2).take(inverse, axis=1)
            terms = mono.take(cols, axis=1)
            terms *= coefs
            out[lo:lo + step, full] = np.add.reduceat(terms, starts, axis=1)
        return out

    return evaluate
