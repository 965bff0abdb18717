"""Kernel for sparse exact-integer polynomial arithmetic.

A polynomial in the eighteen layout variables is a *term dict*: a plain
``dict`` mapping a packed monomial key to a nonzero Python integer, with
``{}`` the zero polynomial.  It is the certifier's only polynomial type;
the projectors, the tensor entries, the ideal generators, the residues
and the cofactors are all term dicts.  Exponents occupy
seven bits per variable inside one arbitrary-precision integer key, so
monomial multiplication is a single integer addition.  That addition is
carry-free while every total degree stays at most ``MAX_EXP``.  The
bound is checked once where it is decided, not in the inner loops:

* :func:`mul` and :func:`pack` check their own inputs;
* :func:`mul_add_into` (``acc += c * p * q``) trusts its caller:
  :func:`abiwave.symbolic.tensors.build_interaction_tensor` checks
  deg P1 + deg P2 + 1 + deg P3 once per tensor, which bounds both of
  its contraction stages;
* :func:`abiwave.symbolic.ideal.reduce_terms` checks it once per
  :class:`TermTable`, on the table's exponent array (stage one of the
  reduction keeps the total degree, stage two never raises it).

Reading many keys at once is vectorized.  A key of eighteen 7-bit
fields splits into two ``int64`` halves of nine fields each
(``key & (2**63 - 1)`` and ``key >> 63``), and NumPy shifts and masks
unpack those halves into an ``(n, 18)`` exponent array
(:func:`exponents`).  :func:`degree` is a row sum and max over that
array.  A :class:`TermTable` holds many polynomials over one index of
their distinct keys; the float gates (:func:`evaluator`), the tensor
statistics and the exact reduction all read that one table.

This is the only polynomial kernel; every symbolic module uses it.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import count

import numpy as np
import scipy.sparse

NVARS = 18
BITS = 7
MASK = (1 << BITS) - 1
MAX_EXP = MASK

# a key splits into two int64 halves of nine fields each
_HALF_FIELDS = NVARS // 2
_HALF_BITS = BITS * _HALF_FIELDS
_LOW = (1 << _HALF_BITS) - 1
_SHIFTS = np.arange(_HALF_FIELDS, dtype=np.int64) * BITS
# below this many keys the bit loop costs less than the NumPy calls
_VECTOR_MIN = 8


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


def _key_degree(key: int) -> int:
    d = 0
    while key:
        d += key & MASK
        key >>= BITS
    return d


def degree(terms) -> int:
    """Total degree (0 for the zero polynomial).

    Takes a term dict or any iterable of packed keys, so the largest
    degree over many polynomials costs one call.  It is the row sum and
    max of :func:`exponents`; fewer than ``_VECTOR_MIN`` keys are summed
    field by field instead, where NumPy's fixed cost would dominate.
    """
    keys = list(terms)
    if len(keys) < _VECTOR_MIN:
        return max(map(_key_degree, keys), default=0)
    return int(exponents(keys).sum(axis=1).max())


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
    """acc += c * p * q, dropping cancelled terms (tensor contraction core).

    Precondition: degree(p) + degree(q) <= MAX_EXP.  It is not checked
    here; the caller checks it once for all its factors.
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


class TermTable:
    """Many polynomials over one index of their distinct monomials.

    Built in one Python pass over an iterable of term dicts:

    * ``keys``: the distinct packed keys, numbered on sight, and
      ``exps``, their ``(K, NVARS)`` exponent array (``int8``: no
      exponent of a packed key exceeds ``MAX_EXP`` = 127);
    * ``rows`` and ``cols``: for every term, its polynomial (row) and
      its key column; terms are stored row by row;
    * ``coefs``: the exact coefficients, Python ints in an object array;
    * ``sizes``: the number of terms of each row.

    ``len(table)`` is the number of terms.
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
        self.keys = list(index)
        self.exps = exponents(self.keys).astype(np.int8)
        self.sizes = np.array(sizes, dtype=np.int64)
        self.rows = np.repeat(np.arange(len(sizes), dtype=np.int64),
                              self.sizes)
        self.cols = np.array(cols, dtype=np.int64)
        self.coefs = np.empty(len(coefs), dtype=object)
        self.coefs[:] = coefs

    def __len__(self) -> int:
        return len(self.cols)

    def degree(self) -> int:
        """Largest total degree over all rows (0 for an empty table)."""
        return int(self.exps.sum(axis=1).max(initial=0))


def evaluator(table: TermTable):
    """Batch float evaluator: (npoints, NVARS) -> (npoints, rows).

    The table's coefficients form a sparse (rows x monomials) matrix.
    Evaluation reads each monomial's factors from a per-variable power
    table ``X[:, v] ** e`` and contracts the monomial values with the
    matrix.
    """
    indptr = np.zeros(len(table.sizes) + 1, dtype=np.int64)
    np.cumsum(table.sizes, out=indptr[1:])
    matrix = scipy.sparse.csr_matrix(
        (table.coefs.astype(float), table.cols, indptr),
        shape=(len(table.sizes), len(table.keys)))
    exps = table.exps
    used = [(v, int(exps[:, v].max())) for v in range(NVARS)
            if exps[:, v].any()]

    def evaluate(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        mono = np.ones((len(exps), len(points)))
        for v, top in used:
            powers = points[:, v] ** np.arange(top + 1)[:, None]
            mono *= powers[exps[:, v]]
        return (matrix @ mono).T

    return evaluate
