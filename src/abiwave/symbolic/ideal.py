"""Triangular rewrite system certifying vanishing on the resonant variety.

Twelve generators cut out (a superset of) the image of the space-
resonant configurations under the numeric embedding: six unit-sum
relations

    P1..P6 = sum of squares of each variable triple minus one,

and six collinearity relations tying the eta and xi-eta slots together
with the orientation sign s = eps2 * eps3:

    P7..P9  = X4 - s X7,  X5 - s X8,  X6 - s X9
    P10     = X13 - X16            (alpha is even under reflection)
    P11,P12 = X14 - s X17, X15 - s X18.

Reduction is a two-stage normal form: substitute away X7..X9 and
X16..X18, then rewrite even powers of X3, X6, X12, X15.  The stage-two
leading terms X3^2, X6^2, X12^2, X15^2 are pairwise coprime, so they
form a Groebner basis (Buchberger's first criterion; Cox-Little-O'Shea,
*Ideals, Varieties, and Algorithms*, ch. 2) and the normal form is
exact, idempotent, Z-linear and independent of term order; an entry
reduces to the empty polynomial iff it lies in the ideal generated this
way.  Because it is Z-linear, :func:`reduce_terms` rewrites each
distinct monomial of a :class:`~abiwave.symbolic._kernel_py.TermTable`
once and then sums coefficients with NumPy, instead of rewriting every
term of every entry.

:func:`extract_cofactors` takes the same rewrites one at a time on a
term dict, and keeps what each one removes.  Every rewrite is one
elimination step, :func:`_eliminate`: it replaces x = X_var^step by y,
for x = X_src, y = s X_dst in stage one and x = X_v^2,
y = 1 - X_a^2 - X_b^2 in stage two, and collects the quotient q with
p = (rewritten p) + (x - y) q.  Since x - y is a generator up to the
sign -s in stage one, q is that generator's cofactor up to the sign.
"""
from __future__ import annotations

from math import comb

import numpy as np

from . import _kernel_py
from ._kernel_py import TermTable

# stage one substitutes the collinearity relations:
# X7 <- s X4, X8 <- s X5, X9 <- s X6, X16 <- X13, X17 <- s X14, X18 <- s X15
# as (source, target, carries s) with 0-based variable indices
_STAGE1 = ((6, 3, True), (7, 4, True), (8, 5, True),
           (15, 12, False), (16, 13, True), (17, 14, True))
_SOURCES = [src for src, _, _ in _STAGE1]
_TARGETS = [dst for _, dst, _ in _STAGE1]
_SIGNED = [src for src, _, signed in _STAGE1 if signed]

# stage two rewrites squares of the third component of each unit /
# direction-cosine triple still present after stage one:
# X3^2 -> 1 - X1^2 - X2^2 etc.  Entries: (var, partner_a, partner_b)
_STAGE2 = ((2, 0, 1), (5, 3, 4), (11, 9, 10), (14, 12, 13))

# terms per block of whole rows in the term-level steps of reduce_terms
_BLOCK = 2 ** 14


def _var_power(var: int, e: int, c: int = 1) -> dict:
    """The term c X_var^e as a term dict."""
    return {e << (_kernel_py.BITS * var): c}


def build_ideal_generators(eps2: int, eps3: int) -> list[dict]:
    """The twelve generators, as term dicts, for signs (eps2, eps3)."""
    if eps2 not in (1, -1) or eps3 not in (1, -1):
        raise ValueError("generators need eps2, eps3 in {+1, -1}; "
                         "kernel-branch interactions have no orientation")
    s = eps2 * eps3
    gens = []
    for base in range(6):  # P1..P6: X_a^2 + X_b^2 + X_c^2 - 1
        sq = {0: -1}
        for j in range(3):
            _kernel_py.add_into(sq, _var_power(3 * base + j, 2), 1)
        gens.append(sq)
    for src, dst, signed in _STAGE1:  # P7..P12: X_dst - s X_src (P10: s = 1)
        g = _kernel_py.variable(dst)
        _kernel_py.add_into(g, _kernel_py.variable(src), -s if signed else -1)
        gens.append(g)
    return gens


def _trinomials(top: int, dtype):
    """The terms c A^j B^l of (1 - A - B)^m for m = 0..top.

    Returns the arrays j, l and c of all terms, m by m, and each m's
    first term and term count.  ``c`` has the coefficient dtype of the
    table being reduced: ``int64``, which holds every c for top <= 39
    (|c| <= 3^m), or ``object`` for Python ints.
    """
    j, l, c = [], [], []
    for m in range(top + 1):
        for a in range(m + 1):
            for b in range(m + 1 - a):
                j.append(a)
                l.append(b)
                c.append((-1) ** (a + b) * comb(m, a) * comb(m - a, b))
    size = np.array([(m + 1) * (m + 2) // 2 for m in range(top + 1)],
                    dtype=np.int64)
    return (np.array(j, dtype=np.int64), np.array(l, dtype=np.int64),
            np.array(c, dtype=dtype), np.cumsum(size) - size, size)


def _stage2(monos: np.ndarray, dtype):
    """Stage two of each stage-one monomial: (owner, reduced exps, coefs).

    X_v^(2m+r) -> (1 - X_a^2 - X_b^2)^m X_v^r for every (v, a, b) in
    ``_STAGE2``.  Row n of the result is a term of the expansion of
    ``monos[owner[n]]``; ``owner`` is sorted, and the reduced monomials
    of one owner are distinct, since no partner is rewritten itself.
    The coefficients have ``dtype``, the coefficient dtype of the table.
    """
    owner = np.arange(len(monos))
    coefs = np.ones(len(monos), dtype=dtype)
    top = int(monos[:, [v for v, _, _ in _STAGE2]].max(initial=0)) // 2
    tri_j, tri_l, tri_c, tri_start, tri_size = _trinomials(top, dtype)
    for var, pa, pb in _STAGE2:
        m = monos[:, var] >> 1
        if not m.any():
            continue
        size = tri_size[m]
        at = _kernel_py.ranges(tri_start[m], size)
        rep = np.repeat(np.arange(len(monos)), size)
        monos = monos[rep]
        monos[:, var] &= 1
        monos[:, pa] += 2 * tri_j[at]
        monos[:, pb] += 2 * tri_l[at]
        coefs = coefs[rep] * tri_c[at]
        owner = owner[rep]
    return owner, monos, coefs


def reduce_terms(table: TermTable, s: int) -> dict:
    """Normal forms of a term table's rows modulo the orientation-s ideal.

    Returns ``{row: residue term dict}`` for the rows whose normal form
    is nonzero, with Python int coefficients.  The steps:

    1. the packing bound is checked once, on ``table.exps``: stage one
       keeps the total degree and stage two never raises it.  So is the
       int64 bound of an ``int64`` table: stage one only changes signs
       and stage two expands a monomial of degree d into terms whose
       absolute coefficients sum to at most 3^(d // 2), so every int64
       sum of the reduction is exact while sum |c| * 3^(d // 2) < 2**63;
       past it the table moves to Python ints once, here
       (:meth:`~abiwave.symbolic._kernel_py.TermTable.widened`), and the
       same steps run on them;
    2. once per table, on its distinct monomials: stage one moves
       exponent columns, the monomials with an odd power of s are marked
       for a sign change, and stage two expands each distinct stage-one
       monomial;
    3. then over blocks of whole rows of about ``_BLOCK`` terms, so no
       array of products spans the whole table: the terms are merged by
       (row, stage-one monomial), each merged term is multiplied out
       against its monomial's expansion, and the products are merged by
       (row, reduced monomial).
    """
    degree = table.degree()
    if degree > _kernel_py.MAX_EXP:
        raise OverflowError("degree exceeds packing capacity")
    if not len(table):
        return {}
    table = table.widened(3 ** (degree // 2))
    exps = table.exps
    moved = exps.copy()
    moved[:, _TARGETS] += exps[:, _SOURCES]
    moved[:, _SOURCES] = 0
    monos, mono_of_key = _kernel_py.distinct(moved)
    flip = (exps[:, _SIGNED].sum(axis=1) & 1).astype(bool) if s < 0 else None
    owner, reduced, red_coefs = _stage2(monos, table.coefs.dtype)
    reduced, red_id = _kernel_py.distinct(reduced)
    count = np.bincount(owner, minlength=len(monos))
    first = np.cumsum(count) - count

    residues: dict = {}
    ends = np.cumsum(table.sizes)
    lo = 0
    while lo < len(table):
        # the block ends at the first row end at least _BLOCK terms on
        hi = (int(ends[np.searchsorted(ends, lo + _BLOCK)])
              if lo + _BLOCK < len(table) else len(table))
        cols, coefs = table.cols[lo:hi], table.coefs[lo:hi]
        if flip is not None:
            coefs = np.where(flip[cols], -coefs, coefs)
        rows, mono, coefs = _kernel_py.merge(
            table.rows[lo:hi], mono_of_key[cols], coefs, len(monos))
        size = count[mono]
        at = _kernel_py.ranges(first[mono], size)
        rep = np.repeat(np.arange(len(mono)), size)
        rows, mono, coefs = _kernel_py.merge(rows[rep], red_id[at],
                                             coefs[rep] * red_coefs[at],
                                             len(reduced))
        keys = _kernel_py.join_halves(_kernel_py.pack_halves(reduced[mono]))
        for row, key, c in zip(rows.tolist(), keys, coefs.tolist()):
            residues.setdefault(row, {})[key] = c
        lo = hi
    return residues


def reduce_poly(p: dict, s: int) -> dict:
    """Normal form of a term dict; ``{}`` certifies membership in the ideal."""
    if s not in (1, -1):
        raise ValueError("orientation sign must be +1 or -1")
    return reduce_terms(TermTable([p]), s).get(0, {})


# ----------------------------------------------------------------------
# cofactor extraction (slow path, exactness checked by re-expansion)
# ----------------------------------------------------------------------

def _eliminate(p: dict, var: int, step: int, x: dict, y: dict):
    """Rewrite X_var^step to y in p: (p with X_var reduced, q).

    p splits by the exponent e = n step + r (0 <= r < step) of X_var
    into terms p_e X_var^e, each of which becomes y^n X_var^r p_e.  The
    difference goes into q through x^n - y^n = (x - y) t_n, where x is
    X_var^step and t_(n+1) = x t_n + y^n, t_0 = 0, is built as n grows;
    so p = (rewritten p) + (x - y) q.
    """
    shift = _kernel_py.BITS * var
    parts: dict[int, dict] = {}  # n: the terms X_var^r p_e
    for key, c in p.items():
        n = ((key >> shift) & _kernel_py.MASK) // step
        parts.setdefault(n, {})[key - (n * step << shift)] = c
    out: dict = {}
    q: dict = {}
    y_n, t_n = {0: 1}, {}
    for n in range(max(parts, default=0) + 1):
        if n:
            t_n = _kernel_py.mul(x, t_n)
            _kernel_py.add_into(t_n, y_n, 1)
            y_n = _kernel_py.mul(y_n, y)
        if n in parts:
            _kernel_py.add_into(out, _kernel_py.mul(y_n, parts[n]), 1)
            _kernel_py.add_into(q, _kernel_py.mul(t_n, parts[n]), 1)
    return out, q


def extract_cofactors(p: dict, eps2: int, eps3: int):
    """Cofactors Q1..Q12 with p = reduce(p) + sum Q_i P_i, exactly.

    Takes a term dict and returns the twelve cofactors and the residue
    as term dicts.  Each rewrite of the two stages is one
    :func:`_eliminate`: the n-th ``_STAGE1`` row puts y = s X_dst for
    x = X_src (s = 1 for P10), and x - y = -s P_(7+n) gives the
    cofactor -s q; a ``_STAGE2`` row puts y = 1 - X_a^2 - X_b^2 for
    x = X_v^2, and x - y is the unit-sum generator of the triple holding
    X_v, whose cofactor is q.  The identity is re-verified by exact
    expansion before returning.
    """
    s = eps2 * eps3
    gens = build_ideal_generators(eps2, eps3)
    cof = [{} for _ in range(12)]
    cur = p
    for gi, (src, dst, signed) in enumerate(_STAGE1, start=6):
        sign = s if signed else 1
        cur, q = _eliminate(cur, src, 1, _var_power(src, 1),
                            _var_power(dst, 1, sign))
        cof[gi] = {k: -sign * v for k, v in q.items()}
    for var, pa, pb in _STAGE2:
        one_minus = {0: 1, **_var_power(pa, 2, -1), **_var_power(pb, 2, -1)}
        cur, cof[var // 3] = _eliminate(cur, var, 2, _var_power(var, 2),
                                        one_minus)

    # exact re-expansion check: p == residue + sum Q_i P_i
    recon = dict(cur)
    for q, g in zip(cof, gens):
        _kernel_py.add_into(recon, _kernel_py.mul(q, g), 1)
    if recon != p:
        raise AssertionError("cofactor re-expansion failed")
    return cof, cur


def numeric_embedding(xi, eta, state) -> np.ndarray:
    """iota(xi, eta): the 18 layout values at an off-axis sample."""
    from ..state import alpha_beta_delta

    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    out = np.empty(xi.shape[:-1] + (18,))
    for (u, c), vec in zip(_kernel_py.SLOT_BASES, (xi, eta, xi - eta)):
        out[..., u:u + 3] = vec / np.linalg.norm(vec, axis=-1, keepdims=True)
        out[..., c], out[..., c + 1], out[..., c + 2] = \
            alpha_beta_delta(vec, state)
    return out
