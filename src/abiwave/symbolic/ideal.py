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
            v = _kernel_py.variable(3 * base + j)
            _kernel_py.add_into(sq, _kernel_py.mul(v, v), 1)
        gens.append(sq)
    for src, dst, signed in _STAGE1:  # P7..P12: X_dst - s X_src (P10: s = 1)
        g = _kernel_py.variable(dst)
        _kernel_py.add_into(g, _kernel_py.variable(src), -s if signed else -1)
        gens.append(g)
    return gens


def _distinct(exps: np.ndarray):
    """Distinct rows of an exponent array, and each row's index among them."""
    halves = _kernel_py.pack_halves(exps)
    order = np.lexsort(halves.T)
    halves = halves[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (halves[1:] != halves[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return exps[order[new]], inverse


def _trinomials(top: int):
    """The terms c A^j B^l of (1 - A - B)^m for m = 0..top.

    Returns the arrays j, l and c (Python ints) of all terms, m by m, and
    each m's first term and term count.
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
    coefs = np.empty(len(c), dtype=object)
    coefs[:] = c
    return (np.array(j, dtype=np.int64), np.array(l, dtype=np.int64), coefs,
            np.cumsum(size) - size, size)


def _stage2(monos: np.ndarray):
    """Stage two of each stage-one monomial: (owner, reduced exps, coefs).

    X_v^(2m+r) -> (1 - X_a^2 - X_b^2)^m X_v^r for every (v, a, b) in
    ``_STAGE2``.  Row n of the result is a term of the expansion of
    ``monos[owner[n]]``; ``owner`` is sorted, and the reduced monomials
    of one owner are distinct, since no partner is rewritten itself.
    """
    owner = np.arange(len(monos))
    coefs = np.ones(len(monos), dtype=object)
    top = int(monos[:, [v for v, _, _ in _STAGE2]].max(initial=0)) // 2
    tri_j, tri_l, tri_c, tri_start, tri_size = _trinomials(top)
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


def _stage1(table: TermTable, s: int):
    """Stage one, merged: (stage-one monomials, rows, monomial, coefs)."""
    exps = table.exps
    moved = exps.copy()
    moved[:, _TARGETS] += exps[:, _SOURCES]
    moved[:, _SOURCES] = 0
    monos, mono_of_key = _distinct(moved)
    coefs = table.coefs
    if s < 0:
        flip = (exps[:, _SIGNED].sum(axis=1) & 1).astype(bool)[table.cols]
        coefs = coefs.copy()
        coefs[flip] = -coefs[flip]
    return (monos,) + _kernel_py.merge(table.rows, mono_of_key[table.cols],
                                       coefs, len(monos))


def reduce_terms(table: TermTable, s: int) -> dict:
    """Normal forms of a term table's rows modulo the orientation-s ideal.

    Returns ``{row: residue term dict}`` for the rows whose normal form
    is nonzero.  The steps:

    1. the packing bound is checked once, on ``table.exps``: stage one
       keeps the total degree and stage two never raises it;
    2. stage one moves exponent columns of the distinct monomials, and
       the terms of monomials with an odd power of s change sign;
    3. terms are merged by (row, stage-one monomial);
    4. stage two expands each distinct stage-one monomial once;
    5. each merged term is multiplied out against its monomial's
       expansion, and the products are merged by (row, reduced monomial).
    """
    if table.degree() > _kernel_py.MAX_EXP:
        raise OverflowError("degree exceeds packing capacity")
    if not len(table):
        return {}
    monos, rows, mono, coefs = _stage1(table, s)

    owner, reduced, red_coefs = _stage2(monos)
    reduced, red_id = _distinct(reduced)
    count = np.bincount(owner, minlength=len(monos))
    size = count[mono]
    at = _kernel_py.ranges((np.cumsum(count) - count)[mono], size)
    rep = np.repeat(np.arange(len(mono)), size)
    coefs = coefs[rep]
    red_coefs = red_coefs[at]
    scaled = red_coefs != 1  # most expansions are the monomial itself
    coefs[scaled] = coefs[scaled] * red_coefs[scaled]
    rows, mono, coefs = _kernel_py.merge(rows[rep], red_id[at], coefs,
                                         len(reduced))

    residues: dict = {}
    keys = _kernel_py.join_halves(_kernel_py.pack_halves(reduced[mono]))
    for row, key, c in zip(rows.tolist(), keys, coefs):
        residues.setdefault(row, {})[key] = c
    return residues


def reduce_poly(p: dict, s: int) -> dict:
    """Normal form of a term dict; ``{}`` certifies membership in the ideal."""
    if s not in (1, -1):
        raise ValueError("orientation sign must be +1 or -1")
    return reduce_terms(TermTable([p]), s).get(0, {})


# ----------------------------------------------------------------------
# cofactor extraction (slow path, exactness checked by re-expansion)
# ----------------------------------------------------------------------

def _split_variable(terms: dict, var: int):
    """Represent p as {exponent e of X_var: polynomial in the rest}."""
    out: dict[int, dict] = {}
    bits = _kernel_py.BITS
    mask = _kernel_py.MASK
    for key, v in terms.items():
        e = (key >> (bits * var)) & mask
        rest = key - (e << (bits * var))
        out.setdefault(e, {})[rest] = v
    return out


def _var_power(var: int, e: int) -> dict:
    return {e << (_kernel_py.BITS * var): 1}


def extract_cofactors(p: dict, eps2: int, eps3: int):
    """Cofactors Q1..Q12 with p = reduce(p) + sum Q_i P_i, exactly.

    Takes a term dict and returns the twelve cofactors and the residue
    as term dicts.  The identity is re-verified by exact expansion
    before returning.
    """
    s = eps2 * eps3
    gens = build_ideal_generators(eps2, eps3)
    cof = [{} for _ in range(12)]
    cur = dict(p)

    # stage 1: for each substituted variable, p = sum_e X^e p_e and
    # X^e - (s X')^e = (X - s X') * sum_{m<e} X^m (s X')^{e-1-m};
    # the n-th substitution is generator P_{7+n}
    for gi, (src, dst, signed) in enumerate(_STAGE1, start=6):
        split = _split_variable(cur, src)
        new: dict = {}
        q_terms: dict = {}
        for e, pe in split.items():
            ssub = s if signed else 1
            # substituted part: (s X_dst)^e * p_e
            sub = _kernel_py.mul(_var_power(dst, e), pe)
            if ssub < 0 and (e & 1):
                sub = {k: -v for k, v in sub.items()}
            _kernel_py.add_into(new, sub, 1)
            if e:
                # telescoping cofactor of (X_src - ssub X_dst); generator is
                # P = X_dst - ssub X_src, and X_src - ssub X_dst = -ssub P
                tele: dict = {}
                for m in range(e):
                    part = _kernel_py.mul(_var_power(src, m),
                                          _var_power(dst, e - 1 - m))
                    coeff = ssub ** (e - 1 - m)
                    _kernel_py.add_into(tele, part, coeff)
                q = _kernel_py.mul(tele, pe)
                _kernel_py.add_into(q_terms, q, -ssub)
        cof[gi] = q_terms
        cur = new

    # stage 2: X_v^{2m+r} = (1 - A^2 - B^2)^m X_v^r + P * telescope,
    # where P is the unit-sum generator of the triple holding X_v
    for var, pa, pb in _STAGE2:
        gi = var // 3
        split = _split_variable(cur, var)
        new: dict = {}
        q_terms: dict = {}
        one_minus: dict = {0: 1}
        _kernel_py.add_into(one_minus, _var_power(pa, 2), -1)
        _kernel_py.add_into(one_minus, _var_power(pb, 2), -1)
        for e, pe in split.items():
            m, r = divmod(e, 2)
            # (1 - A^2 - B^2)^m
            acc = {0: 1}
            for _ in range(m):
                acc = _kernel_py.mul(acc, one_minus)
            repl = _kernel_py.mul(acc, _var_power(var, r))
            _kernel_py.add_into(new, _kernel_py.mul(repl, pe), 1)
            if m:
                # X^2m - (1-A^2-B^2)^m = P1 * sum_j X^{2j} (1-A^2-B^2)^{m-1-j}
                tele: dict = {}
                pw = {0: 1}
                pows = [dict(pw)]
                for _ in range(m - 1):
                    pw = _kernel_py.mul(pw, one_minus)
                    pows.append(dict(pw))
                for j in range(m):
                    part = _kernel_py.mul(_var_power(var, 2 * j),
                                          pows[m - 1 - j])
                    _kernel_py.add_into(tele, part, 1)
                q = _kernel_py.mul(_kernel_py.mul(tele, pe), _var_power(var, r))
                _kernel_py.add_into(q_terms, q, 1)
        cof[gi] = q_terms
        cur = new

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
    w = xi - eta
    out = np.empty(xi.shape[:-1] + (18,))
    out[..., 0:3] = xi / np.linalg.norm(xi, axis=-1, keepdims=True)
    out[..., 3:6] = eta / np.linalg.norm(eta, axis=-1, keepdims=True)
    out[..., 6:9] = w / np.linalg.norm(w, axis=-1, keepdims=True)
    for base, vec in ((9, xi), (12, eta), (15, w)):
        a, b, d = alpha_beta_delta(vec, state)
        out[..., base] = a
        out[..., base + 1] = b
        out[..., base + 2] = d
    return out
