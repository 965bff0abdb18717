"""Per-entry dict reducer the package is tested against.

The two-stage normal form term by term on one term dict, as the package
computed it before :func:`abiwave.symbolic.ideal.reduce_terms` moved to
term tables: stage one substitutes the collinearity relations key by
key, stage two expands even powers of X3, X6, X12, X15 one variable at a
time, merging terms in a dict after each.  It is the differential
oracle of the table reducer: residues must be exactly equal.
"""
from __future__ import annotations

from math import comb

from abiwave.symbolic._kernel_py import BITS, MASK, MAX_EXP, degree
from abiwave.symbolic.ideal import _STAGE1, _STAGE2


def stage1_substitute(p: dict, s: int) -> dict:
    """Eliminate the xi-eta slot variables using the collinearity relations.

    Each monomial X7^a X8^b X9^c X16^d X17^e X18^f picks up the factor
    s^(a+b+c+e+f) and moves those exponents onto X4, X5, X6, X13, X14,
    X15 respectively.
    """
    out: dict = {}
    for key, v in p.items():
        sign_pow = 0
        nk = key
        for src, dst, signed in _STAGE1:
            e = (key >> (BITS * src)) & MASK
            if e:
                nk -= e << (BITS * src)
                nk += e << (BITS * dst)  # carry-free: merged exponent <= degree
                if signed:
                    sign_pow += e
        if s < 0 and (sign_pow & 1):
            v = -v
        nv = out.get(nk, 0) + v
        if nv:
            out[nk] = nv
        else:
            del out[nk]
    return out


def _trinomial_rows(m: int) -> dict:
    """Coefficients of (1 - A - B)^m as {(j, l): coeff} with A^j B^l."""
    rows = {}
    for j in range(m + 1):
        for l in range(m + 1 - j):
            c = comb(m, j) * comb(m - j, l)
            if (j + l) & 1:
                c = -c
            rows[(j, l)] = c
    return rows


def stage2_rewrite(p: dict) -> dict:
    """Rewrite even powers of the four dependent variables.

    X3^(2m+r) -> (1 - X1^2 - X2^2)^m X3^r and likewise for X6, X12,
    X15; afterwards those variables appear with exponent zero or one.
    """
    cur = p
    for var, pa, pb in _STAGE2:
        out: dict = {}
        sh = BITS * var
        for key, v in cur.items():
            e = (key >> sh) & MASK
            if e < 2:
                nv = out.get(key, 0) + v
                if nv:
                    out[key] = nv
                else:
                    del out[key]
                continue
            m, r = divmod(e, 2)
            base = key - ((e - r) << sh)
            for (j, l), c in _trinomial_rows(m).items():
                nk = base + (2 * j << (BITS * pa)) + (2 * l << (BITS * pb))
                nv = out.get(nk, 0) + c * v
                if nv:
                    out[nk] = nv
                else:
                    del out[nk]
        cur = out
    return cur


def reduce_entry(terms: dict, s: int) -> dict:
    """Normal form of one term dict; the packing bound checked first."""
    if degree(terms) > MAX_EXP:
        raise OverflowError("degree exceeds packing capacity")
    return stage2_rewrite(stage1_substitute(terms, s))
