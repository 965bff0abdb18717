"""Per-entry dict reducer the package is tested against.

The two-stage normal form term by term on one term dict, as the package
computed it before :func:`abiwave.symbolic.ideal.reduce_terms` moved to
term tables: stage one substitutes the collinearity relations key by
key, stage two expands even powers of X3, X6, X12, X15 one variable at a
time, merging terms in a dict after each.  It is the differential
oracle of the table reducer: residues must be exactly equal.

:func:`extract_cofactors` is the cofactor extraction as the package
wrote it before :func:`abiwave.symbolic.ideal._eliminate`: the
telescoping sum of each rewrite written out by hand, once per stage.
It is the oracle of the package's cofactors, which must be equal as
term dicts.
"""
from __future__ import annotations

from math import comb

from abiwave.symbolic._kernel_py import (BITS, MASK, MAX_EXP, add_into,
                                         degree, mul)
from abiwave.symbolic.ideal import _STAGE1, _STAGE2, build_ideal_generators


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


def _var_power(var: int, e: int) -> dict:
    return {e << (BITS * var): 1}


def _split_variable(terms: dict, var: int):
    """Represent p as {exponent e of X_var: polynomial in the rest}."""
    out: dict[int, dict] = {}
    for key, v in terms.items():
        e = (key >> (BITS * var)) & MASK
        rest = key - (e << (BITS * var))
        out.setdefault(e, {})[rest] = v
    return out


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
            sub = mul(_var_power(dst, e), pe)
            if ssub < 0 and (e & 1):
                sub = {k: -v for k, v in sub.items()}
            add_into(new, sub, 1)
            if e:
                # telescoping cofactor of (X_src - ssub X_dst); generator is
                # P = X_dst - ssub X_src, and X_src - ssub X_dst = -ssub P
                tele: dict = {}
                for m in range(e):
                    part = mul(_var_power(src, m), _var_power(dst, e - 1 - m))
                    coeff = ssub ** (e - 1 - m)
                    add_into(tele, part, coeff)
                q = mul(tele, pe)
                add_into(q_terms, q, -ssub)
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
        add_into(one_minus, _var_power(pa, 2), -1)
        add_into(one_minus, _var_power(pb, 2), -1)
        for e, pe in split.items():
            m, r = divmod(e, 2)
            # (1 - A^2 - B^2)^m
            acc = {0: 1}
            for _ in range(m):
                acc = mul(acc, one_minus)
            repl = mul(acc, _var_power(var, r))
            add_into(new, mul(repl, pe), 1)
            if m:
                # X^2m - (1-A^2-B^2)^m = P1 * sum_j X^{2j} (1-A^2-B^2)^{m-1-j}
                tele: dict = {}
                pw = {0: 1}
                pows = [dict(pw)]
                for _ in range(m - 1):
                    pw = mul(pw, one_minus)
                    pows.append(dict(pw))
                for j in range(m):
                    part = mul(_var_power(var, 2 * j), pows[m - 1 - j])
                    add_into(tele, part, 1)
                q = mul(mul(tele, pe), _var_power(var, r))
                add_into(q_terms, q, 1)
        cof[gi] = q_terms
        cur = new

    # exact re-expansion check: p == residue + sum Q_i P_i
    recon = dict(cur)
    for q, g in zip(cof, gens):
        add_into(recon, mul(q, g), 1)
    if recon != p:
        raise AssertionError("cofactor re-expansion failed")
    return cof, cur
