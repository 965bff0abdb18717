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
X16..X18, then rewrite even powers of X3, X6, X12, X15.  It is exact,
idempotent, Z-linear and independent of term order; an entry reduces to
the empty polynomial iff it lies in the ideal generated this way.
"""
from __future__ import annotations

import numpy as np

from . import _kernel_py
from .poly import IntPolynomial


def build_ideal_generators(eps2: int, eps3: int) -> list[IntPolynomial]:
    """The twelve generators for an interaction of signs (eps2, eps3)."""
    if eps2 not in (1, -1) or eps3 not in (1, -1):
        raise ValueError("generators need eps2, eps3 in {+1, -1}; "
                         "kernel-branch interactions have no orientation")
    s = eps2 * eps3
    gens = []
    for base in range(6):
        sq = IntPolynomial.const(-1)
        for j in range(3):
            v = IntPolynomial.variable(3 * base + j)
            sq = sq + v * v
        gens.append(sq)
    for j in range(3):  # P7..P9: eta vs xi-eta unit vectors
        gens.append(IntPolynomial.variable(3 + j)
                    - IntPolynomial.variable(6 + j, coeff=1) * s)
    gens.append(IntPolynomial.variable(12) - IntPolynomial.variable(15))
    gens.append(IntPolynomial.variable(13) - IntPolynomial.variable(16, 1) * s)
    gens.append(IntPolynomial.variable(14) - IntPolynomial.variable(17, 1) * s)
    return gens


def reduce_terms(terms: dict, s: int) -> dict:
    """Normal form of a bare term-dict modulo the orientation-s ideal.

    The packing bound is checked here, once: stage one keeps the total
    degree and stage two never raises it.
    """
    if _kernel_py.degree(terms) > _kernel_py.MAX_EXP:
        raise OverflowError("degree exceeds packing capacity")
    return _kernel_py.stage2_rewrite(_kernel_py.stage1_substitute(terms, s))


def reduce_poly(p: IntPolynomial, s: int) -> IntPolynomial:
    """Normal form; zero result certifies membership in the ideal."""
    if s not in (1, -1):
        raise ValueError("orientation sign must be +1 or -1")
    return IntPolynomial(reduce_terms(p.terms, s), p.scale_log2, p.i_power)


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


def extract_cofactors(p: IntPolynomial, eps2: int, eps3: int):
    """Cofactors Q1..Q12 with p = reduce(p) + sum Q_i P_i, exactly.

    Only available for entries whose normal form is zero (certified
    residue-zero); the identity is re-verified by exact expansion
    before returning.
    """
    s = eps2 * eps3
    gens = build_ideal_generators(eps2, eps3)
    cof = [IntPolynomial.zero() for _ in range(12)]
    cur = dict(p.terms)

    # stage 1: for each substituted variable, p = sum_e X^e p_e and
    # X^e - (s X')^e = (X - s X') * sum_{m<e} X^m (s X')^{e-1-m};
    # the n-th substitution is generator P_{7+n}
    for gi, (src, dst, signed) in enumerate(_kernel_py._STAGE1, start=6):
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
        cof[gi] = cof[gi] + IntPolynomial(q_terms)
        cur = new

    # stage 2: X_v^{2m+r} = (1 - A^2 - B^2)^m X_v^r + P * telescope,
    # where P is the unit-sum generator of the triple holding X_v
    for var, pa, pb in _kernel_py._STAGE2:
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
        cof[gi] = cof[gi] + IntPolynomial(q_terms)
        cur = new

    residue = IntPolynomial(cur)
    # exact re-expansion check: p == residue + sum Q_i P_i
    recon = residue
    for q, g in zip(cof, gens):
        recon = recon + q * g
    if recon.terms != p.terms:
        raise AssertionError("cofactor re-expansion failed")
    return cof, residue


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
