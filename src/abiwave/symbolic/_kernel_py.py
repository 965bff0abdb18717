"""Kernel for sparse exact-integer polynomial arithmetic.

A polynomial in the eighteen layout variables is a dict mapping a
packed monomial key to a nonzero Python integer.  Exponents occupy
seven bits per variable inside one arbitrary-precision integer key, so
monomial multiplication is a single integer addition.  That addition is
carry-free while every total degree stays at most ``MAX_EXP``.  The
bound is checked once where it is decided, not in the inner loops:

* :func:`mul` and :func:`pack` check their own inputs;
* :func:`mul_add_into` trusts its caller:
  :func:`abiwave.symbolic.tensors.build_interaction_tensor` checks the
  factor degrees once per tensor;
* :func:`stage1_substitute` and :func:`stage2_rewrite` trust
  :func:`abiwave.symbolic.ideal.reduce_terms`, which checks each entry
  once (stage one keeps the total degree, stage two never raises it).

This is the only polynomial kernel; every symbolic module uses it.
"""
from __future__ import annotations

NVARS = 18
BITS = 7
MASK = (1 << BITS) - 1
MAX_EXP = MASK

# substitution targets for the first reduction stage:
# X7 <- s X4, X8 <- s X5, X9 <- s X6, X16 <- X13, X17 <- s X14, X18 <- s X15
# (0-based variable indices)
_STAGE1 = ((6, 3, True), (7, 4, True), (8, 5, True),
           (15, 12, False), (16, 13, True), (17, 14, True))

# second stage: rewrite squares of the third component of each unit /
# direction-cosine triple still present after stage one:
# X3^2 -> 1 - X1^2 - X2^2 etc.  Entries: (var, partner_a, partner_b)
_STAGE2 = ((2, 0, 1), (5, 3, 4), (11, 9, 10), (14, 12, 13))


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


def degree(terms) -> int:
    """Total degree (0 for the zero polynomial).

    Takes a term dict or any iterable of packed keys, so the largest
    degree over many polynomials costs one call.
    """
    best = 0
    for key in terms:
        d = 0
        k = key
        while k:
            d += k & MASK
            k >>= BITS
        if d > best:
            best = d
    return best


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


def mul_add_into(acc: dict, c: int, p: dict, q: dict, r: dict) -> None:
    """acc += c * p * q * r for small factors (tensor contraction core).

    Precondition: degree(p) + degree(q) + degree(r) <= MAX_EXP.  It is
    not checked here; the caller checks it once for all its factors.
    """
    if c == 0 or not p or not q or not r:
        return
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            k12 = k1 + k2
            v12 = c * v1 * v2
            for k3, v3 in r.items():
                k = k12 + k3
                nv = acc.get(k, 0) + v12 * v3
                if nv:
                    acc[k] = nv
                else:
                    del acc[k]


def stage1_substitute(p: dict, s: int) -> dict:
    """Eliminate the xi-eta slot variables using the collinearity relations.

    Each monomial X7^a X8^b X9^c X16^d X17^e X18^f picks up the factor
    s^(a+b+c+e+f) and moves those exponents onto X4, X5, X6, X13, X14,
    X15 respectively.  Precondition: degree(p) <= MAX_EXP, checked by
    the caller.
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


_MULTINOM_CACHE: dict = {}


def _trinomial_rows(m: int):
    """Coefficients of (1 - A - B)^m as {(j, l): coeff} with A^j B^l."""
    if m in _MULTINOM_CACHE:
        return _MULTINOM_CACHE[m]
    from math import comb
    rows = {}
    for j in range(m + 1):
        for l in range(m + 1 - j):
            c = comb(m, j) * comb(m - j, l)
            if (j + l) & 1:
                c = -c
            rows[(j, l)] = c
    _MULTINOM_CACHE[m] = rows
    return rows


def stage2_rewrite(p: dict) -> dict:
    """Rewrite even powers of the four dependent variables.

    X3^(2m+r) -> (1 - X1^2 - X2^2)^m X3^r and likewise for X6, X12,
    X15; afterwards those variables appear with exponent zero or one.
    Precondition: degree(p) <= MAX_EXP, checked by the caller.
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


def evaluate(p: dict, values) -> float:
    """Evaluate at a float 18-vector (used by the numeric gates)."""
    vals = list(values)
    total = 0.0
    for key, c in p.items():
        t = float(c)
        k = key
        i = 0
        while k:
            e = k & MASK
            if e:
                t *= vals[i] ** e
            k >>= BITS
            i += 1
        total += t
    return total
