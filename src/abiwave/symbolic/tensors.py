"""Exact projected interaction tensors.

Each bilinear interaction (eps1, eps2 eps3) of the evolution is the
10x10x10 tensor

    P^{eps1}(xi) . B(xi,eta) . [P^{eps2}(xi-eta) (x) P^{eps3}(eta)],

normalized by one factor -i |xi - eta| so every entry is an integer
polynomial in the eighteen layout variables (after clearing the halves
carried by the wave projectors).  The constraint interactions drop the
outer projector and have five rows.  Entries are built term by term
from the shared quadratic tables of :mod:`abiwave.system`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import system
from . import _kernel_py
from .poly import IntPolynomial

# variable bases per frequency slot: (unit-vector base, cosine base)
SLOT_XI = (0, 9)
SLOT_ETA = (3, 12)
SLOT_W = (6, 15)  # xi - eta

_EPS3 = np.zeros((3, 3, 3), dtype=int)
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1
    _EPS3[_i, _k, _j] = -1


def _var(idx: int) -> dict:
    return {1 << (_kernel_py.BITS * idx): 1}


def _mono2(i1: int, i2: int, c: int = 1) -> dict:
    key = (1 << (_kernel_py.BITS * i1)) + (1 << (_kernel_py.BITS * i2))
    return {key: c}


def projector_terms(branch: int, slot: tuple[int, int]):
    """10x10 matrix of bare term-dicts for a projector at one slot.

    Wave branches are returned doubled (the entries of 2 P^{+-}) so all
    coefficients are integers; the kernel branch is returned as is.
    The caller tracks the factor-of-two count.
    """
    ub, cb = slot
    u = [_var(ub + i) for i in range(3)]
    al, be, de = _var(cb), _var(cb + 1), _var(cb + 2)

    def m(*dicts, c=1):
        out = {0: c}
        for dd in dicts:
            out = _kernel_py.mul(out, dd)
        return out

    def cross(i, j):
        """Entries of the unit-vector cross matrix: C[i][j] x_j = (u ^ x)_i."""
        out: dict = {}
        for k in range(3):
            e = int(_EPS3[i, k, j])
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
    """Exact projected tensor, its scale and the build provenance."""

    eps: tuple[int, int, int]  # (eps1, eps2, eps3); eps1 ignored for Nprime
    which: str                 # "evolution" or "constraint"
    entries: list              # nested lists [i][j][k] of bare term-dicts
    scale_log2: int            # cleared projector halves
    i_power: int = 3           # one factor of -i from the single derivative

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.entries), 10, 10)

    def iter_entries(self):
        for i, plane in enumerate(self.entries):
            for j, line in enumerate(plane):
                for k, terms in enumerate(line):
                    yield (i, j, k), terms

    def entry(self, i, j, k) -> IntPolynomial:
        return IntPolynomial(self.entries[i][j][k], self.scale_log2,
                             self.i_power)

    def max_degree(self) -> int:
        # entries share most monomials: each distinct key is scanned once
        return _kernel_py.degree({key for _, t in self.iter_entries()
                                  for key in t})

    def term_counts(self) -> tuple[int, int]:
        counts = [len(t) for _, t in self.iter_entries()]
        return (max(counts, default=0), int(np.sum(counts)))

    def evaluate(self, layout_values: np.ndarray) -> np.ndarray:
        """Float tensor at a numeric embedding point (scale included)."""
        return self.evaluator()(np.asarray(layout_values)[None])[0]

    def evaluator(self):
        """Batch numeric evaluator: (npoints, 18) -> (npoints, *shape).

        Monomial values are shared across entries, which makes the
        floating cross-check gate cheap.
        """
        keys = sorted({k for _, t in self.iter_entries() for k in t})
        index = {k: n for n, k in enumerate(keys)}
        exps = np.array([_kernel_py.unpack(k) for k in keys], dtype=np.int64) \
            if keys else np.zeros((0, _kernel_py.NVARS), dtype=np.int64)
        entry_idx = {}
        for (i, j, k), terms in self.iter_entries():
            if terms:
                entry_idx[(i, j, k)] = (
                    np.array([index[key] for key in terms], dtype=np.int64),
                    np.array(list(terms.values()), dtype=float),
                )
        scale = 2.0 ** self.scale_log2
        shape = self.shape

        def _eval(points: np.ndarray) -> np.ndarray:
            points = np.asarray(points, dtype=float)
            mono = np.prod(points[:, None, :] ** exps[None, :, :], axis=2) \
                if len(keys) else np.zeros((len(points), 0))
            out = np.zeros((len(points),) + shape)
            for (i, j, k), (idx, coef) in entry_idx.items():
                out[:, i, j, k] = mono[:, idx] @ coef
            return out / scale

        return _eval


def _max_degree(matrix) -> int:
    """Largest total degree among a projector's entries (0 for None)."""
    if matrix is None:
        return 0
    return _kernel_py.degree(key for line in matrix for t in line
                             for key in t)


def build_interaction_tensor(eps: tuple[int, int, int],
                             which: str = "evolution") -> InteractionTensor:
    """Contract the quadratic table with the slot projectors, exactly.

    The differentiated factor sits in the xi - eta slot; its direction
    index enters as the corresponding unit-vector variable X7..X9.
    """
    e1, e2, e3 = eps
    if which not in ("evolution", "constraint"):
        raise ValueError("which must be 'evolution' or 'constraint'")
    for e in ((e1, e2, e3) if which == "evolution" else (e2, e3)):
        if e not in (1, -1):
            raise ValueError("tensor build needs wave-branch signs only")
    P2 = projector_terms(e2, SLOT_W)
    P3 = projector_terms(e3, SLOT_ETA)
    nrows = 10 if which == "evolution" else 5
    terms_table = (system.EVOLUTION_TERMS if which == "evolution"
                   else system.CONSTRAINT_TERMS)
    entries = [[[dict() for _ in range(10)] for _ in range(10)]
               for _ in range(nrows)]
    if which == "evolution":
        P1 = projector_terms(e1, SLOT_XI)
        scale = 3
    else:
        P1 = None
        scale = 2
    # every product below is P1 * (P2 * X_dir) * P3: check the packing
    # bound once here, so the contraction loop need not
    if (_max_degree(P1) + _max_degree(P2) + 1 + _max_degree(P3)
            > _kernel_py.MAX_EXP):
        raise OverflowError("product degree exceeds packing capacity")

    folded = {}  # (c_diff, jdir) -> nonzero (j, P2[c_diff][j] * X_dir)
    for row, a_undiff, c_diff, jdir, sign in terms_table:
        if (c_diff, jdir) not in folded:
            dvar = _var(SLOT_W[0] + jdir)
            folded[c_diff, jdir] = [(j, _kernel_py.mul(p2, dvar))
                                    for j, p2 in enumerate(P2[c_diff]) if p2]
        # the constraint interactions have no outer projector
        outer = ([(row, {0: 1})] if P1 is None else
                 [(i, P1[i][row]) for i in range(10) if P1[i][row]])
        for j, m2 in folded[c_diff, jdir]:
            for k in range(10):
                p3 = P3[a_undiff][k]
                if not p3:
                    continue
                for i, p1 in outer:
                    _kernel_py.mul_add_into(entries[i][j][k], sign,
                                            p1, m2, p3)
    return InteractionTensor(eps=(e1, e2, e3), which=which, entries=entries,
                             scale_log2=scale)


def chaplygin_substitute(terms: dict) -> dict:
    """Evaluate alpha = 1, beta = delta = 0 in every slot.

    This is the four-component (tau, v) subsystem reduction: monomials
    containing any beta or delta variable vanish, alpha exponents drop.
    """
    bits = _kernel_py.BITS
    mask = _kernel_py.MASK
    out: dict = {}
    alphas = (9, 12, 15)
    zeroed = (10, 11, 13, 14, 16, 17)
    for key, v in terms.items():
        if any((key >> (bits * z)) & mask for z in zeroed):
            continue
        nk = key
        for a in alphas:
            e = (nk >> (bits * a)) & mask
            if e:
                nk -= e << (bits * a)
        nv = out.get(nk, 0) + v
        if nv:
            out[nk] = nv
        else:
            del out[nk]
    return out
