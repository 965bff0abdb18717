"""Direct triple-product tensor build the package is tested against.

The interaction tensors as the package built them before
:func:`abiwave.symbolic.tensors.build_interaction_tensor` split the
contraction into an inner B.(P2 (x) P3) stage and an outer P1 stage:
every product P1 * (P2 * X_dir) * P3 is expanded term by term straight
into the entry it lands in, with its own three-factor loop.  It is the
differential oracle of the two-stage build: entries must be equal as
term dicts.
"""
from __future__ import annotations

from abiwave import system
from abiwave.symbolic import _kernel_py
from abiwave.symbolic._kernel_py import variable
from abiwave.symbolic.tensors import (SLOT_ETA, SLOT_W, SLOT_XI,
                                      projector_terms)


def _mul3_add_into(acc: dict, c: int, p: dict, q: dict, r: dict) -> None:
    """acc += c * p * q * r, dropping cancelled terms."""
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


def build_entries(eps: tuple[int, int, int], which: str = "evolution"):
    """Nested lists [i][j][k] of term dicts, the entries that
    ``tensor.iter_entries()`` reads from the table."""
    e1, e2, e3 = eps
    P2 = projector_terms(e2, SLOT_W)
    P3 = projector_terms(e3, SLOT_ETA)
    if which == "evolution":
        P1, terms_table, nrows = (projector_terms(e1, SLOT_XI),
                                  system.EVOLUTION_TERMS, 10)
    else:
        P1, terms_table, nrows = None, system.CONSTRAINT_TERMS, 5
    entries = [[[dict() for _ in range(10)] for _ in range(10)]
               for _ in range(nrows)]
    for row, a_undiff, c_diff, jdir, sign in terms_table:
        dvar = variable(SLOT_W[0] + jdir)
        outer = ([(row, {0: 1})] if P1 is None else
                 [(i, P1[i][row]) for i in range(10) if P1[i][row]])
        for j in range(10):
            m2 = _kernel_py.mul(P2[c_diff][j], dvar)
            if not m2:
                continue
            for k in range(10):
                p3 = P3[a_undiff][k]
                if not p3:
                    continue
                for i, p1 in outer:
                    _mul3_add_into(entries[i][j][k], sign, p1, m2, p3)
    return entries
