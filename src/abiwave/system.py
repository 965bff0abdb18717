"""Quadratic structure of the ten-component system, as shared tables.

Each quadratic term of the evolution (and of the constraint equations)
has the shape ``sign * U_a * d_j U_c``.  The tables below list
``(row, a, c, j, sign)`` tuples with the component layout of
:mod:`abiwave.fields` (0 = tau, 1..3 = v, 4..6 = b, 7..9 = d); they are
the single source of truth for

* the pseudo-spectral right-hand side (:mod:`abiwave.simulate`) and the
  grid constraint residual (:func:`abiwave.diagnostics.constraint_residual`),
  both through :func:`quadratic`,
* the floating-point bilinear symbol used to cross-check the exact
  tensors (:func:`bilinear_symbol`),
* the linear symbols ``A0`` and ``L0`` (:mod:`abiwave.spectral`), which
  are the tables contracted with the constant background; ``A0`` gives
  the solver's mode-wise ``apply_A0`` and the spectral projectors, which
  are polynomials in ``A0 / |xi|_0``, and
* the exact-arithmetic tensor builder (:mod:`abiwave.symbolic.tensors`).

Because the system is quadratic and a constant background has no
gradient, the linear part about ``U0`` of a row is
``sum sign * U0_a * d_j u_c``, and the constraint rows evaluated on the
full variables ``U0 + u`` are the constraint residual itself.

Evolution rows are the perturbation-form right-hand side

    tau: -v.grad tau + tau div v
    v:   -v.grad v + b.grad b + d.grad d + tau grad tau
    b:   -v.grad b + b.grad v - tau curl d
    d:   -v.grad d + d.grad v + tau curl b

and constraint rows (two scalars, one vector) are

    -tau div b + b.grad tau
    -tau div d + d.grad tau
    -tau curl v + b.grad d - d.grad b
"""
from __future__ import annotations

import numpy as np

# Levi-Civita symbol, shared with the exact tensor builder.
EPS = np.zeros((3, 3, 3), dtype=int)
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[_i, _j, _k] = 1
    EPS[_i, _k, _j] = -1


def _evolution_terms():
    terms = []
    for j in range(3):
        terms.append((0, 1 + j, 0, j, -1))      # -v.grad tau
        terms.append((0, 0, 1 + j, j, +1))      # +tau div v
    for i in range(3):
        for j in range(3):
            terms.append((1 + i, 1 + j, 1 + i, j, -1))   # -v.grad v
            terms.append((1 + i, 4 + j, 4 + i, j, +1))   # +b.grad b
            terms.append((1 + i, 7 + j, 7 + i, j, +1))   # +d.grad d
        terms.append((1 + i, 0, 0, i, +1))               # +tau grad tau
    for i in range(3):
        for j in range(3):
            terms.append((4 + i, 1 + j, 4 + i, j, -1))   # -v.grad b
            terms.append((4 + i, 4 + j, 1 + i, j, +1))   # +b.grad v
            terms.append((7 + i, 1 + j, 7 + i, j, -1))   # -v.grad d
            terms.append((7 + i, 7 + j, 1 + i, j, +1))   # +d.grad v
            for k in range(3):
                e = int(EPS[i, j, k])
                if e:
                    terms.append((4 + i, 0, 7 + k, j, -e))  # -tau curl d
                    terms.append((7 + i, 0, 4 + k, j, +e))  # +tau curl b
    return tuple(terms)


def _constraint_terms():
    terms = []
    for j in range(3):
        terms.append((0, 0, 4 + j, j, -1))      # -tau div b
        terms.append((0, 4 + j, 0, j, +1))      # +b.grad tau
        terms.append((1, 0, 7 + j, j, -1))      # -tau div d
        terms.append((1, 7 + j, 0, j, +1))      # +d.grad tau
    for i in range(3):
        for j in range(3):
            terms.append((2 + i, 4 + j, 7 + i, j, +1))   # +b.grad d
            terms.append((2 + i, 7 + j, 4 + i, j, -1))   # -d.grad b
            for k in range(3):
                e = int(EPS[i, j, k])
                if e:
                    terms.append((2 + i, 0, 1 + k, j, -e))  # -tau curl v
    return tuple(terms)


EVOLUTION_TERMS = _evolution_terms()
CONSTRAINT_TERMS = _constraint_terms()


def quadratic(terms, u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Rows ``sum sign * u[a] * du[c, j]`` of a table on grid fields.

    ``u`` holds the components (10, ...) and ``du[c, j]`` the derivative
    d_j u_c (10, 3, ...); the result has one entry per table row.
    """
    rows = 1 + max(t[0] for t in terms)
    out = np.zeros((rows,) + u.shape[1:], dtype=np.result_type(u, du))
    for row, a, c, j, sign in terms:
        if sign == 1:
            out[row] += u[a] * du[c, j]
        else:
            out[row] -= u[a] * du[c, j]
    return out


def bilinear_symbol(unit: np.ndarray, which: str = "evolution") -> np.ndarray:
    """Normalized bilinear symbol as a dense float tensor.

    ``unit`` is the Euclidean unit vector of the differentiated
    frequency slot.  Entry ``[row, c, a]`` multiplies (transform of the
    differentiated factor, component c) x (undifferentiated factor,
    component a); one factor of -i|k| has been stripped.  The symbol is
    linear in ``unit``, which may be any frequency vector; an (..., 3)
    array of them gives one symbol per vector, shape (..., rows, 10, 10).
    """
    terms = EVOLUTION_TERMS if which == "evolution" else CONSTRAINT_TERMS
    rows = 10 if which == "evolution" else 5
    unit = np.asarray(unit)
    out = np.zeros(unit.shape[:-1] + (rows, 10, 10))
    for row, a, c, j, sign in terms:
        out[..., row, c, a] += sign * unit[..., j]
    return out
