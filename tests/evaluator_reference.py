"""Sparse-matrix table evaluator the package is tested against.

The float evaluator as the package had it before
:func:`abiwave.symbolic._kernel_py.evaluator` dropped SciPy: the
table's coefficients form a ``scipy.sparse`` CSR (rows x monomials)
matrix, every monomial is evaluated as the product of its eighteen
per-variable factors read from a power table ``X[:, v] ** e``, and one
sparse matrix product contracts the monomial values.  It is the
differential oracle of the slot-factored evaluator: the two agree to
round-off.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse

from abiwave.symbolic._kernel_py import NVARS, TermTable


def evaluator(table: TermTable):
    """Batch float evaluator: (npoints, NVARS) -> (npoints, rows)."""
    indptr = np.zeros(len(table.sizes) + 1, dtype=np.int64)
    np.cumsum(table.sizes, out=indptr[1:])
    matrix = scipy.sparse.csr_matrix(
        (table.coefs.astype(float), table.cols, indptr),
        shape=(len(table.sizes), len(table.exps)))
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
