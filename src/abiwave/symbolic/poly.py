"""Exact polynomials in the eighteen normalized frequency variables.

Variable layout (one-based names X1..X18, zero-based indices):

    X1..X3   xi/|xi|            X4..X6   eta/|eta|
    X7..X9   (xi-eta)/|xi-eta|  X10..X12 (alpha,beta,delta)(xi)
    X13..X15 (alpha,beta,delta)(eta)
    X16..X18 (alpha,beta,delta)(xi-eta)

A polynomial is a term dict: packed monomial key -> nonzero Python
integer, ``{}`` for zero.  The key format and every operation on term
dicts live in :mod:`abiwave.symbolic._kernel_py`, the only kernel; its
module docstring says where the packing bound is checked.  Scale
denominators and the factor -i of the interaction tensors are held by
:class:`abiwave.symbolic.tensors.InteractionTensor`, not by the
polynomials.
"""
from __future__ import annotations

from . import _kernel_py


def kernel_backend() -> str:
    """Name of the polynomial kernel, recorded in every certificate."""
    return "pure-python"


# kept only because the benchmark harness (perfbench/) still calls it
def get_kernels():
    """The kernel module as an (active, reference) pair."""
    return _kernel_py, _kernel_py
