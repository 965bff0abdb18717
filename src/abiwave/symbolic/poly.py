"""Exact polynomials in the eighteen normalized frequency variables.

Variable layout (one-based names X1..X18, zero-based indices):

    X1..X3   xi/|xi|            X4..X6   eta/|eta|
    X7..X9   (xi-eta)/|xi-eta|  X10..X12 (alpha,beta,delta)(xi)
    X13..X15 (alpha,beta,delta)(eta)
    X16..X18 (alpha,beta,delta)(xi-eta)

Coefficients are exact Python integers; a power-of-two scale
denominator and an imaginary-unit power ride along as metadata (the
projected tensors carry one factor of i and halves from the wave-branch
projectors).  The monomial workhorse functions live in
:mod:`abiwave.symbolic._kernel_py`, the only kernel; its module
docstring says where the packing bound is checked.
"""
from __future__ import annotations

from . import _kernel_py

NVARS = _kernel_py.NVARS
pack = _kernel_py.pack
unpack = _kernel_py.unpack


def kernel_backend() -> str:
    """Name of the polynomial kernel, recorded in every certificate."""
    return "pure-python"


# kept only because the benchmark harness (perfbench/) still calls it
def get_kernels():
    """The kernel module as an (active, reference) pair."""
    return _kernel_py, _kernel_py


class IntPolynomial:
    """Immutable sparse polynomial over the integers.

    ``terms`` maps packed exponent keys to nonzero integer
    coefficients; ``scale_log2`` tracks a global denominator 2^k and
    ``i_power`` an overall factor i^m (m in 0..3), neither of which
    affects reduction or zero-ness.
    """

    __slots__ = ("terms", "scale_log2", "i_power")

    def __init__(self, terms: dict | None = None, scale_log2: int = 0,
                 i_power: int = 0):
        self.terms = dict(terms) if terms else {}
        self.scale_log2 = int(scale_log2)
        self.i_power = int(i_power) % 4

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls()

    @classmethod
    def const(cls, c: int) -> "IntPolynomial":
        return cls({0: int(c)}) if c else cls()

    @classmethod
    def variable(cls, index: int, coeff: int = 1) -> "IntPolynomial":
        """X_{index+1} (zero-based index) times an integer."""
        if not 0 <= index < NVARS:
            raise ValueError("variable index out of range")
        return cls({1 << (_kernel_py.BITS * index): int(coeff)}) if coeff else cls()

    @classmethod
    def monomial(cls, exps, coeff: int = 1) -> "IntPolynomial":
        return cls({pack(exps): int(coeff)}) if coeff else cls()

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def degree(self) -> int:
        return _kernel_py.degree(self.terms)

    def leading_monomial(self):
        """(exponent tuple, coefficient) of the largest packed key."""
        if not self.terms:
            return None
        k = max(self.terms)
        return unpack(k), self.terms[k]

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntPolynomial) and self.terms == other.terms
                and self.scale_log2 == other.scale_log2
                and self.i_power == other.i_power)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.scale_log2, self.i_power))

    # -- arithmetic (metadata must match for +/-) ---------------------

    def _check_meta(self, other):
        if (self.scale_log2 != other.scale_log2
                or self.i_power != other.i_power):
            raise ValueError("scale/i metadata mismatch in addition")

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        self._check_meta(other)
        out = dict(self.terms)
        _kernel_py.add_into(out, other.terms, 1)
        return IntPolynomial(out, self.scale_log2, self.i_power)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        if other.is_zero():
            return self
        if self.is_zero():
            return -other
        self._check_meta(other)
        out = dict(self.terms)
        _kernel_py.add_into(out, other.terms, -1)
        return IntPolynomial(out, self.scale_log2, self.i_power)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial({k: -v for k, v in self.terms.items()},
                             self.scale_log2, self.i_power)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            if other == 0:
                return IntPolynomial(scale_log2=self.scale_log2,
                                     i_power=self.i_power)
            return IntPolynomial({k: v * other for k, v in self.terms.items()},
                                 self.scale_log2, self.i_power)
        return IntPolynomial(_kernel_py.mul(self.terms, other.terms),
                             self.scale_log2 + other.scale_log2,
                             self.i_power + other.i_power)

    __rmul__ = __mul__

    def scaled(self, extra_scale_log2: int = 0, extra_i: int = 0) -> "IntPolynomial":
        return IntPolynomial(self.terms, self.scale_log2 + extra_scale_log2,
                             self.i_power + extra_i)

    # -- evaluation and formatting ------------------------------------

    def evaluate(self, values) -> complex:
        """Numeric value at an 18-vector, including scale and i factors."""
        raw = _kernel_py.evaluate(self.terms, [float(v) for v in values])
        return raw * (1j ** self.i_power) / (2.0 ** self.scale_log2)

    def evaluate_raw(self, values) -> float:
        """Numeric value of the bare integer polynomial."""
        return _kernel_py.evaluate(self.terms, [float(v) for v in values])

    def to_text(self) -> str:
        """Canonical textual form 'c * X1^a1...X18^a18 +- ...'."""
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            c = self.terms[key]
            exps = unpack(key)
            mono = "*".join(f"X{i+1}^{e}" for i, e in enumerate(exps) if e)
            body = f"{abs(c)}" + (f" * {mono}" if mono else "")
            parts.append(("+ " if c > 0 else "- ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        meta = []
        if self.scale_log2:
            meta.append(f"/2^{self.scale_log2}")
        if self.i_power:
            meta.append(f"*i^{self.i_power}")
        return f"IntPolynomial({self.to_text()}{''.join(meta)})"
