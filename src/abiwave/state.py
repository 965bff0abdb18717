"""Constant background states and the anisotropic frequency metric.

A background is a constant solution ``(tau0, v0, b0, d0)`` of the
ten-component system; it is admissible when it is finite and
``tau0 > 0``.  The linearized wave speeds are governed by the metric

    g0 = tau0^2 I + b0 (x) b0 + d0 (x) d0

through the frequency norm ``|xi|_0 = sqrt(xi . g0 xi)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class AdmissibilityError(ValueError):
    """Raised for backgrounds or data violating tau > 0."""


def finite_number(x) -> float:
    """A finite JSON number: an int or a float, not a bool."""
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or not math.isfinite(x)):
        raise ValueError(f"must be a finite number, got {x!r}")
    return float(x)


def _vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(3)
    return v


@dataclass(frozen=True)
class ConstantState:
    """Constant background (tau0, v0, b0, d0).

    Internal spectral computations always use the frame with v0 = 0;
    the stored v0 only enters the simulator as a frame transport term
    and the Galilean shift helpers.
    """

    tau0: float
    v0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    d0: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.tau0 <= 0:
            raise AdmissibilityError(f"tau0 must be positive, got {self.tau0}")
        object.__setattr__(self, "tau0", float(self.tau0))
        object.__setattr__(self, "v0", _vec3(self.v0))
        object.__setattr__(self, "b0", _vec3(self.b0))
        object.__setattr__(self, "d0", _vec3(self.d0))
        if not np.all(np.isfinite(self.as_vector())):
            raise AdmissibilityError(f"a background must be finite, got "
                                     f"{self.to_dict()}")

    def with_v0(self, v0) -> "ConstantState":
        return ConstantState(self.tau0, _vec3(v0), self.b0, self.d0)

    def as_vector(self) -> np.ndarray:
        """Ten-component vector (tau0, v0, b0, d0)."""
        return np.concatenate(([self.tau0], self.v0, self.b0, self.d0))

    def to_dict(self) -> dict:
        return {
            "tau0": self.tau0,
            "v0": self.v0.tolist(),
            "b0": self.b0.tolist(),
            "d0": self.d0.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ConstantState":
        return cls(d["tau0"], d.get("v0", (0, 0, 0)), d.get("b0", (0, 0, 0)),
                   d.get("d0", (0, 0, 0)))


# the background of the certification and of the CLI state flags
CERTIFICATION_BACKGROUND = ConstantState(tau0=0.8, b0=(0.6, 0.2, -0.1),
                                         d0=(-0.3, 0.5, 0.2))


@dataclass(frozen=True)
class Metric0:
    """The metric g0 = tau0^2 I + b0(x)b0 + d0(x)d0 and its inverse."""

    g: np.ndarray
    g_inv: np.ndarray
    eig_max: float

    @property
    def max_speed(self) -> float:
        """Largest phase/group speed of the linear waves."""
        return float(np.sqrt(self.eig_max))


def metric_matrix(state: ConstantState) -> Metric0:
    """Assemble g0 for a background; verified symmetric positive definite.

    Smallest eigenvalue is at least tau0^2, so admissible states always
    give a genuine scalar product.
    """
    if state.tau0 <= 0:
        raise AdmissibilityError("metric undefined for tau0 <= 0")
    g = (state.tau0 ** 2) * np.eye(3)
    g += np.outer(state.b0, state.b0)
    g += np.outer(state.d0, state.d0)
    w = np.linalg.eigvalsh(g)
    if w[0] <= 0:
        raise AdmissibilityError("metric not positive definite")
    return Metric0(g=g, g_inv=np.linalg.inv(g), eig_max=float(w[-1]))


def norm0(xi, state: ConstantState):
    """Anisotropic frequency norm |xi|_0.

    Accepts a single 3-vector or an (..., 3) array; vanishes only at
    xi = 0.
    """
    xi = np.asarray(xi, dtype=float)
    q = (state.tau0 ** 2) * np.sum(xi * xi, axis=-1)
    q += np.tensordot(xi, state.b0, axes=([-1], [0])) ** 2
    q += np.tensordot(xi, state.d0, axes=([-1], [0])) ** 2
    return np.sqrt(q)


def dual_norm0(x, state: ConstantState):
    """Dual norm |x|_0' = sqrt(x . g0^{-1} x), used by the resonance probes."""
    g_inv = metric_matrix(state).g_inv
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.einsum("...i,ij,...j->...", x, g_inv, x))


def alpha_beta_delta(xi, state: ConstantState):
    """Direction cosines (alpha, beta, delta) of xi in the g0 geometry.

    alpha = tau0 |xi| / |xi|_0, beta = b0.xi / |xi|_0, delta = d0.xi / |xi|_0;
    they satisfy alpha^2 + beta^2 + delta^2 = 1 and alpha > 0 for xi != 0.
    """
    xi = np.asarray(xi, dtype=float)
    n0 = norm0(xi, state)
    norm = np.sqrt(np.sum(xi * xi, axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha = state.tau0 * norm / n0
        beta = np.tensordot(xi, state.b0, axes=([-1], [0])) / n0
        delta = np.tensordot(xi, state.d0, axes=([-1], [0])) / n0
    return alpha, beta, delta


def bi_lift_constant(B0, D0) -> ConstantState:
    """Background obtained by lifting constant electromagnetic fields.

    Lies on the algebraic manifold tau^2+v^2+b^2+d^2 = 1, tau v = d ^ b;
    the velocity component is nonzero whenever B0 and D0 are not
    parallel.
    """
    B0 = _vec3(B0)
    D0 = _vec3(D0)
    V = np.cross(D0, B0)
    h = np.sqrt(1.0 + B0 @ B0 + D0 @ D0 + V @ V)
    tau0 = 1.0 / h
    return ConstantState(tau0=tau0, v0=tau0 * V, b0=tau0 * B0, d0=tau0 * D0)


def manifold_residual_constant(state: ConstantState) -> tuple[float, float]:
    """Scalar and vector manifold residuals of a constant state."""
    c = state
    scalar = abs(c.tau0 ** 2 + c.v0 @ c.v0 + c.b0 @ c.b0 + c.d0 @ c.d0 - 1.0)
    vector = float(np.max(np.abs(c.tau0 * c.v0 - np.cross(c.d0, c.b0))))
    return scalar, vector
