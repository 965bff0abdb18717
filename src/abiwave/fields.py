"""Grid fields: the ten-component state and solenoidal vector pairs."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid

# Component layout of the ten-component state.
TAU = 0
V = slice(1, 4)
B = slice(4, 7)
D = slice(7, 10)
COMPONENT_NAMES = ("tau", "v1", "v2", "v3", "b1", "b2", "b3", "d1", "d2", "d3")


@dataclass
class StateField:
    """Ten real components (tau, v, b, d) on a periodic grid.

    Usually a perturbation about a ConstantState; absolute-variable
    fields (as produced by the electromagnetic lift) use the same
    container.
    """

    grid: Grid
    data: np.ndarray  # (10, N, N, N) float64

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=float)
        n = self.grid.N
        if self.data.shape != (10, n, n, n):
            raise ValueError(f"bad field shape {self.data.shape}")

    @classmethod
    def zeros(cls, grid: Grid) -> "StateField":
        return cls(grid, np.zeros((10, grid.N, grid.N, grid.N)))

    @property
    def tau(self) -> np.ndarray:
        return self.data[TAU]

    @property
    def v(self) -> np.ndarray:
        return self.data[V]

    @property
    def b(self) -> np.ndarray:
        return self.data[B]

    @property
    def d(self) -> np.ndarray:
        return self.data[D]

    def spectral(self) -> np.ndarray:
        """Half spectra of the components (10, N, N, N//2+1), complex."""
        return self.grid.rfwd(self.data)

    def copy(self) -> "StateField":
        return StateField(self.grid, self.data.copy())

    def __add__(self, other: "StateField") -> "StateField":
        return StateField(self.grid, self.data + other.data)

    def __sub__(self, other: "StateField") -> "StateField":
        return StateField(self.grid, self.data - other.data)


@dataclass
class EMField:
    """Pair of divergence-free vector fields (B, D) on a grid."""

    grid: Grid
    B: np.ndarray  # (3, N, N, N)
    D: np.ndarray  # (3, N, N, N)

    def spectral_divergences(self) -> tuple[float, float]:
        """Sup norms of the spectral divergences (should be round-off)."""
        g = self.grid
        # the divergence is the trace of the gradient grad[i, j] = d_j F_i
        db = np.trace(g.gradient(g.rfwd(self.B)))
        dd = np.trace(g.gradient(g.rfwd(self.D)))
        return float(np.max(np.abs(db))), float(np.max(np.abs(dd)))
