"""abiwave: spectral structure, exact non-resonance certification and
pseudo-spectral simulation for the augmented Born-Infeld system around
constant backgrounds."""

__version__ = "0.1.0"

from .state import ConstantState, Metric0, metric_matrix, norm0  # noqa: F401
from .grid import Grid  # noqa: F401
from .fields import StateField  # noqa: F401
