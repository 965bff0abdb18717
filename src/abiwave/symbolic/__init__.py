"""Exact-integer polynomial machinery and the non-resonance certification."""

from .poly import kernel_backend  # noqa: F401
from .ideal import build_ideal_generators, reduce_poly, extract_cofactors  # noqa: F401
from .tensors import InteractionTensor, build_interaction_tensor  # noqa: F401
from .certify import Certificate, certify_all, write_certificates  # noqa: F401
