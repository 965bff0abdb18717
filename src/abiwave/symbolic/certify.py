"""Certification driver: numeric pre-flight gates, reduction, certificates.

A certificate records, for one interaction, the residue status of every
tensor entry after exact reduction.  Before any symbolic run two
floating-point gates must pass:

* the twelve ideal generators annihilate the numeric embedding on
  sampled resonant configurations of the matching orientation, and
* the exact tensor agrees with the floating-point projector/bilinear
  composition at random off-axis points.

A nonzero residue is a reported outcome (with the offending entry and
its leading monomial as witness), not an exception.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field as dfield, replace

import numpy as np

from ..errors import VerificationError
from ..resonance import InteractionSpec, resonant_samples, sample_off_axis
from ..state import CERTIFICATION_BACKGROUND
from . import _kernel_py
from .ideal import (build_ideal_generators, extract_cofactors,
                    numeric_embedding, reduce_terms)
from .poly import kernel_backend
from .tensors import (CHAPLYGIN_SHAPES, InteractionTensor,
                      build_interaction_tensor)

GATE_ANNIHILATION_TOL = 1e-10
GATE_FLOAT_TOL = 1e-8


class PreflightError(VerificationError):
    """A numeric gate failed; the symbolic layout cannot be trusted."""


@dataclass
class Certificate:
    """The residue status of one interaction tensor.

    ``entries_total`` counts the nonempty entries that were reduced and
    ``entries_nonzero`` those with a nonzero residue; ``witnesses``
    names the first sixteen of them with their leading residue monomial.
    ``max_degree`` and ``terms_max`` describe the *unreduced* tensor
    (the largest total degree and the most terms of any of its entries,
    the full tensor also for the chaplygin subsystem), read from the
    tensor's term table; reduction does not change them.

    ``millis`` is the wall time of the whole certificate.  Inside it,
    ``build_ms`` times the tensor build (its term table included),
    ``preflight_ms`` the float gates it ran (0 when they are skipped;
    :func:`certify_all` runs the annihilation gate in the first
    certificate of each orientation eps2 eps3 only) and ``reduce_ms``
    the exact reduction of the table; all four are read from
    ``time.perf_counter``.  The rest of ``millis`` is a mutation, the
    chaplygin block's table and the statistics.
    """

    interaction: str
    which: str
    entries_total: int
    entries_nonzero: int
    witnesses: list = dfield(default_factory=list)
    max_degree: int = 0
    terms_max: int = 0
    millis: float = 0.0
    build_ms: float = 0.0
    preflight_ms: float = 0.0
    reduce_ms: float = 0.0
    backend: str = ""
    subsystem: str = "full"
    cofactors: dict | None = None

    @property
    def verified(self) -> bool:
        return self.entries_nonzero == 0

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.cofactors is None:
            del out["cofactors"]
        return out


def preflight_annihilation(eps2: int, eps3: int, state, n: int = 1000,
                           seed: int = 0) -> float:
    """Max |P_i(iota(xi,eta))| over resonant samples; must be tiny."""
    gens = build_ideal_generators(eps2, eps3)
    xi, eta = resonant_samples(eps2 * eps3, np.random.default_rng(seed), n)
    X = numeric_embedding(xi, eta, state)
    table = _kernel_py.TermTable(gens)
    vals = _kernel_py.evaluator(table)(X)
    worst = float(np.max(np.abs(vals)))
    if worst > GATE_ANNIHILATION_TOL:
        raise PreflightError(
            f"layout annihilation gate failed: {worst} > {GATE_ANNIHILATION_TOL}")
    return worst


def preflight_float_crosscheck(tensor: InteractionTensor, state,
                               n: int = 30) -> float:
    """Exact tensor vs floating composition at off-axis points (seed 1)."""
    from ..spectral import compose_interaction

    rng = np.random.default_rng(1)
    xi, eta = sample_off_axis(rng, n)
    X = numeric_embedding(xi, eta, state)
    ours = tensor.evaluator()(X).reshape(n, -1)
    ref = compose_interaction(xi, eta, state, tensor.eps,
                              tensor.which).reshape(n, -1)
    scale = np.maximum(np.max(np.abs(ref), axis=1), 1e-30)
    worst = float(np.max(np.max(np.abs(ours - ref), axis=1) / scale))
    if worst > GATE_FLOAT_TOL:
        raise PreflightError(
            f"float cross-check gate failed: {worst} > {GATE_FLOAT_TOL}")
    return worst


def certify(eps: tuple[int, int, int], which: str = "evolution",
            state=None, preflight: bool = True, subsystem: str = "full",
            with_cofactors: bool = False, mutate_entry=None,
            annihilation_gate: bool = True) -> Certificate:
    """Reduce every entry of one interaction tensor; report residues.

    ``subsystem='chaplygin'`` restricts to the four-component block
    (alpha = 1, beta = delta = 0 and tau/v rows and slots only; see
    :meth:`InteractionTensor.chaplygin_block`).
    ``mutate_entry=(i, j, k)`` adds one to that entry first, which must
    then be flagged - a self-test of the reduction's soundness; it must
    lie in the tensor, and in the block for the chaplygin subsystem.
    ``preflight`` runs both float gates; ``annihilation_gate=False``
    leaves out the first, which depends on s = eps2 eps3 only, for a
    caller that has run it for this orientation.
    """
    state = state or CERTIFICATION_BACKGROUND
    if mutate_entry is not None:
        if subsystem == "chaplygin":
            shape, part = CHAPLYGIN_SHAPES[which], "chaplygin (tau, v) block"
        else:
            shape, part = (10 if which == "evolution" else 5, 10, 10), "tensor"
        if not all(0 <= x < n for x, n in zip(mutate_entry, shape)):
            raise ValueError(f"mutate_entry {tuple(mutate_entry)} is outside "
                             f"the {which} {part}, whose shape is {shape}")
    t0 = time.perf_counter()
    tensor = build_interaction_tensor(eps, which)
    t_build = time.perf_counter()
    s = eps[1] * eps[2]
    if preflight:
        if annihilation_gate:
            preflight_annihilation(eps[1], eps[2], state)
        preflight_float_crosscheck(tensor, state)
    t_preflight = time.perf_counter()
    if mutate_entry is not None:
        i, j, k = mutate_entry
        tensor = replace(tensor, table=tensor.table.plus_constant(
            (i * 10 + j) * 10 + k, 1))

    if subsystem == "chaplygin":
        index, table = tensor.chaplygin_block()
    else:
        index, table = list(np.ndindex(tensor.shape)), tensor.table
    t_reduce = time.perf_counter()
    residues = reduce_terms(table, s)
    reduce_ms = (time.perf_counter() - t_reduce) * 1e3
    witnesses = []
    for row in sorted(residues)[:16]:
        residue = residues[row]
        lead = max(residue)  # the largest packed key
        witnesses.append({
            "entry": list(index[row]),
            "residue_terms": len(residue),
            "witness_monomial": {"exponents": list(_kernel_py.unpack(lead)),
                                 "coefficient": str(residue[lead])},
        })
    label = InteractionSpec(*eps).label()
    cert = Certificate(
        # a constraint tensor's label has ' for its leading sign
        interaction=label if which == "evolution" else "'" + label[1:],
        which="N" if which == "evolution" else "Nprime",
        entries_total=int(np.count_nonzero(table.sizes)),
        entries_nonzero=len(residues),
        witnesses=witnesses,
        max_degree=tensor.max_degree(),
        terms_max=tensor.term_counts()[0],
        millis=(time.perf_counter() - t0) * 1e3,
        build_ms=(t_build - t0) * 1e3,
        preflight_ms=(t_preflight - t_build) * 1e3 if preflight else 0.0,
        reduce_ms=reduce_ms,
        backend=kernel_backend(),
        subsystem=subsystem,
    )
    if with_cofactors and not residues:
        cert.cofactors = _sample_cofactors(tensor, eps)
    return cert


def _sample_cofactors(tensor: InteractionTensor, eps):
    """Cofactor decompositions of the first three nonzero entries (text)."""
    out = {}
    for (i, j, k), terms in tensor.iter_entries():
        if not terms:
            continue
        cof, residue = extract_cofactors(terms, eps[1], eps[2])
        assert not residue
        out[f"{i},{j},{k}"] = {f"Q{n+1}": _kernel_py.to_text(q)
                               for n, q in enumerate(cof) if q}
        if len(out) == 3:
            break
    return out


def certify_all(which_list=("evolution", "constraint"), state=None,
                preflight: bool = True, subsystem: str = "full",
                with_cofactors: bool = False) -> list[Certificate]:
    """All 8 evolution and 4 constraint interactions (the full claim).

    With ``preflight`` the annihilation gate runs once per orientation
    s = eps2 eps3, in the first certificate of that orientation: its
    generators and resonant samples depend on s alone.
    """
    jobs = []
    if "evolution" in which_list:
        jobs += [((e1, e2, e3), "evolution") for e1 in (1, -1)
                 for e2 in (1, -1) for e3 in (1, -1)]
    if "constraint" in which_list:
        jobs += [((0, e2, e3), "constraint") for e2 in (1, -1)
                 for e3 in (1, -1)]
    certs = []
    gated = set()
    for eps, which in jobs:
        s = eps[1] * eps[2]
        certs.append(certify(eps, which, state, preflight, subsystem,
                             with_cofactors, annihilation_gate=s not in gated))
        gated.add(s)
    return certs


def write_certificates(certs: list[Certificate], path) -> None:
    payload = {
        "all_verified": all(c.verified for c in certs),
        "certificates": [c.to_dict() for c in certs],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
