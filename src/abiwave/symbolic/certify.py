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
from dataclasses import dataclass, field as dfield

import numpy as np

from .ideal import (build_ideal_generators, extract_cofactors,
                    numeric_embedding, reduce_terms)
from .poly import IntPolynomial, kernel_backend
from .tensors import InteractionTensor, build_interaction_tensor, \
    chaplygin_substitute

GATE_ANNIHILATION_TOL = 1e-10
GATE_FLOAT_TOL = 1e-8


class PreflightError(RuntimeError):
    """A numeric gate failed; the symbolic layout cannot be trusted."""


@dataclass
class Certificate:
    interaction: str
    which: str
    entries_total: int
    entries_nonzero: int
    witnesses: list = dfield(default_factory=list)
    max_degree: int = 0
    terms_max: int = 0
    millis: float = 0.0
    backend: str = ""
    subsystem: str = "full"
    cofactors: dict | None = None

    @property
    def verified(self) -> bool:
        return self.entries_nonzero == 0

    def to_dict(self) -> dict:
        out = {
            "interaction": self.interaction,
            "which": self.which,
            "entries_total": self.entries_total,
            "entries_nonzero": self.entries_nonzero,
            "witnesses": self.witnesses,
            "max_degree": self.max_degree,
            "terms_max": self.terms_max,
            "millis": self.millis,
            "backend": self.backend,
            "subsystem": self.subsystem,
        }
        if self.cofactors is not None:
            out["cofactors"] = self.cofactors
        return out


def _label(eps, which):
    conv = {1: "+", -1: "-", 0: "0"}
    if which == "evolution":
        return conv[eps[0]] + "," + conv[eps[1]] + conv[eps[2]]
    return "'," + conv[eps[1]] + conv[eps[2]]


def resonant_configurations(orientation: int, n: int, seed: int = 0):
    """Random space-resonant (xi, eta) pairs of the given orientation."""
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(n, 3)) * rng.uniform(0.5, 2.0, (n, 1))
    if orientation == +1:
        lam = rng.uniform(0.1, 0.9, (n, 1))
    else:
        lam = np.where(rng.uniform(size=(n, 1)) < 0.5,
                       rng.uniform(1.1, 3.0, (n, 1)),
                       rng.uniform(-3.0, -0.1, (n, 1)))
    return xi, lam * xi


def preflight_annihilation(eps2: int, eps3: int, state, n: int = 1000,
                           seed: int = 0) -> float:
    """Max |P_i(iota(xi,eta))| over resonant samples; must be tiny."""
    gens = build_ideal_generators(eps2, eps3)
    xi, eta = resonant_configurations(eps2 * eps3, n, seed)
    X = numeric_embedding(xi, eta, state)
    worst = 0.0
    for g in gens:
        from .poly import unpack
        exps = np.array([unpack(k) for k in g.terms], dtype=np.int64)
        coef = np.array(list(g.terms.values()), dtype=float)
        vals = np.prod(X[:, None, :] ** exps[None, :, :], axis=2) @ coef
        worst = max(worst, float(np.max(np.abs(vals))))
    if worst > GATE_ANNIHILATION_TOL:
        raise PreflightError(
            f"layout annihilation gate failed: {worst} > {GATE_ANNIHILATION_TOL}")
    return worst


def preflight_float_crosscheck(tensor: InteractionTensor, state,
                               n: int = 100, seed: int = 1) -> float:
    """Exact tensor vs floating composition at random off-axis points."""
    from ..resonance import sample_off_axis
    from ..spectral import compose_interaction

    rng = np.random.default_rng(seed)
    xi, eta = sample_off_axis(rng, n)
    X = numeric_embedding(xi, eta, state)
    ours = tensor.evaluator()(X)
    worst = 0.0
    for i in range(n):
        ref = compose_interaction(xi[i], eta[i], state, tensor.eps,
                                  tensor.which)
        scale = max(float(np.max(np.abs(ref))), 1e-30)
        worst = max(worst, float(np.max(np.abs(ours[i] - ref))) / scale)
    if worst > GATE_FLOAT_TOL:
        raise PreflightError(
            f"float cross-check gate failed: {worst} > {GATE_FLOAT_TOL}")
    return worst


def certify(eps: tuple[int, int, int], which: str = "evolution",
            state=None, preflight: bool = True, subsystem: str = "full",
            with_cofactors: bool = False, mutate_entry=None,
            float_checks: int = 30) -> Certificate:
    """Reduce every entry of one interaction tensor; report residues.

    ``subsystem='chaplygin'`` restricts to the four-component block
    (alpha = 1, beta = delta = 0 and tau/v rows and slots only).
    ``mutate_entry=(i, j, k)`` adds one to that entry first, which must
    then be flagged - a self-test of the reduction's soundness.
    """
    from ..state import ConstantState

    state = state or ConstantState(tau0=0.8, b0=(0.6, 0.2, -0.1),
                                   d0=(-0.3, 0.5, 0.2))
    if mutate_entry is not None:
        shape = (10 if which == "evolution" else 5, 10, 10)
        if not all(0 <= x < n for x, n in zip(mutate_entry, shape)):
            raise ValueError(f"mutate_entry {tuple(mutate_entry)} is outside "
                             f"the {which} tensor, whose shape is {shape}")
    t0 = time.perf_counter()
    tensor = build_interaction_tensor(eps, which)
    s = eps[1] * eps[2]
    if preflight:
        preflight_annihilation(eps[1], eps[2], state)
        preflight_float_crosscheck(tensor, state, n=float_checks)
    if mutate_entry is not None:
        i, j, k = mutate_entry
        terms = dict(tensor.entries[i][j][k])
        terms[0] = terms.get(0, 0) + 1
        tensor.entries[i][j][k] = terms

    nrows = tensor.shape[0]
    row_limit = 4 if subsystem == "chaplygin" else None
    witnesses = []
    total = 0
    nonzero = 0
    for (i, j, k), terms in tensor.iter_entries():
        if row_limit is not None:
            if which == "evolution" and i >= row_limit:
                continue
            if j >= row_limit or k >= row_limit:
                continue
            terms = chaplygin_substitute(terms)
        if not terms:
            continue
        total += 1
        residue = reduce_terms(terms, s)
        if residue:
            nonzero += 1
            if len(witnesses) < 16:
                lead = IntPolynomial(residue).leading_monomial()
                witnesses.append({
                    "entry": [i, j, k],
                    "residue_terms": len(residue),
                    "witness_monomial": {"exponents": list(lead[0]),
                                         "coefficient": str(lead[1])},
                })
    cert = Certificate(
        interaction=_label(eps, which),
        which="N" if which == "evolution" else "Nprime",
        entries_total=total,
        entries_nonzero=nonzero,
        witnesses=witnesses,
        max_degree=tensor.max_degree(),
        terms_max=tensor.term_counts()[0],
        millis=(time.perf_counter() - t0) * 1e3,
        backend=kernel_backend(),
        subsystem=subsystem,
    )
    if with_cofactors and nonzero == 0:
        cert.cofactors = _sample_cofactors(tensor, eps)
    return cert


def _sample_cofactors(tensor: InteractionTensor, eps, max_entries: int = 3):
    """Cofactor decompositions for a few nonzero entries (text format)."""
    out = {}
    count = 0
    for (i, j, k), terms in tensor.iter_entries():
        if not terms:
            continue
        cof, residue = extract_cofactors(IntPolynomial(terms), eps[1], eps[2])
        assert residue.is_zero()
        out[f"{i},{j},{k}"] = {f"Q{n+1}": q.to_text()
                               for n, q in enumerate(cof) if not q.is_zero()}
        count += 1
        if count >= max_entries:
            break
    return out


def certify_all(which_list=("evolution", "constraint"), state=None,
                preflight: bool = True, subsystem: str = "full",
                with_cofactors: bool = False) -> list[Certificate]:
    """All 8 evolution and 4 constraint interactions (the full claim)."""
    certs = []
    if "evolution" in which_list:
        for e1 in (1, -1):
            for e2 in (1, -1):
                for e3 in (1, -1):
                    certs.append(certify((e1, e2, e3), "evolution", state,
                                         preflight, subsystem,
                                         with_cofactors))
    if "constraint" in which_list:
        for e2 in (1, -1):
            for e3 in (1, -1):
                certs.append(certify((0, e2, e3), "constraint", state,
                                     preflight, subsystem, with_cofactors))
    return certs


def write_certificates(certs: list[Certificate], path) -> None:
    payload = {
        "all_verified": all(c.verified for c in certs),
        "certificates": [c.to_dict() for c in certs],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
