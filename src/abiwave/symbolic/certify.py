"""Certification driver: numeric pre-flight gates, reduction, certificates.

A certificate records, for one interaction, the residue status of every
tensor entry after exact reduction.  :func:`certify` builds and reduces
one tensor; :func:`certify_all` certifies each kind of interaction in
one batch, through the parity pieces of its tensors and their Hadamard
groups (:class:`~abiwave.symbolic.tensors.ParityPieces`).  Before any
symbolic run two floating-point gates must pass:

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
                      build_interaction_tensor, build_parity_pieces,
                      chaplygin_block)

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
    ``preflight_ms`` the float gates it ran (0 when they are skipped)
    and ``reduce_ms`` the exact reduction of the table; all four are
    read from ``time.perf_counter``.  The rest of ``millis`` is a
    mutation, the chaplygin block's table and the statistics.  A
    certificate of :func:`certify_all` comes from a batch of its kind:
    its three stage times are those of the shared stages it used (the
    build of the parity pieces, the batch's gates and the reductions of
    its orientation's groups), and its ``millis`` runs from the start
    of the batch to the certificate, so the stages still sum to at most
    ``millis``.
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


def _gate_points(state, n: int):
    """The float gate's off-axis points (seed 1) and their layout values."""
    xi, eta = sample_off_axis(np.random.default_rng(1), n)
    return xi, eta, numeric_embedding(xi, eta, state)


def _float_gate(ours: np.ndarray, xi, eta, state, eps, which: str) -> float:
    """Worst relative error of exact tensor values at the points (xi, eta)
    against the floating composition; raises past ``GATE_FLOAT_TOL``."""
    from ..spectral import compose_interaction

    n = len(xi)
    ref = compose_interaction(xi, eta, state, eps, which).reshape(n, -1)
    scale = np.maximum(np.max(np.abs(ref), axis=1), 1e-30)
    err = np.max(np.abs(ours.reshape(n, -1) - ref), axis=1)
    worst = float(np.max(err / scale))
    if worst > GATE_FLOAT_TOL:
        raise PreflightError(
            f"float cross-check gate failed: {worst} > {GATE_FLOAT_TOL}")
    return worst


def preflight_float_crosscheck(tensor: InteractionTensor, state,
                               n: int = 30) -> float:
    """Exact tensor vs floating composition at off-axis points (seed 1)."""
    xi, eta, X = _gate_points(state, n)
    return _float_gate(tensor.evaluator()(X), xi, eta, state, tensor.eps,
                       tensor.which)


def _label(eps, which: str) -> str:
    label = InteractionSpec(*eps).label()
    # a constraint tensor's label has ' for its leading sign
    return label if which == "evolution" else "'" + label[1:]


def _witnesses(residues: dict, index: list) -> list:
    """The first sixteen nonzero entries with their leading monomials."""
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
    return witnesses


def certify(eps: tuple[int, int, int], which: str = "evolution",
            state=None, preflight: bool = True, subsystem: str = "full",
            with_cofactors: bool = False, mutate_entry=None) -> Certificate:
    """Reduce every entry of one interaction tensor; report residues.

    ``subsystem='chaplygin'`` restricts to the four-component block
    (alpha = 1, beta = delta = 0 and tau/v rows and slots only; see
    :func:`~abiwave.symbolic.tensors.chaplygin_block`).
    ``mutate_entry=(i, j, k)`` adds one to that entry first, which must
    then be flagged - a self-test of the reduction's soundness; it must
    lie in the tensor, and in the block for the chaplygin subsystem.
    ``preflight`` runs both float gates.  :func:`certify_all` reaches the
    same certificates in batches; this is the direct path it is tested
    against.
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
    cert = Certificate(
        interaction=_label(eps, which),
        which=_WHICH[which],
        entries_total=int(np.count_nonzero(table.sizes)),
        entries_nonzero=len(residues),
        witnesses=_witnesses(residues, index),
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
        cert.cofactors = _sample_cofactors(tensor.iter_entries(), eps)
    return cert


_WHICH = {"evolution": "N", "constraint": "Nprime"}


def _sample_cofactors(entries, eps):
    """Cofactor decompositions of the first three nonzero entries (text).

    ``entries`` yields ((i, j, k), term dict) in entry order.
    """
    out = {}
    for (i, j, k), terms in entries:
        if not terms:
            continue
        cof, residue = extract_cofactors(terms, eps[1], eps[2])
        assert not residue
        out[f"{i},{j},{k}"] = {f"Q{n+1}": _kernel_py.to_text(q)
                               for n, q in enumerate(cof) if q}
        if len(out) == 3:
            break
    return out


def _signed_sum(residues: list, signs) -> dict:
    """sum_g signs[g] * residues[g], entry by entry; zero sums are dropped."""
    out: dict = {}
    for sign, res in zip(signs.tolist(), residues):
        for row, terms in res.items():
            _kernel_py.add_into(out.setdefault(row, {}), terms, sign)
    return {row: terms for row, terms in out.items() if terms}


def _certify_kind(which: str, state, preflight: bool, subsystem: str,
                  with_cofactors: bool, gated: set) -> list[Certificate]:
    """The certificates of every interaction of one kind, in one batch.

    One contraction builds the parity pieces of the kind
    (:func:`~abiwave.symbolic.tensors.build_parity_pieces`).  The float
    gate evaluates them once at its points and checks each tensor's
    values, the signed sums of the pieces', against the floating
    composition.  Each orientation s reduces its Hadamard group tables
    (:meth:`~abiwave.symbolic.tensors.ParityPieces.groups`, cut to the
    chaplygin block for that subsystem, which is linear), and each
    tensor's residues are the signed sums of the groups' residues,
    exactly.  The supports of the pieces are disjoint, so a tensor's
    entries, their term counts and their degrees are read off the
    pieces.  Each certificate's ``build_ms``, ``preflight_ms`` and
    ``reduce_ms`` time the shared stages it used: the build, the gates
    of the batch and its orientation's reductions; its ``millis`` runs
    from the start of the batch to the certificate.
    """
    t0 = time.perf_counter()
    pieces = build_parity_pieces(which)
    t_build = time.perf_counter()
    jobs = [(e1, e2, e3) for e1 in ((1, -1) if which == "evolution" else (0,))
            for e2 in (1, -1) for e3 in (1, -1)]
    if preflight:
        for s in (1, -1):
            if s not in gated:
                preflight_annihilation(1, s, state)
                gated.add(s)
        xi, eta, X = _gate_points(state, 30)
        vals = _kernel_py.evaluator(pieces.table)(X)
        vals /= 2.0 ** pieces.scale_log2
        for eps in jobs:
            _float_gate(pieces.values(eps, vals), xi, eta, state, eps, which)
        del vals
    t_preflight = time.perf_counter()
    sizes = pieces.entry_sizes()
    shape = (len(sizes) // 100, 10, 10)
    found = {}  # s: (index, entries, reduce_ms, residues of each group)
    for s in (1, -1):
        index, entries, reduce_s, residues = list(np.ndindex(shape)), 0, 0.0, []
        for G in pieces.groups(s):
            if subsystem == "chaplygin":
                index, G = chaplygin_block(G, which)
            t_reduce = time.perf_counter()
            residues.append(reduce_terms(G, s))
            reduce_s += time.perf_counter() - t_reduce
            entries = entries + G.sizes
        found[s] = (index, int(np.count_nonzero(entries)), reduce_s * 1e3,
                    residues)
    certs = []
    for eps in jobs:
        index, entries, reduce_ms, residues = found[eps[1] * eps[2]]
        residues = _signed_sum(residues, pieces.group_signs(eps))
        cert = Certificate(
            interaction=_label(eps, which),
            which=_WHICH[which],
            entries_total=entries,
            entries_nonzero=len(residues),
            witnesses=_witnesses(residues, index),
            max_degree=pieces.table.degree(),
            terms_max=int(sizes.max(initial=0)),
            millis=(time.perf_counter() - t0) * 1e3,
            build_ms=(t_build - t0) * 1e3,
            preflight_ms=(t_preflight - t_build) * 1e3 if preflight else 0.0,
            reduce_ms=reduce_ms,
            backend=kernel_backend(),
            subsystem=subsystem,
        )
        if with_cofactors and not residues:
            cert.cofactors = _sample_cofactors(
                ((idx, pieces.entry(eps, row))
                 for row, idx in enumerate(np.ndindex(shape)) if sizes[row]),
                eps)
        certs.append(cert)
    return certs


def certify_all(which_list=("evolution", "constraint"), state=None,
                preflight: bool = True, subsystem: str = "full",
                with_cofactors: bool = False) -> list[Certificate]:
    """All 8 evolution and 4 constraint interactions (the full claim).

    Each kind is certified in one batch (:func:`_certify_kind`); the
    certificates equal those of :func:`certify` for each interaction,
    apart from their times.  With ``preflight`` the annihilation gate
    runs once per orientation s = eps2 eps3, in the first batch that
    meets it: its generators and resonant samples depend on s alone.
    """
    state = state or CERTIFICATION_BACKGROUND
    gated: set = set()
    return [cert for which in ("evolution", "constraint")
            if which in which_list
            for cert in _certify_kind(which, state, preflight, subsystem,
                                      with_cofactors, gated)]


def write_certificates(certs: list[Certificate], path) -> None:
    payload = {
        "all_verified": all(c.verified for c in certs),
        "certificates": [c.to_dict() for c in certs],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
