"""Interaction phases, resonant sets, phase identities and angular cutoffs.

The phase of a bilinear interaction labeled by signs (e1, e2, e3) in
{+1, 0, -1} is

    phi(xi, eta) = e1 |xi|_0 - e2 |xi - eta|_0 - e3 |eta|_0,

zero signs contributing nothing.  Its eta-gradient vanishes exactly on
the collinear sets eta = lambda xi (with the orientation fixed by
e2 e3), which is what the exact certification in
:mod:`abiwave.symbolic` exploits.

A wave triple (no zero sign) belongs to the resonance class
(e1 e2, e1 e3), which it shares with its negative; on eta = lambda xi
the phase is e1 |xi|_0 (1 - e1 e2 |1 - lambda| - e1 e3 |lambda|), so
each class has one time-resonant set:

    (+, +)  (+,++), (-,--)   lambda in [0, 1]
    (-, +)  (+,-+), (-,+-)   lambda >= 1
    (+, -)  (+,+-), (-,-+)   lambda <= 0
    (-, -)  (+,--), (-,++)   none: the phase vanishes only at xi = 0

The classes decide the closed form of the phase-gradsq identity, the
angular cutoff and the ranges of the resonant-set probe.

All evaluators are vectorized over trailing sample axes and reject
points too close to the coordinate axes {xi = 0}, {eta = 0},
{xi = eta}, where the symbols are not smooth.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import ConstantState, metric_matrix, norm0

SIGNS = (+1, -1)
AXIS_TOL = 1e-6


class OnAxisError(ValueError):
    """Point too close to {xi = 0} u {eta = 0} u {xi = eta}."""


@dataclass(frozen=True)
class InteractionSpec:
    """Sign triple (eps1, eps2, eps3), each in {+1, 0, -1}."""

    eps1: int
    eps2: int
    eps3: int

    def __post_init__(self):
        for e in (self.eps1, self.eps2, self.eps3):
            if e not in (+1, 0, -1):
                raise ValueError("signs must be in {+1, 0, -1}")

    @classmethod
    def parse(cls, text: str) -> "InteractionSpec":
        """Parse compact labels like '+,-+' or '+-+' or '+,+0'."""
        s = text.replace(",", "").replace(" ", "")
        if len(s) != 3 or any(c not in "+-0" for c in s):
            raise ValueError(f"bad interaction label {text!r}")
        conv = {"+": 1, "-": -1, "0": 0}
        return cls(conv[s[0]], conv[s[1]], conv[s[2]])

    def label(self) -> str:
        conv = {1: "+", -1: "-", 0: "0"}
        return conv[self.eps1] + "," + conv[self.eps2] + conv[self.eps3]

    @property
    def resonance_class(self) -> tuple[int, int]:
        """(eps1 eps2, eps1 eps3), shared by a triple and its negative."""
        if 0 in (self.eps1, self.eps2, self.eps3):
            raise ValueError(f"{self.label()} is not a pure wave triple")
        return self.eps1 * self.eps2, self.eps1 * self.eps3


ALL_WAVE_TRIPLES = tuple(InteractionSpec(a, b, c)
                         for a in SIGNS for b in SIGNS for c in SIGNS)

# lambda drawn on each class's time-resonant set eta = lambda xi, inside
# the class's range and away from its ends
_LAMBDA_RANGES = {(1, 1): (0.05, 0.95), (-1, 1): (1.05, 4.0),
                  (1, -1): (-4.0, -0.05)}


def _as_points(x):
    x = np.asarray(x, dtype=float)
    return x.reshape(-1, 3), x.shape[:-1]


def _check_off_axis(xi, eta):
    xi2, _ = _as_points(xi)
    eta2, _ = _as_points(eta)
    nx = np.linalg.norm(xi2, axis=1)
    ne = np.linalg.norm(eta2, axis=1)
    nw = np.linalg.norm(xi2 - eta2, axis=1)
    big = np.maximum(np.maximum(nx, ne), nw)
    if np.any(np.minimum(np.minimum(nx, ne), nw) < AXIS_TOL * big):
        raise OnAxisError("sample too close to a coordinate axis")


def phase(spec: InteractionSpec, xi, eta, state: ConstantState):
    """phi = e1 |xi|_0 - e2 |xi-eta|_0 - e3 |eta|_0 (vectorized)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return (spec.eps1 * norm0(xi, state) - spec.eps2 * norm0(xi - eta, state)
            - spec.eps3 * norm0(eta, state))


def _g0_dir(x, state):
    """g0 x / |x|_0 for (..., 3) arrays."""
    g = metric_matrix(state).g
    gx = np.einsum("ij,...j->...i", g, np.asarray(x, dtype=float))
    return gx / norm0(x, state)[..., None]


def grad_xi_phase(spec, xi, eta, state):
    """d phi / d xi; rejects points on the axes touched by the formula."""
    _check_off_axis(xi, eta)
    return (spec.eps1 * _g0_dir(xi, state)
            - spec.eps2 * _g0_dir(np.asarray(xi, float) - eta, state))


def grad_eta_phase(spec, xi, eta, state):
    """d phi / d eta."""
    _check_off_axis(xi, eta)
    return (spec.eps2 * _g0_dir(np.asarray(xi, float) - eta, state)
            - spec.eps3 * _g0_dir(eta, state))


# ----------------------------------------------------------------------
# the three identity suites
# ----------------------------------------------------------------------

def _scale(xi, eta, state):
    return (norm0(xi, state) + norm0(eta, state)
            + norm0(np.asarray(xi, float) - eta, state))


def check_gradient_identity(spec: InteractionSpec, xi, eta, state) -> np.ndarray:
    """Residual of the fundamental gradient identity

        e1 |xi|_0 grad_xi phi = -e3 |eta|_0 grad_eta phi
                                - e2 g0 (xi-eta)/|xi-eta|_0 phi,

    normalized by |xi|_0 + |eta|_0 + |xi-eta|_0.  Holds identically for
    sign triples in {+,-}^3.
    """
    if 0 in (spec.eps1, spec.eps2, spec.eps3):
        raise ValueError("identity defined for pure wave triples")
    _check_off_axis(xi, eta)
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    ph = phase(spec, xi, eta, state)
    lhs = spec.eps1 * norm0(xi, state)[..., None] * grad_xi_phase(spec, xi, eta, state)
    rhs = (-spec.eps3 * norm0(eta, state)[..., None]
           * grad_eta_phase(spec, xi, eta, state)
           - spec.eps2 * _g0_dir(xi - eta, state) * ph[..., None])
    return np.linalg.norm(lhs - rhs, axis=-1) / _scale(xi, eta, state)


def dual_sq_grad_eta(spec, xi, eta, state):
    """|grad_eta phi|_{0'}^2 in closed form (pure wave pairs e2, e3)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    w = xi - eta
    g = metric_matrix(state).g
    cross = np.einsum("...i,ij,...j->...", w, g, eta) \
        / (norm0(w, state) * norm0(eta, state))
    return 2.0 * (1.0 - spec.eps2 * spec.eps3 * cross)


def check_phase_gradsq_identity(spec: InteractionSpec, xi, eta, state):
    """Residual of the closed-form relation phi ~ |grad_eta phi|_{0'}^2.

    Returns (residual, skipped): residuals are relative; samples whose
    denominator is below 1e-3 times its homogeneous scale are
    flagged rather than evaluated.  Defined for the six wave triples
    outside the class (-, -) of (+,--) and (-,++), whose phase never
    vanishes.
    """
    cls = spec.resonance_class
    if cls == (-1, -1):
        raise ValueError(f"no closed-form identity for {spec.label()}")
    _check_off_axis(xi, eta)
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    g = metric_matrix(state).g
    nx = norm0(xi, state)
    ne = norm0(eta, state)
    nw = norm0(xi - eta, state)
    total = nx + ne + nw
    grad2 = dual_sq_grad_eta(spec, xi, eta, state)
    ph = phase(spec, xi, eta, state)

    if cls == (1, 1):
        lhs, denom, scale = ph, total, total
        rhs = -spec.eps1 * (nw * ne / denom) * grad2
    else:
        if cls == (1, -1):
            denom = nx * nw + np.einsum("...i,ij,...j->...", xi, g, xi - eta)
            scale = nx * nw
        else:  # (-1, 1)
            denom = nx * ne + np.einsum("...i,ij,...j->...", xi, g, eta)
            scale = nx * ne
        lhs = 2.0 * ph
        rhs = spec.eps1 * (total * nw * ne / denom) * grad2

    skipped = np.abs(denom) < 1e-3 * scale
    # both sides are homogeneous of degree one; normalize by the natural
    # scale so cancellation at the resonant set is not penalized
    rel = np.abs(lhs - rhs) / total
    rel = np.where(skipped, 0.0, rel)
    return rel, skipped


def check_mixed_gradient_identity(sign: int, xi, eta, state) -> np.ndarray:
    """Residual of the mixed wave-kernel identity for (s,s0) interactions:

        |xi|_0 grad_xi phi = (|xi-eta|_0 - |xi|_0) grad_eta phi + s g0 eta

    with phi = phi^{s,s 0}; the coefficient sign on the gradient term
    is the one that makes the relation an exact identity.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_off_axis(xi, eta)
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    spec = InteractionSpec(sign, sign, 0)
    g = metric_matrix(state).g
    nx = norm0(xi, state)
    nw = norm0(xi - eta, state)
    lhs = nx[..., None] * grad_xi_phase(spec, xi, eta, state)
    rhs = ((nw - nx)[..., None] * grad_eta_phase(spec, xi, eta, state)
           + sign * np.einsum("ij,...j->...i", g, eta))
    return np.linalg.norm(lhs - rhs, axis=-1) / _scale(xi, eta, state)


def identity_suite(xi, eta, state) -> dict:
    """The 22 named results of the three suites at the samples (xi, eta).

    In order: ``gradient <triple>`` for the eight wave triples; ``phase-
    gradsq <triple>`` and ``phase-gradsq <triple> skipped`` for the six
    outside the class (-, -); ``mixed +,+0`` and ``mixed -,-0``.  Each
    is the worst relative residual over the samples, except the skipped
    counts, which are sample counts.
    """
    results = {}
    for spec in ALL_WAVE_TRIPLES:
        results[f"gradient {spec.label()}"] = float(np.max(
            check_gradient_identity(spec, xi, eta, state)))
    for spec in ALL_WAVE_TRIPLES:
        if spec.resonance_class == (-1, -1):
            continue
        r, skipped = check_phase_gradsq_identity(spec, xi, eta, state)
        key = f"phase-gradsq {spec.label()}"
        results[key] = float(np.max(r))
        results[key + " skipped"] = int(np.sum(skipped))
    for sign in SIGNS:
        results[f"mixed {InteractionSpec(sign, sign, 0).label()}"] = float(
            np.max(check_mixed_gradient_identity(sign, xi, eta, state)))
    return results


# ----------------------------------------------------------------------
# angular cutoffs
# ----------------------------------------------------------------------

def smooth_step(x):
    """C-infinity transition: 0 for x <= -1/4, 1 for x >= 1/4."""
    x = np.asarray(x, dtype=float)
    s = (x + 0.25) / 0.5

    def bump(u):
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = np.exp(-1.0 / u[pos])
        return out

    num = bump(s)
    den = num + bump(1.0 - s)
    return num / den


def cutoff_chi(spec: InteractionSpec, xi, eta, state):
    """Angular repartition chi in [0, 1] separating the resonant regions.

    chi = 1 on the class (-, -), chi = 0 on the class (+, +), and a
    smooth function of the g0-angle between xi and xi - eta otherwise.
    """
    cls = spec.resonance_class
    _check_off_axis(xi, eta)
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    shape = np.shape(norm0(xi, state))
    if cls == (-1, -1):
        return np.ones(shape)
    if cls == (1, 1):
        return np.zeros(shape)
    g = metric_matrix(state).g
    arg = np.einsum("...i,ij,...j->...", xi, g, xi - eta) \
        / (norm0(xi, state) * norm0(xi - eta, state))
    return smooth_step(arg if cls == (-1, 1) else -arg)


# ----------------------------------------------------------------------
# sampling and probes
# ----------------------------------------------------------------------

def sample_off_axis(rng: np.random.Generator, n: int):
    """Random (xi, eta) pairs staying away from the coordinate axes."""
    xi = np.empty((0, 3))
    eta = np.empty((0, 3))
    while len(xi) < n:
        x = rng.normal(size=(2 * n, 3)) * rng.uniform(0.2, 5.0, (2 * n, 1))
        e = rng.normal(size=(2 * n, 3)) * rng.uniform(0.2, 5.0, (2 * n, 1))
        nx = np.linalg.norm(x, axis=1)
        ne = np.linalg.norm(e, axis=1)
        nw = np.linalg.norm(x - e, axis=1)
        big = np.maximum(np.maximum(nx, ne), nw)
        ok = np.minimum(np.minimum(nx, ne), nw) > 10 * AXIS_TOL * big
        xi = np.concatenate([xi, x[ok]])
        eta = np.concatenate([eta, e[ok]])
    return xi[:n], eta[:n]


def resonant_samples(orientation: int, rng: np.random.Generator, n: int):
    """(xi, eta) on the space-resonant set eta = lambda xi.

    orientation +1 draws lambda in (0, 1); orientation -1 draws
    lambda > 1 or lambda < 0 (the two anti-parallel branches).
    """
    xi = rng.normal(size=(n, 3))
    xi *= rng.uniform(0.5, 2.0, (n, 1))
    if orientation == +1:
        lam = rng.uniform(0.1, 0.9, (n, 1))
    else:
        lam = np.where(rng.uniform(size=(n, 1)) < 0.5,
                       rng.uniform(1.1, 3.0, (n, 1)),
                       rng.uniform(-3.0, -0.1, (n, 1)))
    return xi, lam * xi


def resonant_set_probe(spec: InteractionSpec, n_samples: int,
                       state: ConstantState, seed: int = 0) -> dict:
    """Sample the parametrized resonant sets and the cutoff support bound.

    Asserts numerically that phi vanishes on the advertised collinear
    parametrization of the time-resonant set (when there is one) and
    that on supp chi_+ the relevant denominator stays above 3/4 of its
    homogeneous scale.
    """
    rng = np.random.default_rng(seed)
    cls = spec.resonance_class
    out = {"interaction": spec.label(), "n_samples": n_samples}

    # time-resonant parametrization eta = lambda xi with the class's range
    if cls in _LAMBDA_RANGES:
        lo, hi = _LAMBDA_RANGES[cls]
        xi = rng.normal(size=(n_samples, 3))
        lam = rng.uniform(lo, hi, (n_samples, 1))
        eta = lam * xi
        ph = phase(spec, xi, eta, state)
        sc = _scale(xi, eta, state)
        out["phi_on_T_max"] = float(np.max(np.abs(ph) / sc))
    else:
        out["phi_on_T_max"] = 0.0  # time-resonant set is the origin only

    # lower bound on supp chi_+ (the mixed classes)
    if cls in ((-1, 1), (1, -1)):
        xi, eta = sample_off_axis(rng, 4 * n_samples)
        chi = cutoff_chi(spec, xi, eta, state)
        on = chi > 0
        g = metric_matrix(state).g
        nx = norm0(xi, state)
        nw = norm0(xi - eta, state)
        dot = np.einsum("...i,ij,...j->...", xi, g, xi - eta)
        q = (nx * nw - cls[0] * dot) / (nx * nw)
        out["support_bound_min"] = float(np.min(q[on])) if on.any() else None
        out["support_bound_target"] = 0.75
        # sanity: away from the support the phase may vanish
        out["n_on_support"] = int(np.count_nonzero(on))

    # euclidean collinearity consequence on the space-resonant set
    s = cls[0] * cls[1]  # the orientation eps2 eps3
    xi, eta = resonant_samples(s, rng, n_samples)
    w = xi - eta
    uw = w / np.linalg.norm(w, axis=1, keepdims=True)
    ue = eta / np.linalg.norm(eta, axis=1, keepdims=True)
    out["collinearity_max_dev"] = float(np.max(np.abs(uw - s * ue)))
    gp = grad_eta_phase(spec, xi, eta, state)
    out["grad_eta_on_S_max"] = float(np.max(np.linalg.norm(gp, axis=-1)))
    return out
