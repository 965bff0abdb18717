"""Diagnostics: residuals, norms, decay fits, and the series container.

Constraint residuals are evaluated in full variables (background plus
perturbation); the manifold residuals expect absolute fields.  Norms
mix spectral (Sobolev) and physical (sup, Besov) computations on the
same grid.  Spectra are half spectra of real fields (:mod:`abiwave.grid`);
one sample reads the run's state spectrum and synthesizes its gradient
one component at a time, in the run's workspace.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field as dfield

import numpy as np

from . import system
from .fields import StateField
from .grid import Grid
from .state import ConstantState, metric_matrix
from .spectral import _geometry, decompose_spectral

SERIES_COLUMNS = (
    "t", "H1_U", "H6_U", "HN_U", "H1_up", "H1_um", "H1_u0", "W1inf_U",
    "B0inf1", "B1inf1", "res_divb_sup", "res_divd_sup", "res_rot_sup",
    "man_scalar_sup", "man_vector_sup", "energy",
)


# ----------------------------------------------------------------------
# residuals
# ----------------------------------------------------------------------

def constraint_residual(field: StateField, state: ConstantState,
                        derivative=None, full: np.ndarray | None = None,
                        scratch: np.ndarray | None = None):
    """Sup and L2 norms of the three constraint residual fields.

    The constraint rows of :data:`abiwave.system.CONSTRAINT_TERMS`
    evaluated on the full variables (background plus perturbation):
    -tau div b + b.grad tau, -tau div d + d.grad tau and
    -tau curl v + b.grad d - d.grad b.  The background has no gradient,
    so ``derivative(c)``, the three derivatives of component c as
    :func:`abiwave.system.quadratic` takes them, is that of the
    perturbation; by default it synthesizes them from
    ``field.spectral()`` one component at a time.  ``full`` is
    ``field.data`` plus the background when the caller has it.
    ``scratch``, eight real fields or more, receives the five rows in
    its first five and then the temporaries of their norms in the next
    three; ``derivative`` may use all but the first five.  They are new
    arrays otherwise.
    """
    g = field.grid
    if derivative is None:
        fh = field.spectral()

        def derivative(c):
            return g.gradient(fh[c])
    if full is None:
        full = field.data + state.as_vector().reshape(10, 1, 1, 1)
    rows, t1, t3 = (None,) * 3 if scratch is None else \
        (scratch[:5], scratch[5], scratch[5:8])
    r = system.quadratic(system.CONSTRAINT_TERMS, full, derivative, rows)

    def norms(r, tmp):
        return {"sup": _sup(r, tmp), "l2": g.l2_norm(r, tmp)}

    return norms(r[0], t1), norms(r[1], t1), norms(r[2:5], t3)


def manifold_residual(field_abs: StateField,
                      scratch: np.ndarray | None = None):
    """Sup norms of tau^2+v^2+b^2+d^2-1 and tau v - d ^ b (absolute fields).

    ``scratch``, ten real fields, receives f * f and then the vector
    residual and its products when given.  d ^ b is formed component by
    component, as ``np.cross`` forms it (d_j b_k - d_k b_j), without the
    copies of its operands that ``np.cross`` makes.
    """
    f = field_abs.data
    scalar = np.sum(np.multiply(f, f, out=scratch), axis=0) - 1.0
    vec, t0, t1 = (None,) * 3 if scratch is None else \
        (scratch[:3], scratch[3], scratch[4])
    vec = np.multiply(f[0], f[1:4], out=vec)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        cross = np.multiply(f[7 + j], f[4 + k], out=t0)
        cross -= np.multiply(f[7 + k], f[4 + j], out=t1)
        vec[i] -= cross
    return _sup(scalar, scalar), _sup(vec, vec)


def _sup(f: np.ndarray, tmp: np.ndarray | None = None) -> float:
    """sup |f|, with |f| formed in ``tmp`` when given."""
    return float(np.max(np.abs(f, out=tmp)))


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------

def w1inf_norm(grid: Grid, data: np.ndarray, grad_sup: float | None = None,
               scratch: np.ndarray | None = None) -> float:
    """sup |U| + sup |grad U| over components and points.

    ``grad_sup`` is the second term, synthesized one component at a
    time when not given.  ``scratch``, shaped like ``data``, receives
    |U| when given.
    """
    if grad_sup is None:
        fh = grid.rfwd(data)
        grad_sup = max(_sup(grid.gradient(c)) for c in fh)
    return _sup(data, scratch) + grad_sup


def besov_norms(grid: Grid, data: np.ndarray, fh: np.ndarray | None = None,
                ws=None) -> tuple[float, float]:
    """Homogeneous Besov (B0_{inf,1}, B1_{inf,1}) via sharp dyadic shells.

    Shells are annuli 2^j <= |k| < 2^{j+1} on the discrete lattice; the
    mean mode belongs to no shell.  ``fh`` is the half spectrum of
    ``data``.  Each shell is masked into a one-component buffer and
    synthesized a component at a time; a run's workspace ``ws`` lends
    its ``masked`` buffer and counts the transforms.
    """
    fh = grid.rfwd(data) if fh is None else fh
    buf = np.empty_like(fh[0]) if ws is None else ws.masked
    rinv = grid.rinv if ws is None else ws.rinv
    b0 = 0.0
    b1 = 0.0
    for j, mask in grid.shell_masks:
        sup = max(float(np.max(np.abs(rinv(np.multiply(c, mask, out=buf)))))
                  for c in fh)
        b0 += sup
        b1 += 2.0 ** j * sup
    return b0, b1


# ----------------------------------------------------------------------
# series container
# ----------------------------------------------------------------------

@dataclass
class DiagnosticsSeries:
    """Time-indexed diagnostic record with the fixed CSV layout."""

    rows: list = dfield(default_factory=list)
    blowup: bool = False
    blowup_t: float | None = None     # end time of the failed step
    blowup_step: int | None = None    # its number; 0 for the initial field

    def mark_blowup(self, t: float, step: int):
        self.blowup, self.blowup_t, self.blowup_step = True, t, step

    def append(self, **kw):
        if self.rows and kw["t"] <= self.rows[-1]["t"]:
            raise ValueError("sample times must increase")
        for c in SERIES_COLUMNS:
            if c not in kw:
                raise ValueError(f"missing column {c}")
            if not np.isfinite(kw[c]):
                raise ValueError(f"non-finite diagnostic {c}")
        self.rows.append({c: float(kw[c]) for c in SERIES_COLUMNS})

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.rows])

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(SERIES_COLUMNS)
            for r in self.rows:
                w.writerow([repr(r[c]) for c in SERIES_COLUMNS])

    @classmethod
    def read_csv(cls, path) -> "DiagnosticsSeries":
        out = cls()
        with open(path, newline="") as f:
            rd = csv.reader(f)
            header = next(rd)
            if tuple(header) != SERIES_COLUMNS:
                raise ValueError("unexpected series columns")
            for row in rd:
                out.rows.append({c: float(x) for c, x in zip(SERIES_COLUMNS, row)})
        return out


def sample_diagnostics(field: StateField, Uh: np.ndarray,
                       state: ConstantState, t: float, sobolev_n: int,
                       ws) -> dict:
    """One full diagnostics row for a perturbation field.

    ``Uh`` is the half spectrum ``field`` was synthesized from; nothing
    is transformed forward.  ``ws`` is the run's
    :class:`abiwave.simulate.Workspace`, idle between steps: Ahat U and
    Ahat^2 U go to its RK4 spectra ``acc`` and ``stage``.  Once the
    branch norms have consumed them, the full variables go to ``ws.u``
    and every abs and square temporary to ``ws.scratch`` (the storage of
    ``stage``), so a sample allocates no ten-field array; ``field`` may
    be ``ws.prod``, which the sample does not write.  The gradient is
    synthesized one component at a time for the constraint residuals,
    whose rows differentiate every component, so they also give
    sup |grad U|.  For a real field ``||u+|| = ||u-||``; on the half
    spectrum each is sqrt((||P+ U||^2 + ||P- U||^2) / 2), as the mirror
    of P+ U at -k is P- U at k, and the parallelogram law makes that
    hypot(||Ahat^2 U||, ||Ahat U||) / 2.
    """
    g = field.grid
    AU, A2U = decompose_spectral(Uh, ws.geo, (ws.acc, ws.stage))
    h1_wave = np.hypot(g.sobolev_norm(A2U, 1), g.sobolev_norm(AU, 1)) / 2.0
    h1_zero = g.sobolev_norm(np.subtract(Uh, A2U, out=A2U), 1)
    # Ahat U and Ahat^2 U are consumed: stage is scratch from here on
    scratch = ws.scratch
    grad_sup = 0.0

    def derivative(c):
        # clear of the five residual rows constraint_residual forms there
        nonlocal grad_sup
        d = ws.gradient(Uh[c])
        grad_sup = max(grad_sup, _sup(d, scratch[5:8]))
        return d

    full = np.add(field.data, state.as_vector().reshape(10, 1, 1, 1),
                  out=ws.u)
    r1, r2, r3 = constraint_residual(field, state, derivative, full, scratch)
    man_s, man_v = manifold_residual(StateField(g, full), scratch)
    b0n, b1n = besov_norms(g, field.data, Uh, ws)
    return dict(
        t=t,
        H1_U=g.sobolev_norm(Uh, 1),
        H6_U=g.sobolev_norm(Uh, 6),
        HN_U=g.sobolev_norm(Uh, sobolev_n),
        H1_up=h1_wave,
        H1_um=h1_wave,
        H1_u0=h1_zero,
        W1inf_U=w1inf_norm(g, field.data, grad_sup, scratch),
        B0inf1=b0n,
        B1inf1=b1n,
        res_divb_sup=r1["sup"],
        res_divd_sup=r2["sup"],
        res_rot_sup=r3["sup"],
        man_scalar_sup=man_s,
        man_vector_sup=man_v,
        energy=g.l2_norm(field.data, scratch) ** 2,
    )


# ----------------------------------------------------------------------
# decay probe and energy law
# ----------------------------------------------------------------------

@dataclass
class DecayReport:
    norm: str
    window: tuple[float, float]
    t_wrap: float
    exponent: float
    ci95: float
    samples: list

    def to_dict(self) -> dict:
        return asdict(self)

    def write_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)


def wrap_time(grid: Grid, state: ConstantState) -> float:
    """L / (2 max group speed): validity horizon of free-space decay."""
    return grid.L / (2.0 * metric_matrix(state).max_speed)


def gaussian_bump(grid: Grid, sigma: float,
                  amplitude: float = 1.0) -> np.ndarray:
    """Smooth localized bump (N, N, N), centered in the box."""
    x = grid.x1d
    c = grid.L / 2.0
    prof = np.exp(-0.5 * (((x - c)[:, None, None] ** 2
                           + (x - c)[None, :, None] ** 2
                           + (x - c)[None, None, :] ** 2) / sigma ** 2))
    return amplitude * prof


def dispersion_probe(state: ConstantState, grid: Grid, times,
                     sigma: float = 2.0, amplitude: float = 1.0,
                     component: int = 0) -> DecayReport:
    """Free linear flow of a localized bump: sup-norm decay fit.

    The kernel-branch (non-dispersive) part of the data is removed so
    the fit sees pure wave decay; all requested times must precede the
    wrap-around horizon.  The L2 norm is conserved exactly, which the
    probe also records.
    """
    times = sorted(float(t) for t in times)
    tw = wrap_time(grid, state)
    if times and times[-1] >= tw:
        raise ValueError(f"requested time {times[-1]} >= wrap time {tw}")
    geo = _geometry(grid, state)
    # the bump fills one component, with unit vector e, so the
    # kernel-free flow cos(t|k|_0) Ahat^2 U - i sin(t|k|_0) Ahat U is its
    # one spectrum times the real fields s1 = Ahat e and s2 = Ahat^2 e
    bump = grid.rfwd(gaussian_bump(grid, sigma, amplitude))
    bump *= grid.nyquist_mask
    unit = np.zeros((10,) + geo.norm0.shape)
    unit[component] = 1.0
    s1, s2 = decompose_spectral(unit, geo, (None, unit))
    rows = [r for r in range(10) if s1[r].any() or s2[r].any()]
    # one row at a time, through one reused buffer
    buf = np.empty_like(bump)
    cos, msin = np.empty_like(s1[0]), np.empty_like(s1[0])
    samples = []
    for t in times:
        np.multiply(t, geo.norm0, out=msin)
        np.cos(msin, out=cos)
        np.negative(np.sin(msin, out=msin), out=msin)
        sup = l2sq = 0.0
        for r in rows:
            np.multiply(cos, s2[r], out=buf.real)
            np.multiply(msin, s1[r], out=buf.imag)
            buf *= bump
            evolved = grid.rinv(buf).ravel()
            sup = max(sup, float(evolved.max()), -float(evolved.min()))
            l2sq += float(np.dot(evolved, evolved)) * grid.dx ** 3
            del evolved  # before the next synthesis allocates its own
        samples.append({"t": t, "sup": sup, "l2": float(np.sqrt(l2sq))})
    ts = np.array([s["t"] for s in samples])
    sups = np.array([s["sup"] for s in samples])
    slope, ci = loglog_fit(ts, sups)
    return DecayReport(norm="sup", window=(times[0], times[-1]), t_wrap=tw,
                       exponent=slope, ci95=ci, samples=samples)


def loglog_fit(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """OLS slope of log y vs log t with a 95 percent half-width."""
    lt, ly = np.log(t), np.log(y)
    n = len(t)
    A = np.stack([lt, np.ones(n)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    if n > 2 and res.size:
        s2 = float(res[0]) / (n - 2)
        var = s2 / float(np.sum((lt - lt.mean()) ** 2))
        ci = 1.96 * np.sqrt(var)
    else:
        ci = float("nan")
    return slope, float(ci)


def energy_growth_check(series: DiagnosticsSeries) -> dict:
    """Empirical constant in d/dt ||U||_{H^N}^2 <= C ||U||^2 ||U||_{W^1inf}.

    Uses centered log-derivatives of the H^N energy at the interior
    sample times; reports the per-sample constants and their maximum.
    """
    t = series.column("t")
    hn = series.column("HN_U")
    w = series.column("W1inf_U")
    if len(t) < 3:
        raise ValueError("need at least three samples")
    e = 2.0 * np.log(hn)  # log of the squared norm
    cs = []
    for i in range(1, len(t) - 1):
        dlog = (e[i + 1] - e[i - 1]) / (t[i + 1] - t[i - 1])
        cs.append(abs(dlog) / w[i])
    cs = np.array(cs)
    return {"C_max": float(np.max(cs)), "C_series": cs.tolist(),
            "t": t[1:-1].tolist()}
