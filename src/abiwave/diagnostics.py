"""Diagnostics: residuals, norms, decay fits, and the series container.

Constraint residuals are evaluated in full variables (background plus
perturbation); the manifold residuals expect absolute fields.  Norms
mix spectral (Sobolev) and physical (sup, Besov) computations on the
same grid.  Spectra are half spectra of real fields (:mod:`abiwave.grid`);
one sample transforms the field once and synthesizes its gradient once.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field as dfield

import numpy as np

from .fields import StateField
from .grid import Grid
from .state import ConstantState, metric_matrix
from .spectral import decompose_spectral, propagate_linear, _geometry

SERIES_COLUMNS = (
    "t", "H1_U", "H6_U", "HN_U", "H1_up", "H1_um", "H1_u0", "W1inf_U",
    "B0inf1", "B1inf1", "res_divb_sup", "res_divd_sup", "res_rot_sup",
    "man_scalar_sup", "man_vector_sup", "energy",
)


# ----------------------------------------------------------------------
# residuals
# ----------------------------------------------------------------------

def constraint_residual(field: StateField, state: ConstantState,
                        grad: np.ndarray | None = None):
    """Sup and L2 norms of the three constraint residual fields.

    Residuals of (tau div b - b.grad tau), (tau div d - d.grad tau) and
    (tau curl v - b.grad d + d.grad b), all in full variables.  ``grad``
    is ``field.grid.gradient(field.spectral())`` when the caller has it.
    """
    g = field.grid
    tau = state.tau0 + field.tau
    b = state.b0.reshape(3, 1, 1, 1) + field.b
    d = state.d0.reshape(3, 1, 1, 1) + field.d

    if grad is None:
        grad = g.gradient(field.spectral())  # grad[c, j] = d_j U_c
    grad_tau = grad[0]
    div_b = grad[4, 0] + grad[5, 1] + grad[6, 2]
    div_d = grad[7, 0] + grad[8, 1] + grad[9, 2]
    curl_v = np.stack([
        grad[3, 1] - grad[2, 2],
        grad[1, 2] - grad[3, 0],
        grad[2, 0] - grad[1, 1],
    ])
    grad_b = grad[4:7]  # grad_b[i, j] = d_j b_i
    grad_d = grad[7:10]

    r1 = tau * div_b - np.einsum("j...,j...->...", b, grad_tau)
    r2 = tau * div_d - np.einsum("j...,j...->...", d, grad_tau)
    r3 = tau * curl_v - np.einsum("j...,ij...->i...", b, grad_d) \
        + np.einsum("j...,ij...->i...", d, grad_b)

    def norms(r):
        return {"sup": float(np.max(np.abs(r))), "l2": g.l2_norm(r)}

    return norms(r1), norms(r2), norms(r3)


def manifold_residual(field_abs: StateField):
    """Sup norms of tau^2+v^2+b^2+d^2-1 and tau v - d ^ b (absolute fields)."""
    f = field_abs.data
    scalar = np.sum(f * f, axis=0) - 1.0
    vec = f[0] * f[1:4] - np.cross(f[7:10], f[4:7], axis=0)
    return float(np.max(np.abs(scalar))), float(np.max(np.abs(vec)))


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------

def w1inf_norm(grid: Grid, data: np.ndarray, fh: np.ndarray | None = None,
               grad: np.ndarray | None = None) -> float:
    """sup |U| + sup |grad U| over components and points.

    ``fh`` is the half spectrum of ``data`` and ``grad`` its
    :meth:`Grid.gradient`; each is computed when not given.
    """
    if grad is None:
        grad = grid.gradient(grid.rfwd(data) if fh is None else fh)
    return float(np.max(np.abs(data))) + float(np.max(np.abs(grad)))


def besov_norms(grid: Grid, data: np.ndarray,
                fh: np.ndarray | None = None) -> tuple[float, float]:
    """Homogeneous Besov (B0_{inf,1}, B1_{inf,1}) via sharp dyadic shells.

    Shells are annuli 2^j <= |k| < 2^{j+1} on the discrete lattice; the
    mean mode belongs to no shell.  ``fh`` is the half spectrum of ``data``.
    """
    fh = grid.rfwd(data) if fh is None else fh
    b0 = 0.0
    b1 = 0.0
    for j, mask in grid.shell_masks():
        piece = grid.rinv(fh * mask[..., :grid.n_half])
        sup = float(np.max(np.abs(piece)))
        b0 += sup
        b1 += 2.0 ** j * sup
    return b0, b1


# ----------------------------------------------------------------------
# series container
# ----------------------------------------------------------------------

@dataclass
class DiagnosticsSeries:
    """Time-indexed diagnostic record with the fixed CSV layout."""

    sobolev_n: int
    rows: list = dfield(default_factory=list)
    blowup: bool = False

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
    def read_csv(cls, path, sobolev_n: int = 0) -> "DiagnosticsSeries":
        out = cls(sobolev_n=sobolev_n)
        with open(path, newline="") as f:
            rd = csv.reader(f)
            header = next(rd)
            if tuple(header) != SERIES_COLUMNS:
                raise ValueError("unexpected series columns")
            for row in rd:
                out.rows.append({c: float(x) for c, x in zip(SERIES_COLUMNS, row)})
        return out


def sample_diagnostics(field: StateField, state: ConstantState, t: float,
                       sobolev_n: int, geo=None) -> dict:
    """One full diagnostics row for a perturbation field.

    ``geo`` is the half-spectrum geometry (``spectral._geometry``).  For a
    real field ``||u+||`` equals ``||u-||``; on the half spectrum each is
    sqrt((||P+ U||^2 + ||P- U||^2) / 2) in the Hermitian weight, because
    the mirror of P+ U at -k is P- U at k.
    """
    g = field.grid
    fh = field.spectral()
    grad = g.gradient(fh)
    parts = decompose_spectral(fh, g, state, geo)
    r1, r2, r3 = constraint_residual(field, state, grad)
    absolute = StateField(g, field.data + state.as_vector().reshape(10, 1, 1, 1))
    man_s, man_v = manifold_residual(absolute)
    b0n, b1n = besov_norms(g, field.data, fh)
    h1_wave = np.hypot(g.sobolev_norm(parts.plus, 1),
                       g.sobolev_norm(parts.minus, 1)) / np.sqrt(2.0)
    return dict(
        t=t,
        H1_U=g.sobolev_norm(fh, 1),
        H6_U=g.sobolev_norm(fh, 6),
        HN_U=g.sobolev_norm(fh, sobolev_n),
        H1_up=h1_wave,
        H1_um=h1_wave,
        H1_u0=g.sobolev_norm(parts.zero, 1),
        W1inf_U=w1inf_norm(g, field.data, fh, grad),
        B0inf1=b0n,
        B1inf1=b1n,
        res_divb_sup=r1["sup"],
        res_divd_sup=r2["sup"],
        res_rot_sup=r3["sup"],
        man_scalar_sup=man_s,
        man_vector_sup=man_v,
        energy=g.l2_norm(field.data) ** 2,
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
        return {
            "norm": self.norm, "window": list(self.window),
            "t_wrap": self.t_wrap, "exponent": self.exponent,
            "ci95": self.ci95, "samples": self.samples,
        }

    def write_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)


def wrap_time(grid: Grid, state: ConstantState) -> float:
    """L / (2 max group speed): validity horizon of free-space decay."""
    return grid.L / (2.0 * metric_matrix(state).max_speed)


def gaussian_bump_field(grid: Grid, sigma: float, amplitude: float = 1.0,
                        component: int = 0) -> StateField:
    """Smooth localized bump in one component, centered in the box."""
    x = grid.x1d
    c = grid.L / 2.0
    prof = np.exp(-0.5 * (((x - c)[:, None, None] ** 2
                           + (x - c)[None, :, None] ** 2
                           + (x - c)[None, None, :] ** 2) / sigma ** 2))
    f = StateField.zeros(grid)
    f.data[component] = amplitude * prof
    return f


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
    bump = gaussian_bump_field(grid, sigma, amplitude, component)
    geo = _geometry(grid, state)
    # decompose once; each snapshot is then a phase multiply + synthesis
    from .spectral import apply_projector
    fh = grid.strip_nyquist(bump.spectral())
    plus = apply_projector(fh, geo, +1)
    minus = apply_projector(fh, geo, -1)
    del fh
    samples = []
    for t in times:
        phase = np.exp(-1j * t * geo.norm0)
        evolved = grid.rinv(phase * plus + np.conj(phase) * minus)
        samples.append({
            "t": t,
            "sup": grid.sup_norm(evolved),
            "l2": grid.l2_norm(evolved),
        })
    ts = np.array([s["t"] for s in samples])
    sups = np.array([s["sup"] for s in samples])
    slope, ci = loglog_fit(ts, sups)
    return DecayReport(norm="sup", window=(times[0], times[-1]), t_wrap=tw,
                       exponent=slope, ci95=ci, samples=samples)


def spectral_kernel_free(field: StateField, state: ConstantState, geo=None):
    """Half spectrum of the field with its kernel-branch part removed."""
    g = field.grid
    geo = geo or _geometry(g, state)
    fh = g.strip_nyquist(field.spectral())
    from .spectral import apply_projector
    return fh - apply_projector(fh, geo, 0)


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
