"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion report lines; the full suite takes a few minutes (the
12-tensor certification and the 128^3 dispersion fit dominate).
"""
import time

import numpy as np
import pytest

from abiwave import diagnostics as D
from abiwave import model, resonance as R, simulate, spectral
from abiwave.grid import Grid
from abiwave.state import ConstantState, bi_lift_constant, norm0
from abiwave.symbolic import certify as certify_mod
from abiwave.symbolic import ideal, tensors
from conftest import random_state, random_xi


def _report(num, ok, desc):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


# ----------------------------------------------------------------------
# shared draws and runs
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def draws():
    rng = np.random.default_rng(171)
    out = []
    for _ in range(1000):
        st = random_state(rng, tau_range=(0.2, 2.0), bd_max=2.0)
        out.append((random_xi(rng), st))
    return out


@pytest.fixture(scope="module")
def grid32a():
    return Grid(N=32, L=2 * np.pi * 8)


@pytest.fixture(scope="module")
def bg():
    return bi_lift_constant(B0=(0.3, 0.0, 0.05), D0=(0.0, 0.2, 0.1))


@pytest.fixture(scope="module")
def narrow_band(grid32a):
    two = 2 * np.pi / grid32a.L
    return {"k0": 2.0 * two, "width": 0.5 * two}


PRESERVATION_AMPLITUDE = 1e-2


@pytest.fixture(scope="module")
def preservation_run(grid32a, bg, narrow_band):
    cfg = simulate.SimConfig(grid=grid32a, state=bg, t_end=5.0, cfl=0.05,
                             cadence=0.5, amplitude=PRESERVATION_AMPLITUDE,
                             seed=2024, **narrow_band)
    return simulate.simulate(cfg)


# ----------------------------------------------------------------------
# 1. projector algebra
# ----------------------------------------------------------------------

def test_criterion_1_projector_algebra(draws):
    t0 = time.time()
    worst_alg = 0.0
    worst_rec = 0.0
    for xi, st in draws:
        Ps = {b: spectral.projector(xi, st, b) for b in (0, 1, -1)}
        S = Ps[0] + Ps[1] + Ps[-1] - np.eye(10)
        worst_alg = max(worst_alg, np.max(np.abs(S)))
        for b, P in Ps.items():
            worst_alg = max(worst_alg, np.max(np.abs(P @ P - P)),
                            np.max(np.abs(P - P.T)))
        worst_alg = max(worst_alg, np.max(np.abs(Ps[1] @ Ps[-1])),
                        np.max(np.abs(Ps[0] @ Ps[1])),
                        np.max(np.abs(Ps[0] @ Ps[-1])))
        n0 = norm0(xi, st)
        A = spectral.assemble_A0(xi, st)
        worst_rec = max(worst_rec,
                        np.max(np.abs(A - n0 * (Ps[1] - Ps[-1]))) / n0)
    dt = time.time() - t0
    ok = worst_alg <= 1e-12 and worst_rec <= 1e-10 and dt < 10.0
    _report(1, ok, f"projector algebra at 1000 draws: worst {worst_alg:.2e} "
                   f"(<=1e-12), reconstruction {worst_rec:.2e} (<=1e-10), "
                   f"{dt:.1f}s (<10s)")


# ----------------------------------------------------------------------
# 2. constraint operator
# ----------------------------------------------------------------------

def test_criterion_2_constraint_operator(draws):
    worst_k = 0.0
    ranks_ok = True
    for xi, st in draws:
        n0 = norm0(xi, st)
        L = spectral.assemble_L0(xi, st)
        eb = spectral.eigen_basis(xi, st)
        for b in (1, -1):
            worst_k = max(worst_k, np.max(np.abs(L @ eb[b])) / n0)
        if np.linalg.matrix_rank(L @ eb[0], tol=1e-8 * n0) != 4:
            ranks_ok = False
    ok = worst_k <= 1e-10 and ranks_ok
    _report(2, ok, f"constraint operator: wave-branch kernel residual "
                   f"{worst_k:.2e} (<=1e-10), rank on kernel branch = 4 "
                   f"at all draws: {ranks_ok}")


# ----------------------------------------------------------------------
# 3. identity suite
# ----------------------------------------------------------------------

# the suite's 22 results, in the order identities.json lists them
IDENTITY_SUITE_KEYS = (
    [f"gradient {t}" for t in ("+,++", "+,+-", "+,-+", "+,--",
                               "-,++", "-,+-", "-,-+", "-,--")]
    + [f"phase-gradsq {t}{skipped}" for t in ("+,++", "+,+-", "+,-+",
                                               "-,+-", "-,-+", "-,--")
       for skipped in ("", " skipped")]
    + ["mixed +,+0", "mixed -,-0"])


def test_criterion_3_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(33)
    st = ConstantState(tau0=1.3, b0=(0.7, -0.3, 0.2), d0=(0.1, 0.5, -0.6))
    xi, eta = R.sample_off_axis(rng, 10000)
    results = R.identity_suite(xi, eta, st)
    residuals = {name: r for name, r in results.items()
                 if not name.endswith(" skipped")}
    worst = max(residuals.values())
    n_gradsq = sum(name.startswith("phase-gradsq") for name in residuals)
    dt = time.time() - t0
    assert list(results) == IDENTITY_SUITE_KEYS
    ok = worst <= 1e-10 and dt < 30.0 and n_gradsq == 6
    _report(3, ok, f"identity suite (8 gradient + {n_gradsq} phase-gradsq + 2 mixed) at "
                   f"10^4 off-axis points: worst residual {worst:.2e} "
                   f"(<=1e-10), {dt:.1f}s (<30s)")


# ----------------------------------------------------------------------
# 4. non-resonance certification
# ----------------------------------------------------------------------

def test_criterion_4_certification(tmp_path):
    t0 = time.time()
    state = ConstantState(tau0=0.8, b0=(0.6, 0.2, -0.1), d0=(-0.3, 0.5, 0.2))
    # pre-flight gates run inside certify(); they raise on failure
    certs = certify_mod.certify_all(state=state, preflight=True)
    certify_mod.write_certificates(certs, tmp_path / "certificates.json")
    dt = time.time() - t0
    n_entries = sum(c.entries_total for c in certs)
    ok = (len(certs) == 12 and all(c.verified for c in certs)
          and (tmp_path / "certificates.json").exists())
    _report(4, ok, f"non-resonance certification: 8 evolution + 4 constraint "
                   f"tensors, {n_entries} entries, all residues zero, "
                   f"gates passed, certificates emitted [{dt:.0f}s]")


# ----------------------------------------------------------------------
# 5. constraint and manifold preservation
# ----------------------------------------------------------------------

def test_criterion_5_preservation(preservation_run):
    s = preservation_run.series
    amp = PRESERVATION_AMPLITUDE
    details = []
    ok = not s.blowup
    # baseline: the generator's guaranteed residual scale (1e-8 * amplitude)
    # floors the measured initial value, which sits at round-off; see the
    # printed numbers
    for name in ("res_divb_sup", "res_divd_sup", "res_rot_sup"):
        col = s.column(name)
        baseline = max(col[0], 1e-8 * amp)
        ok = ok and col.max() <= 10.0 * baseline
        details.append(f"{name}: init {col[0]:.1e} max {col.max():.1e} "
                       f"bound {10 * baseline:.1e}")
    for name in ("man_scalar_sup", "man_vector_sup"):
        col = s.column(name)
        ok = ok and col.max() <= 1e-8
        details.append(f"{name}: max {col.max():.1e} (<=1e-8)")
    _report(5, ok, "preservation over t in [0,5] at 32^3, amplitude 1e-2: "
                   + "; ".join(details))


# ----------------------------------------------------------------------
# 6. linear dispersion decay
# ----------------------------------------------------------------------

def test_criterion_6_dispersion_decay():
    t0 = time.time()
    st = ConstantState(tau0=1.0)
    grid = Grid(N=128, L=2 * np.pi * 30.5)
    times = np.geomspace(9.0, 90.0, 12)
    rep = D.dispersion_probe(st, grid, times, sigma=2.0)
    dt = time.time() - t0
    ok = -1.2 <= rep.exponent <= -0.8 and dt < 120.0
    _report(6, ok, f"free sup-norm decay exponent {rep.exponent:.3f} "
                   f"(ci95 +-{rep.ci95:.3f}) in [-1.2,-0.8] over one decade "
                   f"before wrap (t_wrap {rep.t_wrap:.0f}), {dt:.0f}s (<120s)")


# ----------------------------------------------------------------------
# 7. kernel-branch quadratic smallness
# ----------------------------------------------------------------------

def test_criterion_7_u0_quadratic_smallness(grid32a, bg, narrow_band):
    cfg = simulate.SimConfig(grid=grid32a, state=bg, t_end=3.0, cfl=0.2,
                             cadence=0.5, amplitude=1e-2, seed=11,
                             **narrow_band)
    rep = simulate.u0_smallness_probe(cfg)
    ok = 1.5 <= rep["ratio_min"] and rep["ratio_max"] <= 2.5
    _report(7, ok, f"u0 ratio under amplitude halving in "
                   f"[{rep['ratio_min']:.3f}, {rep['ratio_max']:.3f}] "
                   f"(target [1.5, 2.5] across the run)")


# ----------------------------------------------------------------------
# 8. Galilean covariance and Chaplygin invariance
# ----------------------------------------------------------------------

def test_criterion_8_galilean_and_chaplygin(grid32a, bg, narrow_band):
    g = grid32a
    w = np.array([g.dx, 0.0, 0.0])  # one grid cell per unit time
    ic = model.admissible_perturbation(7, 1e-2, bg, g, **narrow_band)
    t_end = 2.0
    cfgA = simulate.SimConfig(grid=g, state=bg.with_v0(bg.v0 + w),
                              t_end=t_end, cadence=t_end, amplitude=0.0)
    cfgB = simulate.SimConfig(grid=g, state=bg, t_end=t_end, cadence=t_end,
                              amplitude=0.0)
    dt = min(cfgA.cfl * g.dx / cfgA.max_speed(),
             cfgB.cfl * g.dx / cfgB.max_speed())
    cfgA.dt = cfgB.dt = dt * 0.45
    resA = simulate.simulate(cfgA, initial=ic.copy())
    resB = simulate.simulate(cfgB, initial=ic.copy())
    shifted = model.galilean_shift(resA.final, w, t_end)
    rel = (np.linalg.norm(shifted.data - resB.final.data)
           / np.linalg.norm(resB.final.data))

    st = ConstantState(tau0=1.0)
    icc = model.admissible_perturbation(3, 1e-2, st, g, kind="chaplygin")
    cfgc = simulate.SimConfig(grid=g, state=st, t_end=1.0, cfl=0.2,
                              cadence=1.0)
    resc = simulate.simulate(cfgc, initial=icc)
    bd = np.max(np.abs(resc.final.data[4:]))
    ok = rel <= 1e-6 and bd <= 1e-12
    _report(8, ok, f"galilean covariance rel err {rel:.2e} (<=1e-6); "
                   f"chaplygin b,d channels {bd:.2e} (<=1e-12)")


# ----------------------------------------------------------------------
# 9. energy law
# ----------------------------------------------------------------------

def test_criterion_9_energy_law(grid32a, bg, narrow_band):
    def cmax(a, cfl):
        cfg = simulate.SimConfig(grid=grid32a, state=bg, t_end=3.0, cfl=cfl,
                                 cadence=0.25, amplitude=a, seed=77,
                                 **narrow_band)
        res = simulate.simulate(cfg)
        return D.energy_growth_check(res.series)["C_max"]

    c_base = cmax(0.02, 0.1)
    c_half = cmax(0.02, 0.05)
    c_amp = cmax(0.08, 0.1)
    finite = np.isfinite(c_base) and c_base > 0
    dt_stable = abs(c_half / c_base - 1.0) <= 0.3
    amp_stable = abs(c_amp / c_base - 1.0) <= 0.5
    ok = finite and dt_stable and amp_stable
    _report(9, ok, f"energy-law constant C = {c_base:.2e} finite; dt-halving "
                   f"ratio {c_half / c_base:.3f} (within +-30%); x4-amplitude "
                   f"ratio {c_amp / c_base:.3f} (within +-50%)")


# ----------------------------------------------------------------------
# 10. scheme convergence
# ----------------------------------------------------------------------

def test_criterion_10_rk4_self_convergence(rk4_finals):
    finals = rk4_finals
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    order = float(np.log2(e1 / e2))
    ok = 3.7 <= order <= 4.3
    _report(10, ok, f"RK4 self-convergence order {order:.3f} "
                    f"(target 4.0 +- 0.3)")
