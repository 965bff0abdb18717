import numpy as np
import pytest

from abiwave import model, simulate
from abiwave.grid import Grid
from abiwave.state import ConstantState, bi_lift_constant


def random_state(rng, tau_range=(0.2, 2.0), bd_max=2.0) -> ConstantState:
    b = rng.normal(size=3)
    d = rng.normal(size=3)
    b *= rng.uniform(0, bd_max) / max(np.linalg.norm(b), 1e-12)
    d *= rng.uniform(0, bd_max) / max(np.linalg.norm(d), 1e-12)
    return ConstantState(tau0=rng.uniform(*tau_range), b0=b, d0=d)


def random_xi(rng, scale=1.0):
    xi = rng.normal(size=3)
    while np.linalg.norm(xi) < 1e-3:
        xi = rng.normal(size=3)
    return xi * scale * rng.uniform(0.1, 10.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def grid16():
    return Grid(N=16, L=2 * np.pi * 4)


@pytest.fixture(scope="session")
def grid32():
    return Grid(N=32, L=2 * np.pi * 8)


@pytest.fixture(scope="session")
def manifold_bg():
    return bi_lift_constant(B0=(0.3, 0.0, 0.05), D0=(0.0, 0.2, 0.1))


@pytest.fixture(scope="session")
def rk4_finals(grid32, manifold_bg):
    """Final fields of one perturbed manifold run at dt = 0.5, 0.25, 0.125.

    The RK4 self-convergence trio, shared by the solver test and the
    acceptance criterion: seed 5, amplitude 1e-2, t_end = 2.
    """
    ic = model.admissible_perturbation(5, 1e-2, manifold_bg, grid32)
    finals = []
    for dt in (0.5, 0.25, 0.125):
        cfg = simulate.SimConfig(grid=grid32, state=manifold_bg, t_end=2.0,
                                 dt=dt, cadence=2.0)
        finals.append(simulate.simulate(cfg, initial=ic.copy()).final.data)
    return finals
