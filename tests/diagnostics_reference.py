"""The sample diagnostics' sups and norms as they were formed with
scratch buffers: |f| and f * f formed in full before each reduction.

The reference for ``test_exact_reductions.py``, kept as it was.
"""
import numpy as np

from abiwave import system


def constraint_residual(field, state, derivative=None, full=None,
                        scratch=None):
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


def manifold_residual(field_abs, scratch=None):
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


def _sup(f, tmp=None):
    return float(np.max(np.abs(f, out=tmp)))


def besov_norms(grid, data, fh=None, ws=None):
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
