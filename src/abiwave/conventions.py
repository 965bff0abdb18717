"""Sign and transform conventions, fixed once for the whole package.

Spectral analysis transform (applied by :mod:`abiwave.grid`)::

    F[f](k) = sum_x f(x) exp(+i k.x)

so that differentiation acts as ``F[d_j f] = -i k_j F[f]``.  With this
choice the linearized evolution of the ten-component system reads, mode
by mode,

    d/dt F[U](k) = -i A0(k) F[U](k)  (+ nonlinear terms),

where ``A0(k)`` is the real symmetric matrix assembled in
:func:`abiwave.spectral.assemble_A0`.  Its spectrum is ``{0, +|k|0,
-|k|0}`` and a mode lying in the ``+`` branch therefore advances in time
with the phase ``exp(-i t |k|0)``.  The forward propagator is

    exp(-i t A0(k)) = P0 + exp(-i t |k|0) P+ + exp(+i t |k|0) P-,

and the profile (inverse) map is its conjugate.  ``PROPAGATOR_SIGN``
below is the sign of the exponent multiplying ``+|k|0`` on the ``+``
branch under forward propagation.

Real fields are stored as half spectra, the modes with kz >= 0
(:meth:`abiwave.grid.Grid.rfwd`).  ``scipy.fft.rfftn`` uses the opposite
exponent sign, so ``rfwd`` is its complex conjugate and the transform
above is unchanged.  Because ``A0(-k) = -A0(k)``, the branch projectors
obey ``P+(-k) = P-(k)``: the + branch part of a real field is not a real
field, and a norm of it over the full lattice pairs the half-spectrum
values of ``P+ U`` and ``P- U`` (the pair rule).
"""

# Forward propagation multiplies the + branch by exp(PROPAGATOR_SIGN * 1j * t * |k|0).
PROPAGATOR_SIGN = -1.0

# Differentiation multiplier: F[d_j f] = DERIV_SIGN * 1j * k_j * F[f].
DERIV_SIGN = -1.0
