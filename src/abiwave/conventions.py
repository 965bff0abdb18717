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

and the profile (inverse) map is its conjugate.

``A0`` is the evolution table of :mod:`abiwave.system` contracted with
the background in its rest frame, ``A0(k)[row, c] = sum sign * U0_a *
k_j``: the differentiated factor gives ``-i k_j``, and the -i stays
outside.  The background's v0 enters the solver as the separate
transport term ``+i (k.v0) F[U](k)``.  The constraint symbol ``L0(k)``
is the constraint table contracted the same way, with the table's
signs (rows 0-1: ``-tau div b + b.grad tau`` and its d twin; rows 2-4:
``-tau curl v + b.grad d - d.grad b``).

Real fields are stored as half spectra, exactly as ``scipy.fft.rfftn``
computes them (:meth:`abiwave.grid.Grid.rfwd`, which calls SciPy's
compiled pocketfft module with ``rfftn``'s arguments, ``inorm`` 0
forward and 2 inverse, without importing ``scipy.fft``; the results are
bitwise those of ``scipy.fft``).  ``rfftn`` uses the
opposite exponent sign, so at lattice index q it computes F[f](-q): the
stored half spectrum is the transform above on the modes kz <= 0, and
``Grid.kvec`` gives the mode at index q its wavevector -q.  Because
``A0(-k) = -A0(k)``, the branch projectors obey ``P+(-k) = P-(k)``: the
+ branch part of a real field is not a real field, and a norm of it
over the full lattice pairs the half-spectrum values of ``P+ U`` and
``P- U`` (the pair rule).
"""
