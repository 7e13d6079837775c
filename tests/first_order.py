"""The first-order tandem model, written out once for the tests' oracles.

A modulator of coupling (eps1, eps2) and arm-2 drive share has, at bias
u = e^{j psi}, the carrier C = eps1 u + eps2 conj(u) and the sideband
factor S = (j/2)(eps1 m u - eps2 m2 conj(u)), m2 = share * m; its sidebands
carry e^{-/+j phi} on top.  The class rule is the protocols' offset test.
Nothing here calls the package, so a fault in it cannot pass an oracle
built on its own code.
"""

import cmath
import math

import numpy as np

from fcqkd import ModulatorKind

# (eps1, eps2, arm 2's share of the drive index) per kind, from the device model
COUPLINGS = {
    ModulatorKind.PM: (1.0, 0.0, 0.0),
    ModulatorKind.AM: (0.5, 0.5, 1.0),
    ModulatorKind.UM: (0.5, 0.5, 0.0),
}


def bands(mod, jv=None):
    """(carrier, lower, upper) of one modulator, in the package's operand order.

    With ``jv`` (scipy.special.jv), the exact weights: J_0 in place of 1 and
    J_1(m) in place of m/2.
    """
    eps1, eps2, share = COUPLINGS[mod.kind]
    m, m2 = mod.m, share * mod.m
    u = cmath.exp(1j * mod.psi)
    if jv is None:
        carrier = eps1 * u + eps2 * u.conjugate()
        side = 0.5j * (eps1 * m * u - eps2 * m2 * u.conjugate())
    else:
        carrier = eps1 * jv(0, m) * u + eps2 * jv(0, m2) * u.conjugate()
        side = 1j * (eps1 * jv(1, m) * u - eps2 * jv(1, m2) * u.conjugate())
    return carrier, side * cmath.exp(-1j * mod.phi), side * cmath.exp(1j * mod.phi)


def in_class(coeffs, shift: float, tol: float):
    """Elementwise: both coefficients alive and arg b - arg a within ``tol`` of ``shift`` mod pi.

    ``coeffs`` is (a, b, a_zero, b_zero).  z = b conj(a) e^{-j shift} has
    argument arg b - arg a - shift, which is within tol of a multiple of pi
    exactly when |Im z| <= tan(tol) |Re z|.
    """
    a, b, a_zero, b_zero = coeffs
    z = b * a.conjugate() * cmath.exp(-1j * shift)
    return np.logical_not(a_zero | b_zero) & (abs(z.imag) <= math.tan(tol) * abs(z.real))
