"""End-to-end tandem link: propagation, modulator cascade and sideband powers.

The received sideband power in each photon counter reduces to the closed
fringe law

    P(upper/lower) = (1/2) * [1 + V * cos(phi_b - phi_a + link_phase +/- Theta)]

where the upper counter carries +Theta.  V and Theta derive from the two
complex interference coefficients: the sidebands Alice generated (passed
through Bob's carrier) and the sidebands Bob generated (fed by Alice's
carrier).  Both the closed form and the direct cascade evaluation are
implemented; they agree to machine precision and are cross-checked in the
test suite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    DegenerateConfigurationError,
    InvalidParameterError,
    PhaseUndefinedError,
)
from .modulator import (
    ModulatorSpec,
    ThreeBandField,
    band_amplitudes,
    carrier_amplitude,
    sideband_factor,
)


def wrap_to_pi(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


@dataclass(frozen=True)
class LinkSpec:
    """Dispersion-compensated fiber span.

    Only the accumulated RF-scale phase ``link_phase`` (= Omega * beta1 * L)
    and a flat power transmittance enter the band amplitudes;
    ``rf_frequency`` (rad/s) is kept for spectrum labeling.
    """

    rf_frequency: float
    link_phase: float = 0.0
    loss: float = 1.0

    def __post_init__(self):
        if not (self.rf_frequency > 0 and math.isfinite(self.rf_frequency)):
            raise InvalidParameterError("rf_frequency must be positive and finite")
        if not (0.0 < self.loss <= 1.0):
            raise InvalidParameterError(f"loss must be in (0, 1], got {self.loss}")
        if not math.isfinite(self.link_phase):
            raise InvalidParameterError("link_phase must be finite")


def propagate(field: ThreeBandField, link: LinkSpec) -> ThreeBandField:
    """Apply the span: common delay phase on the sidebands plus flat loss.

    The carrier's common propagation phase is dropped; relative to it the
    upper band accumulates exp(-j*link_phase) and the lower band the
    conjugate factor.
    """
    amp = math.sqrt(link.loss)
    rot = cmath.exp(-1j * link.link_phase)
    return ThreeBandField(
        carrier=amp * field.carrier,
        lower=amp * field.lower * rot.conjugate(),
        upper=amp * field.upper * rot,
    )


def cascade(alice_prop: ThreeBandField, bob: ThreeBandField) -> ThreeBandField:
    """Combine the propagated field with Bob's modulator to first order.

    Second-order products of sidebands are dropped, consistent with the
    small-signal band amplitudes feeding this function.
    """
    return ThreeBandField(
        carrier=alice_prop.carrier * bob.carrier,
        lower=bob.carrier * alice_prop.lower + alice_prop.carrier * bob.lower,
        upper=bob.carrier * alice_prop.upper + alice_prop.carrier * bob.upper,
    )


def _arms(mod: ModulatorSpec) -> tuple[float, float, float, float, complex]:
    """The (eps1, eps2, m1, m2, e^{j psi}) a modulator's interference terms depend on."""
    return mod.eps1, mod.eps2, mod.m1, mod.m2, cmath.exp(1j * mod.psi)


def _coefficients(alice: tuple, bob: tuple) -> tuple[complex, complex, bool, bool]:
    """Interference coefficients and zero flags of two (eps1, eps2, m1, m2, e^{j psi}) sides.

    Arrays of bias phasors give arrays.  A coefficient is treated as an
    analytic zero when it is below 1e-12 of its a-priori scale
    |carrier| * |sideband| <= (eps1 + eps2) * (eps1 m1 + eps2 m2) / 2: biases
    like pi/2 land within one ulp of the exact null, where the value carries
    no phase information.
    """
    a_eps1, a_eps2, a_m1, a_m2, a_u = alice
    b_eps1, b_eps2, b_m1, b_m2, b_u = bob
    a = carrier_amplitude(b_eps1, b_eps2, b_u) * sideband_factor(
        a_eps1, a_eps2, a_m1, a_m2, a_u
    )
    b = carrier_amplitude(a_eps1, a_eps2, a_u) * sideband_factor(
        b_eps1, b_eps2, b_m1, b_m2, b_u
    )
    scale_a = (b_eps1 + b_eps2) * 0.5 * (a_eps1 * a_m1 + a_eps2 * a_m2)
    scale_b = (a_eps1 + a_eps2) * 0.5 * (b_eps1 * b_m1 + b_eps2 * b_m2)
    return a, b, abs(a) <= 1e-12 * scale_a, abs(b) <= 1e-12 * scale_b


def interference_coeffs(
    alice: ModulatorSpec, bob: ModulatorSpec
) -> tuple[complex, complex]:
    """Complex weights of the two interfering sideband contributions.

    Returns ``(alice_coeff, bob_coeff)``: Alice's sideband factor times
    Bob's carrier, and Bob's sideband factor times Alice's carrier.  The
    common j/2 of the sideband factor is kept in both, so it cancels in
    visibility and phase offset.
    """
    a, b, _, _ = _coefficients(_arms(alice), _arms(bob))
    return a, b


def visibility(alice_coeff: complex, bob_coeff: complex) -> float:
    """Fringe contrast 2|a||b| / (|a|^2 + |b|^2), clipped to [0, 1]."""
    a = abs(alice_coeff)
    b = abs(bob_coeff)
    denom = a * a + b * b
    if denom == 0.0:
        raise DegenerateConfigurationError(
            "no sideband light: both interference coefficients are zero"
        )
    return min(1.0, 2.0 * a * b / denom)


def phase_offset(alice_coeff: complex, bob_coeff: complex) -> float:
    """Intrinsic fringe phase arg(bob_coeff) - arg(alice_coeff) in (-pi, pi]."""
    if abs(alice_coeff) == 0.0 or abs(bob_coeff) == 0.0:
        raise PhaseUndefinedError(
            "phase offset undefined: an interference coefficient is zero"
        )
    return wrap_to_pi(cmath.phase(bob_coeff) - cmath.phase(alice_coeff))


def _fringe(
    alice: ModulatorSpec, bob: ModulatorSpec
) -> tuple[complex, complex, float, float | None]:
    """Coefficients, visibility and phase offset of a pairing.

    The one place that applies the zero rule to a pairing: both
    coefficients zero raises :class:`DegenerateConfigurationError`;
    exactly one zero gives visibility 0 and no phase offset.
    """
    a, b, a_zero, b_zero = _coefficients(_arms(alice), _arms(bob))
    if a_zero and b_zero:
        raise DegenerateConfigurationError(
            "no sideband light: both interference coefficients are zero"
        )
    if a_zero or b_zero:
        return a, b, 0.0, None
    return a, b, visibility(a, b), phase_offset(a, b)


def _fringe_powers(vis: float, offset: float, x: float) -> tuple[float, float]:
    """The fringe law (upper, lower) = 1/2 [1 + V cos(x +/- offset)].

    ``x`` is the drive-phase difference plus the span phase,
    phi_b - phi_a + link_phase.
    """
    return 0.5 * (1.0 + vis * math.cos(x + offset)), 0.5 * (1.0 + vis * math.cos(x - offset))


def sideband_powers(
    alice: ModulatorSpec, bob: ModulatorSpec, link: LinkSpec
) -> tuple[float, float]:
    """Normalized received powers (upper, lower) from the closed fringe law.

    Normalization puts the fringe maximum at 1 for unit visibility; link
    loss cancels.  With exactly one vanishing coefficient the fringe term
    is zero and both powers are 1/2.
    """
    _, _, vis, offset = _fringe(alice, bob)
    if offset is None:
        return 0.5, 0.5
    return _fringe_powers(vis, offset, bob.phi - alice.phi + link.link_phase)


def sideband_powers_direct(
    alice: ModulatorSpec, bob: ModulatorSpec, link: LinkSpec
) -> tuple[float, float]:
    """Same powers evaluated from the explicit band cascade.

    Reference path for the closed form: |cascaded band|^2 divided by
    2 * (|alice_coeff|^2 + |bob_coeff|^2) * loss.
    """
    a, b = interference_coeffs(alice, bob)
    norm = 2.0 * (abs(a) ** 2 + abs(b) ** 2) * link.loss
    if norm == 0.0:
        raise DegenerateConfigurationError(
            "no sideband light: both interference coefficients are zero"
        )
    out = cascade(propagate(band_amplitudes(alice), link), band_amplitudes(bob))
    return abs(out.upper) ** 2 / norm, abs(out.lower) ** 2 / norm
