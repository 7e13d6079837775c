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
from .modulator import _COUPLING, ModulatorSpec, _require_real, carrier_amplitude, sideband_factor

# The two key-distribution protocols the fringe law can carry.
B92 = "B92"
BB84 = "BB84"


@dataclass(frozen=True)
class LinkSpec:
    """Dispersion-compensated fiber span.

    Only the accumulated RF-scale phase ``link_phase`` (= Omega * beta1 * L)
    and a flat power transmittance enter the band amplitudes.  Nothing in
    the package reads ``rf_frequency`` (rad/s); the ``spectrum`` command
    labels its bins from the config's ``[link] rf_ghz``.
    """

    rf_frequency: float
    link_phase: float = 0.0
    loss: float = 1.0

    def __post_init__(self):
        for name in ("rf_frequency", "link_phase", "loss"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))
        if not (self.rf_frequency > 0 and math.isfinite(self.rf_frequency)):
            raise InvalidParameterError("rf_frequency must be positive and finite")
        if not (0.0 < self.loss <= 1.0):
            raise InvalidParameterError(f"loss must be in (0, 1], got {self.loss}")
        if not math.isfinite(self.link_phase):
            raise InvalidParameterError("link_phase must be finite")


def _no_sideband_light() -> DegenerateConfigurationError:
    """The error of a pairing whose two interference coefficients are both zero."""
    return DegenerateConfigurationError(
        "no sideband light: both interference coefficients are zero"
    )


def _coefficients(alice: tuple, bob: tuple) -> tuple[complex, complex, bool, bool]:
    """Interference coefficients and zero flags of two (kind, m, e^{j psi}) sides.

    The closed form of every pairing: a kind picks the couplings and the
    arm-2 share of the drive index m from the coupling table.  Arrays of
    bias phasors give arrays.  A coefficient is treated as an analytic zero
    when it is below 1e-12 of its a-priori scale |carrier| * |sideband| <=
    (eps1 m1 + eps2 m2) / 2 (the couplings sum to 1): biases like pi/2 land
    within one ulp of the exact null, where the value carries no phase
    information.
    """
    a_kind, a_m, a_u = alice
    b_kind, b_m, b_u = bob
    a_eps1, a_eps2, a_share = _COUPLING[a_kind]
    b_eps1, b_eps2, b_share = _COUPLING[b_kind]
    a_m2, b_m2 = a_share * a_m, b_share * b_m
    a = carrier_amplitude(b_eps1, b_eps2, b_u) * sideband_factor(a_eps1, a_eps2, a_m, a_m2, a_u)
    b = carrier_amplitude(a_eps1, a_eps2, a_u) * sideband_factor(b_eps1, b_eps2, b_m, b_m2, b_u)
    scale_a = 0.5 * (a_eps1 * a_m + a_eps2 * a_m2)
    scale_b = 0.5 * (b_eps1 * b_m + b_eps2 * b_m2)
    return a, b, abs(a) <= 1e-12 * scale_a, abs(b) <= 1e-12 * scale_b


def interference_coeffs(
    alice: ModulatorSpec, bob: ModulatorSpec
) -> tuple[complex, complex]:
    """Complex weights of the two interfering sideband contributions.

    Returns ``(alice_coeff, bob_coeff)``: Alice's sideband factor times
    Bob's carrier, and Bob's sideband factor times Alice's carrier, at the
    couplings of each kind's row of the coupling table.  The common j/2 of
    the sideband factor is kept in both, so it cancels in visibility and
    phase offset.
    """
    a, b, _, _ = _coefficients(
        (alice.kind, alice.m, cmath.exp(1j * alice.psi)),
        (bob.kind, bob.m, cmath.exp(1j * bob.psi)),
    )
    return a, b


def visibility(alice_coeff: complex, bob_coeff: complex) -> float:
    """Fringe contrast 2|a||b| / (|a|^2 + |b|^2), in [0, 1].

    Evaluated as 2r / (1 + r^2) with r the smaller magnitude over the
    larger, which no scale of the coefficients can overflow.  It never
    rounds above 1.  For r = 1 - k 2^-53 with k < 2^26, r^2 rounds to
    exactly 1 - 2k 2^-53, so the denominator is exactly 2r.  From k = 2^28
    on (and below r = 0.5 it is under 0.8) the exact quotient sits 4 ulps
    under 1, past its 1.5-ulp rounding, and a scan of every k in between
    found none above 1.
    """
    a = abs(alice_coeff)
    b = abs(bob_coeff)
    low, high = (a, b) if a <= b else (b, a)
    if high == 0.0:
        raise _no_sideband_light()
    r = low / high
    return 2.0 * r / (1.0 + r * r)


def phase_offset(alice_coeff: complex, bob_coeff: complex) -> float:
    """Intrinsic fringe phase arg(bob_coeff) - arg(alice_coeff) in (-pi, pi]."""
    if abs(alice_coeff) == 0.0 or abs(bob_coeff) == 0.0:
        raise PhaseUndefinedError(
            "phase offset undefined: an interference coefficient is zero"
        )
    wrapped = math.remainder(cmath.phase(bob_coeff) - cmath.phase(alice_coeff), math.tau)
    return wrapped + math.tau if wrapped <= -math.pi else wrapped


def _fringe(
    alice: ModulatorSpec, bob: ModulatorSpec
) -> tuple[complex, complex, float, float | None]:
    """Coefficients, visibility and phase offset of a pairing.

    The one place that applies the zero rule to a pairing: both
    coefficients zero raises :class:`DegenerateConfigurationError`;
    exactly one zero gives visibility 0 and no phase offset.
    """
    a, b, a_zero, b_zero = _coefficients(
        (alice.kind, alice.m, cmath.exp(1j * alice.psi)),
        (bob.kind, bob.m, cmath.exp(1j * bob.psi)),
    )
    if a_zero and b_zero:
        raise _no_sideband_light()
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
    2 * (|alice_coeff|^2 + |bob_coeff|^2) * loss.  The coefficient
    magnitudes come from the same bands, |alice_coeff| = |Bob's carrier| *
    |Alice's upper band| and the reverse for Bob, and both are taken
    relative to their hypot so that no drive index overflows the squares.
    """
    return _direct_powers(alice, bob, bob.phi, link)


def _direct_powers(
    alice: ModulatorSpec, bob: ModulatorSpec, bob_phi: float, link: LinkSpec
) -> tuple[float, float]:
    """:func:`sideband_powers_direct` with Bob driven at the RF phase ``bob_phi``.

    Each modulator gives a carrier and the sidebands s*e^{+/-j phi}; the
    span scales Alice's bands by sqrt(loss) and turns her upper (lower)
    sideband by e^{-j link_phase} (its conjugate); Bob multiplies, and the
    second-order products of sidebands are dropped.
    """
    a_u = cmath.exp(1j * alice.psi)
    b_u = cmath.exp(1j * bob.psi)
    a_eps1, a_eps2, a_share = _COUPLING[alice.kind]
    b_eps1, b_eps2, b_share = _COUPLING[bob.kind]
    a_side = sideband_factor(a_eps1, a_eps2, alice.m, a_share * alice.m, a_u)
    b_side = sideband_factor(b_eps1, b_eps2, bob.m, b_share * bob.m, b_u)
    a_carrier = carrier_amplitude(a_eps1, a_eps2, a_u)
    b_carrier = carrier_amplitude(b_eps1, b_eps2, b_u)
    a_upper = a_side * cmath.exp(1j * alice.phi)
    b_upper = b_side * cmath.exp(1j * bob_phi)
    scale = math.hypot(abs(b_carrier) * abs(a_upper), abs(a_carrier) * abs(b_upper))
    if scale == 0.0:
        raise _no_sideband_light()
    a_lower = a_side * cmath.exp(-1j * alice.phi)
    b_lower = b_side * cmath.exp(-1j * bob_phi)
    amp = math.sqrt(link.loss)
    rot = cmath.exp(-1j * link.link_phase)
    a_carrier = amp * a_carrier  # Alice's bands after the span
    a_upper = amp * a_upper * rot
    a_lower = amp * a_lower * rot.conjugate()
    upper = b_carrier * a_upper + a_carrier * b_upper
    lower = b_carrier * a_lower + a_carrier * b_lower
    norm = 2.0 * link.loss
    return (abs(upper) / scale) ** 2 / norm, (abs(lower) / scale) ** 2 / norm
