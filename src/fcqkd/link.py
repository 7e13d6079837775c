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
from .modulator import ModulatorSpec, _require_instances, _require_real, _side

# The two key-distribution protocols the fringe law can carry.
B92 = "B92"
BB84 = "BB84"

# A coefficient at or below this fraction of its a-priori scale is an analytic zero.
_ZERO_RTOL = 1e-12


@dataclass(frozen=True)
class LinkSpec:
    """Dispersion-compensated fiber span.

    Only the accumulated RF-scale phase ``link_phase`` (= Omega * beta1 * L)
    enters the normalized powers; the flat power transmittance ``loss``
    scales only ``exact_tandem_spectrum``'s amplitudes.  Nothing in the
    package reads ``rf_frequency`` (rad/s); the ``spectrum`` command labels
    its bins from the config's ``[link] rf_ghz``.
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


def _require_point(alice, bob, link) -> None:
    """The specs' ``_require_instances`` checks, passed at once by the exact classes."""
    if not (type(alice) is type(bob) is ModulatorSpec and type(link) is LinkSpec):
        _require_instances(ModulatorSpec, "alice and bob", alice, bob)
        _require_instances(LinkSpec, "link", link)


def _no_sideband_light() -> DegenerateConfigurationError:
    """The error of a pairing whose two interference coefficients are both zero."""
    return DegenerateConfigurationError(
        "no sideband light: both interference coefficients are zero"
    )


def _not_coefficients(alice_coeff, bob_coeff, what="complex numbers") -> InvalidParameterError:
    """The error of coefficients that are not complex numbers, or not ``what``."""
    return InvalidParameterError(
        f"interference coefficients must be {what}, got {alice_coeff!r}, {bob_coeff!r}"
    )


def _coefficients(alice: tuple, bob: tuple) -> tuple[complex, complex, bool, bool]:
    """Interference coefficients and zero flags of two (kind, m, e^{j psi}) sides.

    The closed form of every pairing, a = C_B S_A and b = C_A S_B from each
    side's (C, S, scale) (:func:`modulator._side`); arrays of bias phasors
    give arrays.  A coefficient below ``_ZERO_RTOL`` of its sideband's scale
    is an analytic zero: biases like pi/2 land within one ulp of the exact
    null, where the value carries no phase information.
    """
    (a_kind, a_m, a_u), (b_kind, b_m, b_u) = alice, bob
    c_a, s_a, scale_a = _side(a_kind, a_m, a_u)
    c_b, s_b, scale_b = _side(b_kind, b_m, b_u)
    a = c_b * s_a
    b = c_a * s_b
    return a, b, abs(a) <= _ZERO_RTOL * scale_a, abs(b) <= _ZERO_RTOL * scale_b


def interference_coeffs(
    alice: ModulatorSpec, bob: ModulatorSpec
) -> tuple[complex, complex]:
    """Complex weights of the two interfering sideband contributions.

    Returns ``(alice_coeff, bob_coeff)``: Alice's sideband factor times
    Bob's carrier, and Bob's sideband factor times Alice's carrier.  The
    common j/2 of the sideband factor is kept in both, so it cancels in
    visibility and phase offset.
    """
    _require_instances(ModulatorSpec, "alice and bob", alice, bob)
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
    try:
        a, b = abs(alice_coeff), abs(bob_coeff)
        low, high = (a, b) if a <= b else (b, a)
        finite = low <= high < math.inf  # a NaN fails the first test, an infinity the second
    except (TypeError, ValueError, OverflowError):
        raise _not_coefficients(alice_coeff, bob_coeff) from None
    if not finite:
        raise _not_coefficients(alice_coeff, bob_coeff, "finite")
    if high == 0.0:
        raise _no_sideband_light()
    return _contrast(low / high)


def _contrast(r: float) -> float:
    """Fringe contrast 2r / (1 + r^2) of the magnitude ratio r, smaller over larger."""
    return 2.0 * r / (1.0 + r * r)


def phase_offset(alice_coeff: complex, bob_coeff: complex) -> float:
    """Intrinsic fringe phase arg(bob_coeff) - arg(alice_coeff) in (-pi, pi]."""
    try:
        a, b = abs(alice_coeff), abs(bob_coeff)
        finite = a < math.inf and b < math.inf  # a NaN fails too
        offset = _offset(alice_coeff, bob_coeff)
    except (TypeError, ValueError, OverflowError):
        raise _not_coefficients(alice_coeff, bob_coeff) from None
    if not finite:
        raise _not_coefficients(alice_coeff, bob_coeff, "finite")
    if a == 0.0 or b == 0.0:
        raise PhaseUndefinedError(
            "phase offset undefined: an interference coefficient is zero"
        )
    return offset


def _offset(a: complex, b: complex) -> float:
    """arg(b) - arg(a), wrapped to (-pi, pi]."""
    wrapped = math.remainder(cmath.phase(b) - cmath.phase(a), math.tau)
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
    # alive coefficients of finite specs pass every check of visibility and phase_offset
    a_abs, b_abs = abs(a), abs(b)
    r = a_abs / b_abs if a_abs <= b_abs else b_abs / a_abs
    return a, b, _contrast(r), _offset(a, b)


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
    _require_point(alice, bob, link)
    return _closed_powers(alice, bob, link)


def _closed_powers(alice: ModulatorSpec, bob: ModulatorSpec, link: LinkSpec) -> tuple[float, float]:
    """:func:`sideband_powers` past its argument checks, for callers that loop over points."""
    _, _, vis, offset = _fringe(alice, bob)
    if offset is None:
        return 0.5, 0.5
    x = bob.phi - alice.phi + link.link_phase
    if not math.isfinite(x):
        raise InvalidParameterError(f"phi_b - phi_a + link_phase overflows: {x!r}")
    return _fringe_powers(vis, offset, x)


def sideband_powers_direct(
    alice: ModulatorSpec, bob: ModulatorSpec, link: LinkSpec
) -> tuple[float, float]:
    """Same powers evaluated from the explicit band cascade.

    Reference path for the closed form: |cascaded band|^2 divided by
    2 * (|alice_coeff|^2 + |bob_coeff|^2); span loss cancels.  The
    coefficient magnitudes come from the same bands, |alice_coeff| = |Bob's
    carrier| * |Alice's upper band| and the reverse for Bob, and both are
    taken relative to their hypot so that no drive index overflows the
    squares.
    """
    _require_point(alice, bob, link)
    return _direct_powers(alice, bob, bob.phi, link)


def _direct_powers(
    alice: ModulatorSpec, bob: ModulatorSpec, bob_phi: float, link: LinkSpec
) -> tuple[float, float]:
    """:func:`sideband_powers_direct` with Bob driven at the RF phase ``bob_phi``.

    Each modulator gives a carrier and the sidebands s*e^{+/-j phi}; the
    span turns Alice's upper (lower) sideband by e^{-j link_phase} (its
    conjugate); Bob multiplies, and the second-order products of sidebands
    are dropped.
    """
    a_carrier, a_side, _ = _side(alice.kind, alice.m, cmath.exp(1j * alice.psi))
    b_carrier, b_side, _ = _side(bob.kind, bob.m, cmath.exp(1j * bob.psi))
    # exp(-jx) is conj(exp(jx)) to the bit: cos is even and sin odd in libm
    a_turn, b_turn = cmath.exp(1j * alice.phi), cmath.exp(1j * bob_phi)
    a_upper = a_side * a_turn
    b_upper = b_side * b_turn
    scale = math.hypot(abs(b_carrier) * abs(a_upper), abs(a_carrier) * abs(b_upper))
    if scale == 0.0:
        raise _no_sideband_light()
    a_lower = a_side * a_turn.conjugate()
    b_lower = b_side * b_turn.conjugate()
    rot = cmath.exp(-1j * link.link_phase)
    upper = b_carrier * (a_upper * rot) + a_carrier * b_upper
    lower = b_carrier * (a_lower * rot.conjugate()) + a_carrier * b_lower
    return (abs(upper) / scale) ** 2 / 2.0, (abs(lower) / scale) ** 2 / 2.0
