"""Exact harmonic expansion of the tandem link, without the small-signal cut.

Each modulator arm is a pure phase modulator, so its output expands exactly
over harmonics of the drive:

    exp(j*m*cos(W*t + phi)) = sum_k  j^k * J_k(m) * exp(j*k*(W*t + phi))

Summing the two arms gives the full single-modulator spectrum; the tandem
output is the convolution of Alice's propagated spectrum with Bob's.  The
same sideband conventions as the first-order model apply (harmonic k > 0
is the band at w0 + k*W and acquires exp(-j*k*link_phase) over the span),
so the k = +/-1 lines converge to the small-signal band amplitudes as the
drive index goes to zero.  This module is the brute-force yardstick the
first-order model is validated against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InvalidParameterError, TruncationError
from .link import LinkSpec, interference_coeffs, sideband_powers
from .modulator import ModulatorSpec, carrier_amplitude, sideband_factor

# The power series below is well conditioned on this domain, which is all
# the low-modulation artifact ever needs.
BESSEL_MAX_ARG = 1.5

# Highest truncation order: bessel_j's leading term needs
# math.factorial(order) as a float, which overflows beyond 170!.  The cap
# also bounds the O(order^2) tandem convolution.
MAX_ORDER = 170

_SERIES_RTOL = 1e-16
_TAIL_ENERGY_RTOL = 1e-12


def bessel_j(order: int, x: float) -> float:
    """Bessel function of the first kind by its ascending power series.

    Restricted to |x| <= 1.5 so a handful of terms reaches full precision.
    Negative orders and arguments use the parity relations
    J_{-k}(x) = (-1)^k J_k(x) and J_k(-x) = (-1)^k J_k(x).
    """
    if not math.isfinite(x):
        raise InvalidParameterError(f"argument must be finite, got {x!r}")
    if abs(x) > BESSEL_MAX_ARG:
        raise InvalidParameterError(
            f"|x| = {abs(x)} outside the supported domain [0, {BESSEL_MAX_ARG}]"
        )
    order = int(order)
    sign = 1.0
    if order < 0:
        order = -order
        if order % 2:
            sign = -sign
    if x < 0:
        x = -x
        if order % 2:
            sign = -sign
    if x == 0.0:
        return 1.0 if order == 0 else 0.0

    half = 0.5 * x
    term = half**order / math.factorial(order)
    total = term
    t = 0
    while term != 0.0:
        t += 1
        term *= -(half * half) / (t * (t + order))
        total += term
        if abs(term) <= _SERIES_RTOL * abs(total):
            break
        if t > 60:  # unreachable on the clamped domain; guards the loop
            raise TruncationError("Bessel series failed to converge")
    return sign * total


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Band amplitudes at w0 + k*W for k in [-order, order]."""

    order: int
    amps: tuple[complex, ...]

    def __post_init__(self):
        if len(self.amps) != 2 * self.order + 1:
            raise InvalidParameterError("amps length must be 2*order + 1")

    def amp(self, k: int) -> complex:
        """Amplitude of harmonic k (0 outside the stored order)."""
        if abs(k) > self.order:
            return 0j
        return self.amps[k + self.order]

    def power(self, k: int) -> float:
        return abs(self.amp(k)) ** 2

    def total_power(self) -> float:
        return sum(abs(a) ** 2 for a in self.amps)


def default_order(*mods: ModulatorSpec) -> int:
    """Truncation order with comfortable headroom for the given drives."""
    m_max = max((max(m.m1, m.m2) for m in mods), default=0.0)
    return math.ceil(3.0 * m_max) + 8


def _require_order(order: int, *mods: ModulatorSpec) -> None:
    if order > MAX_ORDER:
        raise InvalidParameterError(
            f"order {order} above the supported maximum {MAX_ORDER}"
        )
    m_max = max((max(m.m1, m.m2) for m in mods), default=0.0)
    if order < 3.0 * m_max + 5.0:
        raise TruncationError(
            f"order {order} too low for modulation depth {m_max} "
            f"(need at least {3.0 * m_max + 5.0:.1f})"
        )


_J_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def _j_power(k: int) -> complex:
    return _J_POWERS[k % 4]


def exact_modulator_spectrum(
    mod: ModulatorSpec, order: int | None = None
) -> HarmonicSpectrum:
    """Full harmonic spectrum of one modulator driven at index m1/m2."""
    if order is None:
        order = default_order(mod)
    _require_order(order, mod)
    e_psi = cmath.exp(1j * mod.psi)
    amps = []
    for k in range(-order, order + 1):
        arm1 = mod.eps1 * bessel_j(k, mod.m1) * e_psi
        arm2 = mod.eps2 * bessel_j(k, -mod.m2) * e_psi.conjugate()
        amps.append(_j_power(k) * cmath.exp(1j * k * mod.phi) * (arm1 + arm2))
    return HarmonicSpectrum(order=order, amps=tuple(amps))


def propagate_spectrum(spectrum: HarmonicSpectrum, link: LinkSpec) -> HarmonicSpectrum:
    """Apply span loss and the per-harmonic delay phase exp(-j*k*link_phase)."""
    amp = math.sqrt(link.loss)
    amps = tuple(
        amp * a * cmath.exp(-1j * k * link.link_phase)
        for k, a in zip(range(-spectrum.order, spectrum.order + 1), spectrum.amps)
    )
    return HarmonicSpectrum(order=spectrum.order, amps=amps)


def exact_tandem_spectrum(
    alice: ModulatorSpec,
    bob: ModulatorSpec,
    link: LinkSpec,
    order: int | None = None,
) -> HarmonicSpectrum:
    """Exact output spectrum of the full Alice-link-Bob cascade.

    Both single-modulator spectra are computed at the requested order, the
    product field is their convolution at order 2N, and the result is
    truncated back to N after checking that the discarded tail holds less
    than 1e-12 of the total power.
    """
    if order is None:
        order = default_order(alice, bob)
    _require_order(order, alice, bob)
    a = propagate_spectrum(exact_modulator_spectrum(alice, order), link)
    b = exact_modulator_spectrum(bob, order)

    full = [0j] * (4 * order + 1)
    for ka in range(-order, order + 1):
        amp_a = a.amp(ka)
        if amp_a == 0:
            continue
        for kb in range(-order, order + 1):
            full[ka + kb + 2 * order] += amp_a * b.amp(kb)

    total = sum(abs(c) ** 2 for c in full)
    tail = sum(
        abs(full[k + 2 * order]) ** 2
        for k in range(-2 * order, 2 * order + 1)
        if abs(k) > order
    )
    if total > 0 and tail > _TAIL_ENERGY_RTOL * total:
        raise TruncationError(
            f"truncated tail holds {tail / total:.3e} of the power; raise the order"
        )
    amps = tuple(full[k + 2 * order] for k in range(-order, order + 1))
    return HarmonicSpectrum(order=order, amps=amps)


def _bessel_carrier(mod: ModulatorSpec) -> complex:
    return carrier_amplitude(
        mod.eps1 * bessel_j(0, mod.m1), mod.eps2 * bessel_j(0, mod.m2), mod.psi
    )


def _bessel_sideband(mod: ModulatorSpec) -> complex:
    # The first-order factor carries m/2, the truncation of J_1(m).
    return sideband_factor(
        mod.eps1, mod.eps2, 2.0 * bessel_j(1, mod.m1), 2.0 * bessel_j(1, mod.m2), mod.psi
    )


def exact_interference_coeffs(
    alice: ModulatorSpec, bob: ModulatorSpec
) -> tuple[complex, complex]:
    """First-harmonic interference weights of the exact model.

    Same structure as the first-order coefficients, with the truncated
    m/2 and unit carrier factors replaced by their full Bessel values
    J_1(m) and J_0(m).  As m -> 0 these converge to the first-order
    coefficients.
    """
    return (
        _bessel_carrier(bob) * _bessel_sideband(alice),
        _bessel_carrier(alice) * _bessel_sideband(bob),
    )


def small_signal_error(
    alice: ModulatorSpec,
    bob: ModulatorSpec,
    link: LinkSpec,
    order: int | None = None,
) -> tuple[float, float]:
    """(upper, lower) deviation of the first-order powers from the exact ones.

    Each model is normalized the same way, by twice its own summed squared
    first-harmonic interference weights (times span loss on the exact
    path), so the comparison captures the fringe-shape error left by
    dropping the higher harmonics rather than a common scale factor.
    Relative error is reported where the exact power exceeds 1e-9; below
    that the absolute difference is returned instead.
    """
    c_a, c_b = interference_coeffs(alice, bob)
    if abs(c_a) ** 2 + abs(c_b) ** 2 == 0.0:
        raise InvalidParameterError("degenerate pairing: no first-order sidebands")
    e_a, e_b = exact_interference_coeffs(alice, bob)
    exact_norm = 2.0 * (abs(e_a) ** 2 + abs(e_b) ** 2) * link.loss
    exact = exact_tandem_spectrum(alice, bob, link, order)
    p_exact = (exact.power(1) / exact_norm, exact.power(-1) / exact_norm)
    p_small = sideband_powers(alice, bob, link)
    errors = []
    for pe, ps in zip(p_exact, p_small):
        if pe > 1e-9:
            errors.append(abs(pe - ps) / pe)
        else:
            errors.append(abs(pe - ps))
    return errors[0], errors[1]
