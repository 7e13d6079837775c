"""Exact harmonic expansion of the tandem link, without the small-signal cut.

The output field is periodic in the RF phase theta = W*t.  Each modulator
gives

    eps1 * exp(j*psi) * exp(j*m1*cos(theta + phi))
        + eps2 * exp(-j*psi) * exp(-j*m2*cos(theta + phi)),

the span delays Alice's field to theta - link_phase and scales it by
sqrt(loss), and Bob multiplies.  Harmonic k of the output, the band at
w0 + k*W, is the k-th Fourier coefficient of that product.  The field is
periodic and analytic, so the trapezoidal rule on equispaced samples gives
every coefficient to machine precision, and one FFT yields them all
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 56(3), 2014; the Jacobi-Anger expansion
exp(j*m*cos x) = sum_k j^k J_k(m) exp(j*k*x) is the identity it sums).
The same sideband conventions as the first-order model apply, so the
k = +/-1 lines converge to the small-signal band amplitudes as the drive
index goes to zero.  There is no domain limit on the drive index; the
order is capped at ``MAX_ORDER`` only to bound the transform size and the
number of output rows.  This module is the yardstick the first-order
model is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, TruncationError
from .link import LinkSpec, interference_coeffs, sideband_powers
from .modulator import ModulatorSpec

# Highest truncation order: it bounds the transform size (at most 1024
# samples) and the number of output rows.
MAX_ORDER = 170

_TAIL_ENERGY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class HarmonicSpectrum:
    """Band amplitudes at w0 + k*W for k in [-order, order]."""

    order: int
    amps: np.ndarray

    def amp(self, k: int) -> complex:
        """Amplitude of harmonic k (0 outside the stored order)."""
        if abs(k) > self.order:
            return 0j
        return complex(self.amps[k + self.order])

    def power(self, k: int) -> float:
        return abs(self.amp(k)) ** 2

    def total_power(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


def default_order(*mods: ModulatorSpec) -> int:
    """Truncation order with comfortable headroom for the given drives."""
    m_max = max((max(m.m1, m.m2) for m in mods), default=0.0)
    order = math.ceil(3.0 * m_max) + 8
    if order > MAX_ORDER:
        raise InvalidParameterError(
            f"drive index {m_max} needs order {order}, above the supported maximum {MAX_ORDER}"
        )
    return order


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


def _field(mod: ModulatorSpec, theta: np.ndarray) -> np.ndarray:
    """Two-arm output field of one modulator at the RF phases ``theta``."""
    drive = np.cos(theta + mod.phi)
    return mod.eps1 * np.exp(1j * (mod.psi + mod.m1 * drive)) + mod.eps2 * np.exp(
        -1j * (mod.psi + mod.m2 * drive)
    )


def _spectrum(samples_fn, order: int) -> HarmonicSpectrum:
    """Harmonics |k| <= order of the periodic field ``samples_fn(theta)``.

    The field is sampled on 2**ceil(log2(4*order + 2)) equispaced phases;
    the power in every transform bin outside |k| <= order must stay below
    1e-12 of the total, or the order is too low for the drive.
    """
    n = 1 << (4 * order + 1).bit_length()
    coeffs = np.fft.fft(samples_fn(np.arange(n) * (2.0 * math.pi / n))) / n
    power = np.abs(coeffs) ** 2
    total = power.sum()
    tail = power[order + 1 : n - order].sum()
    if total > 0 and tail > _TAIL_ENERGY_RTOL * total:
        raise TruncationError(
            f"truncated tail holds {tail / total:.3e} of the power; raise the order"
        )
    return HarmonicSpectrum(order, np.concatenate((coeffs[n - order :], coeffs[: order + 1])))


def exact_modulator_spectrum(
    mod: ModulatorSpec, order: int | None = None
) -> HarmonicSpectrum:
    """Full harmonic spectrum of one modulator driven at index m1/m2."""
    if order is None:
        order = default_order(mod)
    _require_order(order, mod)
    return _spectrum(lambda theta: _field(mod, theta), order)


def exact_tandem_spectrum(
    alice: ModulatorSpec,
    bob: ModulatorSpec,
    link: LinkSpec,
    order: int | None = None,
) -> HarmonicSpectrum:
    """Exact output spectrum of the full Alice-link-Bob cascade."""
    if order is None:
        order = default_order(alice, bob)
    _require_order(order, alice, bob)
    amp = math.sqrt(link.loss)
    return _spectrum(
        lambda theta: amp * _field(alice, theta - link.link_phase) * _field(bob, theta),
        order,
    )


def exact_interference_coeffs(
    alice: ModulatorSpec, bob: ModulatorSpec
) -> tuple[complex, complex]:
    """First-harmonic interference weights of the exact model.

    Same structure as the first-order coefficients, with the truncated
    m/2 and unit carrier factors replaced by their full Bessel values
    J_1(m) and J_0(m): each modulator's harmonic 0, and its harmonic 1
    without the RF phase exp(j*phi).  As m -> 0 these converge to the
    first-order coefficients.
    """
    a, b = exact_modulator_spectrum(alice), exact_modulator_spectrum(bob)
    a_sideband = a.amp(1) * complex(np.exp(-1j * alice.phi))
    b_sideband = b.amp(1) * complex(np.exp(-1j * bob.phi))
    return b.amp(0) * a_sideband, a.amp(0) * b_sideband


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
