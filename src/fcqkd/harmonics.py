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

Fields are sampled as rows on one phase grid per transform size, and one
FFT call transforms every row at once: a small-signal error point stacks
Alice's field, Bob's field and the tandem product, and reads the exact
interference weights (J_0 and J_1 of each modulator) and the tandem's
first harmonics from that one transform.  The truncation rule applies to
each row: the power outside |k| <= order must stay below 1e-12 of the
row's total.

The same sideband conventions as the first-order model apply, so the
k = +/-1 lines converge to the small-signal band amplitudes as the drive
index goes to zero.  There is no domain limit on the drive index; the
order is capped at ``MAX_ORDER`` only to bound the transform size and the
number of output rows.  This module is the yardstick the first-order
model is validated against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, InvalidParameterError, TruncationError
from .link import LinkSpec, sideband_powers
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


def _checked_order(order: int | None, alice: ModulatorSpec, bob: ModulatorSpec) -> int:
    """``order``, or by default one with comfortable headroom, checked against the drives."""
    m_max = max(alice.m1, alice.m2, bob.m1, bob.m2)
    if order is None:
        order = math.ceil(3.0 * m_max) + 8
        if order > MAX_ORDER:
            raise InvalidParameterError(
                f"drive index {m_max} needs order {order}, above the supported maximum {MAX_ORDER}"
            )
    elif order > MAX_ORDER:
        raise InvalidParameterError(
            f"order {order} above the supported maximum {MAX_ORDER}"
        )
    if order < 3.0 * m_max + 5.0:
        raise TruncationError(
            f"order {order} too low for modulation depth {m_max} "
            f"(need at least {3.0 * m_max + 5.0:.1f})"
        )
    return order


def _field(
    mod: ModulatorSpec, theta: np.ndarray, delay: float = 0.0, scale: float = 1.0
) -> np.ndarray:
    """Two-arm output field of one modulator at the RF phases ``theta``.

    ``delay`` retards the drive phase and ``scale`` multiplies the field;
    both, with the bias phasor, fold into scalar coefficients first.
    """
    u = scale * cmath.exp(1j * mod.psi)
    drive = np.cos(theta + (mod.phi - delay))
    return (mod.eps1 * u) * np.exp((1j * mod.m1) * drive) + (
        mod.eps2 * u.conjugate()
    ) * np.exp((-1j * mod.m2) * drive)


def _phases(order: int) -> np.ndarray:
    """The 2**ceil(log2(4*order + 2)) equispaced RF phases sampled at ``order``."""
    n = 1 << (4 * order + 1).bit_length()
    return np.arange(n) * (2.0 * math.pi / n)


def _spectrum(rows: np.ndarray, order: int) -> np.ndarray:
    """Fourier coefficients of each row of fields sampled on ``_phases(order)``.

    Harmonic k of a row sits at index k mod n.  In every row the power in
    the bins outside |k| <= order must stay below 1e-12 of the row's total,
    or the order is too low for the drive.
    """
    n = rows.shape[-1]
    coeffs = np.fft.fft(rows, norm="forward")
    power = np.abs(coeffs) ** 2
    total = power.sum(axis=-1)
    tail = power[:, order + 1 : n - order].sum(axis=-1)
    short = tail > _TAIL_ENERGY_RTOL * total
    if short.any():
        raise TruncationError(
            f"truncated tail holds {np.max(tail[short] / total[short]):.3e} "
            "of the power; raise the order"
        )
    return coeffs


def _link_samples(
    alice: ModulatorSpec, bob: ModulatorSpec, link: LinkSpec, order: int | None
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Checked order, its RF phases, Bob's field and the tandem field.

    The tandem field is Alice's field, delayed by the span and scaled by
    sqrt(loss), times Bob's.
    """
    order = _checked_order(order, alice, bob)
    theta = _phases(order)
    bob_field = _field(bob, theta)
    delayed = _field(alice, theta, link.link_phase, math.sqrt(link.loss))
    return order, theta, bob_field, delayed * bob_field


def exact_tandem_spectrum(
    alice: ModulatorSpec,
    bob: ModulatorSpec,
    link: LinkSpec,
    order: int | None = None,
) -> HarmonicSpectrum:
    """Exact output spectrum of the full Alice-link-Bob cascade."""
    order, _, _, tandem = _link_samples(alice, bob, link, order)
    coeffs = _spectrum(tandem[None], order)[0]
    return HarmonicSpectrum(order, np.concatenate((coeffs[-order:], coeffs[: order + 1])))


def _weights(
    alice: ModulatorSpec, bob: ModulatorSpec, alice_row: np.ndarray, bob_row: np.ndarray
) -> tuple[complex, complex]:
    """Exact interference weights from each modulator's own transform row.

    A row's harmonic 0 is the carrier with J_0(m) in place of 1, and its
    harmonic 1 without the RF phase exp(j*phi) is the sideband factor with
    J_1(m) in place of m/2.
    """
    a_sideband = complex(alice_row[1]) * cmath.exp(-1j * alice.phi)
    b_sideband = complex(bob_row[1]) * cmath.exp(-1j * bob.phi)
    return complex(bob_row[0]) * a_sideband, complex(alice_row[0]) * b_sideband


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
    try:
        p_small = sideband_powers(alice, bob, link)
    except DegenerateConfigurationError as exc:
        raise InvalidParameterError("degenerate pairing: no first-order sidebands") from exc
    order, theta, bob_field, tandem_field = _link_samples(alice, bob, link, order)
    rows = np.array((_field(alice, theta), bob_field, tandem_field))
    alice_row, bob_row, tandem = _spectrum(rows, order)
    e_a, e_b = _weights(alice, bob, alice_row, bob_row)
    exact_norm = 2.0 * (abs(e_a) ** 2 + abs(e_b) ** 2) * link.loss
    p_exact = (
        abs(complex(tandem[1])) ** 2 / exact_norm,
        abs(complex(tandem[-1])) ** 2 / exact_norm,
    )
    errors = []
    for pe, ps in zip(p_exact, p_small):
        if pe > 1e-9:
            errors.append(abs(pe - ps) / pe)
        else:
            errors.append(abs(pe - ps))
    return errors[0], errors[1]
