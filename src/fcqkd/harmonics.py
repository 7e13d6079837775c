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

The kind's row of the coupling table fixes eps1, eps2 and arm 2's drive,
m2 = 0 or m2 = m1 = m, so a modulator's field takes one exp: with
E = exp(j*m*cos(theta + phi)), arm 2's factor is 1 or conj(E).
Fields are sampled on one phase grid per transform size, built once,
cached read-only and shared by every call.  The tandem spectrum is one
FFT of the sampled product.  A small-signal error point needs only
harmonics 0 and +/-1, and reads them from Bessel rows instead: harmonic k
of c1*E + c2*conj(E) is (c1 + (-1)^k c2) j^k J_k(m) e^{jk phi}, and one
FFT of exp(j*m*cos(theta)) per distinct drive index gives the row
j^k J_k(m).  c1 +/- c2 is formed before it meets the row, so a bias just
off a sideband null keeps the digits that an FFT of the summed field
rounds away at the carrier's scale.  The exact interference weights are
harmonics 0 and 1 of each side (J_0 and J_1 in place of 1 and m/2), and
the tandem's +/-1 lines are sum_n A_n B_{+/-1-n}.  The validity survey
batches the points of one pairing, whose sides share one drive index.

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
from .modulator import _COUPLING, ModulatorSpec, _is_integer

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


def _checked_order(order: int | None, m_max: float) -> int:
    """``order``, or by default one with comfortable headroom, checked against the drive.

    ``m_max`` is the largest drive index the transform has to hold.  An
    explicit order must be an integer (Python or numpy, not ``bool``).
    """
    if order is None:
        needed = 3.0 * m_max  # inf past about 6e307, which has no ceiling
        order = math.ceil(needed) + 8 if math.isfinite(needed) else needed
        if order > MAX_ORDER:
            raise InvalidParameterError(
                f"drive index {m_max} needs order {order}, above the supported maximum {MAX_ORDER}"
            )
    elif not _is_integer(order):
        raise InvalidParameterError(f"order must be an integer, got {order!r}")
    elif order > MAX_ORDER:
        raise InvalidParameterError(
            f"order {order} above the supported maximum {MAX_ORDER}"
        )
    if order < 3.0 * m_max + 5.0:
        raise TruncationError(
            f"order {order} too low for modulation depth {m_max} "
            f"(need at least {3.0 * m_max + 5.0:.1f})"
        )
    return int(order)


def _field_params(
    mod: ModulatorSpec, delay: float, scale: float
) -> tuple[float, float, complex, complex, bool]:
    """(drive phase, m, arm-1 and arm-2 coefficients, whether arm 2 is driven) of a field.

    ``delay`` retards the drive phase and ``scale`` multiplies the field;
    both, with the bias phasor and the kind's couplings, fold into the
    scalar coefficients.
    """
    eps1, eps2, share = _COUPLING[mod.kind]
    u = scale * cmath.exp(1j * mod.psi)
    return mod.phi - delay, mod.m, eps1 * u, eps2 * u.conjugate(), bool(share)


def _field(theta: np.ndarray, phase, m, c1, c2, mirrored: bool) -> np.ndarray:
    """Two-arm output field c1*E + c2*(conj(E) if ``mirrored`` else 1) at the RF phases ``theta``.

    E = exp(j*m*cos(theta + phase)) is arm 1's phase factor.  Arm 2 is
    driven with m2 = share*m and the coupling table's share is 0 or 1, so
    its factor is 1 or conj(E) and one exp serves both arms.
    """
    drive = theta + phase
    field = np.exp((1j * m) * np.cos(drive, out=drive))
    # coefficient times field, in that order: with fused multiply-adds,
    # complex products need not commute in the last bit
    if mirrored:
        arm2 = field.conjugate()
        np.multiply(c2, arm2, out=arm2)
        np.multiply(c1, field, out=field)
        field += arm2
    else:
        np.multiply(c1, field, out=field)
        field += c2
    return field


# Phase grids by transform size: 32 to 1024 samples, so at most six.
_PHASE_GRIDS: dict[int, np.ndarray] = {}


def _phases(order: int) -> np.ndarray:
    """The 2**ceil(log2(4*order + 2)) equispaced RF phases sampled at ``order``.

    One shared, read-only array per transform size; ``_field`` adds the
    drive phase into a new array and never writes to the grid.
    """
    n = 1 << (4 * order + 1).bit_length()
    grid = _PHASE_GRIDS.get(n)
    if grid is None:
        grid = np.arange(n) * (2.0 * math.pi / n)
        grid.flags.writeable = False
        _PHASE_GRIDS[n] = grid
    return grid


def exact_tandem_spectrum(
    alice: ModulatorSpec,
    bob: ModulatorSpec,
    link: LinkSpec,
    order: int | None = None,
) -> HarmonicSpectrum:
    """Exact output spectrum of the full Alice-link-Bob cascade.

    The tandem field is Alice's field, delayed by the span and scaled by
    sqrt(loss), times Bob's.  The power in the bins outside |k| <= order
    must stay below 1e-12 of the total, or the order is too low for the
    drives.
    """
    order = _checked_order(order, max(alice.m, bob.m))
    theta = _phases(order)
    # the field carries the transform's 1/n; n is a power of two, so that is exact
    scale = math.sqrt(link.loss) / theta.size
    tandem = _field(theta, *_field_params(alice, link.link_phase, scale))
    tandem *= _field(theta, *_field_params(bob, 0.0, 1.0))
    coeffs = np.fft.fft(tandem, out=tandem)  # harmonic k at index k mod n
    tail = coeffs[order + 1 : theta.size - order]
    tail_power, total = np.vdot(tail, tail).real, np.vdot(coeffs, coeffs).real
    if tail_power > _TAIL_ENERGY_RTOL * total:
        raise TruncationError(
            f"truncated tail holds {tail_power / total:.3e} of the power; raise the order"
        )
    return HarmonicSpectrum(order, np.concatenate((coeffs[-order:], coeffs[: order + 1])))


def _harmonics(mods: list[ModulatorSpec], phases: list[float], order: int) -> np.ndarray:
    """Harmonics -order..order of each modulator's field at its drive phase, one row each.

    Harmonic k is (c1 + (-1)^k c2) j^k J_k(m) e^{jk phi}, or, with arm 2
    undriven, c1 j^k J_k(m) e^{jk phi} plus c2 at k = 0; modulators at one
    drive index share its Bessel row.  At the lowest order
    ``_checked_order`` accepts, a row keeps at most 5.5e-17 of its power
    outside |k| <= order (at m = 1, order 8), so the rows need no tail
    rule.  ``phases`` are wrapped to a few pi.
    """
    index = {m: i for i, m in enumerate(dict.fromkeys(mod.m for mod in mods))}
    k = np.arange(-order, order + 1)
    samples = np.exp(np.multiply.outer(1j * np.array(list(index)), np.cos(_phases(order))))
    rows = np.fft.fft(samples, norm="forward")[:, k]
    fields = rows[[index[mod.m] for mod in mods]] * np.exp(1j * np.multiply.outer(phases, k))
    coeffs = []
    for mod in mods:
        _, _, c1, c2, mirrored = _field_params(mod, 0.0, 1.0)
        coeffs.append((c1 + c2, c1 - c2, 0j) if mirrored else (c1, c1, c2))
    coeffs = np.array(coeffs)
    fields[:, order % 2 :: 2] *= coeffs[:, :1]  # even k
    fields[:, 1 - order % 2 :: 2] *= coeffs[:, 1:2]  # odd k
    fields[:, order] += coeffs[:, 2]
    return fields


def _error_points(
    points: list[tuple[ModulatorSpec, ModulatorSpec, LinkSpec]], order: int | None = None
) -> list[tuple[float, float]]:
    """:func:`small_signal_error` of each (alice, bob, link) point, from one Bessel row per drive.

    The order is the one the largest drive needs.  The span delays Alice's
    drive phase; its loss scales the tandem lines and the norm alike, so it
    cancels.  The weights' magnitudes are |Bob's harmonic 0| * |Alice's
    harmonic 1| and the reverse, and the tandem's +/-1 lines are
    sum_n A_n B_{+/-1-n}.
    """
    p_small = []
    for alice, bob, link in points:
        try:
            p_small.append(sideband_powers(alice, bob, link))
        except DegenerateConfigurationError as exc:
            raise InvalidParameterError("degenerate pairing: no first-order sidebands") from exc
    order = _checked_order(order, max(max(alice.m, bob.m) for alice, bob, _ in points))
    mods = [alice for alice, _, _ in points] + [bob for _, bob, _ in points]
    # each phase wrapped on its own, so that no finite one overflows k*phi
    phases = [
        math.remainder(alice.phi, math.tau) - math.remainder(link.link_phase, math.tau)
        for alice, _, link in points
    ] + [math.remainder(bob.phi, math.tau) for _, bob, _ in points]
    fields = _harmonics(mods, phases, order)
    a, b = fields[: len(points)], fields[len(points) :]
    uppers = (a[:, 1:] * b[:, :0:-1]).sum(1).tolist()
    lowers = (a[:, :-1] * b[:, -2::-1]).sum(1).tolist()
    sides = abs(fields[:, order : order + 2]).tolist()  # |harmonic 0|, |harmonic 1|
    errors = []
    for upper, lower, (a0, a1), (b0, b1), small in zip(
        uppers, lowers, sides, sides[len(points) :], p_small
    ):
        norm = 2.0 * ((b0 * a1) ** 2 + (a0 * b1) ** 2)  # twice the squared weights
        p_exact = (abs(upper) ** 2 / norm, abs(lower) ** 2 / norm)
        errors.append(
            tuple(
                abs(pe - ps) / pe if pe > 1e-9 else abs(pe - ps) for pe, ps in zip(p_exact, small)
            )
        )
    return errors


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
    return _error_points([(alice, bob, link)], order)[0]
