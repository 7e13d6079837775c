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
Fields are sampled as rows on one phase grid per transform size, built
once, cached read-only and shared by every call; one FFT call transforms
every row at once.  A small-signal error point stacks Alice's field, Bob's
field and the tandem product, and reads the exact interference weights
(J_0 and J_1 of each modulator) and the tandem's first harmonics from that
transform; the validity survey stacks all the points of one pairing into
one such transform (a batch per pairing, not per survey, keeps its arrays
small).  The truncation rule applies to each row: the power outside
|k| <= order must stay below 1e-12 of the row's total.

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
    its factor is 1 or conj(E) and one exp serves both arms.  The
    parameters are numbers, or (P, 1) columns that give P rows.
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


def _spectrum(rows: np.ndarray, order: int) -> np.ndarray:
    """Fourier coefficients of fields sampled on ``_phases(order)``, along the last axis.

    The transform overwrites ``rows``.  The fields carry its 1/n already (n is a power of two, so
    folding it into a field's coefficient is exact).  Harmonic k of a row
    sits at index k mod n.  In every row the power in the bins outside
    |k| <= order must stay below 1e-12 of the row's total, or the order is
    too low for the drive.
    """
    n = rows.shape[-1]
    coeffs = np.fft.fft(rows, out=rows)
    flat = coeffs.reshape(-1, n)
    totals = np.vecdot(flat, flat).real.tolist()
    tails = flat[:, order + 1 : n - order]
    tails = np.vecdot(tails, tails).real.tolist()
    worst = max(
        (tail / total for tail, total in zip(tails, totals) if tail > _TAIL_ENERGY_RTOL * total),
        default=0.0,
    )
    if worst:
        raise TruncationError(
            f"truncated tail holds {worst:.3e} of the power; raise the order"
        )
    return coeffs


def exact_tandem_spectrum(
    alice: ModulatorSpec,
    bob: ModulatorSpec,
    link: LinkSpec,
    order: int | None = None,
) -> HarmonicSpectrum:
    """Exact output spectrum of the full Alice-link-Bob cascade.

    The tandem field is Alice's field, delayed by the span and scaled by
    sqrt(loss), times Bob's.
    """
    order = _checked_order(order, max(alice.m, bob.m))
    theta = _phases(order)
    scale = math.sqrt(link.loss) / theta.size
    tandem = _field(theta, *_field_params(alice, link.link_phase, scale))
    tandem *= _field(theta, *_field_params(bob, 0.0, 1.0))
    coeffs = _spectrum(tandem, order)
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


def _columns(params: list[tuple[float, float, complex, complex, bool]]) -> tuple:
    """``_field_params`` tuples as (P, 1) columns of (phase, m, c1, c2) and one arm-2 flag."""
    columns = np.array([p[:4] for p in params], dtype=complex)
    mirrored = any(p[4] for p in params)
    return columns[:, :1].real, columns[:, 1:2].real, columns[:, 2:3], columns[:, 3:], mirrored


def _error_points(
    points: list[tuple[ModulatorSpec, ModulatorSpec, LinkSpec]], order: int | None = None
) -> list[tuple[float, float]]:
    """:func:`small_signal_error` of each (alice, bob, link) point, from one transform.

    The points share one pairing, so each side's arm 2 follows arm 1 at
    every point or at none.  The 3P rows are Alice's undelayed fields,
    the tandem fields and Bob's fields, and the order is the one the
    largest drive needs.
    """
    p_small = []
    for alice, bob, link in points:
        try:
            p_small.append(sideband_powers(alice, bob, link))
        except DegenerateConfigurationError as exc:
            raise InvalidParameterError("degenerate pairing: no first-order sidebands") from exc
    order = _checked_order(order, max(max(alice.m, bob.m) for alice, bob, _ in points))
    theta = _phases(order)
    inv_n = 1.0 / theta.size
    undelayed = [_field_params(alice, 0.0, inv_n) for alice, _, _ in points]
    delayed = [
        _field_params(alice, link.link_phase, math.sqrt(link.loss)) for alice, _, link in points
    ]
    bobs = [_field_params(bob, 0.0, inv_n) for _, bob, _ in points]
    bob_fields = _field(theta, *_columns(bobs))
    tandems = _field(theta, *_columns(delayed))
    tandems *= bob_fields
    rows = np.array((_field(theta, *_columns(undelayed)), tandems, bob_fields))
    alice_rows, tandem_rows, bob_rows = _spectrum(rows, order).reshape(3, len(points), -1)
    errors = []
    for (alice, bob, link), alice_row, tandem, bob_row, small in zip(
        points, alice_rows, tandem_rows, bob_rows, p_small
    ):
        e_a, e_b = _weights(alice, bob, alice_row, bob_row)
        exact_norm = 2.0 * (abs(e_a) ** 2 + abs(e_b) ** 2) * link.loss
        p_exact = (
            abs(complex(tandem[1])) ** 2 / exact_norm,
            abs(complex(tandem[-1])) ** 2 / exact_norm,
        )
        upper, lower = (
            abs(pe - ps) / pe if pe > 1e-9 else abs(pe - ps) for pe, ps in zip(p_exact, small)
        )
        errors.append((upper, lower))
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
