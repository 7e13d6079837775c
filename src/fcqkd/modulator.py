"""Two-arm electro-optic modulator model and its small-signal sidebands.

A single generalized device covers the three commercial modulator types.
Each arm i of the underlying Mach-Zehnder structure carries a coupling
factor eps_i, a modulation index m_i (radians), a DC bias phase +/-psi and
a common RF drive phase phi.  Selecting the coefficients specializes the
device:

    PM  -- single arm:            eps1 = 1,   eps2 = 0,    m2 = 0
    AM  -- balanced push-pull:    eps1 = eps2 = 1/2,       m1 = m2
    UM  -- one arm modulated:     eps1 = eps2 = 1/2,       m2 = 0

The coupling normalization (PM: 1, AM/UM: 1/2 per arm) is a lossless
split-recombine picture; every downstream normalized quantity is invariant
under a common positive rescaling of both couplings.

Field convention: the optical carrier is written as exp(+j*w0*t), so the
upper sideband at w0 + W is the exp(+j*W*t) term and carries the RF phase
factor exp(+j*phi); the lower sideband carries exp(-j*phi).  All amplitudes
are normalized to a unit input field.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParameterError

# Beyond this index the first-order sideband expansion drifts past the
# percent level (second-order error ~ m^2/4).
LOW_MODULATION_LIMIT = 0.2


class ModulatorKind(Enum):
    PM = "PM"
    AM = "AM"
    UM = "UM"


# Coupling table: kind -> (eps1, eps2, share of the drive index m on arm 2).
_COUPLING = {
    ModulatorKind.PM: (1.0, 0.0, 0.0),
    ModulatorKind.AM: (0.5, 0.5, 1.0),
    ModulatorKind.UM: (0.5, 0.5, 0.0),
}


def _coupling(kind: ModulatorKind) -> tuple[float, float, float]:
    """The coupling-table entry of ``kind``; rejects unknown kinds."""
    if kind not in _COUPLING:
        raise InvalidParameterError(f"unknown modulator kind {kind!r}")
    return _COUPLING[kind]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ModulatorSpec:
    """Coefficient set of one generalized modulator.

    Immutable; construct through :func:`make_modulator` unless a custom
    coupling scale is wanted (e.g. for scale-invariance checks).
    """

    kind: ModulatorKind
    eps1: float
    eps2: float
    m1: float
    m2: float
    psi: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        for name in ("eps1", "eps2", "m1", "m2", "psi", "phi"):
            _require_finite(name, getattr(self, name))
        if self.eps1 < 0 or self.eps2 < 0:
            raise InvalidParameterError("coupling factors must be >= 0")
        if self.m1 < 0 or self.m2 < 0:
            raise InvalidParameterError("modulation indices must be >= 0")
        # Couplings may be rescaled together, so only their ratio is fixed.
        e1, e2, share = _coupling(self.kind)
        if self.eps2 * e1 != self.eps1 * e2 or self.m2 != share * self.m1:
            raise InvalidParameterError(
                f"{self.kind.value} requires eps1:eps2 = {e1}:{e2} and m2 = {share} * m1"
            )

    @property
    def beyond_low_modulation(self) -> bool:
        """Diagnostic flag: drive exceeds the small-signal regime."""
        return max(self.m1, self.m2) > LOW_MODULATION_LIMIT


@dataclass(frozen=True)
class ThreeBandField:
    """Complex amplitudes at the carrier and the two first-order sidebands."""

    carrier: complex
    lower: complex
    upper: complex

    def __post_init__(self):
        for name in ("carrier", "lower", "upper"):
            z = getattr(self, name)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InvalidParameterError(f"{name} amplitude must be finite")

    def total_power(self) -> float:
        return abs(self.carrier) ** 2 + abs(self.lower) ** 2 + abs(self.upper) ** 2


def make_modulator(
    kind: ModulatorKind,
    m: float,
    psi: float = 0.0,
    phi: float = 0.0,
) -> ModulatorSpec:
    """Build a modulator of the given kind with drive index ``m`` (radians).

    For a PM the bias ``psi`` is stored but acts as a pure global phase
    (single arm); it cancels in every interference observable.
    """
    m = _require_finite("m", m)
    if m < 0:
        raise InvalidParameterError(f"modulation index must be >= 0, got {m}")
    eps1, eps2, share = _coupling(kind)
    return ModulatorSpec(kind, eps1, eps2, m, share * m, psi, phi)


def index_from_voltage(v_rf: float, v_pi: float) -> float:
    """Peak phase deviation pi * v_rf / v_pi for a drive of amplitude v_rf."""
    v_pi = _require_finite("v_pi", v_pi)
    v_rf = _require_finite("v_rf", v_rf)
    if v_pi <= 0:
        raise InvalidParameterError(f"v_pi must be > 0, got {v_pi}")
    if v_rf < 0:
        raise InvalidParameterError(f"v_rf must be >= 0, got {v_rf}")
    return math.pi * v_rf / v_pi


def bias_phase_from_voltage(v_dc: float, v_pi: float) -> float:
    """Per-arm bias phase psi = pi * v_dc / (2 v_pi).

    The arm-to-arm phase difference is 2*psi = pi * v_dc / v_pi, so v_dc =
    v_pi sits at the quadrature-difference point psi = pi/2.
    """
    v_pi = _require_finite("v_pi", v_pi)
    v_dc = _require_finite("v_dc", v_dc)
    if v_pi <= 0:
        raise InvalidParameterError(f"v_pi must be > 0, got {v_pi}")
    return math.pi * v_dc / (2.0 * v_pi)


def carrier_amplitude(eps1: float, eps2: float, u):
    """Carrier transmission eps1*u + eps2*conj(u); u = e^{j psi}, a number or an array."""
    return eps1 * u + eps2 * u.conjugate()


def sideband_factor(eps1: float, eps2: float, m1: float, m2: float, u):
    """First-order sideband amplitude (j/2)(eps1 m1 u - eps2 m2 conj(u)), u = e^{j psi}.

    The RF phase is not included; the upper/lower sidebands carry an extra
    exp(+/-j phi) on top of this factor.
    """
    return 0.5j * (eps1 * m1 * u - eps2 * m2 * u.conjugate())


def band_amplitudes(mod: ModulatorSpec) -> ThreeBandField:
    """First-order three-band output field of a single modulator."""
    u = cmath.exp(1j * mod.psi)
    s = sideband_factor(mod.eps1, mod.eps2, mod.m1, mod.m2, u)
    return ThreeBandField(
        carrier=carrier_amplitude(mod.eps1, mod.eps2, u),
        lower=s * cmath.exp(-1j * mod.phi),
        upper=s * cmath.exp(1j * mod.phi),
    )
