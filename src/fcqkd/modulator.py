"""Two-arm electro-optic modulator model and its small-signal sidebands.

A single generalized device covers the three commercial modulator types.
Each arm i of the underlying Mach-Zehnder structure carries a coupling
factor eps_i, a modulation index m_i (radians), a DC bias phase +/-psi and
a common RF drive phase phi.  Arm 1 is driven at m1 = m; the kind's row
of the coupling table fixes the couplings and arm 2's drive, so a
modulator is its kind, m, psi and phi:

    PM  -- single arm:            eps1 = 1,   eps2 = 0,    m2 = 0
    AM  -- balanced push-pull:    eps1 = eps2 = 1/2,       m2 = m
    UM  -- one arm modulated:     eps1 = eps2 = 1/2,       m2 = 0

The couplings (PM: 1, AM/UM: 1/2 per arm) are a lossless
split-recombine picture.

Field convention: the optical carrier is written as exp(+j*w0*t), so the
upper sideband at w0 + W is the exp(+j*W*t) term and carries the RF phase
factor exp(+j*phi); the lower sideband carries exp(-j*phi).  All amplitudes
are normalized to a unit input field.
"""

from __future__ import annotations

import math
import sys
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

    # Members compare by identity, so the identity hash agrees; it spares every
    # coupling-table lookup (one per side per closed-form call) Enum's Python-level hash.
    __hash__ = object.__hash__


# Coupling table: kind -> (eps1, eps2, share of the drive index m on arm 2).
_COUPLING = {
    ModulatorKind.PM: (1.0, 0.0, 0.0),
    ModulatorKind.AM: (0.5, 0.5, 1.0),
    ModulatorKind.UM: (0.5, 0.5, 0.0),
}


def _require_kinds(*kinds) -> None:
    """Reject any of ``kinds`` that the coupling table lacks, unhashable ones too."""
    for kind in kinds:
        try:
            _COUPLING[kind]
        except (KeyError, TypeError):
            raise InvalidParameterError(f"unknown modulator kind {kind!r}") from None


def _require_real(name: str, value) -> float:
    """``value`` as a float; a Python or numpy real (not a ``bool``) that a float holds.

    Concrete types, not the numbers.Real ABC: its isinstance check is slower,
    and a survey builds about 90 specs; a float, the usual case, is let through
    first.  numpy is looked up, not imported: if it was never imported, no
    numpy scalar can exist.
    """
    if type(value) is not float and (
        not isinstance(value, (int, float)) or isinstance(value, bool)
    ):
        np = sys.modules.get("numpy")
        if np is None or not isinstance(value, (np.integer, np.floating)):
            raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise InvalidParameterError(f"{name} must be finite, got an integer past 1e308") from None


def _require_finite(name: str, value) -> float:
    """``value`` as a finite float; a Python or numpy real, not a ``bool``."""
    value = _require_real(name, value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


def _require_instances(cls: type, names: str, *values) -> None:
    """Reject ``values`` unless each is a ``cls``; ``names`` names them in the message."""
    for value in values:
        if not isinstance(value, cls):
            got = ", ".join(map(repr, values))
            raise InvalidParameterError(f"{names} must be {cls.__name__}, got {got}")


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a ``bool`` is not one."""
    if isinstance(value, int):
        return not isinstance(value, bool)
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.integer)


@dataclass(frozen=True)
class ModulatorSpec:
    """One generalized modulator: its kind, drive index ``m`` (radians), bias and drive phase.

    The couplings and arm 2's drive are the kind's row of the coupling table.
    For a PM the bias ``psi`` is stored but acts as a pure global phase
    (single arm); it cancels in every interference observable.
    """

    kind: ModulatorKind
    m: float
    psi: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        _require_kinds(self.kind)
        for name in ("m", "psi", "phi"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.m < 0:
            raise InvalidParameterError(f"modulation index must be >= 0, got {self.m}")


def make_modulator(
    kind: ModulatorKind, m: float, psi: float = 0.0, phi: float = 0.0
) -> ModulatorSpec:
    """Build a modulator of the given kind with drive index ``m`` (radians)."""
    return ModulatorSpec(kind, m, psi, phi)


def _require_v_pi(v_pi: float) -> float:
    """The half-wave voltage as a float; rejects one that is not finite or not > 0."""
    v_pi = _require_finite("v_pi", v_pi)
    if v_pi <= 0:
        raise InvalidParameterError(f"v_pi must be > 0, got {v_pi}")
    return v_pi


def index_from_voltage(v_rf: float, v_pi: float) -> float:
    """Peak phase deviation pi * v_rf / v_pi for a drive of amplitude v_rf."""
    v_pi = _require_v_pi(v_pi)
    v_rf = _require_finite("v_rf", v_rf)
    if v_rf < 0:
        raise InvalidParameterError(f"v_rf must be >= 0, got {v_rf}")
    return math.pi * v_rf / v_pi


def bias_phase_from_voltage(v_dc: float, v_pi: float) -> float:
    """Per-arm bias phase psi = pi * v_dc / (2 v_pi).

    The arm-to-arm phase difference is 2*psi = pi * v_dc / v_pi, so v_dc =
    v_pi sits at the quadrature-difference point psi = pi/2.
    """
    v_pi = _require_v_pi(v_pi)
    v_dc = _require_finite("v_dc", v_dc)
    return math.pi * v_dc / (2.0 * v_pi)


def _side(kind: ModulatorKind, m: float, u):
    """(C, S, scale) of one modulator at drive index ``m``; u = e^{j psi}, a number or an array.

    C = eps1 u + eps2 conj(u) is the carrier transmission and S = (j/2)(eps1
    m u - eps2 m2 conj(u)), m2 the kind's share of m, the first-order
    sideband factor (the sidebands carry exp(+/-j phi) on top).  scale =
    (eps1 m + eps2 m2) / 2 bounds |S|, and |C| <= 1 (the couplings sum to
    1): the zero rule measures this side's sideband coefficient against it.
    """
    eps1, eps2, share = _COUPLING[kind]
    m2 = share * m
    v = u.conjugate()
    carrier = eps1 * u + eps2 * v
    sideband = 0.5j * (eps1 * m * u - eps2 * m2 * v)
    return carrier, sideband, 0.5 * (eps1 * m + eps2 * m2)
