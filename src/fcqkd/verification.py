"""Small-signal validity sweep: first-order model vs exact harmonics.

Runs :func:`fcqkd.harmonics.small_signal_error` over a fixed lattice of
operating points for every modulator-kind pairing, one transform per
pairing, and reports the worst deviation per pairing.  Lattice points keep
both sideband powers above a floor so the relative error is meaningful
(near fringe nulls the relative deviation is unbounded by construction and
says nothing about the regime).

``FROZEN_WORST`` holds regression ceilings recorded from the first full
run of this lattice; the ``verify`` CLI command and the acceptance suite
fail if a later run drifts above them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError
from .harmonics import _error_points
from .link import LinkSpec, _fringe, _fringe_powers
from .modulator import LOW_MODULATION_LIMIT, ModulatorKind, _require_real, make_modulator

_KINDS = (ModulatorKind.PM, ModulatorKind.AM, ModulatorKind.UM)
KIND_PAIRS = tuple((a, b) for a in _KINDS for b in _KINDS)

# Generic biases (a PM gets one too; as a pure global phase it drops out)
# and drive-phase candidates; the lattice keeps the first phase pairs
# whose sideband powers both clear the floor.
_PSI_A = math.pi / 5
_PSI_B = math.pi / 7
_LINK_PHASE = 0.33
_PHASE_CANDIDATES = tuple(
    (pa, pb) for pa in (0.0, 0.7) for pb in (0.0, 0.9, 1.8, 2.7, 3.6, 4.5, 5.4)
)
_POWER_FLOOR = 0.15
_POINTS_PER_PAIR = 4

# Regression ceilings for the worst relative first-order error per pairing,
# recorded from the first lattice run and kept with ~30% headroom.  Keys
# are (alice kind, bob kind, drive index).
FROZEN_WORST: dict[tuple[str, str, float], float] = {
    ("PM", "PM", 0.01): 6.5e-05, ("PM", "PM", 0.1): 6.5e-03,
    ("PM", "AM", 0.01): 4.5e-05, ("PM", "AM", 0.1): 4.5e-03,
    ("PM", "UM", 0.01): 2.7e-05, ("PM", "UM", 0.1): 2.7e-03,
    ("AM", "PM", 0.01): 6.5e-05, ("AM", "PM", 0.1): 6.5e-03,
    ("AM", "AM", 0.01): 6.0e-05, ("AM", "AM", 0.1): 6.0e-03,
    ("AM", "UM", 0.01): 4.2e-05, ("AM", "UM", 0.1): 4.2e-03,
    ("UM", "PM", 0.01): 3.0e-05, ("UM", "PM", 0.1): 3.0e-03,
    ("UM", "AM", 0.01): 8.3e-05, ("UM", "AM", 0.1): 8.3e-03,
    ("UM", "UM", 0.01): 3.4e-05, ("UM", "UM", 0.1): 3.4e-03,
}

# Generic ceiling c*m^2 used for drive indices without a frozen entry
# (observed worst coefficient is ~0.65).
GENERIC_ERROR_COEFF = 1.0


@dataclass(frozen=True)
class PairReport:
    alice_kind: ModulatorKind
    bob_kind: ModulatorKind
    drive_index: float
    worst_error: float
    bound: float
    points: int

    @property
    def within_bound(self) -> bool:
        return self.worst_error <= self.bound


def lattice_points(alice_kind: ModulatorKind, bob_kind: ModulatorKind, m: float):
    """Operating points for one pairing with both sideband powers >= floor.

    The fringe's visibility and offset do not depend on the drive phases,
    so one evaluation serves every candidate pair.
    """
    link = LinkSpec(rf_frequency=1.0, link_phase=_LINK_PHASE)
    _, _, vis, offset = _fringe(
        make_modulator(alice_kind, m, _PSI_A), make_modulator(bob_kind, m, _PSI_B)
    )
    kept = []
    for phi_a, phi_b in _PHASE_CANDIDATES:
        # with one coefficient zero both powers are 1/2, above the floor
        if offset is not None and min(
            _fringe_powers(vis, offset, phi_b - phi_a + _LINK_PHASE)
        ) < _POWER_FLOOR:
            continue
        alice = make_modulator(alice_kind, m, _PSI_A, phi_a)
        bob = make_modulator(bob_kind, m, _PSI_B, phi_b)
        kept.append((alice, bob, link))
        if len(kept) == _POINTS_PER_PAIR:
            break
    return kept


def pair_bound(alice_kind: ModulatorKind, bob_kind: ModulatorKind, m: float) -> float:
    key = (alice_kind.value, bob_kind.value, m)
    if key in FROZEN_WORST:
        return FROZEN_WORST[key]
    return GENERIC_ERROR_COEFF * m * m


def survey_all(max_m: float) -> list[PairReport]:
    """Worst first-order error per pairing at drive index ``max_m``."""
    max_m = _require_real("max_m", max_m)
    if not (0.0 < max_m <= LOW_MODULATION_LIMIT):
        raise InvalidParameterError(
            f"drive index {max_m} outside the supported regime "
            f"(0, {LOW_MODULATION_LIMIT}]"
        )
    reports = []
    for alice_kind, bob_kind in KIND_PAIRS:
        points = lattice_points(alice_kind, bob_kind, max_m)
        errors = _error_points(points) if points else []
        worst = max((max(pair) for pair in errors), default=0.0)
        reports.append(
            PairReport(
                alice_kind=alice_kind,
                bob_kind=bob_kind,
                drive_index=max_m,
                worst_error=worst,
                bound=pair_bound(alice_kind, bob_kind, max_m),
                points=len(points),
            )
        )
    return reports
