"""Protocol feasibility analysis for the nine tandem modulator pairings.

A pairing supports B92 when unit visibility is reachable by trimming the
index ratio m_A/m_B and the intrinsic phase offset is a multiple of pi; it
supports BB84 when the offset is an odd multiple of pi/2 instead.  Under
those conditions the counters follow

    B92:   P(upper) = P(lower) = cos^2(dphi/2)
    BB84:  P(upper) = cos^2(dphi/2),  P(lower) = sin^2(dphi/2)

with dphi = phi_b - phi_a + link_phase + offset.

:func:`classify_pair` derives feasibility, bias constraints and required
index ratios purely numerically from the interference coefficients.  The
module also embeds an independently hand-derived reference table
(``REFERENCE_TABLE``) of closed-form expressions per pairing, used by the
``table2`` CLI command and the acceptance suite to cross-check the
numeric classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import InvalidParameterError
from .link import _coefficients, phase_offset, wrap_to_pi
from .modulator import _COUPLING, ModulatorKind, ModulatorSpec, _require_finite

B92 = "B92"
BB84 = "BB84"

THETA_TOL = 1e-9

# Drive phases of the key alphabets; montecarlo picks each protocol's
# alphabet from these and compensates Bob's for the span and offset.
CANONICAL_PHASES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)


@dataclass(frozen=True)
class ProtocolFeasibility:
    """Verdict for one protocol on one (biased) modulator pairing.

    ``index_ratio`` is the m_A/m_B that reaches unit visibility; None when
    infeasible.  ``failure_reason`` is "none", "theta-mismatch" or
    "zero-visibility".
    """

    protocol: str
    feasible: bool
    bias_constraint: str
    index_ratio: float | None
    failure_reason: str


@dataclass(frozen=True)
class ClassificationRow:
    """One row of the nine-pairing classification table."""

    alice_kind: ModulatorKind
    bob_kind: ModulatorKind
    theta_label: str
    ratio_label: str
    reference_bias: tuple[float, float]
    theta_at_reference: float
    ratio_at_reference: float
    b92: ProtocolFeasibility
    bb84: ProtocolFeasibility


def _required_shift(protocol: str) -> float:
    """Phase-offset class (mod pi) the protocol needs; rejects unknown names."""
    if protocol == B92:
        return 0.0
    if protocol == BB84:
        return 0.5 * math.pi
    raise InvalidParameterError(f"unknown protocol {protocol!r}, expected B92 or BB84")


def _theta_distance(offset: float, shift: float) -> float:
    """Distance of the offset from the phase class ``shift`` mod pi."""
    return abs(math.remainder(offset - shift, math.pi))


def _unit_coeffs(alice_kind, bob_kind, psi_a, psi_b):
    """Coefficients and zero flags at unit drive index, from the coupling table."""
    a_eps1, a_eps2, a_share = _COUPLING[alice_kind]
    b_eps1, b_eps2, b_share = _COUPLING[bob_kind]
    return _coefficients(
        (a_eps1, a_eps2, 1.0, a_share, psi_a), (b_eps1, b_eps2, 1.0, b_share, psi_b)
    )


def _verdict(coeffs, protocol: str, tol: float = THETA_TOL) -> ProtocolFeasibility:
    shift = _required_shift(protocol)
    a, b, a_zero, b_zero = coeffs
    if a_zero or b_zero:
        return ProtocolFeasibility(protocol, False, "as-configured", None, "zero-visibility")
    if _theta_distance(phase_offset(a, b), shift) > tol:
        return ProtocolFeasibility(protocol, False, "as-configured", None, "theta-mismatch")
    return ProtocolFeasibility(protocol, True, "as-configured", abs(b) / abs(a), "none")


def check_protocol(
    alice: ModulatorSpec, bob: ModulatorSpec, protocol: str
) -> ProtocolFeasibility:
    """Verdict for ``protocol`` at the given biases; the drive indices are free."""
    return _verdict(_unit_coeffs(alice.kind, bob.kind, alice.psi, bob.psi), protocol)


# --- bias-constraint families --------------------------------------------
#
# Candidate bias families probed by classify_pair, in order of preference.
# Each maps (free bias t, integer n) -> (psi_a, psi_b).

_N_RANGE = (-2, -1, 0, 1, 2)


class _Family(NamedTuple):
    label: str
    points: Callable[[float, int], tuple[float, float]]


_FEASIBLE_FAMILIES = (
    _Family("psi_a = n*pi", lambda t, n: (n * math.pi, t)),
    _Family("psi_b = n*pi", lambda t, n: (t, n * math.pi)),
    _Family("psi_b = psi_a + n*pi", lambda t, n: (t, t + n * math.pi)),
    _Family("psi_b = psi_a + (2n+1)*pi/2", lambda t, n: (t, t + (2 * n + 1) * 0.5 * math.pi)),
)

_ZERO_VIS_FAMILIES = (
    _Family("psi_a = (2n+1)*pi/2", lambda t, n: ((2 * n + 1) * 0.5 * math.pi, t)),
    _Family("psi_b = (2n+1)*pi/2", lambda t, n: (t, (2 * n + 1) * 0.5 * math.pi)),
)


def _require_grid(psi_grid: list[float]) -> None:
    """Reject an empty bias grid or one with a non-finite bias."""
    if not psi_grid:
        raise InvalidParameterError("psi_grid must be non-empty")
    for psi in psi_grid:
        _require_finite("psi", psi)


def _feasibility_on(alice_kind, bob_kind, protocol, points):
    return [
        _verdict(_unit_coeffs(alice_kind, bob_kind, pa, pb), protocol) for pa, pb in points
    ]


def _classify_protocol(
    alice_kind: ModulatorKind,
    bob_kind: ModulatorKind,
    protocol: str,
    psi_grid: list[float],
) -> ProtocolFeasibility:
    grid_points = [(pa, pb) for pa in psi_grid for pb in psi_grid]
    verdicts = _feasibility_on(alice_kind, bob_kind, protocol, grid_points)
    if all(v.feasible for v in verdicts):
        ratio = verdicts[len(verdicts) // 3].index_ratio
        return ProtocolFeasibility(protocol, True, "any", ratio, "none")

    for family in _FEASIBLE_FAMILIES:
        points = [family.points(t, n) for t in psi_grid for n in _N_RANGE]
        family_verdicts = _feasibility_on(alice_kind, bob_kind, protocol, points)
        if all(v.feasible for v in family_verdicts):
            ratio = family_verdicts[len(family_verdicts) // 3].index_ratio
            return ProtocolFeasibility(protocol, True, family.label, ratio, "none")

    # Infeasible: decide whether the phase-offset condition is unreachable
    # outright, or reachable only on a bias locus where a coefficient dies.
    for family in _ZERO_VIS_FAMILIES:
        on_locus = [family.points(t, n) for t in psi_grid for n in _N_RANGE]
        locus_verdicts = _feasibility_on(alice_kind, bob_kind, protocol, on_locus)
        if not all(v.failure_reason == "zero-visibility" for v in locus_verdicts):
            continue
        # Just off the locus the offset must approach the required class.
        near = [(pa + 1e-6, pb + 1e-6) for pa, pb in on_locus]
        if all(
            _verdict(_unit_coeffs(alice_kind, bob_kind, pa, pb), protocol, tol=1e-3).feasible
            for pa, pb in near
        ):
            return ProtocolFeasibility(
                protocol, False, family.label, None, "zero-visibility"
            )
    return ProtocolFeasibility(protocol, False, "none", None, "theta-mismatch")


def classify_pair(
    alice_kind: ModulatorKind,
    bob_kind: ModulatorKind,
    psi_grid: list[float],
) -> ClassificationRow:
    """Classify one kind pairing over a grid of generic biases.

    ``psi_grid`` supplies the generic bias samples; it must avoid exact
    singular biases (multiples of pi/2) unless those are being probed on
    purpose.  Everything is derived numerically from the interference
    coefficients; the canonical labels come from the reference table for
    readability only.
    """
    _require_grid(psi_grid)
    b92 = _classify_protocol(alice_kind, bob_kind, B92, psi_grid)
    bb84 = _classify_protocol(alice_kind, bob_kind, BB84, psi_grid)

    ref_bias = (psi_grid[len(psi_grid) // 3], psi_grid[(2 * len(psi_grid)) // 3])
    a, b, a_zero, b_zero = _unit_coeffs(alice_kind, bob_kind, *ref_bias)
    theta_ref = math.nan if (a_zero or b_zero) else phase_offset(a, b)
    ratio_ref = math.inf if a_zero else abs(b) / abs(a)

    ref = REFERENCE_TABLE[(alice_kind, bob_kind)]
    return ClassificationRow(
        alice_kind=alice_kind,
        bob_kind=bob_kind,
        theta_label=ref.theta_label,
        ratio_label=ref.ratio_label,
        reference_bias=ref_bias,
        theta_at_reference=theta_ref,
        ratio_at_reference=ratio_ref,
        b92=b92,
        bb84=bb84,
    )


# --- hand-derived reference table ------------------------------------------
#
# Closed-form expressions per pairing, derived by eliminating the coupling
# and index factors from the interference coefficients by hand.  Valid on
# the principal bias branch psi in (0, pi/2); the |.| ratio forms hold on
# (0, pi) away from the tan/cos singularities.  These are the comparison
# targets for the numeric classification, not inputs to it.


@dataclass(frozen=True)
class ReferenceVerdict:
    feasible: bool
    constraint: str
    failure_reason: str
    # Required m_A/m_B evaluated with the constraint applied (n = 0);
    # the free arguments are the unconstrained biases.
    constrained_ratio: Callable[[float, float], float] | None


@dataclass(frozen=True)
class ReferenceRow:
    theta_label: str
    ratio_label: str
    theta: Callable[[float, float], float]
    ratio: Callable[[float, float], float]
    b92: ReferenceVerdict
    bb84: ReferenceVerdict


_PM, _AM, _UM = ModulatorKind.PM, ModulatorKind.AM, ModulatorKind.UM

REFERENCE_TABLE: dict[tuple[ModulatorKind, ModulatorKind], ReferenceRow] = {
    (_UM, _UM): ReferenceRow(
        theta_label="psi_b - psi_a",
        ratio_label="|cos(psi_a)/cos(psi_b)|",
        theta=lambda pa, pb: pb - pa,
        ratio=lambda pa, pb: abs(math.cos(pa) / math.cos(pb)),
        b92=ReferenceVerdict(True, "psi_b = psi_a + n*pi", "none", lambda pa, pb: 1.0),
        bb84=ReferenceVerdict(
            True,
            "psi_b = psi_a + (2n+1)*pi/2",
            "none",
            lambda pa, pb: abs(math.cos(pa) / math.sin(pa)),
        ),
    ),
    (_AM, _AM): ReferenceRow(
        theta_label="0",
        ratio_label="|tan(psi_b)/tan(psi_a)|",
        theta=lambda pa, pb: 0.0,
        ratio=lambda pa, pb: abs(math.tan(pb) / math.tan(pa)),
        b92=ReferenceVerdict(True, "any", "none", lambda pa, pb: abs(math.tan(pb) / math.tan(pa))),
        bb84=ReferenceVerdict(False, "none", "theta-mismatch", None),
    ),
    (_PM, _PM): ReferenceRow(
        theta_label="0",
        ratio_label="1",
        theta=lambda pa, pb: 0.0,
        ratio=lambda pa, pb: 1.0,
        b92=ReferenceVerdict(True, "any", "none", lambda pa, pb: 1.0),
        bb84=ReferenceVerdict(False, "none", "theta-mismatch", None),
    ),
    (_PM, _AM): ReferenceRow(
        theta_label="pi/2",
        ratio_label="|tan(psi_b)|",
        theta=lambda pa, pb: 0.5 * math.pi,
        ratio=lambda pa, pb: abs(math.tan(pb)),
        b92=ReferenceVerdict(False, "none", "theta-mismatch", None),
        bb84=ReferenceVerdict(True, "any", "none", lambda pa, pb: abs(math.tan(pb))),
    ),
    (_AM, _PM): ReferenceRow(
        theta_label="-pi/2",
        ratio_label="1/|tan(psi_a)|",
        theta=lambda pa, pb: -0.5 * math.pi,
        ratio=lambda pa, pb: 1.0 / abs(math.tan(pa)),
        b92=ReferenceVerdict(False, "none", "theta-mismatch", None),
        bb84=ReferenceVerdict(True, "any", "none", lambda pa, pb: 1.0 / abs(math.tan(pa))),
    ),
    (_UM, _PM): ReferenceRow(
        theta_label="-psi_a",
        ratio_label="2*|cos(psi_a)|",
        theta=lambda pa, pb: -pa,
        ratio=lambda pa, pb: 2.0 * abs(math.cos(pa)),
        b92=ReferenceVerdict(True, "psi_a = n*pi", "none", lambda pa, pb: 2.0),
        bb84=ReferenceVerdict(False, "psi_a = (2n+1)*pi/2", "zero-visibility", None),
    ),
    (_PM, _UM): ReferenceRow(
        theta_label="psi_b",
        ratio_label="1/(2*|cos(psi_b)|)",
        theta=lambda pa, pb: pb,
        ratio=lambda pa, pb: 1.0 / (2.0 * abs(math.cos(pb))),
        b92=ReferenceVerdict(True, "psi_b = n*pi", "none", lambda pa, pb: 0.5),
        bb84=ReferenceVerdict(False, "psi_b = (2n+1)*pi/2", "zero-visibility", None),
    ),
    (_UM, _AM): ReferenceRow(
        theta_label="pi/2 - psi_a",
        ratio_label="2*|cos(psi_a)*tan(psi_b)|",
        theta=lambda pa, pb: 0.5 * math.pi - pa,
        ratio=lambda pa, pb: 2.0 * abs(math.cos(pa) * math.tan(pb)),
        b92=ReferenceVerdict(False, "psi_a = (2n+1)*pi/2", "zero-visibility", None),
        bb84=ReferenceVerdict(
            True, "psi_a = n*pi", "none", lambda pa, pb: 2.0 * abs(math.tan(pb))
        ),
    ),
    (_AM, _UM): ReferenceRow(
        theta_label="psi_b - pi/2",
        ratio_label="1/(2*|tan(psi_a)*cos(psi_b)|)",
        theta=lambda pa, pb: pb - 0.5 * math.pi,
        ratio=lambda pa, pb: 1.0 / (2.0 * abs(math.tan(pa) * math.cos(pb))),
        b92=ReferenceVerdict(False, "psi_b = (2n+1)*pi/2", "zero-visibility", None),
        bb84=ReferenceVerdict(
            True, "psi_b = n*pi", "none", lambda pa, pb: 1.0 / (2.0 * abs(math.tan(pa)))
        ),
    ),
}

ROW_ORDER: tuple[tuple[ModulatorKind, ModulatorKind], ...] = (
    (_UM, _UM),
    (_AM, _AM),
    (_PM, _PM),
    (_PM, _AM),
    (_AM, _PM),
    (_UM, _PM),
    (_PM, _UM),
    (_UM, _AM),
    (_AM, _UM),
)


def evaluate_pair(
    alice_kind: ModulatorKind, bob_kind: ModulatorKind, psi_a: float, psi_b: float
) -> tuple[float, float]:
    """Numeric (phase offset, unit-visibility index ratio) at given biases."""
    _require_finite("psi_a", psi_a)
    _require_finite("psi_b", psi_b)
    a, b, _, _ = _unit_coeffs(alice_kind, bob_kind, psi_a, psi_b)
    return phase_offset(a, b), abs(b) / abs(a)


def compare_row_with_reference(
    alice_kind: ModulatorKind,
    bob_kind: ModulatorKind,
    row: ClassificationRow,
    psi_grid: list[float],
    tol: float = THETA_TOL,
) -> list[str]:
    """Mismatch descriptions between a classified row and the reference.

    Checks the phase offset and index ratio over ``psi_grid`` x ``psi_grid``
    (expected on the principal branch) plus feasibility verdicts,
    constraints and failure reasons.  An empty list means full agreement.
    """
    _require_grid(psi_grid)
    ref = REFERENCE_TABLE[(alice_kind, bob_kind)]
    name = f"{alice_kind.value}-{bob_kind.value}"
    failures: list[str] = []
    for pa in psi_grid:
        for pb in psi_grid:
            theta_num, ratio_num = evaluate_pair(alice_kind, bob_kind, pa, pb)
            dev = abs(wrap_to_pi(theta_num - ref.theta(pa, pb)))
            if dev > tol:
                failures.append(
                    f"{name}: theta deviates {dev:.3e} at psi=({pa:.6f},{pb:.6f})"
                )
            ratio_ref = ref.ratio(pa, pb)
            if abs(ratio_num / ratio_ref - 1.0) > tol:
                failures.append(
                    f"{name}: ratio deviates at psi=({pa:.6f},{pb:.6f})"
                )
    for proto, got, expect in (("B92", row.b92, ref.b92), ("BB84", row.bb84, ref.bb84)):
        if got.feasible != expect.feasible:
            failures.append(f"{name}/{proto}: feasible={got.feasible}, expected {expect.feasible}")
        if got.bias_constraint != expect.constraint:
            failures.append(
                f"{name}/{proto}: constraint={got.bias_constraint!r}, "
                f"expected {expect.constraint!r}"
            )
        if got.failure_reason != expect.failure_reason:
            failures.append(
                f"{name}/{proto}: reason={got.failure_reason!r}, "
                f"expected {expect.failure_reason!r}"
            )
        if expect.feasible and expect.constrained_ratio is not None:
            for t in (psi_grid[0], psi_grid[len(psi_grid) // 2], psi_grid[-1]):
                pa, pb = _constrained_point(expect.constraint, t)
                _, ratio_num = evaluate_pair(alice_kind, bob_kind, pa, pb)
                if abs(ratio_num / expect.constrained_ratio(pa, pb) - 1.0) > tol:
                    failures.append(
                        f"{name}/{proto}: constrained ratio mismatch at t={t:.6f}"
                    )
    return failures


def _constrained_point(constraint: str, t: float) -> tuple[float, float]:
    if constraint == "any":
        return t, t * 0.8 + 0.1
    for family in _FEASIBLE_FAMILIES:
        if family.label == constraint:
            return family.points(t, 0)
    raise ValueError(f"no sample point rule for constraint {constraint!r}")
