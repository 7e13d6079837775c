"""Protocol feasibility analysis for the nine tandem modulator pairings.

A pairing supports B92 when unit visibility is reachable by trimming the
index ratio m_A/m_B and the intrinsic phase offset is a multiple of pi; it
supports BB84 when the offset is an odd multiple of pi/2 instead.  Under
those conditions the counters follow

    B92:   P(upper) = P(lower) = cos^2(dphi/2)
    BB84:  P(upper) = cos^2(dphi/2),  P(lower) = sin^2(dphi/2)

with dphi = phi_b - phi_a + link_phase + offset.

:func:`classify_pair` derives feasibility, bias constraints and required
index ratios purely numerically from the interference coefficients.  Both
protocols read their verdicts from at most three array evaluations: the
n x n bias grid, every candidate family's (t, n) lattice stacked into one
block and, only when a zero-visibility locus is dead, that lattice nudged
off it.  Every reported number comes from the scalar evaluation at its
point.  :func:`compare_row_with_reference` checks a row, in one grid
evaluation, against the hand-derived closed forms of ``REFERENCE_TABLE``,
as the ``table2`` command and the acceptance suite do.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidParameterError, PhaseUndefinedError
from .link import B92, BB84, _coefficients, phase_offset
from .modulator import ModulatorKind, ModulatorSpec, _coupling, _require_finite

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


def _check_kinds(alice_kind, bob_kind) -> None:
    """Reject an unknown kind on either side with :class:`InvalidParameterError`."""
    _coupling(alice_kind)
    _coupling(bob_kind)


def _unit_coeffs(alice_kind, bob_kind, u_a, u_b):
    """Coefficients and zero flags at unit drive index for bias phasors e^{j psi}."""
    return _coefficients((alice_kind, 1.0, u_a), (bob_kind, 1.0, u_b))


def _coeffs_at(alice_kind, bob_kind, psi_a: float, psi_b: float):
    """Scalar coefficients at one bias pair; every reported number comes from here."""
    return _unit_coeffs(alice_kind, bob_kind, cmath.exp(1j * psi_a), cmath.exp(1j * psi_b))


def _in_class(coeffs, shift: float, tol: float = THETA_TOL):
    """Elementwise: both coefficients alive and arg b - arg a within ``tol`` of ``shift`` mod pi.

    z = b conj(a) e^{-j shift} has argument arg b - arg a - shift, which is
    within tol of a multiple of pi exactly when |Im z| <= tan(tol) |Re z|.
    """
    a, b, a_zero, b_zero = coeffs
    z = b * a.conjugate() * cmath.exp(-1j * shift)
    return np.logical_not(a_zero | b_zero) & (abs(z.imag) <= math.tan(tol) * abs(z.real))


def check_protocol(alice: ModulatorSpec, bob: ModulatorSpec, protocol: str) -> ProtocolFeasibility:
    """Verdict for ``protocol`` at the given biases; the drive indices are free."""
    shift = _required_shift(protocol)
    a, b, a_zero, b_zero = coeffs = _coeffs_at(alice.kind, bob.kind, alice.psi, bob.psi)
    if _in_class(coeffs, shift):
        return ProtocolFeasibility(protocol, True, "as-configured", abs(b) / abs(a), "none")
    reason = "zero-visibility" if a_zero or b_zero else "theta-mismatch"
    return ProtocolFeasibility(protocol, False, "as-configured", None, reason)


# --- bias-constraint families --------------------------------------------
#
# Candidate bias families probed by classify_pair, in order of preference,
# then the two loci where a coefficient may die.  Each maps (free bias t,
# integer n) -> (psi_a, psi_b), for numbers or broadcastable arrays alike.

_N_RANGE = np.arange(-2, 3)


class _Family(NamedTuple):
    label: str
    points: Callable[[float, int], tuple[float, float]]


_FAMILIES = (
    _Family("psi_a = n*pi", lambda t, n: (n * math.pi, t)),
    _Family("psi_b = n*pi", lambda t, n: (t, n * math.pi)),
    _Family("psi_b = psi_a + n*pi", lambda t, n: (t, t + n * math.pi)),
    _Family("psi_b = psi_a + (2n+1)*pi/2", lambda t, n: (t, t + (2 * n + 1) * 0.5 * math.pi)),
    _Family("psi_a = (2n+1)*pi/2", lambda t, n: ((2 * n + 1) * 0.5 * math.pi, t)),
    _Family("psi_b = (2n+1)*pi/2", lambda t, n: (t, (2 * n + 1) * 0.5 * math.pi)),
)
_ZERO_VIS = slice(4, None)
_FEASIBLE_FAMILIES, _ZERO_VIS_FAMILIES = _FAMILIES[:4], _FAMILIES[_ZERO_VIS]
# Where the reference check samples each feasible constraint, at free bias t.
_SAMPLE_POINTS = {family.label: family.points for family in _FEASIBLE_FAMILIES}
_SAMPLE_POINTS["any"] = lambda t, n: (t, t * 0.8 + 0.1)


def _bias_grid(psi_grid) -> np.ndarray:
    """The bias grid as a float array; rejects all but a non-empty 1-D grid of finite reals."""
    try:
        psi = np.array(psi_grid, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"psi_grid must hold real numbers: {exc}") from exc
    if psi.ndim != 1 or psi.size == 0:
        raise InvalidParameterError(f"psi_grid must be non-empty and 1-D, got shape {psi.shape}")
    bad = psi[~np.isfinite(psi)]
    if bad.size:
        raise InvalidParameterError(f"psi must be finite, got {float(bad[0])!r}")
    return psi


def classify_pair(
    alice_kind: ModulatorKind,
    bob_kind: ModulatorKind,
    psi_grid: Sequence[float] | np.ndarray,
) -> ClassificationRow:
    """Classify one kind pairing over a grid of generic biases.

    ``psi_grid`` is a 1-D sequence of generic bias samples; it must avoid
    exact singular biases (multiples of pi/2) unless those are being probed
    on purpose.  Everything is derived numerically from the interference
    coefficients; the canonical labels come from the reference table for
    readability only.
    """
    _check_kinds(alice_kind, bob_kind)
    psi = _bias_grid(psi_grid)
    n = psi.size
    u = np.exp(1j * psi)
    grid = _unit_coeffs(alice_kind, bob_kind, u[:, None], u)
    everywhere = {p: _in_class(grid, _required_shift(p)).all() for p in (B92, BB84)}
    del grid  # not held beside the lattices, which would raise the peak memory
    # Each family's (t, n) lattice, row-major, stacked: angles[side, family].
    angles = np.empty((2, len(_FAMILIES), n, _N_RANGE.size))
    for i, family in enumerate(_FAMILIES):
        angles[0, i], angles[1, i] = family.points(psi[:, None], _N_RANGE)
    lattice = _unit_coeffs(alice_kind, bob_kind, *np.exp(1j * angles))
    dead = (lattice[2] | lattice[3])[_ZERO_VIS].all(axis=(1, 2))
    # Just off a dead locus the offset must approach the required class.
    nudged = None
    if dead.any():
        nudged = _unit_coeffs(alice_kind, bob_kind, *np.exp(1j * (angles[:, _ZERO_VIS] + 1e-6)))

    def verdict(protocol: str) -> ProtocolFeasibility:
        shift = _required_shift(protocol)
        # The whole grid first, then each feasible family in order.
        if everywhere[protocol]:
            i, j = divmod(n * n // 3, n)
            _, ratio = evaluate_pair(alice_kind, bob_kind, psi[i], psi[j])
            return ProtocolFeasibility(protocol, True, "any", ratio, "none")
        in_class = _in_class(lattice, shift)
        for i, family in enumerate(_FEASIBLE_FAMILIES):
            if in_class[i].all():
                pa, pb = angles[:, i].reshape(2, -1)[:, in_class[i].size // 3]
                _, ratio = evaluate_pair(alice_kind, bob_kind, pa, pb)
                return ProtocolFeasibility(protocol, True, family.label, ratio, "none")
        # Infeasible: the phase-offset condition is unreachable outright, or
        # reachable only on a bias locus where a coefficient dies.
        for j, family in enumerate(_ZERO_VIS_FAMILIES):
            if dead[j] and _in_class(nudged, shift, 1e-3)[j].all():
                return ProtocolFeasibility(protocol, False, family.label, None, "zero-visibility")
        return ProtocolFeasibility(protocol, False, "none", None, "theta-mismatch")

    ref_bias = (float(psi[n // 3]), float(psi[(2 * n) // 3]))
    a, b, a_zero, b_zero = _coeffs_at(alice_kind, bob_kind, *ref_bias)
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
        b92=verdict(B92),
        bb84=verdict(BB84),
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
        ratio=lambda pa, pb: abs(np.cos(pa) / np.cos(pb)),
        b92=ReferenceVerdict(True, "psi_b = psi_a + n*pi", "none", lambda pa, pb: 1.0),
        bb84=ReferenceVerdict(
            True,
            "psi_b = psi_a + (2n+1)*pi/2",
            "none",
            lambda pa, pb: abs(np.cos(pa) / np.sin(pa)),
        ),
    ),
    (_AM, _AM): ReferenceRow(
        theta_label="0",
        ratio_label="|tan(psi_b)/tan(psi_a)|",
        theta=lambda pa, pb: 0.0,
        ratio=lambda pa, pb: abs(np.tan(pb) / np.tan(pa)),
        b92=ReferenceVerdict(True, "any", "none", lambda pa, pb: abs(np.tan(pb) / np.tan(pa))),
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
        ratio=lambda pa, pb: abs(np.tan(pb)),
        b92=ReferenceVerdict(False, "none", "theta-mismatch", None),
        bb84=ReferenceVerdict(True, "any", "none", lambda pa, pb: abs(np.tan(pb))),
    ),
    (_AM, _PM): ReferenceRow(
        theta_label="-pi/2",
        ratio_label="1/|tan(psi_a)|",
        theta=lambda pa, pb: -0.5 * math.pi,
        ratio=lambda pa, pb: 1.0 / abs(np.tan(pa)),
        b92=ReferenceVerdict(False, "none", "theta-mismatch", None),
        bb84=ReferenceVerdict(True, "any", "none", lambda pa, pb: 1.0 / abs(np.tan(pa))),
    ),
    (_UM, _PM): ReferenceRow(
        theta_label="-psi_a",
        ratio_label="2*|cos(psi_a)|",
        theta=lambda pa, pb: -pa,
        ratio=lambda pa, pb: 2.0 * abs(np.cos(pa)),
        b92=ReferenceVerdict(True, "psi_a = n*pi", "none", lambda pa, pb: 2.0),
        bb84=ReferenceVerdict(False, "psi_a = (2n+1)*pi/2", "zero-visibility", None),
    ),
    (_PM, _UM): ReferenceRow(
        theta_label="psi_b",
        ratio_label="1/(2*|cos(psi_b)|)",
        theta=lambda pa, pb: pb,
        ratio=lambda pa, pb: 1.0 / (2.0 * abs(np.cos(pb))),
        b92=ReferenceVerdict(True, "psi_b = n*pi", "none", lambda pa, pb: 0.5),
        bb84=ReferenceVerdict(False, "psi_b = (2n+1)*pi/2", "zero-visibility", None),
    ),
    (_UM, _AM): ReferenceRow(
        theta_label="pi/2 - psi_a",
        ratio_label="2*|cos(psi_a)*tan(psi_b)|",
        theta=lambda pa, pb: 0.5 * math.pi - pa,
        ratio=lambda pa, pb: 2.0 * abs(np.cos(pa) * np.tan(pb)),
        b92=ReferenceVerdict(False, "psi_a = (2n+1)*pi/2", "zero-visibility", None),
        bb84=ReferenceVerdict(
            True, "psi_a = n*pi", "none", lambda pa, pb: 2.0 * abs(np.tan(pb))
        ),
    ),
    (_AM, _UM): ReferenceRow(
        theta_label="psi_b - pi/2",
        ratio_label="1/(2*|tan(psi_a)*cos(psi_b)|)",
        theta=lambda pa, pb: pb - 0.5 * math.pi,
        ratio=lambda pa, pb: 1.0 / (2.0 * abs(np.tan(pa) * np.cos(pb))),
        b92=ReferenceVerdict(False, "psi_b = (2n+1)*pi/2", "zero-visibility", None),
        bb84=ReferenceVerdict(
            True, "psi_b = n*pi", "none", lambda pa, pb: 1.0 / (2.0 * abs(np.tan(pa)))
        ),
    ),
}

# The display order of the table rows is the reference table's order.
ROW_ORDER: tuple[tuple[ModulatorKind, ModulatorKind], ...] = tuple(REFERENCE_TABLE)


def _null_error(alice_kind, bob_kind, psi_a, psi_b) -> PhaseUndefinedError:
    return PhaseUndefinedError(
        f"{alice_kind.value}-{bob_kind.value}: an interference coefficient vanishes at "
        f"psi=({psi_a:.6f},{psi_b:.6f}); phase offset and index ratio undefined"
    )


def evaluate_pair(
    alice_kind: ModulatorKind, bob_kind: ModulatorKind, psi_a: float, psi_b: float
) -> tuple[float, float]:
    """Numeric (phase offset, unit-visibility index ratio) at given biases.

    Raises :class:`PhaseUndefinedError` where a coefficient vanishes.
    """
    _check_kinds(alice_kind, bob_kind)
    psi_a = _require_finite("psi_a", psi_a)
    psi_b = _require_finite("psi_b", psi_b)
    a, b, a_zero, b_zero = _coeffs_at(alice_kind, bob_kind, psi_a, psi_b)
    if a_zero or b_zero:
        raise _null_error(alice_kind, bob_kind, psi_a, psi_b)
    return phase_offset(a, b), abs(b) / abs(a)


def compare_row_with_reference(
    alice_kind: ModulatorKind,
    bob_kind: ModulatorKind,
    row: ClassificationRow,
    psi_grid: Sequence[float] | np.ndarray,
) -> list[str]:
    """Mismatch descriptions between a classified row and the reference.

    Checks the phase offset and index ratio over ``psi_grid`` x ``psi_grid``
    (expected on the principal branch) plus feasibility verdicts,
    constraints and failure reasons.  An empty list means full agreement.
    A grid or constrained point where a coefficient vanishes raises
    :class:`PhaseUndefinedError`.
    """
    _check_kinds(alice_kind, bob_kind)
    psi = _bias_grid(psi_grid)
    n = psi.size
    ref = REFERENCE_TABLE[(alice_kind, bob_kind)]
    name = f"{alice_kind.value}-{bob_kind.value}"
    u = np.exp(1j * psi)
    a, b, a_zero, b_zero = _unit_coeffs(alice_kind, bob_kind, u[:, None], u)
    null = np.flatnonzero(a_zero | b_zero)
    if null.size:
        i, j = divmod(null[0], n)
        raise _null_error(alice_kind, bob_kind, psi[i], psi[j])
    dev = np.abs(np.angle(b * a.conjugate() * np.exp(-1j * ref.theta(psi[:, None], psi))))
    theta_bad = dev > THETA_TOL
    ratio_bad = np.abs(np.abs(b) / np.abs(a) / ref.ratio(psi[:, None], psi) - 1.0) > THETA_TOL
    failures: list[str] = []
    for k in np.flatnonzero(theta_bad | ratio_bad):
        i, j = divmod(k, n)
        at = f"psi=({psi[i]:.6f},{psi[j]:.6f})"
        if theta_bad.flat[k]:
            failures.append(f"{name}: theta deviates {dev.flat[k]:.3e} at {at}")
        if ratio_bad.flat[k]:
            failures.append(f"{name}: ratio deviates at {at}")
    for proto, got, expect in (("B92", row.b92, ref.b92), ("BB84", row.bb84, ref.bb84)):
        checks = (
            ("feasible", got.feasible, expect.feasible),
            ("constraint", got.bias_constraint, expect.constraint),
            ("reason", got.failure_reason, expect.failure_reason),
        )
        failures += [f"{name}/{proto}: {k}={g!r}, expected {w!r}" for k, g, w in checks if g != w]
        if expect.feasible and expect.constrained_ratio is not None:
            for t in (float(psi[0]), float(psi[n // 2]), float(psi[-1])):
                pa, pb = _SAMPLE_POINTS[expect.constraint](t, 0)
                _, ratio_num = evaluate_pair(alice_kind, bob_kind, pa, pb)
                if abs(ratio_num / expect.constrained_ratio(pa, pb) - 1.0) > THETA_TOL:
                    failures.append(f"{name}/{proto}: constrained ratio mismatch at t={t:.6f}")
    return failures
