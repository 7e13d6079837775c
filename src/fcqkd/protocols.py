"""Protocol feasibility analysis for the nine tandem modulator pairings.

A pairing supports B92 when unit visibility is reachable by trimming the
index ratio m_A/m_B and the intrinsic phase offset is a multiple of pi; it
supports BB84 when the offset is an odd multiple of pi/2 instead.  Under
those conditions the counters follow

    B92:   P(upper) = P(lower) = cos^2(dphi/2)
    BB84:  P(upper) = cos^2(dphi/2),  P(lower) = sin^2(dphi/2)

with dphi = phi_b - phi_a + link_phase + offset.

:func:`classify_pair` derives feasibility, bias constraints and required
index ratios purely numerically from the interference coefficients.  They
are a = C_B S_A and b = C_A S_B, with C a side's carrier amplitude and S
its sideband factor, so every test is a product of one value per side.
Each side's values are evaluated once per distinct bias: the grid biases
t, t + 1e-6 (just off a dead locus) and t plus each of the ten family
angles; at the angles themselves they are module constants.  The n x n
bias grid is then one outer product of two n-vectors per protocol, and
each candidate family is tested in turn on its (t, n) lattice, a product
of the same vectors.  Every reported number comes from the scalar
evaluation at its point.  :func:`compare_row_with_reference` checks a
row, from the same per-side values, against the hand-derived closed forms
of ``REFERENCE_TABLE``, as the ``table2`` command and the acceptance suite do.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidParameterError, PhaseUndefinedError
from .link import _ZERO_RTOL, B92, BB84, _coefficients, phase_offset
from .modulator import (
    ModulatorKind,
    ModulatorSpec,
    _require_finite,
    _require_instances,
    _require_kinds,
    _side,
)

THETA_TOL = 1e-9


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
    if isinstance(protocol, str):
        if protocol == B92:
            return 0.0
        if protocol == BB84:
            return 0.5 * math.pi
    raise InvalidParameterError(f"unknown protocol {protocol!r}, expected B92 or BB84")


def _coeffs_at(alice_kind, bob_kind, psi_a: float, psi_b: float):
    """Scalar coefficients at one bias pair; every reported number comes from here."""
    return _coefficients(
        (alice_kind, 1.0, cmath.exp(1j * psi_a)), (bob_kind, 1.0, cmath.exp(1j * psi_b))
    )


def check_protocol(alice: ModulatorSpec, bob: ModulatorSpec, protocol: str) -> ProtocolFeasibility:
    """Verdict for ``protocol`` at the given biases; the drive indices are free."""
    shift = _required_shift(protocol)
    _require_instances(ModulatorSpec, "alice and bob", alice, bob)
    a, b, a_zero, b_zero = _coeffs_at(alice.kind, bob.kind, alice.psi, bob.psi)
    if a_zero or b_zero:
        return ProtocolFeasibility(protocol, False, "as-configured", None, "zero-visibility")
    # arg z = arg b - arg a - shift is within THETA_TOL of a multiple of pi
    # exactly when |Im z| <= tan(THETA_TOL) |Re z|
    z = b * a.conjugate() * cmath.exp(-1j * shift)
    if abs(z.imag) <= math.tan(THETA_TOL) * abs(z.real):
        return ProtocolFeasibility(protocol, True, "as-configured", abs(b) / abs(a), "none")
    return ProtocolFeasibility(protocol, False, "as-configured", None, "theta-mismatch")


# --- bias-constraint families --------------------------------------------
#
# Candidate bias families probed by classify_pair, in order of preference,
# then the two loci where a coefficient may die.  Each fixes one bias, or
# Bob's offset from Alice's, to one of five angles (n*pi or (2n+1)*pi/2,
# for n in _N_RANGE) and leaves the other bias t free.

_N_RANGE = np.arange(-2, 3)
_ANGLES = np.concatenate((_N_RANGE * math.pi, (_N_RANGE + 0.5) * math.pi))
# A dead locus is probed this far off it, at this looser offset tolerance.
_NUDGE = 1e-6
_NUDGE_TOL = 1e-3


class _Family(NamedTuple):
    label: str
    alice: str  # where Alice's bias sits: t, or at "pi" (n*pi) or "half" ((2n+1)*pi/2)
    bob: str  # where Bob's sits: those, or t plus an angle ("t+pi", "t+half")
    point: Callable[[float, int], tuple[float, float]]  # (psi_a, psi_b) at t and n


_FAMILIES = (
    _Family("psi_a = n*pi", "pi", "t", lambda t, n: (n * math.pi, t)),
    _Family("psi_b = n*pi", "t", "pi", lambda t, n: (t, n * math.pi)),
    _Family("psi_b = psi_a + n*pi", "t", "t+pi", lambda t, n: (t, t + n * math.pi)),
    _Family(
        "psi_b = psi_a + (2n+1)*pi/2", "t", "t+half", lambda t, n: (t, t + (n + 0.5) * math.pi)
    ),
    _Family("psi_a = (2n+1)*pi/2", "half", "t", lambda t, n: ((n + 0.5) * math.pi, t)),
    _Family("psi_b = (2n+1)*pi/2", "t", "half", lambda t, n: (t, (n + 0.5) * math.pi)),
)
_FEASIBLE_FAMILIES, _ZERO_VIS_FAMILIES = _FAMILIES[:4], _FAMILIES[4:]
# Where the reference check samples each feasible constraint, at free bias t.
_SAMPLE_POINTS = {family.label: family.point for family in _FEASIBLE_FAMILIES}
_SAMPLE_POINTS["any"] = lambda t, n: (t, t * 0.8 + 0.1)


# --- per-side factors ------------------------------------------------------
#
# With C a side's carrier amplitude and S its sideband factor, a = C_B S_A
# and b = C_A S_B, so b conj(a) = F_A(psi_a) conj(F_B(psi_b)) with
# F = C conj(S), |a| = |S_A| |C_B| and |b| = |C_A| |S_B|: every test is a
# product of one value per side.  A side is (its factor of b conj(a), |C|, |S|):
# F for Alice, conj(F) for Bob.


def _factors(kind: ModulatorKind, u) -> tuple:
    """(C conj(S), |C|, |S|) of ``kind`` at unit drive index for bias phasors u."""
    c, s, _ = _side(kind, 1.0, u)
    return c * s.conjugate(), np.abs(c), np.abs(s)


def _at(side: tuple, key) -> tuple:
    """A side's values at ``key``, an index into each of its arrays."""
    return tuple(values[key] for values in side)


def _angle_sides(kind: ModulatorKind) -> tuple[tuple, tuple]:
    """Alice's and Bob's side of ``kind`` at the ten angles, then at the last five nudged."""
    angles = np.concatenate((_ANGLES, _ANGLES[5:] + _NUDGE))
    f, c, s = _factors(kind, np.exp(1j * angles))
    return (f, c, s), (f.conjugate(), c, s)


_ANGLE_SIDES = {kind: _angle_sides(kind) for kind in ModulatorKind}
# The zero rule's bound on |a| (Alice's kind) or |b| (Bob's kind), at unit drive.
_ZERO_BOUND = {kind: _ZERO_RTOL * _side(kind, 1.0, 1.0)[2] for kind in ModulatorKind}
# Offsets from the grid bias t of the columns each call evaluates: t, the
# nudged t, then t plus each angle.
_OFFSETS = np.concatenate(([0.0, _NUDGE], _ANGLES))
# A side's values by (where, nudged), as (source, index) into the call's
# columns of _OFFSETS (source 0) or the kind's angle constants (source 1):
# (n, 1) and (n, 5) columns and rows of five, which broadcast to (t, n).
_WHERE = {
    ("t", False): (0, np.s_[:, :1]),
    ("t", True): (0, np.s_[:, 1:2]),
    ("t+pi", False): (0, np.s_[:, 2:7]),
    ("t+half", False): (0, np.s_[:, 7:]),
    ("pi", False): (1, np.s_[:5]),
    ("half", False): (1, np.s_[5:10]),
    ("half", True): (1, np.s_[10:]),
}


def _near_class(z: np.ndarray, tol: float) -> np.ndarray:
    """Elementwise |Im z| <= tan(tol) |Re z|, as in :func:`check_protocol`; overwrites ``z``."""
    parts = np.abs(z.view(np.float64), out=z.view(np.float64))
    re = parts[..., 0::2]
    re *= math.tan(tol)
    return parts[..., 1::2] <= re


def _zero(alice: tuple, bob: tuple, bounds: tuple[float, float]):
    """The zero rule over two broadcast sides: where |a| or |b| is at most its bound.

    On sides of the least |C| and |S| it tells whether the rule holds
    anywhere on their grid: rounding is monotonic, so the least product of
    non-negative factors is the product of the least factors.
    """
    (_, c_a, s_a), (_, c_b, s_b) = alice, bob
    return (s_a * c_b <= bounds[0]) | (c_a * s_b <= bounds[1])


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
    _require_kinds(alice_kind, bob_kind)
    psi = _bias_grid(psi_grid)
    n = psi.size
    bounds = (_ZERO_BOUND[alice_kind], _ZERO_BOUND[bob_kind])
    # Alice's side in the columns of _OFFSETS she needs, Bob's in all of them.
    u = np.exp(1j * (psi[:, None] + _OFFSETS))
    alice = _factors(alice_kind, u[:, :2])
    bob = _factors(bob_kind, u)
    del u
    np.conjugate(bob[0], out=bob[0])
    sources = ((alice, _ANGLE_SIDES[alice_kind][0]), (bob, _ANGLE_SIDES[bob_kind][1]))
    alice_t, bob_t = _at(alice, np.s_[:, 0]), _at(bob, np.s_[:, 0])
    zero_on_grid = _zero(*[(None, c.min(), s.min()) for _, c, s in (alice_t, bob_t)], bounds)

    def lattice(family: _Family, nudged: bool) -> tuple[tuple, tuple]:
        """Alice's and Bob's values on ``family``'s (t, n) lattice, as broadcast sides."""
        (i, a_key), (j, b_key) = _WHERE[family.alice, nudged], _WHERE[family.bob, nudged]
        return _at(sources[0][i], a_key), _at(sources[1][j], b_key)

    def passes(family: _Family, rotation: complex, nudged: bool, tol: float) -> bool:
        """Offset in class on the whole lattice and, tested only then, no coefficient zero."""
        a, b = lattice(family, nudged)
        return _near_class((a[0] * rotation) * b[0], tol).all() and not _zero(a, b, bounds).any()

    def verdict(protocol: str) -> ProtocolFeasibility:
        rotation = cmath.exp(-1j * _required_shift(protocol))
        # The whole grid first, then each feasible family in order.
        if not zero_on_grid:
            # an outer product as a matmul: a broadcast product would also
            # allocate iteration buffers the size of the grid
            z = (alice_t[0] * rotation)[:, None] @ bob_t[0][None, :]
            if _near_class(z, THETA_TOL).all():
                i, j = divmod(n * n // 3, n)
                _, ratio = evaluate_pair(alice_kind, bob_kind, psi[i], psi[j])
                return ProtocolFeasibility(protocol, True, "any", ratio, "none")
            del z
        for family in _FEASIBLE_FAMILIES:
            if passes(family, rotation, False, THETA_TOL):
                i, k = divmod(5 * n // 3, 5)
                _, ratio = evaluate_pair(alice_kind, bob_kind, *family.point(psi[i], k - 2))
                return ProtocolFeasibility(protocol, True, family.label, ratio, "none")
        # Infeasible: the phase-offset condition is unreachable outright, or
        # reachable only on a bias locus where a coefficient dies.  Just off
        # a dead locus the offset must approach the required class.
        for family in _ZERO_VIS_FAMILIES:
            dead = _zero(*lattice(family, False), bounds).all()
            if dead and passes(family, rotation, True, _NUDGE_TOL):
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
    _require_kinds(alice_kind, bob_kind)
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
    _require_kinds(alice_kind, bob_kind)
    if not isinstance(row, ClassificationRow):
        raise InvalidParameterError(f"row must be a ClassificationRow, got {row!r}")
    psi = _bias_grid(psi_grid)
    n = psi.size
    ref = REFERENCE_TABLE[(alice_kind, bob_kind)]
    name = f"{alice_kind.value}-{bob_kind.value}"
    u = np.exp(1j * psi)
    alice, bob = _factors(alice_kind, u), _factors(bob_kind, u)
    bounds = (_ZERO_BOUND[alice_kind], _ZERO_BOUND[bob_kind])
    if _zero(*[(None, c.min(), s.min()) for _, c, s in (alice, bob)], bounds):
        null = np.flatnonzero(_zero(_at(alice, np.s_[:, None]), bob, bounds))
        i, j = divmod(null[0], n)
        raise _null_error(alice_kind, bob_kind, psi[i], psi[j])
    # |b| / |a| = (|C_A| / |S_A|) (|S_B| / |C_B|) and arg(b conj(a)) = arg F_A - arg F_B,
    # from one vector per side; the sides go before the n x n work
    ratio_a, ratio_b = alice[1] / alice[2], bob[2] / bob[1]
    phase_a, phase_b = np.angle(alice[0]), np.angle(bob[0])
    del u, alice, bob
    ratio = ratio_a[:, None] @ ratio_b[None, :]
    ratio /= ref.ratio(psi[:, None], psi)
    ratio -= 1.0
    ratio_bad = np.abs(ratio, out=ratio) > THETA_TOL
    del ratio
    # the offset less the reference's, wrapped into [-pi, pi)
    dev = np.subtract.outer(phase_a, phase_b)
    dev -= ref.theta(psi[:, None], psi)
    dev += math.pi
    np.remainder(dev, math.tau, out=dev)
    dev -= math.pi
    theta_bad = np.abs(dev, out=dev) > THETA_TOL
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
