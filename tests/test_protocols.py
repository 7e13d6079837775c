import cmath
import dataclasses
import math
import tracemalloc
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcqkd import (
    B92,
    BB84,
    FcqkdError,
    InvalidParameterError,
    LinkSpec,
    ModulatorKind,
    ModulatorSpec,
    PhaseUndefinedError,
    classify_pair,
    interference_coeffs,
    make_modulator,
    protocols,
    sideband_powers,
    sideband_powers_direct,
)
from fcqkd.link import _coefficients, phase_offset, visibility
from fcqkd.modulator import _require_finite
from fcqkd.protocols import (
    REFERENCE_TABLE,
    ROW_ORDER,
    ClassificationRow,
    ProtocolFeasibility,
    check_protocol,
    compare_row_with_reference,
    evaluate_pair,
)

import first_order

PM, AM, UM = ModulatorKind.PM, ModulatorKind.AM, ModulatorKind.UM

GRID = [0.08 + (math.pi / 2 - 0.16) * i / 11 for i in range(12)]


def _unit_coeffs(alice_kind, bob_kind, u_a, u_b):
    """The closed form's coefficients and zero flags at unit drive index for bias phasors."""
    return _coefficients((alice_kind, 1.0, u_a), (bob_kind, 1.0, u_b))


class TestPointChecks:
    def test_pm_pm_b92(self):
        res = check_protocol(make_modulator(PM, 0.1), make_modulator(PM, 0.1), B92)
        assert res.feasible
        assert res.index_ratio == pytest.approx(1.0, rel=1e-12)

    def test_um_pm_b92_ratio_two(self):
        res = check_protocol(make_modulator(UM, 0.1, 0.0), make_modulator(PM, 0.1), B92)
        assert res.feasible
        assert res.index_ratio == pytest.approx(2.0, rel=1e-12)

    def test_um_am_b92_zero_visibility(self):
        for psi_b in (0.3, 0.7, 1.2):
            res = check_protocol(
                make_modulator(UM, 0.1, math.pi / 2), make_modulator(AM, 0.1, psi_b), B92
            )
            assert not res.feasible
            assert res.failure_reason == "zero-visibility"

    def test_pm_am_bb84_tan_ratio(self):
        for psi_b in (0.3, 0.9, 1.4):
            res = check_protocol(
                make_modulator(PM, 0.1), make_modulator(AM, 0.1, psi_b), BB84
            )
            assert res.feasible
            assert res.index_ratio == pytest.approx(abs(math.tan(psi_b)), rel=1e-12)

    def test_am_am_bb84_theta_mismatch(self):
        res = check_protocol(
            make_modulator(AM, 0.1, 0.4), make_modulator(AM, 0.1, 0.9), BB84
        )
        assert not res.feasible
        assert res.failure_reason == "theta-mismatch"

    def test_um_am_bb84_ratio(self):
        res = check_protocol(
            make_modulator(UM, 0.1, 0.0), make_modulator(AM, 0.1, math.pi / 4), BB84
        )
        assert res.feasible
        assert res.index_ratio == pytest.approx(2.0, rel=1e-12)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(InvalidParameterError, match="E91"):
            check_protocol(make_modulator(PM, 0.1), make_modulator(PM, 0.1), "E91")


class TestClassification:
    def test_um_um_row(self):
        row = classify_pair(UM, UM, GRID)
        assert row.b92.feasible and row.b92.bias_constraint == "psi_b = psi_a + n*pi"
        assert row.bb84.feasible
        assert row.bb84.bias_constraint == "psi_b = psi_a + (2n+1)*pi/2"

    def test_am_pm_row(self):
        row = classify_pair(AM, PM, GRID)
        assert not row.b92.feasible and row.b92.failure_reason == "theta-mismatch"
        assert row.bb84.feasible and row.bb84.bias_constraint == "any"
        pa = 0.6
        _, ratio = evaluate_pair(AM, PM, pa, 0.0)
        assert ratio == pytest.approx(1.0 / math.tan(pa), rel=1e-12)

    def test_pm_um_row(self):
        row = classify_pair(PM, UM, GRID)
        assert row.b92.feasible and row.b92.bias_constraint == "psi_b = n*pi"
        assert row.b92.index_ratio == pytest.approx(0.5, rel=1e-12)
        assert not row.bb84.feasible
        assert row.bb84.failure_reason == "zero-visibility"
        assert row.bb84.bias_constraint == "psi_b = (2n+1)*pi/2"

    def test_only_um_um_supports_both(self):
        both = [
            (a.value, b.value)
            for a, b in ROW_ORDER
            for row in [classify_pair(a, b, GRID)]
            if row.b92.feasible and row.bb84.feasible
        ]
        assert both == [("UM", "UM")]

    def test_every_row_matches_reference(self):
        for a, b in ROW_ORDER:
            row = classify_pair(a, b, GRID)
            assert compare_row_with_reference(a, b, row, GRID) == []

    def test_grid_mismatches_listed_point_by_point(self, monkeypatch):
        # row-major over the grid, theta before ratio at each point
        key = (UM, UM)
        ref = REFERENCE_TABLE[key]
        monkeypatch.setitem(REFERENCE_TABLE, key, dataclasses.replace(
            ref,
            theta=lambda pa, pb: ref.theta(pa, pb) + 0.1,
            ratio=lambda pa, pb: ref.ratio(pa, pb) * 1.1,
        ))
        grid = [0.3, 0.7]
        row = classify_pair(UM, UM, grid)
        grid_failures = [
            f for f in compare_row_with_reference(UM, UM, row, grid) if "deviates" in f
        ]
        expected = []
        for pa in grid:
            for pb in grid:
                expected += [
                    f"UM-UM: theta deviates 1.000e-01 at psi=({pa:.6f},{pb:.6f})",
                    f"UM-UM: ratio deviates at psi=({pa:.6f},{pb:.6f})",
                ]
        assert grid_failures == expected

    def test_ratio_formulas_hold_beyond_principal_branch(self):
        # |.| ratio forms stay valid on (0, pi) away from the pi/2 poles
        wide = [0.15, 0.6, 1.1, 1.9, 2.4, 2.9]
        for a, b in ROW_ORDER:
            ref = REFERENCE_TABLE[(a, b)]
            for pa in wide:
                for pb in wide:
                    _, ratio = evaluate_pair(a, b, pa, pb)
                    assert ratio == pytest.approx(ref.ratio(pa, pb), rel=1e-9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            classify_pair(UM, UM, [])

    def test_empty_grid_is_a_parameter_error_for_both_callers(self):
        row = classify_pair(UM, UM, GRID)
        with pytest.raises(InvalidParameterError, match="non-empty"):
            classify_pair(UM, UM, [])
        with pytest.raises(InvalidParameterError, match="non-empty"):
            compare_row_with_reference(UM, UM, row, [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_bias_rejected(self, bad):
        # a NaN coefficient would compare as "no deviation" and pass silently
        grid = GRID[:3] + [bad]
        row = classify_pair(UM, AM, GRID)
        with pytest.raises(InvalidParameterError):
            classify_pair(UM, AM, grid)
        with pytest.raises(InvalidParameterError):
            evaluate_pair(UM, AM, 0.3, bad)
        with pytest.raises(InvalidParameterError):
            compare_row_with_reference(UM, AM, row, grid)

    @pytest.mark.parametrize("bad", ["0.3", "x", None, True, 1j, np.array([0.3, 0.5]), 10**400])
    def test_non_real_bias_rejected_by_evaluate_pair(self, bad):
        for psi_a, psi_b in ((bad, 0.5), (0.3, bad)):
            with pytest.raises(InvalidParameterError, match="psi_"):
                evaluate_pair(UM, AM, psi_a, psi_b)

    @pytest.mark.parametrize("pairing", ROW_ORDER, ids=lambda p: f"{p[0].value}-{p[1].value}")
    def test_any_one_dimensional_sequence_gives_the_same_row(self, pairing):
        # an ndarray grid used to raise numpy's "truth value ... ambiguous"
        alice_kind, bob_kind = pairing
        grid = np.linspace(0.1, 1.4, 8)
        row = classify_pair(alice_kind, bob_kind, grid.tolist())
        failures = compare_row_with_reference(alice_kind, bob_kind, row, grid.tolist())
        for same in (tuple(grid.tolist()), grid, [str(psi) for psi in grid]):
            assert repr(classify_pair(alice_kind, bob_kind, same)) == repr(row)
            assert compare_row_with_reference(alice_kind, bob_kind, row, same) == failures

    @pytest.mark.parametrize(
        "grid", [np.empty(0), [[0.3, 0.5]], np.zeros((2, 2)), 0.3, ["abc"], [0.3, 1j]],
        ids=["empty", "nested", "2-D", "scalar", "text", "complex"],
    )
    def test_malformed_grid_is_a_parameter_error(self, grid):
        row = classify_pair(UM, AM, GRID)
        with pytest.raises(InvalidParameterError, match="psi_grid"):
            classify_pair(UM, AM, grid)
        with pytest.raises(InvalidParameterError, match="psi_grid"):
            compare_row_with_reference(UM, AM, row, grid)

    def test_builds_no_modulator_specs(self, monkeypatch):
        built = []
        original = ModulatorSpec.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(ModulatorSpec, "__post_init__", counting)
        for a, b in ROW_ORDER:
            row = classify_pair(a, b, GRID)
            assert compare_row_with_reference(a, b, row, GRID) == []
        assert built == []

    def test_one_verdict_per_protocol(self, monkeypatch):
        built = []
        original = protocols.ProtocolFeasibility

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(protocols, "ProtocolFeasibility", counting)
        for a, b in ROW_ORDER:
            row = classify_pair(a, b, GRID)
            assert len(built) <= 2
            built.clear()
            assert compare_row_with_reference(a, b, row, GRID) == []
            assert built == []


# Exact multiples of pi/2 put a coefficient at its null; other biases are
# kept 1e-6 away from them so no point sits at the edge of the zero rule.
_NULL_BIASES = [k * 0.5 * math.pi for k in range(-2, 3)]
_BIAS = st.one_of(
    st.sampled_from(_NULL_BIASES),
    st.floats(min_value=-4.0, max_value=4.0).filter(
        lambda x: min(abs(x - p) for p in _NULL_BIASES) > 1e-6
    ),
)


class TestArrayPath:
    @given(
        st.sampled_from(ROW_ORDER),
        st.sampled_from([B92, BB84]),
        st.lists(st.tuples(_BIAS, _BIAS), min_size=1, max_size=5),
    )
    def test_array_coefficients_and_verdicts_match_scalar(self, pairing, protocol, points):
        alice_kind, bob_kind = pairing
        pa, pb = np.array(points).T
        coeffs = _unit_coeffs(alice_kind, bob_kind, np.exp(1j * pa), np.exp(1j * pb))
        in_class = first_order.in_class(
            coeffs, protocols._required_shift(protocol), protocols.THETA_TOL
        )
        for i, (psi_a, psi_b) in enumerate(points):
            a, b, a_zero, b_zero = protocols._coeffs_at(alice_kind, bob_kind, psi_a, psi_b)
            assert (coeffs[2][i], coeffs[3][i]) == (a_zero, b_zero)
            assert abs(coeffs[0][i] - a) <= 1e-15 * abs(a)
            assert abs(coeffs[1][i] - b) <= 1e-15 * abs(b)
            verdict = check_protocol(
                make_modulator(alice_kind, 0.1, psi_a), make_modulator(bob_kind, 0.1, psi_b),
                protocol,
            )
            assert in_class[i] == verdict.feasible


class TestKindChecks:
    @pytest.mark.parametrize("kinds", [("UM", AM), (AM, "UM"), (None, PM), (PM, 3)])
    @pytest.mark.parametrize("entry", ["classify_pair", "evaluate_pair", "compare_row"])
    def test_unknown_kind_is_a_typed_error(self, entry, kinds):
        grid = [0.3, 0.5]
        calls = {
            "classify_pair": lambda: classify_pair(*kinds, grid),
            "evaluate_pair": lambda: evaluate_pair(*kinds, 0.3, 0.5),
            "compare_row": lambda: compare_row_with_reference(
                *kinds, classify_pair(UM, AM, grid), grid
            ),
        }
        with pytest.raises(InvalidParameterError, match="unknown modulator kind"):
            calls[entry]()


class TestNullRule:
    def test_evaluate_pair_at_a_null_raises(self):
        # UM carrier vanishes at pi/2; the ratio used to come back as 1.56e16
        with pytest.raises(PhaseUndefinedError, match=r"UM-UM.*psi=\(0\.300000,1\.570796\)"):
            evaluate_pair(UM, UM, 0.3, math.pi / 2)

    @pytest.mark.parametrize("pairing", ROW_ORDER, ids=lambda p: f"{p[0].value}-{p[1].value}")
    def test_reference_check_raises_or_returns(self, pairing):
        # 0.0 is a null of AM's sideband; UM-UM's BB84 constrained point (0, pi/2)
        # is a null of UM's carrier, where the reference ratio divides by zero.
        alice_kind, bob_kind = pairing
        grid = [0.0, 0.5, 1.0]
        row = classify_pair(alice_kind, bob_kind, grid)
        try:
            compare_row_with_reference(alice_kind, bob_kind, row, grid)
        except PhaseUndefinedError as exc:
            assert f"{alice_kind.value}-{bob_kind.value}" in str(exc)
        else:
            assert pairing != (UM, UM)


class TestFringeLaws:
    def test_bb84_fringes(self):
        # unit-visibility BB84 pairing obeys the complementary fringe pair
        alice = make_modulator(UM, 0.1, 0.0)
        link = LinkSpec(rf_frequency=1.0, link_phase=0.8)
        offset = math.pi / 2
        for k in range(16):
            target = math.tau * k / 16
            bob = make_modulator(
                AM, 0.05, math.pi / 4, target - link.link_phase - offset
            )
            p_up, p_low = sideband_powers(alice, bob, link)
            assert p_up == pytest.approx(math.cos(target / 2) ** 2, abs=1e-12)
            assert p_low == pytest.approx(math.sin(target / 2) ** 2, abs=1e-12)

    def test_b92_fringes(self):
        alice = make_modulator(AM, 0.1, math.pi / 4)
        link = LinkSpec(rf_frequency=1.0, link_phase=0.2)
        for k in range(16):
            target = math.tau * k / 16
            bob = make_modulator(AM, 0.1, math.pi / 4, target - link.link_phase)
            p_up, p_low = sideband_powers(alice, bob, link)
            assert p_up == pytest.approx(math.cos(target / 2) ** 2, abs=1e-12)
            assert p_low == pytest.approx(math.cos(target / 2) ** 2, abs=1e-12)


# --- the per-candidate classifier, kept as the oracle for the stacked one ---
#
# The loop below and the reference check after it are the implementation
# that evaluated each candidate family separately, once per protocol, on
# broadcast angle grids.  The families are copied too, so a change to the
# package's families shows wherever it changes a verdict.


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

_N_RANGE = np.arange(-2, 3)
_required_shift = protocols._required_shift
_coeffs_at = protocols._coeffs_at
_null_error = protocols._null_error


def _bias_grid(psi_grid: list[float]) -> np.ndarray:
    """The bias grid as an array; rejects an empty grid or a non-finite bias."""
    if not psi_grid:
        raise InvalidParameterError("psi_grid must be non-empty")
    return np.array([_require_finite("psi", psi) for psi in psi_grid])


def _classify_protocol(alice_kind, bob_kind, protocol: str, psi: np.ndarray):
    shift = _required_shift(protocol)
    lattice = (psi[:, None], _N_RANGE)

    def coeffs(pa, pb):
        return _unit_coeffs(alice_kind, bob_kind, np.exp(1j * pa), np.exp(1j * pb))

    # The whole grid first, then each family's (t, n) lattice, row-major.
    candidates = [("any", (psi[:, None], psi))]
    candidates += [(family.label, family.points(*lattice)) for family in _FEASIBLE_FAMILIES]
    for label, points in candidates:
        pa, pb = np.broadcast_arrays(*points)
        if first_order.in_class(coeffs(pa, pb), shift, protocols.THETA_TOL).all():
            k = pa.size // 3
            _, ratio = evaluate_pair(alice_kind, bob_kind, pa.flat[k], pb.flat[k])
            return ProtocolFeasibility(protocol, True, label, ratio, "none")

    # Infeasible: decide whether the phase-offset condition is unreachable
    # outright, or reachable only on a bias locus where a coefficient dies.
    for family in _ZERO_VIS_FAMILIES:
        pa, pb = family.points(*lattice)
        _, _, a_zero, b_zero = coeffs(pa, pb)
        # Just off the locus the offset must approach the required class.
        nudged = coeffs(pa + 1e-6, pb + 1e-6)
        if np.all(a_zero | b_zero) and first_order.in_class(nudged, shift, 1e-3).all():
            return ProtocolFeasibility(protocol, False, family.label, None, "zero-visibility")
    return ProtocolFeasibility(protocol, False, "none", None, "theta-mismatch")


def reference_classify_pair(alice_kind, bob_kind, psi_grid):
    psi = _bias_grid(psi_grid)
    b92 = _classify_protocol(alice_kind, bob_kind, B92, psi)
    bb84 = _classify_protocol(alice_kind, bob_kind, BB84, psi)

    ref_bias = (psi_grid[len(psi_grid) // 3], psi_grid[(2 * len(psi_grid)) // 3])
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
        b92=b92,
        bb84=bb84,
    )


def reference_compare_row(alice_kind, bob_kind, row, psi_grid, tol=protocols.THETA_TOL):
    psi = _bias_grid(psi_grid)
    pa, pb = np.broadcast_arrays(psi[:, None], psi)
    ref = REFERENCE_TABLE[(alice_kind, bob_kind)]
    name = f"{alice_kind.value}-{bob_kind.value}"
    a, b, a_zero, b_zero = _unit_coeffs(alice_kind, bob_kind, np.exp(1j * pa), np.exp(1j * pb))
    null = np.flatnonzero(a_zero | b_zero)
    if null.size:
        raise _null_error(alice_kind, bob_kind, pa.flat[null[0]], pb.flat[null[0]])
    dev = np.abs(np.angle(b * a.conjugate() * np.exp(-1j * ref.theta(pa, pb))))
    theta_bad = dev > tol
    ratio_bad = np.abs(np.abs(b) / np.abs(a) / ref.ratio(pa, pb) - 1.0) > tol
    failures: list[str] = []
    for k in np.flatnonzero(theta_bad | ratio_bad):
        at = f"psi=({pa.flat[k]:.6f},{pb.flat[k]:.6f})"
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
            for t in (psi_grid[0], psi_grid[len(psi_grid) // 2], psi_grid[-1]):
                pa, pb = _constrained_point(expect.constraint, t)
                _, ratio_num = evaluate_pair(alice_kind, bob_kind, pa, pb)
                if abs(ratio_num / expect.constrained_ratio(pa, pb) - 1.0) > tol:
                    failures.append(f"{name}/{proto}: constrained ratio mismatch at t={t:.6f}")
    return failures


def _constrained_point(constraint: str, t: float) -> tuple[float, float]:
    if constraint == "any":
        return t, t * 0.8 + 0.1
    for family in _FEASIBLE_FAMILIES:
        if family.label == constraint:
            return family.points(t, 0)
    raise ValueError(f"no sample point rule for constraint {constraint!r}")


def _outcome(fn, *args):
    """The repr of what ``fn`` returns, or the type and message of what it raises."""
    try:
        return "returned", repr(fn(*args))
    except Exception as exc:  # the exception is the outcome
        return "raised", type(exc), str(exc)


# Grids anywhere in [-4, 4], exact multiples of pi/2 included, and jittered
# grids on the principal branch like the benchmark's.
_ANY_GRID = st.lists(_BIAS, min_size=1, max_size=40)
_PRINCIPAL_GRID = st.lists(st.floats(0.1, 0.9), min_size=1, max_size=40).map(
    lambda jitter: [
        0.03 + (math.pi / 2 - 0.06) / len(jitter) * (i + x) for i, x in enumerate(jitter)
    ]
)

# Grids near the dead loci: biases 10^k off an odd multiple of pi/2, k in
# [-7, -2], mixed with generic ones.  They reach the nudged test and the
# dead-locus verdicts on every pairing that has a dead locus (all but PM-PM).
_NEAR_NULL_GRID = st.lists(
    st.one_of(
        st.builds(
            lambda n, sign, k: (2 * n + 1) * 0.5 * math.pi + sign * 10.0**k,
            st.integers(-2, 1),
            st.sampled_from([-1.0, 1.0]),
            st.floats(-7.0, -2.0),
        ),
        _BIAS,
    ),
    min_size=1,
    max_size=40,
)


# Grids whose first bias sits k * THETA_TOL off a multiple of pi/2, k in
# [0.25, 4], then generic ones: the first lattice point of a test falls in
# or near the band that the first-point test leaves to the array rule.
# About half are that one bias alone: after generic biases the whole grid
# is seldom in class, so the band would seldom decide a verdict.
_BOUNDARY_GRID = st.builds(
    lambda n, sign, k, rest: [n * 0.5 * math.pi + sign * k * protocols.THETA_TOL, *rest],
    st.integers(-2, 2),
    st.sampled_from([-1.0, 1.0]),
    st.floats(0.25, 4.0),
    st.one_of(st.just([]), st.lists(_BIAS, max_size=39)),
)


class TestStackedEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(ROW_ORDER),
        st.one_of(_ANY_GRID, _PRINCIPAL_GRID, _NEAR_NULL_GRID, _BOUNDARY_GRID),
    )
    def test_matches_the_per_candidate_classifier(self, pairing, grid):
        alice_kind, bob_kind = pairing
        expected = _outcome(reference_classify_pair, alice_kind, bob_kind, grid)
        assert _outcome(classify_pair, alice_kind, bob_kind, grid) == expected
        if expected[0] == "raised":
            return
        row = classify_pair(alice_kind, bob_kind, grid)
        assert _outcome(compare_row_with_reference, alice_kind, bob_kind, row, grid) == (
            _outcome(reference_compare_row, alice_kind, bob_kind, row, grid)
        )

    def test_nudge_tolerance_at_1e_3(self):
        # AM-UM on a one-point grid at pi/2 - d.  Just off the dead locus
        # psi_a = (2n+1)pi/2 the B92 offset sits about d from its class, and
        # just off psi_b = (2n+1)pi/2 it sits 1e-6 away; the first locus is
        # reported only while d is inside the tolerance.  Precisely, the
        # first offset is d - 1e-6, the nudge step: the last two cases put it
        # at 0.9995e-3 and 1.004e-3, so a step of 1e-7 or 1e-5 swaps one.
        for d, label in (
            (3e-4, "psi_a = (2n+1)*pi/2"),
            (3e-3, "psi_b = (2n+1)*pi/2"),
            (1.0005e-3, "psi_a = (2n+1)*pi/2"),
            (1.005e-3, "psi_b = (2n+1)*pi/2"),
        ):
            verdict = classify_pair(AM, UM, [0.5 * math.pi - d]).b92
            assert (verdict.bias_constraint, verdict.failure_reason) == (label, "zero-visibility")

    def test_each_side_evaluated_once_per_call(self, monkeypatch):
        shapes = []
        original = protocols._factors

        def counting(kind, u):
            shapes.append(u.shape)
            return original(kind, u)

        monkeypatch.setattr(protocols, "_factors", counting)
        n = len(GRID)
        for alice_kind, bob_kind in ROW_ORDER:
            row = classify_pair(alice_kind, bob_kind, GRID)
            # Alice at t and t + 1e-6, Bob there and at t plus each of the ten
            # family angles; both sides at the angles themselves are constants
            assert shapes == [(n, 2), (n, 12)]
            shapes.clear()
            assert compare_row_with_reference(alice_kind, bob_kind, row, GRID) == []
            assert shapes == [(n,), (n,)]  # Alice's side, then Bob's
            shapes.clear()


class TestThresholdBoundaries:
    @pytest.mark.parametrize("delta, inside", [(3e-10, True), (3e-9, False)])
    def test_offset_tolerance_is_1e_9(self, delta, inside):
        # UM-UM's offset is psi_b - psi_a, so these biases sit delta off the
        # B92 class, 3x inside or outside THETA_TOL; at 10x the tolerance
        # either way one of the two cases flips, on the scalar and array paths.
        alice, bob = make_modulator(UM, 0.1, 0.5), make_modulator(UM, 0.1, 0.5 + delta)
        assert check_protocol(alice, bob, B92).feasible is inside
        row = classify_pair(UM, UM, [0.5, 0.5 + delta])
        assert row.b92.bias_constraint == ("any" if inside else "psi_b = psi_a + n*pi")

    @pytest.mark.parametrize("psi, label", [(0.75e-9, "any"), (1.5e-9, "psi_a = n*pi")])
    def test_first_point_margin_defers_to_the_array_rule(self, psi, label):
        # UM-PM's offset is -psi_a, so a one-point grid sits psi off the B92
        # class.  0.75e-9 is inside THETA_TOL and 1.5e-9 outside it, both
        # inside the first-point test's margin of 2: the array rule decides
        # both, where a margin under 0.75 would reject the first.
        assert classify_pair(UM, PM, [psi]).b92.bias_constraint == label


def _products_near_the_boundary():
    """(F_A, F_B, shift, tol) whose product z = F_A F_B e^{-j shift} sits near
    |Im z| = tan(tol) |Re z|, near the margin 2 tan(tol) |Re z|, or near Re z = 0.
    """
    tol = st.sampled_from([protocols.THETA_TOL, protocols._NUDGE_TOL])
    # how far arg z lies from a multiple of pi, as k tan(tol) in |Im z| / |Re z|
    ratio = st.one_of(
        st.floats(0.5, 4.0),
        st.floats(1.0 - 1e-6, 1.0 + 1e-6),
        st.floats(2.0 - 1e-6, 2.0 + 1e-6),
    )
    near_class = st.builds(lambda k, tol: (math.atan(k * math.tan(tol)), tol), ratio, tol)
    # or this far from an odd multiple of pi/2
    near_half = st.builds(
        lambda e, tol: (0.5 * math.pi - 10.0**e, tol), st.floats(-17.0, -1.0), tol
    )

    def build(target, turns, sign, shift, mag_a, mag_b, arg_a):
        angle, tol = target
        arg_b = sign * angle + turns * math.pi + shift - arg_a
        f_a, f_b = cmath.rect(10.0**mag_a, arg_a), cmath.rect(10.0**mag_b, arg_b)
        return f_a, f_b, shift, tol

    return st.builds(
        build,
        st.one_of(near_class, near_half),
        st.integers(-2, 2),
        st.sampled_from([-1.0, 1.0]),
        st.sampled_from([protocols._required_shift(p) for p in (B92, BB84)]),
        st.floats(-9.0, 1.0),
        st.floats(-9.0, 1.0),
        st.floats(-math.pi, math.pi),
    )


class TestFirstPointRule:
    @settings(max_examples=500, deadline=None)
    @given(_products_near_the_boundary())
    def test_a_first_point_rejection_is_an_array_rejection(self, draw):
        # The first-point test may only reject what the array pass rejects:
        # the package's array rule and the first-order model's class rule.
        f_a, f_b, shift, tol = draw
        rotation = cmath.exp(-1j * shift)
        a, b = np.array([f_a]), np.array([f_b])
        if not protocols._rejects_first(a, b, rotation, tol):
            return
        assert not protocols._near_class((a * rotation) * b, tol).any()
        # b conj(a) = F_A F_B for a = conj(F_B) and b = F_A
        no = np.array([False])
        assert not first_order.in_class((b.conjugate(), a, no, no), shift, tol).any()


# --- relations between pairings: the mirror and a bias shift by pi ----------
#
# Each relation is checked across the two paths that build a pairing from
# its sides: the per-side factors of the classifier (protocols._factors) and
# the pair closed form (link._coefficients) that check_protocol and the
# fringe read.  A side wired to the wrong partner on either path breaks the
# relation between them, where a relation checked on one path alone would
# hold for a fault that is symmetric in the two sides.

# Constraint labels with psi_a and psi_b swapped.  The two relative families
# map to themselves: psi_a = psi_b + n*pi is psi_b = psi_a + (-n)*pi, and
# likewise for (2n+1)*pi/2 with n -> -n-1.
_MIRRORED = {
    "psi_a = n*pi": "psi_b = n*pi",
    "psi_b = n*pi": "psi_a = n*pi",
    "psi_a = (2n+1)*pi/2": "psi_b = (2n+1)*pi/2",
    "psi_b = (2n+1)*pi/2": "psi_a = (2n+1)*pi/2",
}
# Two roundings in the two ratios and one in their product: |r r' - 1| <= 3u
# to first order, u = 2^-53.
_RECIPROCAL_TOL = 4 * 2.0**-53


def _side_offsets_and_ratios(alice_kind, bob_kind, u_a, u_b):
    """arg(b conj(a)) and |b|/|a| from the per-side factors, for arrays of bias phasors."""
    f_a, c_a, s_a = protocols._factors(alice_kind, u_a)
    f_b, c_b, s_b = protocols._factors(bob_kind, u_b)
    return np.angle(f_a) - np.angle(f_b), (c_a / s_a) * (s_b / c_b)


def _wrapped(x):
    """``x`` wrapped into [-pi, pi)."""
    return np.remainder(x + math.pi, math.tau) - math.pi


def _generic_biases(seed: int, n: int = 40) -> np.ndarray:
    """(2, n) biases at least 0.1 from the multiples of pi/2, where coefficients vanish."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 0.5 * math.pi - 0.1, (2, n)) + 0.5 * math.pi * rng.integers(
        -3, 3, (2, n)
    )


# The per-side factors and the closed form read the same C and S values, so
# an offset or ratio from one differs from the other's only by the roundings
# of two complex products and an atan2 per side, a few ulps (4 ulps of pi at
# most over 72 000 points); these bounds allow 20.
_CROSS_OFFSET_TOL = 1e-14
_CROSS_RATIO_TOL = 1e-14


class TestRelations:
    def test_mirror_swaps_the_labels_and_inverts_the_ratio(self):
        # classify_pair(B, A) gives (A, B)'s verdicts with psi_a and psi_b
        # swapped in each label; check_protocol on the swapped specs, at
        # points of the verdict's family (or generic points for an infeasible
        # verdict), gives the same verdict with the reciprocal ratio
        rng = np.random.default_rng(31)
        grids = [GRID] + [np.sort(rng.uniform(0.03, math.pi / 2 - 0.03, 8)) for _ in range(3)]
        u_a, u_b = np.exp(1j * _generic_biases(41))
        for alice_kind, bob_kind in ROW_ORDER:
            # Bob's side as Alice's and Alice's as Bob's: the per-side factors
            # give minus the closed form's offset and its reciprocal ratio
            a, b, _, _ = _unit_coeffs(alice_kind, bob_kind, u_a, u_b)
            offset, ratio = _side_offsets_and_ratios(bob_kind, alice_kind, u_b, u_a)
            offset += np.angle(b) - np.angle(a)
            assert np.max(np.abs(_wrapped(offset))) <= _CROSS_OFFSET_TOL
            assert np.max(np.abs(ratio * (np.abs(b) / np.abs(a)) - 1.0)) <= _CROSS_RATIO_TOL
            for grid in grids:
                row = classify_pair(alice_kind, bob_kind, grid)
                mirror = classify_pair(bob_kind, alice_kind, grid)
                for protocol, got, swapped in (
                    (B92, row.b92, mirror.b92), (BB84, row.bb84, mirror.bb84)
                ):
                    label = _MIRRORED.get(swapped.bias_constraint, swapped.bias_constraint)
                    assert (swapped.feasible, label, swapped.failure_reason) == (
                        got.feasible, got.bias_constraint, got.failure_reason
                    )
                    where = got.bias_constraint if got.feasible else "any"
                    for t in grid[::3]:
                        pa, pb = _constrained_point(where, float(t))
                        alice = make_modulator(alice_kind, 0.1, pa)
                        bob = make_modulator(bob_kind, 0.1, pb)
                        forward = check_protocol(alice, bob, protocol)
                        back = check_protocol(bob, alice, protocol)
                        assert forward.feasible is back.feasible is got.feasible
                        assert forward.failure_reason == back.failure_reason
                        if got.feasible:
                            product = forward.index_ratio * back.index_ratio
                            assert abs(product - 1.0) <= _RECIPROCAL_TOL

    def test_bias_shift_by_pi_negates_both_coefficients(self):
        psi = _generic_biases(37)
        u_a, u_b = np.exp(1j * psi)
        phi = np.random.default_rng(43).uniform(-math.pi, math.pi, (3, psi.shape[1]))
        for alice_kind, bob_kind in ROW_ORDER:
            a, b, a_zero, b_zero = _unit_coeffs(alice_kind, bob_kind, u_a, u_b)
            offset = np.angle(b) - np.angle(a)
            for shifted in ((-u_a, u_b), (u_a, -u_b)):
                # e^{j(psi + pi)} = -e^{j psi}: negation is exact, and so is the relation
                got = _unit_coeffs(alice_kind, bob_kind, *shifted)
                assert np.array_equal(got[0], -a) and np.array_equal(got[1], -b)
                assert np.array_equal(got[2], a_zero) and np.array_equal(got[3], b_zero)
                # the per-side factors at the shifted biases give the closed
                # form's offset and ratio at the unshifted ones
                side_offset, side_ratio = _side_offsets_and_ratios(alice_kind, bob_kind, *shifted)
                assert np.max(np.abs(_wrapped(side_offset - offset))) <= _CROSS_OFFSET_TOL
                ratio = np.abs(b) / np.abs(a)
                assert np.max(np.abs(side_ratio / ratio - 1.0)) <= _CROSS_RATIO_TOL
            # Through the specs, psi + pi is rounded (and so is pi): the bias
            # moves by under 1e-15 rad, which a coefficient at least 0.1 from
            # its null (|d ln C / d psi| <= 1 / tan 0.1 < 10) turns into a
            # relative change under 1e-14.  Visibility, offset and both power
            # pairs move by under 2e-14, plus their own roundings.
            for k in range(psi.shape[1]):
                pa, pb = psi[:, k]
                span = LinkSpec(rf_frequency=1.0, link_phase=phi[2, k])
                alice = make_modulator(alice_kind, 0.1, pa, phi[0, k])
                bob = make_modulator(bob_kind, 0.05, pb, phi[1, k])
                want = _fringe_measures(alice, bob, span)
                for pair in (
                    (dataclasses.replace(alice, psi=pa + math.pi), bob),
                    (alice, dataclasses.replace(bob, psi=pb - math.pi)),
                ):
                    got = _fringe_measures(*pair, span)
                    deviation = np.abs(np.subtract(got, want))
                    deviation[1] = abs(_wrapped(got[1] - want[1]))
                    assert np.max(deviation) <= 3e-14


def _fringe_measures(alice, bob, span):
    """Visibility, phase offset, then the closed and the direct (upper, lower) powers."""
    a, b = interference_coeffs(alice, bob)
    return (
        visibility(a, b),
        phase_offset(a, b),
        *sideband_powers(alice, bob, span),
        *sideband_powers_direct(alice, bob, span),
    )


# Values no kind, bias, grid, row or protocol argument may be; a 0-d and a
# 2-D array of each.
_JUNK = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.3]).flatmap(
        lambda x: st.sampled_from([x, np.array(x), np.full((2, 2), x)])
    ),
    st.sampled_from([np.array("B92"), np.array([["UM", "AM"]])]),
)
_ROW = classify_pair(UM, AM, GRID)
_CALLS = {
    "classify_pair": (classify_pair, (UM, AM, GRID)),
    "compare_row_with_reference": (compare_row_with_reference, (UM, AM, _ROW, GRID)),
    "evaluate_pair": (evaluate_pair, (UM, AM, 0.3, 0.5)),
    "check_protocol": (
        check_protocol, (make_modulator(UM, 0.1, 0.3), make_modulator(AM, 0.1, 0.5), B92)
    ),
}


class TestJunkArguments:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(_CALLS)), st.data())
    def test_returns_or_raises_a_package_error(self, name, data):
        fn, args = _CALLS[name]
        junk = data.draw(st.lists(st.booleans(), min_size=len(args), max_size=len(args)))
        args = [data.draw(_JUNK) if replace else arg for arg, replace in zip(args, junk)]
        try:
            fn(*args)
        except FcqkdError:
            pass

    def test_row_must_be_a_classification_row(self):
        with pytest.raises(InvalidParameterError, match="row must be a ClassificationRow"):
            compare_row_with_reference(UM, AM, None, GRID)


class TestPeakMemory:
    @pytest.mark.parametrize("pairing", ROW_ORDER, ids=lambda p: f"{p[0].value}-{p[1].value}")
    def test_at_most_two_complex_grid_arrays(self, pairing):
        # Each side's factors are n-vectors and every n x n test is an outer
        # product of them, so at n = 300 neither call may trace more than
        # two n x n complex arrays (2.88 MB); the coefficient grids took
        # 6.13 MB (classify_pair) and 7.39 MB (compare_row_with_reference).
        n = 300
        grid = np.linspace(0.03, 0.5 * math.pi - 0.03, n)
        row = classify_pair(*pairing, grid)
        calls = (
            lambda: classify_pair(*pairing, grid),
            lambda: compare_row_with_reference(*pairing, row, grid),
        )
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            for call in calls:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                call()
                assert tracemalloc.get_traced_memory()[1] - before <= 2 * 16 * n * n
        finally:
            if not tracing:
                tracemalloc.stop()
