import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fcqkd import (
    B92,
    BB84,
    InvalidParameterError,
    LinkSpec,
    ModulatorKind,
    ModulatorSpec,
    PhaseUndefinedError,
    classify_pair,
    make_modulator,
    protocols,
    sideband_powers,
)
from fcqkd.protocols import (
    REFERENCE_TABLE,
    ROW_ORDER,
    check_protocol,
    compare_row_with_reference,
    evaluate_pair,
)

PM, AM, UM = ModulatorKind.PM, ModulatorKind.AM, ModulatorKind.UM

GRID = [0.08 + (math.pi / 2 - 0.16) * i / 11 for i in range(12)]


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
        coeffs = protocols._unit_coeffs(alice_kind, bob_kind, np.exp(1j * pa), np.exp(1j * pb))
        in_class = protocols._in_class(coeffs, protocols._required_shift(protocol))
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
