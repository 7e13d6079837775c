import math

import pytest

from fcqkd import (
    B92,
    BB84,
    InvalidParameterError,
    LinkSpec,
    ModulatorKind,
    ModulatorSpec,
    classify_pair,
    make_modulator,
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
