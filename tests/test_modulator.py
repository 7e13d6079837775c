import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fcqkd import (
    InvalidParameterError,
    ModulatorKind,
    ModulatorSpec,
    bias_phase_from_voltage,
    index_from_voltage,
    make_modulator,
)
from fcqkd.cli import _modulator_json
from fcqkd.modulator import _side

import first_order

KINDS = [ModulatorKind.PM, ModulatorKind.AM, ModulatorKind.UM]

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
indices = st.floats(min_value=0.0, max_value=0.2, allow_nan=False)


def bands(mod):
    """(carrier, lower, upper) of one modulator from the package's per-side closed form."""
    carrier, side, _ = _side(mod.kind, mod.m, cmath.exp(1j * mod.psi))
    return carrier, side * cmath.exp(-1j * mod.phi), side * cmath.exp(1j * mod.phi)


def test_make_pm():
    spec = make_modulator(ModulatorKind.PM, 0.2, 0.0, 0.0)
    assert spec == ModulatorSpec(ModulatorKind.PM, 0.2)
    row = _modulator_json(spec)
    assert (row["eps1"], row["eps2"], row["m1"], row["m2"]) == (1.0, 0.0, 0.2, 0.0)


def test_make_am():
    spec = make_modulator(ModulatorKind.AM, 0.1, math.pi / 4, math.pi / 2)
    assert (spec.m, spec.psi, spec.phi) == (0.1, math.pi / 4, math.pi / 2)
    row = _modulator_json(spec)
    assert (row["eps1"], row["eps2"], row["m1"], row["m2"]) == (0.5, 0.5, 0.1, 0.1)


def test_make_um():
    spec = make_modulator(ModulatorKind.UM, 0.1, math.pi / 3, 0.0)
    assert (spec.m, spec.psi, spec.phi) == (0.1, math.pi / 3, 0.0)
    row = _modulator_json(spec)
    assert (row["eps1"], row["eps2"], row["m1"], row["m2"]) == (0.5, 0.5, 0.1, 0.0)


def test_negative_index_rejected():
    message = "modulation index must be >= 0, got -0.1"
    with pytest.raises(InvalidParameterError, match=message):
        make_modulator(ModulatorKind.PM, -0.1)
    with pytest.raises(InvalidParameterError, match=message):
        ModulatorSpec(ModulatorKind.PM, -0.1)


def test_zero_index_is_the_bound():
    # the smallest subnormals on each side of 0: any negative threshold
    # lets -5e-324 through, any positive one rejects 5e-324, and m <= 0
    # would reject an unmodulated arm
    with pytest.raises(InvalidParameterError, match="must be >= 0, got -5e-324"):
        make_modulator(ModulatorKind.UM, -5e-324)
    for m in (0.0, -0.0, 5e-324):
        assert make_modulator(ModulatorKind.UM, m).m == m


def test_unknown_kind_rejected():
    with pytest.raises(InvalidParameterError, match="unknown modulator kind"):
        ModulatorSpec("PM", 0.1)
    with pytest.raises(InvalidParameterError, match="unknown modulator kind"):
        make_modulator("PM", 0.1)


@given(st.sampled_from(KINDS), indices, angles, angles)
def test_constructor_invariants(kind, m, psi, phi):
    # the payload reports the kind's coupling-table row, arm 2 driven at share * m
    eps1, eps2, share = first_order.COUPLINGS[kind]
    assert _modulator_json(make_modulator(kind, m, psi, phi)) == {
        "kind": kind.value, "eps1": eps1, "eps2": eps2, "m1": m, "m2": share * m,
        "psi": psi, "phi": phi,
    }


# Inputs that are not Python or numpy reals, and reals no float holds
NOT_REAL = ["x", "0.3", None, True, np.bool_(False), 1j, [0.1], np.array([0.1, 0.2])]
NOT_FINITE = [math.nan, -math.inf, np.float64(math.inf), 10**400]


@pytest.mark.parametrize("value", NOT_REAL + NOT_FINITE)
@pytest.mark.parametrize("position", [1, 2, 3])
def test_non_real_or_non_finite_drive_rejected(value, position):
    args = [ModulatorKind.UM, 0.1, 0.2, 0.3]
    args[position] = value
    with pytest.raises(InvalidParameterError):
        make_modulator(*args)
    with pytest.raises(InvalidParameterError):
        ModulatorSpec(*args)


@pytest.mark.parametrize("value", NOT_REAL + NOT_FINITE)
def test_non_real_or_non_finite_voltage_rejected(value):
    for call in (index_from_voltage, bias_phase_from_voltage):
        with pytest.raises(InvalidParameterError):
            call(value, 5.5)
        with pytest.raises(InvalidParameterError):
            call(1.0, value)


@pytest.mark.parametrize("value", [1, np.int64(1), np.float32(1.0), np.float64(1.0)])
def test_numpy_and_integer_reals_stored_as_floats(value):
    spec = make_modulator(ModulatorKind.AM, value, value, value)
    assert (spec.m, spec.psi, spec.phi) == (1.0, 1.0, 1.0)
    assert all(type(x) is float for x in (spec.m, spec.psi, spec.phi))


def test_index_from_voltage():
    assert index_from_voltage(0.0, 5.5) == 0.0
    assert index_from_voltage(5.5, 5.5) == pytest.approx(math.pi, abs=1e-15)
    # pi * 0.175 / 5.5 = 0.0999598...
    assert index_from_voltage(0.175, 5.5) == pytest.approx(
        math.pi * 0.175 / 5.5, abs=1e-15
    )
    assert index_from_voltage(0.175, 5.5) == pytest.approx(0.1, abs=1e-3)
    with pytest.raises(InvalidParameterError):
        index_from_voltage(1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        index_from_voltage(-1.0, 5.5)


def test_bias_phase_from_voltage():
    assert bias_phase_from_voltage(0.0, 4.7) == 0.0
    assert bias_phase_from_voltage(4.7, 4.7) == pytest.approx(math.pi / 2, abs=1e-15)
    assert bias_phase_from_voltage(2.35, 4.7) == pytest.approx(math.pi / 4, abs=1e-15)
    with pytest.raises(InvalidParameterError):
        bias_phase_from_voltage(1.0, -2.0)


def test_pm_bands():
    carrier, lower, upper = bands(make_modulator(ModulatorKind.PM, 0.2, 0.0, 0.0))
    assert carrier == pytest.approx(1.0)
    assert upper == pytest.approx(0.1j)
    assert lower == pytest.approx(0.1j)


def test_am_bands_quarter_bias():
    # direct evaluation: carrier 2*(1/2)*cos(pi/4); sidebands
    # (j/2)*(1/2)*0.1*(e^{j pi/4} - e^{-j pi/4}) = -0.05*sin(pi/4)
    carrier, lower, upper = bands(make_modulator(ModulatorKind.AM, 0.1, math.pi / 4, 0.0))
    assert carrier == pytest.approx(math.cos(math.pi / 4))
    expected = 0.5j * 0.5 * 0.1 * (cmath.exp(1j * math.pi / 4) - cmath.exp(-1j * math.pi / 4))
    assert expected == pytest.approx(-0.05 * math.sin(math.pi / 4))
    assert upper == pytest.approx(expected)
    assert lower == pytest.approx(expected)


def test_um_carrier_suppression():
    carrier, _, _ = bands(make_modulator(ModulatorKind.UM, 0.1, math.pi / 2, 0.0))
    assert abs(carrier) == pytest.approx(0.0, abs=1e-15)


@given(angles)
def test_am_bands_symmetric_at_zero_phi(psi):
    _, lower, upper = bands(make_modulator(ModulatorKind.AM, 0.1, psi, 0.0))
    assert upper == pytest.approx(lower)


@given(st.sampled_from(KINDS), indices, angles, angles)
def test_sideband_magnitude_independent_of_phi(kind, m, psi, phi):
    _, ref_lower, ref_upper = bands(make_modulator(kind, m, psi, 0.0))
    _, lower, upper = bands(make_modulator(kind, m, psi, phi))
    assert abs(upper) == pytest.approx(abs(ref_upper), abs=1e-15)
    assert abs(lower) == pytest.approx(abs(ref_lower), abs=1e-15)


@given(st.sampled_from(KINDS), indices, angles, angles)
def test_bands_match_the_first_order_model(kind, m, psi, phi):
    # the same operations in the same order: equal to the last bit
    mod = make_modulator(kind, m, psi, phi)
    assert bands(mod) == first_order.bands(mod)


@given(indices)
def test_pm_exact_magnitudes(m):
    carrier, _, upper = bands(make_modulator(ModulatorKind.PM, m, 0.0, 0.0))
    assert abs(carrier) == 1.0
    assert abs(upper) == pytest.approx(m / 2, abs=1e-16)

