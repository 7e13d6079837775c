import cmath
import math

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
from fcqkd.modulator import carrier_amplitude, sideband_factor

KINDS = [ModulatorKind.PM, ModulatorKind.AM, ModulatorKind.UM]

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
indices = st.floats(min_value=0.0, max_value=0.2, allow_nan=False)


def bands(mod):
    """(carrier, lower, upper) of one modulator from the two band helpers."""
    u = cmath.exp(1j * mod.psi)
    side = sideband_factor(mod.eps1, mod.eps2, mod.m1, mod.m2, u)
    return (
        carrier_amplitude(mod.eps1, mod.eps2, u),
        side * cmath.exp(-1j * mod.phi),
        side * cmath.exp(1j * mod.phi),
    )


def test_make_pm():
    spec = make_modulator(ModulatorKind.PM, 0.2, 0.0, 0.0)
    assert (spec.eps1, spec.eps2) == (1.0, 0.0)
    assert (spec.m1, spec.m2) == (0.2, 0.0)


def test_make_am():
    spec = make_modulator(ModulatorKind.AM, 0.1, math.pi / 4, math.pi / 2)
    assert spec.eps1 == spec.eps2 == 0.5
    assert spec.m1 == spec.m2 == 0.1
    assert spec.psi == math.pi / 4
    assert spec.phi == math.pi / 2


def test_make_um():
    spec = make_modulator(ModulatorKind.UM, 0.1, math.pi / 3, 0.0)
    assert spec.eps1 == spec.eps2 == 0.5
    assert (spec.m1, spec.m2) == (0.1, 0.0)
    assert spec.psi == math.pi / 3


def test_negative_index_rejected():
    with pytest.raises(InvalidParameterError):
        make_modulator(ModulatorKind.PM, -0.1)


@pytest.mark.parametrize("kind", KINDS)
def test_kind_pattern_enforced(kind):
    # direct construction must respect the per-kind coefficient pattern
    with pytest.raises(InvalidParameterError):
        if kind is ModulatorKind.PM:
            ModulatorSpec(kind, 1.0, 0.5, 0.1, 0.0)
        elif kind is ModulatorKind.AM:
            ModulatorSpec(kind, 0.5, 0.5, 0.1, 0.2)
        else:
            ModulatorSpec(kind, 0.5, 0.5, 0.1, 0.1)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidParameterError, match="unknown modulator kind"):
        ModulatorSpec("PM", 1.0, 0.0, 0.1, 0.0)
    with pytest.raises(InvalidParameterError, match="unknown modulator kind"):
        make_modulator("PM", 0.1)


@given(st.sampled_from(KINDS), indices, angles, angles)
def test_constructor_invariants(kind, m, psi, phi):
    spec = make_modulator(kind, m, psi, phi)
    if kind is ModulatorKind.PM:
        assert spec.eps2 == 0.0 and spec.m2 == 0.0
    elif kind is ModulatorKind.AM:
        assert spec.eps1 == spec.eps2 and spec.m1 == spec.m2
    else:
        assert spec.eps1 == spec.eps2 and spec.m2 == 0.0


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


@given(indices)
def test_pm_exact_magnitudes(m):
    carrier, _, upper = bands(make_modulator(ModulatorKind.PM, m, 0.0, 0.0))
    assert abs(carrier) == 1.0
    assert abs(upper) == pytest.approx(m / 2, abs=1e-16)


@given(st.sampled_from(KINDS), indices, angles, st.floats(min_value=0.1, max_value=10))
def test_coupling_scale_linearity(kind, m, psi, scale):
    base = make_modulator(kind, m, psi, 0.3)
    scaled = ModulatorSpec(
        kind, base.eps1 * scale, base.eps2 * scale, base.m1, base.m2, psi, 0.3
    )
    for band, unit_band in zip(bands(scaled), bands(base)):
        assert band == pytest.approx(scale * unit_band, rel=1e-12, abs=1e-15)
