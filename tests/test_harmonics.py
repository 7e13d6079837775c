import math

import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from fcqkd import (
    InvalidParameterError,
    LinkSpec,
    ModulatorKind,
    TruncationError,
    exact_tandem_spectrum,
    make_modulator,
    small_signal_error,
)
from fcqkd.harmonics import bessel_j, default_order, exact_modulator_spectrum, propagate_spectrum
from fcqkd.modulator import band_amplitudes

PM, AM, UM = ModulatorKind.PM, ModulatorKind.AM, ModulatorKind.UM


def link(phase=0.0, loss=1.0):
    return LinkSpec(rf_frequency=1.0, link_phase=phase, loss=loss)


class TestBessel:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(5, 0.0) == 0.0

    def test_first_order_small_argument(self):
        # hand-summed series: (x/2) * (1 - (x^2/4)/2 + (x^2/4)^2/12 - ...)
        q = 0.1 * 0.1 / 4
        by_hand = 0.05 * (1 - q / 2 + q * q / 12 - q**3 / 144)
        assert by_hand == pytest.approx(0.049937526, abs=1e-9)
        assert bessel_j(1, 0.1) == pytest.approx(0.049937526, abs=1e-9)

    def test_domain_clamp(self):
        with pytest.raises(InvalidParameterError):
            bessel_j(0, 1.6)
        with pytest.raises(InvalidParameterError):
            bessel_j(2, -2.0)
        bessel_j(3, 1.5)  # boundary is allowed

    @given(st.integers(min_value=-8, max_value=8),
           st.floats(min_value=0.0, max_value=1.5, allow_nan=False))
    def test_negative_order_parity(self, k, x):
        sign = -1.0 if k % 2 else 1.0
        assert bessel_j(-k, x) == pytest.approx(sign * bessel_j(k, x), abs=1e-16)

    @given(st.integers(min_value=0, max_value=10),
           st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
    def test_against_scipy(self, k, x):
        assert bessel_j(k, x) == pytest.approx(
            float(scipy.special.jv(k, x)), rel=1e-12, abs=1e-14
        )


class TestModulatorSpectrum:
    def test_unmodulated_is_carrier_only(self):
        spectrum = exact_modulator_spectrum(make_modulator(PM, 0.0))
        assert spectrum.amp(0) == 1.0
        assert all(spectrum.power(k) == 0.0 for k in range(1, spectrum.order + 1))

    def test_pm_first_harmonic_magnitude(self):
        spectrum = exact_modulator_spectrum(make_modulator(PM, 0.1))
        assert abs(spectrum.amp(1)) == pytest.approx(0.049937526, abs=1e-9)
        assert abs(spectrum.amp(-1)) == pytest.approx(0.049937526, abs=1e-9)

    def test_am_at_null_bias_kills_even_harmonics(self):
        spectrum = exact_modulator_spectrum(make_modulator(AM, 0.3, math.pi / 2))
        for k in range(-spectrum.order, spectrum.order + 1):
            if k % 2 == 0:
                assert spectrum.power(k) == pytest.approx(0.0, abs=1e-30)
            elif abs(k) == 1:
                assert spectrum.power(k) > 0.0

    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0])
    def test_pure_pm_conserves_power(self, m):
        spectrum = exact_modulator_spectrum(make_modulator(PM, m))
        assert abs(spectrum.total_power() - 1.0) <= 1e-12

    @pytest.mark.parametrize("kind,psi", [(AM, 0.6), (UM, 0.3), (UM, 1.2)])
    def test_interferometric_output_bounded(self, kind, psi):
        spectrum = exact_modulator_spectrum(make_modulator(kind, 0.8, psi))
        assert spectrum.total_power() <= 1.0 + 1e-12

    def test_order_precondition(self):
        with pytest.raises(TruncationError):
            exact_modulator_spectrum(make_modulator(PM, 1.0), order=6)

    def test_small_signal_limit(self):
        # first harmonics converge to the first-order bands at rate >= m^2,
        # staying inside the m^2/4 envelope
        deviations = []
        for m in (0.02, 0.04, 0.08):
            mod = make_modulator(UM, m, 0.4, 0.7)
            spectrum = exact_modulator_spectrum(mod)
            bands = band_amplitudes(mod)
            dev = max(
                abs(spectrum.amp(1) - bands.upper), abs(spectrum.amp(-1) - bands.lower)
            ) / abs(bands.upper)
            assert dev <= m * m / 4
            deviations.append(dev)
        assert deviations[1] / deviations[0] == pytest.approx(4.0, rel=0.15)
        assert deviations[2] / deviations[1] == pytest.approx(4.0, rel=0.15)

    @pytest.mark.parametrize("kind", [PM, AM, UM])
    def test_first_harmonic_within_quarter_square_bound(self, kind):
        for m in (0.02, 0.05, 0.1):
            mod = make_modulator(kind, m, 0.4, 0.2)
            spectrum = exact_modulator_spectrum(mod)
            bands = band_amplitudes(mod)
            dev = abs(spectrum.amp(1) - bands.upper) / abs(bands.upper)
            assert dev <= m * m / 4


class TestTandemSpectrum:
    def test_both_off(self):
        spectrum = exact_tandem_spectrum(
            make_modulator(PM, 0.0), make_modulator(PM, 0.0), link(0.4)
        )
        assert spectrum.amp(0) == 1.0
        assert spectrum.total_power() == 1.0

    def test_bob_off_reduces_to_alice(self):
        alice = make_modulator(UM, 0.2, 0.5, 0.9)
        ln = link(0.7, 0.6)
        tandem = exact_tandem_spectrum(alice, make_modulator(PM, 0.0), ln)
        solo = propagate_spectrum(exact_modulator_spectrum(alice, tandem.order), ln)
        for k in range(-tandem.order, tandem.order + 1):
            assert tandem.amp(k) == solo.amp(k)

    def test_extinction_point_residuals(self):
        # opposed-drive UM-PM pairing at the dark fringe: the first
        # harmonics cancel to rounding level; the leakage sits in the
        # second harmonics.  Regression values from the first oracle run.
        alice = make_modulator(UM, 0.1, 0.0, 0.0)
        bob = make_modulator(PM, 0.05, 0.0, math.pi)
        spectrum = exact_tandem_spectrum(alice, bob, link(0.0))
        assert spectrum.power(1) <= 1e-30
        assert spectrum.power(-1) <= 1e-30
        assert spectrum.power(1) <= 2.6e-6
        assert spectrum.power(2) == pytest.approx(9.7616e-8, rel=1e-3)
        assert spectrum.power(-2) == pytest.approx(9.7616e-8, rel=1e-3)

    def test_default_order_scales_with_drive(self):
        assert default_order(make_modulator(PM, 0.1)) == 9
        assert default_order(make_modulator(PM, 1.0), make_modulator(PM, 0.2)) == 11


class TestSmallSignalError:
    def test_quadratic_trend(self):
        alice_small = make_modulator(PM, 0.01, 0.0, 0.3)
        bob_small = make_modulator(PM, 0.01, 0.0, 1.1)
        alice_big = make_modulator(PM, 0.1, 0.0, 0.3)
        bob_big = make_modulator(PM, 0.1, 0.0, 1.1)
        ln = link(0.4)
        err_small = max(small_signal_error(alice_small, bob_small, ln))
        err_big = max(small_signal_error(alice_big, bob_big, ln))
        assert err_small <= 1e-4
        assert err_big <= 1e-2
        assert 50 <= err_big / err_small <= 200

    def test_degenerate_pairing_rejected(self):
        with pytest.raises(InvalidParameterError):
            small_signal_error(
                make_modulator(AM, 0.1, 0.0), make_modulator(AM, 0.1, 0.0), link()
            )
