import cmath
import math
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given
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
from fcqkd import harmonics
from fcqkd.modulator import band_amplitudes, carrier_amplitude, sideband_factor

PM, AM, UM = ModulatorKind.PM, ModulatorKind.AM, ModulatorKind.UM


def link(phase=0.0, loss=1.0):
    return LinkSpec(rf_frequency=1.0, link_phase=phase, loss=loss)


def solo_spectrum(mod, order=None):
    """One modulator's spectrum: the tandem's with an undriven Bob over a lossless span."""
    return exact_tandem_spectrum(mod, make_modulator(PM, 0.0), link(), order)


def assert_jacobi_anger(x):
    """A PM driven at x has harmonics j^k J_k(x), negative orders included."""
    spectrum = solo_spectrum(make_modulator(PM, x))
    for k in range(-spectrum.order, spectrum.order + 1):
        assert spectrum.amp(k) == pytest.approx(
            1j**k * float(scipy.special.jv(k, x)), rel=1e-12, abs=1e-14
        )


class TestBessel:
    """The PM spectrum holds the Bessel values of the Jacobi-Anger expansion."""

    def test_at_zero(self):
        spectrum = solo_spectrum(make_modulator(PM, 0.0))
        assert spectrum.amp(0) == 1.0
        assert spectrum.amp(1) == 0.0
        assert spectrum.amp(5) == 0.0

    def test_first_order_small_argument(self):
        # hand-summed series: (x/2) * (1 - (x^2/4)/2 + (x^2/4)^2/12 - ...)
        q = 0.1 * 0.1 / 4
        by_hand = 0.05 * (1 - q / 2 + q * q / 12 - q**3 / 144)
        assert by_hand == pytest.approx(0.049937526, abs=1e-9)
        j1 = solo_spectrum(make_modulator(PM, 0.1)).amp(1) / 1j
        assert j1 == pytest.approx(0.049937526, abs=1e-9)

    def test_beyond_former_clamp(self):
        for x in (1.6, 2.0, 20.0):
            assert_jacobi_anger(x)

    @given(st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
    def test_against_scipy(self, x):
        assert_jacobi_anger(x)


class TestModulatorSpectrum:
    def test_unmodulated_is_carrier_only(self):
        spectrum = solo_spectrum(make_modulator(PM, 0.0))
        assert spectrum.amp(0) == 1.0
        assert all(spectrum.power(k) == 0.0 for k in range(1, spectrum.order + 1))

    def test_pm_first_harmonic_magnitude(self):
        spectrum = solo_spectrum(make_modulator(PM, 0.1))
        assert abs(spectrum.amp(1)) == pytest.approx(0.049937526, abs=1e-9)
        assert abs(spectrum.amp(-1)) == pytest.approx(0.049937526, abs=1e-9)

    def test_am_at_null_bias_kills_even_harmonics(self):
        spectrum = solo_spectrum(make_modulator(AM, 0.3, math.pi / 2))
        for k in range(-spectrum.order, spectrum.order + 1):
            if k % 2 == 0:
                assert spectrum.power(k) == pytest.approx(0.0, abs=1e-30)
            elif abs(k) == 1:
                assert spectrum.power(k) > 0.0

    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0])
    def test_pure_pm_conserves_power(self, m):
        spectrum = solo_spectrum(make_modulator(PM, m))
        assert abs(spectrum.total_power() - 1.0) <= 1e-12

    @pytest.mark.parametrize("kind,psi", [(AM, 0.6), (UM, 0.3), (UM, 1.2)])
    def test_interferometric_output_bounded(self, kind, psi):
        spectrum = solo_spectrum(make_modulator(kind, 0.8, psi))
        assert spectrum.total_power() <= 1.0 + 1e-12

    def test_order_precondition(self):
        with pytest.raises(TruncationError):
            solo_spectrum(make_modulator(PM, 1.0), order=6)

    def test_small_signal_limit(self):
        # first harmonics converge to the first-order bands at rate >= m^2,
        # staying inside the m^2/4 envelope
        deviations = []
        for m in (0.02, 0.04, 0.08):
            mod = make_modulator(UM, m, 0.4, 0.7)
            spectrum = solo_spectrum(mod)
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
            spectrum = solo_spectrum(mod)
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
        solo = solo_spectrum(alice, tandem.order)
        for k in range(-tandem.order, tandem.order + 1):
            propagated = math.sqrt(ln.loss) * cmath.exp(-1j * k * ln.link_phase) * solo.amp(k)
            assert tandem.amp(k) == pytest.approx(propagated, abs=1e-15)

    def test_against_bessel_convolution(self):
        # reference: each factor built from scipy's J_k at three times the
        # order, the span applied per harmonic, then convolved directly
        def factor(mod, order):
            k = np.arange(-order, order + 1)
            return (1j**k) * np.exp(1j * k * mod.phi) * (
                mod.eps1 * scipy.special.jv(k, mod.m1) * cmath.exp(1j * mod.psi)
                + mod.eps2 * scipy.special.jv(k, -mod.m2) * cmath.exp(-1j * mod.psi)
            )

        rng = np.random.default_rng(2014)
        pairs = [(a, b) for a in (PM, AM, UM) for b in (PM, AM, UM)]
        cases = [
            (*pairs[i % 9], rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5)) for i in range(191)
        ] + [(a, b, 20.0, rng.uniform(0.0, 20.0)) for a, b in pairs]
        for alice_kind, bob_kind, m_a, m_b in cases:
            alice = make_modulator(alice_kind, m_a, *rng.uniform(-math.pi, math.pi, 2))
            bob = make_modulator(bob_kind, m_b, *rng.uniform(-math.pi, math.pi, 2))
            ln = link(rng.uniform(-math.pi, math.pi), rng.uniform(0.05, 1.0))
            spectrum = exact_tandem_spectrum(alice, bob, ln)
            n, wide = spectrum.order, 3 * spectrum.order
            k = np.arange(-wide, wide + 1)
            a = math.sqrt(ln.loss) * np.exp(-1j * k * ln.link_phase) * factor(alice, wide)
            reference = np.convolve(a, factor(bob, wide))[2 * wide - n : 2 * wide + n + 1]
            got = np.array([spectrum.amp(j) for j in range(-n, n + 1)])
            assert np.max(np.abs(got - reference)) <= 1e-14

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

    def test_tail_rule_rejects_a_low_order(self):
        # in-phase PM drives add to an index of 3; at order 10 the bins
        # beyond it hold 6.5e-12 of the power, above the 1e-12 rule
        alice, bob = make_modulator(PM, 1.5), make_modulator(PM, 1.5)
        with pytest.raises(TruncationError):
            exact_tandem_spectrum(alice, bob, link(), order=10)
        assert exact_tandem_spectrum(alice, bob, link(), order=11).order == 11

    def test_default_order_scales_with_drive(self):
        assert solo_spectrum(make_modulator(PM, 0.1)).order == 9
        spectrum = exact_tandem_spectrum(make_modulator(PM, 1.0), make_modulator(PM, 0.2), link())
        assert spectrum.order == 11


def bessel_weights(alice, bob):
    """Interference weights with m/2 -> J_1(m) and 1 -> J_0(m) in the first-order factors."""

    jv = scipy.special.jv

    def carrier(mod):
        return carrier_amplitude(
            mod.eps1 * jv(0, mod.m1), mod.eps2 * jv(0, mod.m2), cmath.exp(1j * mod.psi)
        )

    def sideband(mod):
        return sideband_factor(
            mod.eps1, mod.eps2, 2 * jv(1, mod.m1), 2 * jv(1, mod.m2), cmath.exp(1j * mod.psi)
        )

    return carrier(bob) * sideband(alice), carrier(alice) * sideband(bob)


class TestInterferenceWeights:
    @given(
        st.sampled_from([(a, b) for a in (PM, AM, UM) for b in (PM, AM, UM)]),
        st.floats(min_value=0.01, max_value=1.5),
        st.floats(min_value=0.01, max_value=1.5),
        st.lists(st.floats(min_value=-math.pi, max_value=math.pi), min_size=4, max_size=4),
    )
    def test_against_bessel_closed_form(self, kinds, m_a, m_b, angles):
        alice = make_modulator(kinds[0], m_a, angles[0], angles[1])
        bob = make_modulator(kinds[1], m_b, angles[2], angles[3])
        seen, weights = [], harmonics._weights

        def recording(*args):
            seen.append(weights(*args))
            return seen[-1]

        with mock.patch.object(harmonics, "_weights", recording):
            try:
                small_signal_error(alice, bob, link(0.3, 0.5))
            except InvalidParameterError:
                assume(False)  # both first-order coefficients vanish
        assert len(seen) == 1
        for got, want in zip(seen[0], bessel_weights(alice, bob)):
            assert abs(got - want) <= 1e-15


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

    def test_near_null_pairing_rejected_as_degenerate(self):
        # both coefficients are ~1e-18, under the zero rule but not exactly 0
        um = make_modulator(UM, 0.1, math.pi / 2)
        with pytest.raises(InvalidParameterError, match="degenerate pairing"):
            small_signal_error(um, um, link())

    def test_tail_rule_applies_to_the_tandem_row(self):
        # each PM alone fits order 10; their in-phase product does not
        alice, bob = make_modulator(PM, 1.5, 0.3), make_modulator(PM, 1.5, 0.0, 0.0)
        with pytest.raises(TruncationError):
            small_signal_error(alice, bob, link(), order=10)
        assert all(math.isfinite(e) for e in small_signal_error(alice, bob, link(), order=11))
