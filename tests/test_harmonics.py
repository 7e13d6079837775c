import cmath
import math
import re
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, reject
from hypothesis import strategies as st

from fcqkd import (
    DegenerateConfigurationError,
    InvalidParameterError,
    LinkSpec,
    ModulatorKind,
    TruncationError,
    exact_tandem_spectrum,
    make_modulator,
    sideband_powers,
    small_signal_error,
)
from fcqkd import harmonics
from fcqkd.modulator import _COUPLING, carrier_amplitude, sideband_factor

PM, AM, UM = ModulatorKind.PM, ModulatorKind.AM, ModulatorKind.UM


def link(phase=0.0, loss=1.0):
    return LinkSpec(rf_frequency=1.0, link_phase=phase, loss=loss)


def solo_spectrum(mod, order=None):
    """One modulator's spectrum: the tandem's with an undriven Bob over a lossless span."""
    return exact_tandem_spectrum(mod, make_modulator(PM, 0.0), link(), order)


def first_order_bands(mod):
    """(lower, upper) first-order sidebands: the sideband factor times e^{-/+j phi}."""
    eps1, eps2, share = _COUPLING[mod.kind]
    side = sideband_factor(eps1, eps2, mod.m, share * mod.m, cmath.exp(1j * mod.psi))
    return side * cmath.exp(-1j * mod.phi), side * cmath.exp(1j * mod.phi)


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
            lower, upper = first_order_bands(mod)
            dev = max(abs(spectrum.amp(1) - upper), abs(spectrum.amp(-1) - lower)) / abs(upper)
            assert dev <= m * m / 4
            deviations.append(dev)
        assert deviations[1] / deviations[0] == pytest.approx(4.0, rel=0.15)
        assert deviations[2] / deviations[1] == pytest.approx(4.0, rel=0.15)

    @pytest.mark.parametrize("kind", [PM, AM, UM])
    def test_first_harmonic_within_quarter_square_bound(self, kind):
        for m in (0.02, 0.05, 0.1):
            mod = make_modulator(kind, m, 0.4, 0.2)
            spectrum = solo_spectrum(mod)
            _, upper = first_order_bands(mod)
            dev = abs(spectrum.amp(1) - upper) / abs(upper)
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
            eps1, eps2, share = _COUPLING[mod.kind]
            k = np.arange(-order, order + 1)
            return (1j**k) * np.exp(1j * k * mod.phi) * (
                eps1 * scipy.special.jv(k, mod.m) * cmath.exp(1j * mod.psi)
                + eps2 * scipy.special.jv(k, -share * mod.m) * cmath.exp(-1j * mod.psi)
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
        eps1, eps2, share = _COUPLING[mod.kind]
        return carrier_amplitude(
            eps1 * jv(0, mod.m), eps2 * jv(0, share * mod.m), cmath.exp(1j * mod.psi)
        )

    def sideband(mod):
        eps1, eps2, share = _COUPLING[mod.kind]
        return sideband_factor(
            eps1, eps2, 2 * jv(1, mod.m), 2 * jv(1, share * mod.m), cmath.exp(1j * mod.psi)
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
        # the weights an error point reads: each side's harmonic 1 without its
        # RF phase, times the other side's harmonic 0
        alice = make_modulator(kinds[0], m_a, angles[0], angles[1])
        bob = make_modulator(kinds[1], m_b, angles[2], angles[3])
        order = harmonics._checked_order(None, max(m_a, m_b))
        fields = harmonics._harmonics([alice, bob], [alice.phi, bob.phi], order)
        (a0, a1), (b0, b1) = fields[:, order : order + 2].tolist()
        weights = b0 * a1 * cmath.exp(-1j * alice.phi), a0 * b1 * cmath.exp(-1j * bob.phi)
        for got, want in zip(weights, bessel_weights(alice, bob)):
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

    def test_near_a_sideband_null_matches_the_series(self):
        # 50-digit mpmath evaluations of the Jacobi-Anger sums (harmonics to
        # |k| = 40, the tandem's +/-1 lines as sum_n A_n B_{+/-1-n}) against
        # the package's first-order powers.  Each bias sits just off an AM
        # sideband null, where an FFT of the summed field rounds the first
        # harmonic at the carrier's scale: that path read 4.3e-7 and 1.2e-8
        # off.  One ulp of the exact power moves the second error by 3e-13.
        cases = [
            (1.0, 0.0, 1.0726124200655358e-9, 0.0, 0.36356306506693711),
            (0.125, 3e-5, 3e-5, 1.1, 0.00036061296155623287),
        ]
        for m, psi_a, psi_b, phi_b, series in cases:
            alice, bob = make_modulator(AM, m, psi_a), make_modulator(AM, m, psi_b, phi_b)
            upper, lower = small_signal_error(alice, bob, link(0.0, 1.0))
            assert upper == pytest.approx(series, rel=1e-12)
            assert lower == pytest.approx(series, rel=1e-12)

    def test_relative_error_above_a_nanowatt_power(self):
        # PM/PM at m = 0.1 near the dark fringe: the exact powers are
        # J_1(M)^2 / (2 J_0(m) J_1(m))^2 with M = 2m sin(d/2), about
        # sin(d/2)^2 at Bob's phase pi - d, and they exceed the first-order
        # sin(d/2)^2 by the relative 3m^2/4 = 0.0075.  At d = 1.2e-4 the power
        # is 3.6e-9, above the 1e-9 switch, and the relative error is
        # reported; at d = 4e-5 it is 4.0e-10, below, and the absolute
        # difference 3.0e-12 is.  A switch moved 10x either way swaps one mode.
        for d, relative in ((1.2e-4, True), (4e-5, False)):
            alice, bob = make_modulator(PM, 0.1), make_modulator(PM, 0.1, 0.0, math.pi - d)
            m_sum = 2 * 0.1 * math.sin(d / 2)
            j0, j1 = scipy.special.j0, scipy.special.j1
            exact = float(j1(m_sum) / (2 * j0(0.1) * j1(0.1))) ** 2
            small = sideband_powers(alice, bob, link())
            assert (exact > 1e-9) is relative
            want = [abs(exact - p) / exact if relative else abs(exact - p) for p in small]
            # the modes differ by the factor of the power itself
            assert small_signal_error(alice, bob, link()) == pytest.approx(want, rel=1e-6)


# --- the two-exp field and the per-point error, kept as the oracle ----------
#
# The reference samples each arm with its own exp, transforms one point's
# three rows with norm="forward" and applies the tail rule through abs()**2.

def reference_field(mod, theta, delay=0.0, scale=1.0):
    eps1, eps2, share = _COUPLING[mod.kind]
    u = scale * cmath.exp(1j * mod.psi)
    drive = np.cos(theta + (mod.phi - delay))
    return (eps1 * u) * np.exp((1j * mod.m) * drive) + (
        eps2 * u.conjugate()
    ) * np.exp((-1j * share * mod.m) * drive)


def reference_spectrum(rows, order):
    n = rows.shape[-1]
    coeffs = np.fft.fft(rows, norm="forward")
    power = np.abs(coeffs) ** 2
    total = power.sum(axis=-1)
    tail = power[:, order + 1 : n - order].sum(axis=-1)
    short = tail > 1e-12 * total
    if short.any():
        raise TruncationError(f"truncated tail holds {np.max(tail[short] / total[short]):.3e}")
    return coeffs


def reference_powers(alice, bob, ln, order):
    """(exact powers, first-order powers, exact norm 2(|e_a|^2 + |e_b|^2)) of one point."""
    try:
        p_small = sideband_powers(alice, bob, ln)
    except DegenerateConfigurationError as exc:
        raise InvalidParameterError("degenerate pairing: no first-order sidebands") from exc
    theta = np.arange(1 << (4 * order + 1).bit_length())
    theta = theta * (2.0 * math.pi / theta.size)
    bob_field = reference_field(bob, theta)
    tandem_field = reference_field(alice, theta, ln.link_phase, math.sqrt(ln.loss)) * bob_field
    rows = np.array((reference_field(alice, theta), bob_field, tandem_field))
    alice_row, bob_row, tandem = reference_spectrum(rows, order)
    a_sideband = complex(alice_row[1]) * cmath.exp(-1j * alice.phi)
    b_sideband = complex(bob_row[1]) * cmath.exp(-1j * bob.phi)
    e_a, e_b = complex(bob_row[0]) * a_sideband, complex(alice_row[0]) * b_sideband
    norm = 2.0 * (abs(e_a) ** 2 + abs(e_b) ** 2)
    p_exact = (
        abs(complex(tandem[1])) ** 2 / (norm * ln.loss),
        abs(complex(tandem[-1])) ** 2 / (norm * ln.loss),
    )
    return p_exact, p_small, norm


def reference_error(alice, bob, ln, order):
    p_exact, p_small, _ = reference_powers(alice, bob, ln, order)
    return tuple(
        abs(pe - ps) / pe if pe > 1e-9 else abs(pe - ps) for pe, ps in zip(p_exact, p_small)
    )


PAIRINGS = [(a, b) for a in (PM, AM, UM) for b in (PM, AM, UM)]
ANGLE = st.floats(min_value=-math.pi, max_value=math.pi)
# A bias at least 0.1 rad from every multiple of pi/2
CLEAR_BIAS = st.builds(
    lambda t, n: t + n * 0.5 * math.pi,
    st.floats(min_value=0.1, max_value=0.5 * math.pi - 0.1),
    st.integers(min_value=-2, max_value=1),
)


@st.composite
def drives(draw, kind, min_m=0.0):
    """A modulator of ``kind`` at a random drive, bias and drive phase."""
    return make_modulator(
        kind, draw(st.floats(min_value=min_m, max_value=1.5)), draw(ANGLE), draw(ANGLE)
    )


@st.composite
def lattices(draw):
    """1-6 points (alice, bob, link) of one pairing at independent random drives."""
    alice_kind, bob_kind = draw(st.sampled_from(PAIRINGS))
    points = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        ln = link(draw(ANGLE), draw(st.floats(min_value=0.05, max_value=1.0)))
        points.append((draw(drives(alice_kind, 0.01)), draw(drives(bob_kind, 0.01)), ln))
    return points


class TestOneExpField:
    @given(
        st.sampled_from((PM, AM, UM)).flatmap(drives),
        ANGLE,
        st.floats(min_value=0.05, max_value=1.0),
        st.sampled_from([9, 11, 40]),
    )
    def test_matches_the_two_exp_field(self, mod, delay, scale, order):
        theta = harmonics._phases(order)
        got = harmonics._field(theta, *harmonics._field_params(mod, delay, scale))
        want = reference_field(mod, theta, delay, scale)
        assert np.max(np.abs(got - want)) <= 1e-15 * scale  # the couplings sum to 1


class TestBesselRows:
    @given(
        st.lists(st.sampled_from((PM, AM, UM)).flatmap(drives), min_size=1, max_size=4),
        ANGLE,
        st.sampled_from([9, 11, 40]),
    )
    def test_every_harmonic_matches_the_sampled_field(self, mods, psi, order):
        # one more side on the first one's drive: the two share a Bessel row
        mods.append(make_modulator(UM, mods[0].m, psi, -mods[0].phi))
        k = np.arange(-order, order + 1)
        got = harmonics._harmonics(mods, [mod.phi for mod in mods], order)
        for mod, row in zip(mods, got):
            want = np.fft.fft(reference_field(mod, fresh_phases(order)), norm="forward")[k]
            assert np.max(np.abs(row - want)) <= 1e-15  # both unit-scale FFTs

    def test_rows_need_no_tail_rule(self):
        # at the lowest order each drive is accepted at, order >= 3m + 5, the
        # row exp(j m cos(theta)) leaves under 1e-16 of its power outside
        # |k| <= order, far under the spectrum's 1e-12 (worst: m = 1, order 8)
        for order in range(6, harmonics.MAX_ORDER + 1):
            m = (order - 5) / 3
            assert harmonics._checked_order(order, m) == order  # the lowest accepted
            coeffs = np.fft.fft(np.exp(1j * m * np.cos(fresh_phases(order))))
            tail = coeffs[order + 1 : coeffs.size - order]
            assert np.vdot(tail, tail).real <= 1e-16 * np.vdot(coeffs, coeffs).real


def fresh_phases(order):
    """A newly built, writable phase grid of the size ``harmonics._phases`` picks."""
    n = 1 << (4 * order + 1).bit_length()
    return np.arange(n) * (2.0 * math.pi / n)


class TestPhaseGrid:
    def test_one_read_only_grid_per_transform_size(self):
        grids = {order: harmonics._phases(order) for order in range(5, harmonics.MAX_ORDER + 1)}
        assert {grid.size for grid in grids.values()} == {32, 64, 128, 256, 512, 1024}
        assert len({id(grid) for grid in grids.values()}) == 6
        assert harmonics._phases(10) is harmonics._phases(11)  # both 64 samples
        grid = grids[11]
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 1.0
        assert np.array_equal(grid, fresh_phases(11))

    @given(lattices())
    def test_cached_grid_matches_a_fresh_one(self, points):
        alice, bob, ln = points[0]
        spectrum = exact_tandem_spectrum(alice, bob, ln).amps
        try:
            errors = harmonics._error_points(points)
        except InvalidParameterError:
            reject()  # a degenerate pairing has no error points
        with mock.patch.object(harmonics, "_phases", fresh_phases):
            assert np.array_equal(exact_tandem_spectrum(alice, bob, ln).amps, spectrum)
            assert harmonics._error_points(points) == errors
        # the error points read the grid without changing it
        assert np.array_equal(exact_tandem_spectrum(alice, bob, ln).amps, spectrum)


class TestErrorPoints:
    @given(lattices())
    def test_matches_the_per_point_error(self, points):
        """The Bessel rows against the FFT oracle, at the scale of the powers.

        Each path rounds a harmonic of a field bounded by 1 by at most
        delta = 64 eps: twice an FFT's log2(n) * 5 eps at n = 64 (Higham,
        "Accuracy and Stability of Numerical Algorithms", 2nd ed., sec. 24.1).
        A weight |e| = |harmonic 0| * |harmonic 1| then moves by 2 delta, the
        norm N = 2(|e_a|^2 + |e_b|^2) by 8 delta sqrt(N), and a tandem line
        sqrt(p N loss) by delta sqrt(loss).  So the power p = |line|^2 / (N loss)
        moves by dp = 2 delta (sqrt(p) + 4 p) / sqrt(N), the error
        |1 - p_small / p| by p_small dp / p^2, and the absolute one by dp.
        Over 20000 scratch points, edge biases included, the two paths
        differed by at most 3.2 eps in delta's place.
        """
        order = harmonics._checked_order(None, max(max(a.m, b.m) for a, b, _ in points))
        try:
            want = [reference_powers(*point, order) for point in points]
        except InvalidParameterError:
            with pytest.raises(InvalidParameterError, match="degenerate pairing"):
                harmonics._error_points(points)
            return
        got = harmonics._error_points(points)
        assert len(got) == len(points)
        delta = 64 * 2.0**-52
        for pair, (p_exact, p_small, norm) in zip(got, want):
            for err, pe, ps in zip(pair, p_exact, p_small):
                dp = 2 * delta * (math.sqrt(pe) + 4 * pe) / math.sqrt(norm)
                if pe > 1e-9:
                    assert err == pytest.approx(abs(pe - ps) / pe, rel=0, abs=ps * dp / pe**2)
                else:
                    assert err == pytest.approx(abs(pe - ps), rel=0, abs=dp)

    def test_default_order_covers_the_largest_drive(self):
        small = (make_modulator(UM, 0.01, 0.4, 0.3), make_modulator(AM, 0.02, 0.7), link(0.6, 0.7))
        large = (make_modulator(UM, 20.0, 0.4, 0.3), make_modulator(AM, 0.5, 0.7), link(0.6, 0.7))
        for points in ([small, large], [large, small]):
            want = [small_signal_error(*point, order=68) for point in points]  # ceil(3 * 20) + 8
            assert harmonics._error_points(points) == want

    @pytest.mark.parametrize("order", [12.0, 12.5, True, "12", np.float64(12.0)])
    def test_non_integer_order_rejected(self, order):
        alice, bob = make_modulator(UM, 0.8, 0.4, 0.3), make_modulator(AM, 0.5, 0.7, 1.1)
        message = re.escape(f"order must be an integer, got {order!r}")
        for call in (exact_tandem_spectrum, small_signal_error):
            with pytest.raises(InvalidParameterError, match=message):
                call(alice, bob, link(0.6, 0.7), order)

    def test_numpy_integer_order_accepted(self):
        alice, bob = make_modulator(UM, 0.8, 0.4, 0.3), make_modulator(AM, 0.5, 0.7, 1.1)
        ln = link(0.6, 0.7)
        spectrum = exact_tandem_spectrum(alice, bob, ln, np.int64(12))
        assert spectrum.order == 12 and type(spectrum.order) is int
        assert np.array_equal(spectrum.amps, exact_tandem_spectrum(alice, bob, ln, 12).amps)
        assert small_signal_error(alice, bob, ln, np.int32(12)) == small_signal_error(
            alice, bob, ln, 12
        )


class TestExactInvariants:
    """ROADMAP item 5 invariants of the exact spectrum, as properties."""

    # Alice's coefficient on the closed form's zero-rule threshold
    @example(kinds=(AM, UM), ms=[0.19921875, 0.25], angles=[1e-12, 0.0, 0.0, 0.0, 1.0], loss=1.0)
    @given(
        st.sampled_from(PAIRINGS),
        st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=2, max_size=2),
        st.lists(ANGLE, min_size=5, max_size=5),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_total_power_bounded_by_the_loss(self, kinds, ms, angles, loss):
        alice = make_modulator(kinds[0], ms[0], angles[0], angles[1])
        bob = make_modulator(kinds[1], ms[1], angles[2], angles[3])
        total = exact_tandem_spectrum(alice, bob, link(angles[4], loss)).total_power()
        assert total <= loss + 1e-12
        if kinds == (PM, PM):
            assert abs(total - loss) <= 1e-12

    @given(
        st.sampled_from(PAIRINGS),
        st.floats(min_value=0.3, max_value=3.0),
        st.lists(CLEAR_BIAS, min_size=2, max_size=2),
        st.lists(ANGLE, min_size=3, max_size=3),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_first_order_error_is_quadratic(self, kinds, ratio, biases, angles, loss):
        """err(m/2) / err(m) -> 1/4, written with its O(m^2) correction.

        err = c2 m^2 + c4 m^4 + ..., so err(m/2) - err(m)/4 = -(3/16) c4 m^4 +
        O(m^6): the ratio is 1/4 + O(m^2) wherever c2 is not zero, and the
        difference stays O(m^4) where it is (isolated phases; there the
        error is quartic).  Biases keep 0.1 rad from the carrier and sideband
        nulls at multiples of pi/2, where c4 grows without bound.  Over 5784
        edge-weighted scratch values the difference over m^4 (m the larger
        drive) read at most 3.7, the same at m_b = 0.004 and 0.001, so the
        band is 10 m^4: 2.6e-10 to 2.1e-8, where an error linear in m would
        leave a difference of order m/4.
        """
        m_a, m_b = ratio * 0.004, 0.004
        ln = link(angles[2], loss)

        def specs(scale):
            return (
                make_modulator(kinds[0], scale * m_a, biases[0], angles[0]),
                make_modulator(kinds[1], scale * m_b, biases[1], angles[1]),
            )

        # near a fringe null the relative error is set by rounding alone
        assume(min(sideband_powers(*specs(1.0), ln)) >= 0.05)
        band = 10.0 * max(m_a, m_b) ** 4
        full, half = small_signal_error(*specs(1.0), ln), small_signal_error(*specs(0.5), ln)
        for err, err_half in zip(full, half):
            assert abs(err_half - err / 4) <= band
