import cmath
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from fcqkd import (
    DegenerateConfigurationError,
    InvalidParameterError,
    LinkSpec,
    ModulatorKind,
    ModulatorSpec,
    PhaseUndefinedError,
    interference_coeffs,
    make_modulator,
    sideband_powers,
    sideband_powers_direct,
)
from fcqkd.link import _direct_powers, _fringe, phase_offset, visibility
from fcqkd.modulator import _COUPLING, carrier_amplitude, sideband_factor

PM, AM, UM = ModulatorKind.PM, ModulatorKind.AM, ModulatorKind.UM
KINDS = [PM, AM, UM]

angles = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)
indices = st.floats(min_value=0.01, max_value=0.2, allow_nan=False)


def link(phase=0.0, loss=1.0):
    return LinkSpec(rf_frequency=2 * math.pi * 15e9, link_phase=phase, loss=loss)


def test_link_spec_validation():
    with pytest.raises(InvalidParameterError):
        LinkSpec(rf_frequency=0.0)
    with pytest.raises(InvalidParameterError):
        LinkSpec(rf_frequency=1.0, loss=0.0)
    with pytest.raises(InvalidParameterError):
        LinkSpec(rf_frequency=1.0, loss=1.2)
    with pytest.raises(InvalidParameterError):
        LinkSpec(rf_frequency=1.0, link_phase=math.inf)


# Inputs that are not Python or numpy reals, and a real no float holds
NOT_REAL = ["a", "0.3", None, True, False, np.bool_(True), 1j, [0.1], np.array([0.1, 0.2]),
            pytest.param(10**400, id="10**400")]


@pytest.mark.parametrize("value", NOT_REAL)
@pytest.mark.parametrize("field", ["rf_frequency", "link_phase", "loss"])
def test_non_real_span_field_rejected(field, value):
    fields = {"rf_frequency": 1.0, "link_phase": 0.0, "loss": 1.0, field: value}
    with pytest.raises(InvalidParameterError, match=field):
        LinkSpec(**fields)


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(rf_frequency=math.nan), "rf_frequency must be positive and finite"),
        (dict(rf_frequency=-math.inf), "rf_frequency must be positive and finite"),
        (dict(loss=math.nan), "loss must be in (0, 1], got nan"),
        (dict(loss=math.inf), "loss must be in (0, 1], got inf"),
        (dict(link_phase=-math.inf), "link_phase must be finite"),
    ],
)
def test_non_finite_span_messages_unchanged(fields, message):
    # the CLI prints these for a config's non-finite [link] values
    with pytest.raises(InvalidParameterError) as info:
        LinkSpec(**{"rf_frequency": 1.0, **fields})
    assert str(info.value) == message


@pytest.mark.parametrize("value", [1, np.int64(1), np.float32(1.0), np.float64(1.0)])
def test_span_reals_stored_as_floats(value):
    span = LinkSpec(value, value, value)
    assert (span.rf_frequency, span.link_phase, span.loss) == (1.0, 1.0, 1.0)
    assert all(type(x) is float for x in (span.rf_frequency, span.link_phase, span.loss))


class ThreeBandField(NamedTuple):
    """Complex amplitudes at the carrier and the two first-order sidebands."""

    carrier: complex
    lower: complex
    upper: complex


def band_amplitudes(mod: ModulatorSpec) -> ThreeBandField:
    """First-order three-band output field of a single modulator."""
    eps1, eps2, share = _COUPLING[mod.kind]
    u = cmath.exp(1j * mod.psi)
    s = sideband_factor(eps1, eps2, mod.m, share * mod.m, u)
    return ThreeBandField(
        carrier=carrier_amplitude(eps1, eps2, u),
        lower=s * cmath.exp(-1j * mod.phi),
        upper=s * cmath.exp(1j * mod.phi),
    )


def propagate(field: ThreeBandField, link: LinkSpec) -> ThreeBandField:
    """The span: common delay phase on the sidebands plus flat loss."""
    amp = math.sqrt(link.loss)
    rot = cmath.exp(-1j * link.link_phase)
    return ThreeBandField(
        carrier=amp * field.carrier,
        lower=amp * field.lower * rot.conjugate(),
        upper=amp * field.upper * rot,
    )


def cascade(alice_prop: ThreeBandField, bob: ThreeBandField) -> ThreeBandField:
    """The propagated field through Bob's modulator, to first order."""
    return ThreeBandField(
        carrier=alice_prop.carrier * bob.carrier,
        lower=bob.carrier * alice_prop.lower + alice_prop.carrier * bob.lower,
        upper=bob.carrier * alice_prop.upper + alice_prop.carrier * bob.upper,
    )


def cascade_powers(alice, bob, link):
    """The direct powers built band by band from the three-band tuples above (the oracle)."""
    a, b = band_amplitudes(alice), band_amplitudes(bob)
    scale = math.hypot(abs(b.carrier) * abs(a.upper), abs(a.carrier) * abs(b.upper))
    if scale == 0.0:
        raise DegenerateConfigurationError(
            "no sideband light: both interference coefficients are zero"
        )
    norm = 2.0 * link.loss
    out = cascade(propagate(a, link), b)
    return (abs(out.upper) / scale) ** 2 / norm, (abs(out.lower) / scale) ** 2 / norm


# Biases drawn freely or on the exact nulls, drives down to zero, so that
# degenerate pairings (no sideband light) come up too.
biases = st.one_of(angles, st.sampled_from([0.0, math.pi / 2, math.pi]))
drives = st.one_of(st.floats(min_value=0.0, max_value=2.0), st.just(0.0))


class TestDirectKernel:
    @example(AM, AM, 0.1, 0.2, 0.0, 0.0, 0.3, 0.4, 0.5, 0.5)  # no sideband light
    @example(UM, PM, 0.1, 0.0, math.pi / 2, 0.0, 0.3, 0.4, 0.5, 1e-3)  # one side dark
    # Alice's coefficient on the closed form's zero-rule threshold
    @example(AM, UM, 0.19921875, 0.25, 1e-12, 0.0, 0.0, 0.0, 1.0, 1.0)
    @given(
        st.sampled_from(KINDS), st.sampled_from(KINDS), drives, drives,
        biases, biases, angles, angles, angles, st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_matches_the_three_band_cascade(self, ka, kb, ma, mb, pa, pb, fa, fb, phase, loss):
        alice = make_modulator(ka, ma, pa, fa)
        bob = make_modulator(kb, mb, pb, fb)
        ln = link(phase, loss)
        want = outcome(cascade_powers, alice, bob, ln)
        assert outcome(sideband_powers_direct, alice, bob, ln) == want
        # Bob's drive phase as an argument, as the sweep passes it
        undriven_phase = make_modulator(kb, mb, pb, 0.0)
        assert outcome(_direct_powers, alice, undriven_phase, fb, ln) == want


class TestPropagate:
    """The span, seen through the direct powers."""

    def test_identity_at_zero_length(self):
        # two PMs over a lossless zero-length span: upper band (j/2)(m_a e^{j fa} + m_b e^{j fb})
        ma, mb, fa, fb = 0.1, 0.05, 0.3, 1.1
        powers = sideband_powers_direct(
            make_modulator(PM, ma, 0.0, fa), make_modulator(PM, mb, 0.0, fb), link(0.0, 1.0)
        )
        norm = 2.0 * (ma**2 + mb**2)
        upper = abs(ma * cmath.exp(1j * fa) + mb * cmath.exp(1j * fb)) ** 2 / norm
        lower = abs(ma * cmath.exp(-1j * fa) + mb * cmath.exp(-1j * fb)) ** 2 / norm
        assert powers == pytest.approx((upper, lower), rel=1e-12)

    def test_pi_phase_flips_sidebands(self):
        alice, bob = make_modulator(PM, 0.1, 0.0, 0.4), make_modulator(PM, 0.1, 0.0, 0.4)
        assert sideband_powers_direct(alice, bob, link(0.0)) == pytest.approx((1.0, 1.0))
        # the span negates Alice's sidebands: the bright fringe turns dark
        dark = sideband_powers_direct(alice, bob, link(math.pi))
        assert dark == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_quarter_turn_with_loss(self):
        # unit-visibility UM-AM pairing, offset +pi/2: the upper band turns by -pi/2
        # and the lower by +pi/2, so the fringe argument pi/2 darkens the upper
        # counter and lights the lower one; the loss cancels
        alice = make_modulator(UM, 0.1, 0.0, 0.0)
        bob = make_modulator(AM, 0.05, math.pi / 4, 0.0)
        p_up, p_low = sideband_powers_direct(alice, bob, link(math.pi / 2, 0.25))
        assert p_up == pytest.approx(0.0, abs=1e-12)
        assert p_low == pytest.approx(1.0, abs=1e-12)

    @given(st.sampled_from(KINDS), st.sampled_from(KINDS), indices, indices, angles, angles, angles)
    def test_lossless_power_conservation(self, ka, kb, ma, mb, pa, pb, phase):
        # over a lossless span the interference term cancels between opposite
        # Bob drive phases: each band's two powers sum to the incoherent total
        alice = make_modulator(ka, ma, pa, 0.0)
        a, b = interference_coeffs(alice, make_modulator(kb, mb, pb))
        assume(max(abs(a), abs(b)) > 1e-9)
        ln = link(phase, 1.0)
        one = sideband_powers_direct(alice, make_modulator(kb, mb, pb, 0.7), ln)
        opposite = sideband_powers_direct(alice, make_modulator(kb, mb, pb, 0.7 + math.pi), ln)
        assert one[0] + opposite[0] == pytest.approx(1.0, abs=1e-12)
        assert one[1] + opposite[1] == pytest.approx(1.0, abs=1e-12)


class TestCascade:
    """Bob's modulator, seen through the direct powers."""

    def test_identity_bob(self):
        # an undriven Bob passes Alice's bands unchanged: each carries half the total
        alice = make_modulator(UM, 0.1, 0.2, 0.3)
        powers = sideband_powers_direct(alice, make_modulator(PM, 0.0), link(0.6, 0.5))
        assert powers == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_identity_alice(self):
        bob = make_modulator(AM, 0.1, 0.4, 0.1)
        powers = sideband_powers_direct(make_modulator(PM, 0.0), bob, link(0.6, 0.5))
        assert powers == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_opposed_phase_modulators_cancel(self):
        alice = make_modulator(PM, 0.1, 0.0, 0.0)
        bob = make_modulator(PM, 0.1, 0.0, math.pi)
        powers = sideband_powers_direct(alice, bob, link(0.0))
        assert powers == pytest.approx((0.0, 0.0), abs=1e-15)


class TestInterferenceCoeffs:
    def test_um_pm(self):
        psi_a = 0.4
        a, b = interference_coeffs(
            make_modulator(UM, 0.1, psi_a), make_modulator(PM, 0.05)
        )
        # Alice term: (j/2) * (m_a/2) e^{j psi_a}; Bob term: (j/2) m_b cos(psi_a)
        assert a == pytest.approx(0.5j * 0.05 * cmath.exp(1j * psi_a))
        assert b == pytest.approx(0.5j * 0.05 * math.cos(psi_a))

    def test_um_am(self):
        psi_a, psi_b = 0.3, 0.7
        a, b = interference_coeffs(
            make_modulator(UM, 0.2, psi_a), make_modulator(AM, 0.1, psi_b)
        )
        assert abs(a) == pytest.approx(0.5 * (0.2 / 2) * abs(math.cos(psi_b)))
        assert abs(b) == pytest.approx(0.5 * 0.1 * abs(math.cos(psi_a) * math.sin(psi_b)))
        assert phase_offset(a, b) == pytest.approx(math.pi / 2 - psi_a)

    def test_zero_rule_at_1e_12_of_the_scale(self):
        # Alice UM just off her carrier null against Bob PM at m = 0.1: Bob's
        # coefficient is |cos psi_a| * 0.05, its threshold 1e-12 * 0.05.  Off by
        # 3e-12 it is 3x the threshold, live, and zero under a 1e-11 rule; off
        # by 3e-13 it is 0.3x, zero, and live under a 1e-13 rule.
        bob = make_modulator(PM, 0.1)
        for offset, live in ((3e-12, True), (3e-13, False)):
            _, b, _, phase = _fringe(make_modulator(UM, 0.1, math.pi / 2 + offset), bob)
            assert abs(b) == pytest.approx(0.05 * offset, rel=1e-3)
            assert (phase is not None) is live

    def test_pm_pm_ratio_and_offset(self):
        a, b = interference_coeffs(
            make_modulator(PM, 0.16, 0.9, 0.2), make_modulator(PM, 0.08, 1.7, 2.2)
        )
        assert abs(a) / abs(b) == pytest.approx(2.0, rel=1e-12)
        assert phase_offset(a, b) == pytest.approx(0.0, abs=1e-12)


class TestVisibilityAndOffset:
    def test_equal_magnitudes(self):
        assert visibility(1j, -1.0) == pytest.approx(1.0)

    def test_zero_coefficient(self):
        assert visibility(0.5, 0j) == 0.0

    def test_arithmetic(self):
        assert visibility(1.0, 0.5) == pytest.approx(0.8)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateConfigurationError):
            visibility(0j, 0j)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        angles,
        angles,
        st.floats(min_value=-300.0, max_value=300.0),
    )
    def test_visibility_scale_invariant(self, mag_a, mag_b, arg_a, arg_b, log_scale):
        a, b = mag_a * cmath.exp(1j * arg_a), mag_b * cmath.exp(1j * arg_b)
        s = 10.0**log_scale
        assert abs(visibility(s * a, s * b) - visibility(a, b)) <= 1e-15

    @pytest.mark.parametrize("m", [1e155, 1e200, 1e300])
    def test_visibility_at_huge_drive(self, m):
        # equal drives: both coefficients scale with m, so V does not depend on it
        small = _fringe(make_modulator(UM, 0.1, 0.3), make_modulator(AM, 0.1, 0.5))
        huge = _fringe(make_modulator(UM, m, 0.3), make_modulator(AM, m, 0.5))
        assert huge[2] == pytest.approx(small[2], abs=1e-15)
        assert huge[2] == pytest.approx(0.99909, abs=1e-5)

    def test_offset_undefined(self):
        with pytest.raises(PhaseUndefinedError):
            phase_offset(0j, 1.0)

    def test_visibility_never_rounds_above_one(self):
        # r = 1 - k 2^-53: exactly 1 up to k = 2^26, a dense run past it, and
        # log-spaced k to 2^40, where the quotient is far under 1
        ks = [*range(1 << 16), *range((1 << 26) - (1 << 15), (1 << 26) + (1 << 16))]
        ks += [int(2.0**e) for e in np.arange(16.0, 40.0, 1 / 256)]
        for k in ks:
            assert visibility(1.0, 1.0 - k * 2.0**-53) <= 1.0
        assert visibility(1.0, 1.0 - (1 << 25) * 2.0**-53) == 1.0

    def test_offset_wrap(self):
        assert phase_offset(1.0, -1.0) == pytest.approx(math.pi)
        # a raw difference of phases gives -pi here; the offset lies in (-pi, pi]
        assert phase_offset(1, complex(-1, -0.0)) == math.pi
        assert phase_offset(cmath.exp(1j * 3.0), 1.0) == pytest.approx(-3.0)

    def test_table_offsets(self):
        # PM-AM sits at +pi/2, UM-PM at -psi_a, UM-AM at pi/2 - psi_a
        psi_a, psi_b = 0.5, 0.8
        cases = [
            ((PM, 0.0), (AM, psi_b), math.pi / 2),
            ((UM, psi_a), (PM, 0.0), -psi_a),
            ((UM, psi_a), (AM, psi_b), math.pi / 2 - psi_a),
        ]
        for (ka, pa), (kb, pb), expected in cases:
            a, b = interference_coeffs(
                make_modulator(ka, 0.1, pa), make_modulator(kb, 0.1, pb)
            )
            assert phase_offset(a, b) == pytest.approx(expected, abs=1e-12)

    def test_tandem_result_consistency(self):
        a, b, vis, _ = _fringe(make_modulator(UM, 0.1, 0.3), make_modulator(AM, 0.07, 0.6))
        re_derived = 2 * abs(a) * abs(b) / (abs(a) ** 2 + abs(b) ** 2)
        assert vis == pytest.approx(re_derived, rel=1e-15)

    def test_tandem_result_flags_undefined_offset(self):
        _, _, vis, offset = _fringe(
            make_modulator(UM, 0.1, math.pi / 2), make_modulator(PM, 0.05)
        )
        assert offset is None
        assert vis == 0.0

    def test_tandem_result_degenerate_at_double_null(self):
        with pytest.raises(DegenerateConfigurationError):
            _fringe(
                make_modulator(UM, 0.1, math.pi / 2),
                make_modulator(UM, 0.1, math.pi / 2),
            )


class TestSidebandPowers:
    def test_b92_extinction(self):
        alice = make_modulator(UM, 0.1, 0.0, 0.0)
        bob = make_modulator(PM, 0.05, 0.0, math.pi)
        p_up, p_low = sideband_powers(alice, bob, link(0.0))
        assert p_up == pytest.approx(0.0, abs=1e-15)
        assert p_low == pytest.approx(0.0, abs=1e-15)

    def test_bb84_quadrature_point(self):
        # unit-visibility UM-AM pairing driven at a pi/2 fringe argument
        alice = make_modulator(UM, 0.1, 0.0, 0.0)
        bob = make_modulator(AM, 0.05, math.pi / 4, 0.0)
        p_up, p_low = sideband_powers(alice, bob, link(0.0))
        assert p_up == pytest.approx(0.5, abs=1e-12)
        assert p_low == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateConfigurationError):
            sideband_powers(
                make_modulator(AM, 0.1, 0.0), make_modulator(AM, 0.1, 0.0), link()
            )

    def test_single_zero_coefficient_gives_half(self):
        p_up, p_low = sideband_powers(
            make_modulator(UM, 0.1, math.pi / 2), make_modulator(AM, 0.1, 0.4), link()
        )
        assert (p_up, p_low) == (0.5, 0.5)

    @given(
        st.sampled_from(KINDS), st.sampled_from(KINDS),
        indices, indices, angles, angles, angles, angles, angles,
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_closed_form_matches_direct(
        self, ka, kb, ma, mb, pa, pb, fa, fb, phase, loss
    ):
        alice = make_modulator(ka, ma, pa, fa)
        bob = make_modulator(kb, mb, pb, fb)
        # skip rounding-dominated neighborhoods of the singular biases,
        # where the normalized direct power is ill-conditioned
        a, b = interference_coeffs(alice, bob)
        assume(min(abs(a), abs(b)) > 1e-9)
        ln = link(phase, loss)
        closed = sideband_powers(alice, bob, ln)
        direct = sideband_powers_direct(alice, bob, ln)
        assert closed[0] == pytest.approx(direct[0], abs=1e-12)
        assert closed[1] == pytest.approx(direct[1], abs=1e-12)

    @given(
        st.sampled_from(KINDS), st.sampled_from(KINDS),
        indices, indices, angles, angles, angles, angles, angles,
    )
    def test_power_sum_identity(self, ka, kb, ma, mb, pa, pb, fa, fb, phase):
        alice = make_modulator(ka, ma, pa, fa)
        bob = make_modulator(kb, mb, pb, fb)
        a, b = interference_coeffs(alice, bob)
        if min(abs(a), abs(b)) < 1e-9:
            return
        p_up, p_low = sideband_powers(alice, bob, link(phase))
        vis = visibility(a, b)
        offset = phase_offset(a, b)
        x = fb - fa + phase
        expected = 1.0 + vis * math.cos(offset) * math.cos(x)
        assert p_up + p_low == pytest.approx(expected, abs=1e-12)

    def test_loss_cancels_in_both_paths(self):
        alice = make_modulator(UM, 0.1, 0.2, 0.3)
        bob = make_modulator(PM, 0.05, 0.0, 1.2)
        for loss in (1.0, 0.25, 0.01):
            closed = sideband_powers(alice, bob, link(0.5, loss))
            direct = sideband_powers_direct(alice, bob, link(0.5, loss))
            assert closed[0] == pytest.approx(direct[0], abs=1e-12)
            assert closed == pytest.approx(sideband_powers(alice, bob, link(0.5, 1.0)))


class TestFringeInvariants:
    """Symmetries of the fringe law, over all nine pairings."""

    @given(
        st.sampled_from(KINDS), st.sampled_from(KINDS),
        indices, indices, angles, angles, angles, angles,
    )
    def test_swapping_alice_and_bob_negates_the_offset(self, ka, kb, ma, mb, pa, pb, fa, fb):
        alice = make_modulator(ka, ma, pa, fa)
        bob = make_modulator(kb, mb, pb, fb)
        a, b = interference_coeffs(alice, bob)
        assume(min(abs(a), abs(b)) > 1e-9)
        _, _, vis, offset = _fringe(alice, bob)
        _, _, vis_swapped, offset_swapped = _fringe(bob, alice)
        assert vis_swapped == vis
        assert abs(math.remainder(offset + offset_swapped, math.tau)) <= 1e-15

    @given(
        st.sampled_from(KINDS), st.sampled_from(KINDS),
        indices, indices, angles, angles, angles, angles, angles, angles,
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_link_phase_moves_into_bobs_drive_phase(
        self, ka, kb, ma, mb, pa, pb, fa, fb, phase, delta, loss
    ):
        alice = make_modulator(ka, ma, pa, fa)
        bob = make_modulator(kb, mb, pb, fb)
        a, b = interference_coeffs(alice, bob)
        assume(min(abs(a), abs(b)) > 1e-9)
        shifted_bob = make_modulator(kb, mb, pb, fb + delta)
        for powers in (sideband_powers, sideband_powers_direct):
            moved = powers(alice, bob, link(phase + delta, loss))
            same = powers(alice, shifted_bob, link(phase, loss))
            assert moved[0] == pytest.approx(same[0], abs=1e-12)
            assert moved[1] == pytest.approx(same[1], abs=1e-12)


def outcome(evaluate, *args):
    """``evaluate(*args)``, or the type and message of the error it raises."""
    try:
        return evaluate(*args)
    except DegenerateConfigurationError as exc:
        return type(exc), str(exc)
