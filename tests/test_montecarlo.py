import json
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcqkd import (
    B92,
    BB84,
    FcqkdError,
    InfeasibleProtocolError,
    InvalidParameterError,
    LinkSpec,
    ModulatorKind,
    SessionConfig,
    expected_counts,
    make_modulator,
    qber_vs_offset,
    run_session,
)
from fcqkd import montecarlo
from fcqkd.link import _fringe, _fringe_powers
from fcqkd.montecarlo import CANONICAL_PHASES, MAX_PULSES, SessionStats, offset_seed
from fcqkd.protocols import check_protocol

PM, AM, UM = ModulatorKind.PM, ModulatorKind.AM, ModulatorKind.UM


def bb84_config(**overrides):
    base = dict(
        protocol=BB84,
        alice=make_modulator(UM, 0.1, math.pi / 4),
        bob=make_modulator(UM, 0.1, -math.pi / 4),
        link=LinkSpec(rf_frequency=2 * math.pi * 15e9, link_phase=0.27),
        mu=0.1,
        eta=1.0,
        p_dark=0.0,
        n_pulses=50_000,
        seed=11,
    )
    base.update(overrides)
    return SessionConfig(**base)


def b92_config(**overrides):
    base = dict(
        protocol=B92,
        alice=make_modulator(UM, 0.1, 0.0),
        bob=make_modulator(PM, 0.05, 0.0),
        link=LinkSpec(rf_frequency=2 * math.pi * 15e9, link_phase=0.6),
        mu=0.1,
        eta=1.0,
        p_dark=0.0,
        n_pulses=50_000,
        seed=3,
    )
    base.update(overrides)
    return SessionConfig(**base)


def test_reproducible_for_fixed_seed():
    cfg = bb84_config()
    assert run_session(cfg) == run_session(cfg)
    different = run_session(replace(cfg, seed=12))
    assert different != run_session(cfg)


def test_bb84_ideal_session_error_free():
    stats = run_session(bb84_config())
    assert stats.sifted_bits > 1000
    assert stats.conclusive >= stats.sifted_bits
    assert stats.errors == 0
    assert stats.qber == 0.0


def test_b92_ideal_session_error_free():
    stats = run_session(b92_config())
    assert stats.sifted_bits == stats.conclusive > 1000
    assert stats.qber == 0.0


def test_no_light_is_inconclusive():
    stats = run_session(b92_config(mu=0.0))
    assert stats.conclusive == 0
    assert stats.qber is None


def test_infeasible_protocol_rejected():
    with pytest.raises(InfeasibleProtocolError) as err:
        run_session(
            bb84_config(
                alice=make_modulator(AM, 0.1, 0.4), bob=make_modulator(AM, 0.1, 0.7)
            )
        )
    assert err.value.reason == "theta-mismatch"

    with pytest.raises(InfeasibleProtocolError) as err:
        run_session(
            b92_config(
                alice=make_modulator(UM, 0.1, math.pi / 2),
                bob=make_modulator(AM, 0.05, 0.4),
            )
        )
    assert err.value.reason == "zero-visibility"


@pytest.mark.parametrize("session", [run_session, expected_counts])
def test_vanished_coefficient_rejected(session):
    # a feasible kind pairing whose sideband from Alice vanishes at m = 0
    cfg = b92_config(alice=make_modulator(UM, 0.0, 0.0))
    with pytest.raises(InfeasibleProtocolError) as err:
        session(cfg)
    assert err.value.reason == "zero-visibility"


def test_basis_mismatch_near_half():
    # a matched cell sends all its light to one counter, a mismatched cell
    # splits it and loses double clicks, so the matched share is above 1/2
    cfg = bb84_config(n_pulses=100_000)
    stats = run_session(cfg)
    conclusive, sifted, _ = expected_counts(cfg)
    matched_fraction = stats.sifted_bits / stats.conclusive
    sigma = math.sqrt(0.25 / stats.conclusive)
    assert abs(matched_fraction - sifted / conclusive) < 3 * sigma


def test_conclusive_rate_linear_in_mu():
    # the session's conclusive counts follow their expectations, which at
    # small mu grow as eta * mu * (mean pair power)
    n = 200_000
    for cfg_maker, pair_power in ((bb84_config, 1.0), (b92_config, 0.5)):
        rates, expected, variances = [], [], []
        mus = (0.01, 0.02, 0.04)
        for mu in mus:
            cfg = cfg_maker(mu=mu, n_pulses=n)
            stats = run_session(cfg)
            p = expected_counts(cfg)[0] / n
            rates.append(stats.conclusive / stats.sent)
            expected.append(p)
            variances.append(p * (1 - p) / n)
            assert abs(rates[-1] - p) < 3 * math.sqrt(variances[-1])
        run = mus[-1] - mus[0]
        slope, expected_slope = ((r[-1] - r[0]) / run for r in (rates, expected))
        assert abs(slope - expected_slope) < 3 * math.sqrt(variances[0] + variances[-1]) / run
        # the curvature of 1 - exp(-eta mu P) bends the secant by O(mu)
        assert expected_slope == pytest.approx(pair_power, rel=mus[-1])


def test_uncompensated_quarter_wave_randomizes_bb84():
    stats = run_session(bb84_config(n_pulses=100_000), phase_error=math.pi / 2)
    sigma = math.sqrt(0.25 / stats.sifted_bits)
    assert abs(stats.qber - 0.5) < 3 * sigma


def test_dark_counts_cause_errors():
    stats = run_session(b92_config(mu=0.0, p_dark=0.05, n_pulses=100_000))
    sigma = math.sqrt(0.25 / stats.sifted_bits)
    assert stats.conclusive > 0
    assert abs(stats.qber - 0.5) < 3 * sigma


def test_qber_vs_offset_follows_fringe_law():
    cfg = bb84_config(n_pulses=100_000)
    offsets = [0.0, math.pi / 4, math.pi / 2, 2 * math.pi / 3, math.pi]
    for delta, qber in qber_vs_offset(cfg, offsets):
        _, sifted, errors = expected_counts(cfg, phase_error=delta)
        expected = errors / sifted
        band = 3 * math.sqrt(max(expected * (1 - expected), 1e-9) / sifted)
        assert qber == pytest.approx(expected, abs=band + 1e-9)


def test_invalid_config_rejected():
    for bad in (
        dict(mu=-0.1),
        dict(eta=1.5),
        dict(p_dark=1.0),
        dict(n_pulses=0),
        dict(protocol="E91"),
    ):
        with pytest.raises(InvalidParameterError):
            bb84_config(**bad)


@pytest.mark.parametrize(
    "bad",
    [dict(mu=math.nan), dict(mu=math.inf), dict(seed=-1), dict(seed=1.5),
     dict(n_pulses=2**63), dict(n_pulses=int(1e20)), dict(n_pulses=1500.7),
     dict(n_pulses=True), dict(seed=True), dict(seed=False)],
)
def test_unsamplable_config_rejected(bad):
    with pytest.raises(InvalidParameterError):
        bb84_config(**bad)


# Inputs that are not Python or numpy reals, and a real no float holds
NOT_REAL = ["a", "0.1", None, True, False, np.bool_(True), 1j, [0.1], np.array([0.1, 0.2]),
            pytest.param(10**400, id="10**400")]


@pytest.mark.parametrize("value", NOT_REAL)
@pytest.mark.parametrize("field", ["mu", "eta", "p_dark"])
def test_non_real_rate_rejected(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        bb84_config(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("alice", None), ("bob", None), ("link", None),
     ("alice", LinkSpec(rf_frequency=1.0)), ("link", make_modulator(UM, 0.1)),
     ("protocol", np.array([B92, B92]))],
    ids=lambda x: x if isinstance(x, str) else type(x).__name__,
)
def test_untyped_object_field_rejected(field, value):
    # a membership test on an array would raise numpy's own ValueError
    with pytest.raises(InvalidParameterError, match=field):
        bb84_config(**{field: value})


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(mu=math.nan), "mu must be finite and >= 0, got nan"),
        (dict(mu=math.inf), "mu must be finite and >= 0, got inf"),
        (dict(eta=math.nan), "eta must lie in [0, 1]"),
        (dict(eta=-math.inf), "eta must lie in [0, 1]"),
        (dict(p_dark=math.nan), "p_dark must lie in [0, 1)"),
        (dict(p_dark=math.inf), "p_dark must lie in [0, 1)"),
    ],
)
def test_non_finite_rate_messages_unchanged(fields, message):
    # the CLI prints these for a config's non-finite [montecarlo] values
    with pytest.raises(InvalidParameterError) as info:
        bb84_config(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [1, np.int64(1), np.float32(1.0), np.float64(1.0)])
def test_rate_reals_stored_as_floats(value):
    cfg = bb84_config(mu=value, eta=value, p_dark=value - 1)
    assert (cfg.mu, cfg.eta, cfg.p_dark) == (1.0, 1.0, 0.0)
    assert all(type(x) is float for x in (cfg.mu, cfg.eta, cfg.p_dark))


@pytest.mark.parametrize("phase_error", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_error_rejected(phase_error):
    cfg = bb84_config()
    for call in (
        lambda: run_session(cfg, phase_error),
        lambda: expected_counts(cfg, phase_error),
        lambda: qber_vs_offset(cfg, [0.0, phase_error]),
    ):
        with pytest.raises(InvalidParameterError, match="phase_error must be finite"):
            call()


def test_overflowing_span_phase_is_a_parameter_error():
    # link_phase + phase_error = 1.7e308 + 1.7e308 is inf, whose cosine is
    # a math domain error; a sum that stays finite runs
    cfg = b92_config(link=LinkSpec(rf_frequency=1.0, link_phase=1.7e308))
    for call in (run_session, expected_counts, lambda c, e: qber_vs_offset(c, [0.0, e])):
        with pytest.raises(InvalidParameterError, match="link_phase \\+ phase_error overflows"):
            call(cfg, 1.7e308)
        call(cfg, -1.7e308)


@pytest.mark.parametrize("phase_error", [True, "0.1", None, np.array(0.1), np.array([0.1, 0.2])])
def test_non_real_phase_error_rejected(phase_error):
    cfg = bb84_config()
    for call in (run_session, expected_counts, lambda c, e: qber_vs_offset(c, [e])):
        with pytest.raises(InvalidParameterError, match="phase_error must be a real number"):
            call(cfg, phase_error)


@pytest.mark.parametrize("offsets", [None, 0.5, np.array(0.5)], ids=repr)
def test_non_iterable_offsets_rejected(offsets):
    with pytest.raises(InvalidParameterError, match="offsets must be iterable"):
        qber_vs_offset(bb84_config(), offsets)


def test_expected_counts_match_mean_over_seeds():
    # dark counts and an uncompensated phase make every count nonzero
    for cfg_maker in (bb84_config, b92_config):
        cfg = cfg_maker(mu=0.3, p_dark=0.01, n_pulses=20_000)
        samples = np.array([
            (s.conclusive, s.sifted_bits, s.errors)
            for s in (run_session(replace(cfg, seed=seed), phase_error=0.4)
                      for seed in range(200))
        ])
        expected = expected_counts(cfg, phase_error=0.4)
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
        assert np.all(np.abs(samples.mean(axis=0) - expected) < 4 * stderr)


def test_session_memory_independent_of_pulses():
    cfg = b92_config(n_pulses=10**12)
    tracemalloc.start()
    try:
        stats = run_session(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.sent == 10**12
    assert peak < 1_000_000


def test_expected_counts_closed_form():
    # ideal BB84: a matched cell sends all light to one counter, a
    # mismatched cell half to each, and a double click is dropped
    mu, n = 0.1, 100_000
    matched = 1.0 - math.exp(-mu)
    half = 1.0 - math.exp(-mu / 2)
    conclusive, sifted, errors = expected_counts(bb84_config(mu=mu, n_pulses=n))
    assert sifted == pytest.approx(n * matched / 2, rel=1e-9)
    assert conclusive == pytest.approx(n * (matched / 2 + half * (1.0 - half)), rel=1e-9)
    assert errors == pytest.approx(0.0, abs=1e-9)
    assert sifted / conclusive == pytest.approx(0.5063, abs=1e-4)


def test_power_below_zero_is_no_light(monkeypatch):
    # V <= 1 keeps the fringe law at or above zero; a power rounded below
    # zero would otherwise give the counter a negative click probability
    monkeypatch.setattr(montecarlo, "_fringe_powers", lambda vis, offset, x: (-1e-17, 1.0))
    stats = run_session(bb84_config(mu=1e3))
    assert stats.upper_clicks == 0 and stats.lower_clicks == stats.sent


class TestOffsetSweep:
    def test_one_pairing_step_and_no_config_per_offset(self, monkeypatch):
        cfg, offsets = bb84_config(), [0.0, 0.4, 0.8, 1.2, 1.6]
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(montecarlo, "check_protocol", counting("check", check_protocol))
        monkeypatch.setattr(montecarlo, "_fringe", counting("fringe", _fringe))
        post_init = SessionConfig.__post_init__
        monkeypatch.setattr(SessionConfig, "__post_init__", counting("config", post_init))
        seeds = []
        rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or rng(seed))
        results = qber_vs_offset(cfg, offsets)
        assert calls == ["check", "fringe"]
        assert seeds == [offset_seed(cfg.seed, i) for i in range(len(offsets))]
        monkeypatch.undo()
        for i, (delta, qber) in enumerate(results):
            child = replace(cfg, seed=offset_seed(cfg.seed, i))
            assert (delta, qber) == (offsets[i], run_session(child, phase_error=delta).qber)

    def test_infeasible_pairing_with_no_offsets_returns_nothing(self):
        cfg = bb84_config(alice=make_modulator(AM, 0.1, 0.4), bob=make_modulator(AM, 0.1, 0.7))
        assert qber_vs_offset(cfg, []) == []
        with pytest.raises(InfeasibleProtocolError):
            qber_vs_offset(cfg, [0.0, math.nan])

    def test_non_finite_first_offset_raises_before_the_pairing(self):
        cfg = bb84_config(alice=make_modulator(AM, 0.1, 0.4), bob=make_modulator(AM, 0.1, 0.7))
        with pytest.raises(InvalidParameterError, match="phase_error must be finite"):
            qber_vs_offset(cfg, [math.nan, 0.0])


def test_numpy_integers_report_python_ints():
    # a numpy count is accepted, but the stats carry Python ints that JSON takes
    cfg = bb84_config(n_pulses=np.int64(5000), seed=np.uint32(11))
    stats = run_session(cfg)
    assert stats == run_session(bb84_config(n_pulses=5000, seed=11))
    assert all(type(v) is int for v in (stats.sent, stats.conclusive, stats.errors))
    json.dumps(stats.__dict__)


# --- the numpy session kernel, kept as the oracle for the flat one ----------

_REF_ALPHABETS = {BB84: ((0, 1, 2, 3), (0, 1)), B92: ((0, 1), (2, 3))}
_BB84_MATCHED = np.arange(4)[:, None] % 2 == np.arange(2)  # Alice basis == Bob basis
_UPPER, _LOWER, _BOTH = 1, 2, 3


def _infeasible(cfg, reason):
    return InfeasibleProtocolError(
        reason, f"{cfg.protocol} not supported by this pairing: {reason}"
    )


def _counter_powers(cfg, phase_error):
    _, _, vis, offset = _fringe(cfg.alice, cfg.bob)
    if offset is None:
        raise _infeasible(cfg, "zero-visibility")
    compensation = cfg.link.link_phase + offset
    span_phase = cfg.link.link_phase + phase_error
    alices, bobs = ([CANONICAL_PHASES[k] for k in row] for row in _REF_ALPHABETS[cfg.protocol])
    powers = [
        [_fringe_powers(vis, offset, phi_b - compensation - phi_a + span_phase) for phi_b in bobs]
        for phi_a in alices
    ]
    return np.moveaxis(np.array(powers), -1, 0)


def _cell_probabilities(cfg, phase_error):
    if not math.isfinite(phase_error):
        raise InvalidParameterError(f"phase_error must be finite, got {phase_error!r}")
    feasibility = check_protocol(cfg.alice, cfg.bob, cfg.protocol)
    if not feasibility.feasible:
        raise _infeasible(cfg, feasibility.failure_reason)
    powers = _counter_powers(cfg, phase_error)
    # Rounding can leave a fringe null a hair below zero; no light is no light.
    quiet_up, quiet_low = (1.0 - cfg.p_dark) * np.exp(
        -cfg.eta * cfg.mu * np.maximum(powers, 0.0)
    )
    click_up, click_low = 1.0 - quiet_up, 1.0 - quiet_low
    cells = np.stack(
        (quiet_up * quiet_low, click_up * quiet_low, quiet_up * click_low, click_up * click_low),
        axis=-1,
    )
    return cells / quiet_up.size


def _tally(protocol, cells):
    upper_only, lower_only = cells[..., _UPPER], cells[..., _LOWER]
    upper = (upper_only + cells[..., _BOTH]).sum()
    lower = (lower_only + cells[..., _BOTH]).sum()
    if protocol == BB84:
        single = upper_only + lower_only
        # upper-only decodes as 0, lower-only as 1; rows 0-1 carry bit 0
        wrong = np.concatenate((lower_only[:2], upper_only[2:]))
        sifted, errors = single[_BB84_MATCHED].sum(), wrong[_BB84_MATCHED].sum()
        return single.sum(), sifted, errors, upper, lower
    clicked = cells[..., _UPPER:].sum(axis=-1)
    # a click decodes as bit 1 - column: wrong exactly when column == row
    return clicked.sum(), clicked.sum(), np.trace(clicked), upper, lower


def reference_expected_counts(cfg, phase_error=0.0):
    conclusive, sifted, errors, _, _ = _tally(
        cfg.protocol, cfg.n_pulses * _cell_probabilities(cfg, phase_error)
    )
    return float(conclusive), float(sifted), float(errors)


def reference_run_session(cfg, phase_error=0.0):
    p = _cell_probabilities(cfg, phase_error)
    counts = np.random.default_rng(cfg.seed).multinomial(cfg.n_pulses, p.ravel())
    conclusive, sifted, errors, upper, lower = map(
        int, _tally(cfg.protocol, counts.reshape(p.shape))
    )
    return SessionStats(
        sent=cfg.n_pulses,
        conclusive=conclusive,
        sifted_bits=sifted,
        errors=errors,
        qber=errors / sifted if sifted else None,
        upper_clicks=upper,
        lower_clicks=lower,
    )


def reference_qber_vs_offset(cfg, offsets):
    results = []
    for i, delta in enumerate(offsets):
        child = replace(cfg, seed=offset_seed(cfg.seed, i))
        stats = reference_run_session(child, phase_error=delta)
        results.append((delta, stats.qber))
    return results


def _outcome(fn, *args):
    """What ``fn`` returns, or the type and message of what it raises."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # the exception is the outcome
        return "raised", type(exc), str(exc)


# Free biases, or a point of one of the classifier's bias families, where
# some pairings support a protocol.
_BIAS_RULES = (
    lambda t, u, n: (t, u),
    lambda t, u, n: (n * math.pi, t),
    lambda t, u, n: (t, n * math.pi),
    lambda t, u, n: (t, t + n * math.pi),
    lambda t, u, n: (t, t + (2 * n + 1) * 0.5 * math.pi),
)
_KINDS = st.sampled_from((PM, AM, UM))
# Mostly moderate phases, now and then a huge or non-finite one.
_PHASE_ERROR = st.one_of(st.floats(-10.0, 10.0), st.floats())


@st.composite
def sessions(draw):
    protocol, alice_kind, bob_kind = draw(st.sampled_from((B92, BB84))), draw(_KINDS), draw(_KINDS)
    psi_a, psi_b = draw(st.sampled_from(_BIAS_RULES))(
        draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0)), draw(st.integers(-2, 2))
    )
    m_b = draw(st.floats(0.0, 2.0))
    m_a = draw(st.floats(0.0, 2.0))
    if draw(st.booleans()):
        # trim the index ratio to unit visibility where the biases allow
        feasibility = check_protocol(
            make_modulator(alice_kind, 1.0, psi_a), make_modulator(bob_kind, 1.0, psi_b), protocol
        )
        if feasibility.feasible:
            m_a = feasibility.index_ratio * m_b
    return SessionConfig(
        protocol=protocol,
        alice=make_modulator(alice_kind, m_a, psi_a, draw(st.floats(-4.0, 4.0))),
        bob=make_modulator(bob_kind, m_b, psi_b, draw(st.floats(-4.0, 4.0))),
        link=LinkSpec(rf_frequency=2 * math.pi * 15e9, link_phase=draw(st.floats(-10.0, 10.0))),
        mu=draw(st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 1e6))),
        eta=draw(st.floats(0.0, 1.0)),
        p_dark=draw(st.floats(0.0, 1.0, exclude_max=True)),
        n_pulses=draw(st.integers(1, MAX_PULSES)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


class TestFlatKernel:
    @settings(max_examples=400, deadline=None)
    @given(sessions(), _PHASE_ERROR, st.lists(_PHASE_ERROR, max_size=3))
    def test_matches_the_numpy_kernel(self, cfg, phase_error, offsets):
        assert _outcome(run_session, cfg, phase_error) == _outcome(
            reference_run_session, cfg, phase_error
        )
        assert _outcome(qber_vs_offset, cfg, offsets) == _outcome(
            reference_qber_vs_offset, cfg, offsets
        )
        got = _outcome(expected_counts, cfg, phase_error)
        want = _outcome(reference_expected_counts, cfg, phase_error)
        if want[0] == "raised":
            assert got == want
            return
        assert got[0] == "returned"
        # the same positive products, summed in another order: each side
        # rounds at most 15 additions, each by at most half an ulp of the
        # total, so the two differ by at most 2 * 15 half-ulps of it
        for value, ref in zip(got[1], want[1]):
            assert abs(value - ref) <= 16 * sys.float_info.epsilon * abs(ref)


# Phase errors and offsets a caller may pass by mistake: non-reals, bools,
# non-finite and huge floats, numpy scalars, and 0-d and 2-element arrays.
_JUNK = st.one_of(
    st.sampled_from(["0.1", "", None, True, False, math.nan, math.inf, -math.inf, 1e308, -1e308]),
    st.floats(),
    st.sampled_from([np.float64(0.3), np.float32(-2.5), np.int64(2), np.bool_(True), np.float64(math.inf)]),
    st.floats(-10.0, 10.0).map(np.array),
    st.floats(-10.0, 10.0).map(lambda x: np.array([x, -x])),
)
_NOT_ITERABLE = st.sampled_from([None, 5, 0.5, math.nan, np.float64(0.5), np.array(0.5), object()])


class TestJunkInputs:
    @settings(max_examples=300, deadline=None)
    @given(
        sessions(),
        st.sampled_from([None, 1.7e308, -1.7e308]),
        _JUNK,
        st.one_of(st.lists(_JUNK, max_size=3), st.text(max_size=2), _NOT_ITERABLE),
    )
    def test_returns_or_raises_a_typed_error(self, cfg, link_phase, phase_error, offsets):
        if link_phase is not None:
            cfg = replace(cfg, link=replace(cfg.link, link_phase=link_phase))
        for call in (
            lambda: run_session(cfg, phase_error),
            lambda: expected_counts(cfg, phase_error),
            lambda: qber_vs_offset(cfg, offsets),
        ):
            try:
                call()
            except FcqkdError:
                pass
