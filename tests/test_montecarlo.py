import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fcqkd import (
    B92,
    BB84,
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
    # at small mu the conclusive fraction is eta * mu * (mean pair power)
    for cfg_maker, pair_power in ((bb84_config, 1.0), (b92_config, 0.5)):
        rates = []
        mus = (0.01, 0.02, 0.04)
        for mu in mus:
            stats = run_session(cfg_maker(mu=mu, n_pulses=200_000))
            rates.append(stats.conclusive / stats.sent)
        slope = (rates[-1] - rates[0]) / (mus[-1] - mus[0])
        assert slope == pytest.approx(pair_power, rel=0.1)


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
        expected = math.sin(delta / 2) ** 2
        stats = run_session(cfg, phase_error=delta)
        band = 3 * math.sqrt(max(expected * (1 - expected), 1e-9) / max(stats.sifted_bits, 1))
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
     dict(n_pulses=2**63), dict(n_pulses=int(1e20)), dict(n_pulses=1500.7)],
)
def test_unsamplable_config_rejected(bad):
    with pytest.raises(InvalidParameterError):
        bb84_config(**bad)


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
