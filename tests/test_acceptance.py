"""Acceptance suite: one test per release criterion, at the stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion (pytest -v shows the same information through the test names).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fcqkd import (
    B92,
    BB84,
    LinkSpec,
    ModulatorKind,
    SessionConfig,
    exact_tandem_spectrum,
    make_modulator,
    run_session,
    sideband_powers,
    sideband_powers_direct,
)
from fcqkd.cli import main, table_grid
from fcqkd.montecarlo import offset_seed
from fcqkd.protocols import ROW_ORDER, check_protocol, classify_pair, compare_row_with_reference
from fcqkd.verification import FROZEN_WORST, survey_all

PM, AM, UM = ModulatorKind.PM, ModulatorKind.AM, ModulatorKind.UM

RF = 2 * math.pi * 15e9


def _report(name: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS")


def test_criterion_1_classification_table_regeneration(capsys):
    start = time.perf_counter()
    grid = table_grid()
    assert len(grid) ** 2 >= 32 * 32

    rows = {}
    for alice_kind, bob_kind in ROW_ORDER:
        row = classify_pair(alice_kind, bob_kind, grid)
        mismatches = compare_row_with_reference(alice_kind, bob_kind, row, grid)
        assert mismatches == [], mismatches
        rows[(alice_kind.value, bob_kind.value)] = row

    # the verdict set: exactly which pairings support which protocol
    verdicts = {
        key: (row.b92.feasible, row.bb84.feasible) for key, row in rows.items()
    }
    assert verdicts == {
        ("UM", "UM"): (True, True),
        ("AM", "AM"): (True, False),
        ("PM", "PM"): (True, False),
        ("PM", "AM"): (False, True),
        ("AM", "PM"): (False, True),
        ("UM", "PM"): (True, False),
        ("PM", "UM"): (True, False),
        ("UM", "AM"): (False, True),
        ("AM", "UM"): (False, True),
    }

    # zero-visibility exclusions at the quarter-wave bias loci
    for n in (-1, 0, 1):
        psi = (2 * n + 1) * math.pi / 2
        assert check_protocol(make_modulator(UM, 0.1, psi), make_modulator(PM, 0.1), BB84) \
            .failure_reason == "zero-visibility"
        assert check_protocol(make_modulator(PM, 0.1), make_modulator(UM, 0.1, psi), BB84) \
            .failure_reason == "zero-visibility"
        assert check_protocol(make_modulator(UM, 0.1, psi), make_modulator(AM, 0.1, 0.6), B92) \
            .failure_reason == "zero-visibility"
        assert check_protocol(make_modulator(AM, 0.1, 0.6), make_modulator(UM, 0.1, psi), B92) \
            .failure_reason == "zero-visibility"

    assert main(["table2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reference_check"]["pass"] is True

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _report("1 classification-table regeneration")


def test_criterion_2_closed_form_matches_direct_cascade():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    kinds = [PM, AM, UM]
    checked = 0
    for i in range(1000):
        alice = make_modulator(
            kinds[i % 3],
            0.01 + 0.19 * rng.random(),
            rng.uniform(0, math.tau),
            rng.uniform(0, math.tau),
        )
        bob = make_modulator(
            kinds[(i // 3) % 3],
            0.01 + 0.19 * rng.random(),
            rng.uniform(0, math.tau),
            rng.uniform(0, math.tau),
        )
        link = LinkSpec(
            rf_frequency=RF,
            link_phase=rng.uniform(0, math.tau),
            loss=rng.uniform(0.3, 1.0),
        )
        closed = sideband_powers(alice, bob, link)
        direct = sideband_powers_direct(alice, bob, link)
        assert abs(closed[0] - direct[0]) <= 1e-12
        assert abs(closed[1] - direct[1]) <= 1e-12
        checked += 1
    assert checked == 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _report("2 closed-form / direct-cascade identity")


def _fringe_sweep(alice, bob_kind, bob_m, bob_psi, link, offset, points=64):
    """(delta, p_upper, p_lower) for both computation paths at each point."""
    rows = []
    for k in range(points):
        delta = math.tau * k / points
        bob = make_modulator(bob_kind, bob_m, bob_psi, delta - link.link_phase - offset)
        rows.append((delta, sideband_powers(alice, bob, link),
                     sideband_powers_direct(alice, bob, link)))
    return rows


def test_criterion_3_b92_fringes_both_orderings():
    cases = [
        # alice, (bob_kind, bob_m, bob_psi): drive ratio 2 and 1/2 respectively
        (make_modulator(UM, 0.1, 0.0), (PM, 0.05, 0.0), LinkSpec(RF, 0.0)),
        (make_modulator(PM, 0.05, 0.0), (UM, 0.1, 0.0), LinkSpec(RF, 0.4)),
    ]
    for alice, (bk, bm, bp), link in cases:
        for delta, closed, direct in _fringe_sweep(alice, bk, bm, bp, link, offset=0.0):
            expected = math.cos(delta / 2) ** 2
            for p_up, p_low in (closed, direct):
                assert abs(p_up - expected) <= 1e-12
                assert abs(p_low - expected) <= 1e-12
                if delta == math.pi:
                    assert p_up <= 1e-12 and p_low <= 1e-12
    _report("3 two-state-protocol fringes, both orderings")


def test_criterion_4_bb84_fringes_both_orderings():
    cases = [
        # UM-AM: ratio 2*cos(0)*tan(pi/4) = 2; offset +pi/2
        (make_modulator(UM, 0.1, 0.0), (AM, 0.05, math.pi / 4),
         LinkSpec(RF, 0.0), math.pi / 2),
        # AM-UM: ratio 1/(2*tan(pi/4)*cos(0)) = 1/2; offset -pi/2
        (make_modulator(AM, 0.05, math.pi / 4), (UM, 0.1, 0.0),
         LinkSpec(RF, 0.7), -math.pi / 2),
    ]
    for alice, (bk, bm, bp), link, offset in cases:
        for delta, closed, direct in _fringe_sweep(alice, bk, bm, bp, link, offset):
            for p_up, p_low in (closed, direct):
                assert abs(p_up - math.cos(delta / 2) ** 2) <= 1e-12
                assert abs(p_low - math.sin(delta / 2) ** 2) <= 1e-12
                assert abs(p_up + p_low - 1.0) <= 1e-12
    _report("4 four-state-protocol fringes, both orderings")


def _spectrum_lines(capsys, config_path, delta):
    args = ["spectrum", "--delta-phi", repr(delta)]
    if config_path is not None:
        args += ["--config", config_path]
    assert main(args) == 0
    out = capsys.readouterr().out
    return {
        float(line.split(",")[0]): float(line.split(",")[1])
        for line in out.strip().splitlines()[1:]
    }


def test_criterion_5_output_spectra(tmp_path, capsys):
    # two-state pairing (default config, UM-PM): sidebands at +/-15 GHz
    # for bright settings, >= 50 dB suppression at the dark fringe
    for delta in (0.0, math.pi / 2):
        lines = _spectrum_lines(capsys, None, delta)
        assert lines[15.0] > -40.0
        assert lines[-15.0] > -40.0
    dark = _spectrum_lines(capsys, None, math.pi)
    assert dark[15.0] <= -50.0
    assert dark[-15.0] <= -50.0

    # four-state pairing (UM-AM): upper/lower asymmetry flips with the fringe
    cfg = tmp_path / "bb84.cfg"
    cfg.write_text(
        "[alice]\nkind = UM\nm = 0.1\npsi = 0.0\n\n"
        "[bob]\nkind = AM\nm = 0.05\npsi = 0.7853981633974483\n\n"
        "[link]\nrf_ghz = 15.0\nlink_phase_rad = 0.0\nloss = 1.0\n"
    )
    bright = _spectrum_lines(capsys, str(cfg), 0.0)
    assert bright[15.0] > -40.0 > bright[-15.0]
    middle = _spectrum_lines(capsys, str(cfg), math.pi / 2)
    assert middle[15.0] > -40.0 and middle[-15.0] > -40.0
    assert abs(middle[15.0] - middle[-15.0]) < 1.0
    flipped = _spectrum_lines(capsys, str(cfg), math.pi)
    assert flipped[-15.0] > -40.0 > flipped[15.0]
    _report("5 output spectra: bright/dark sidebands and asymmetry flip")


def test_criterion_6_low_modulation_validity():
    start = time.perf_counter()
    small = {(r.alice_kind, r.bob_kind): r for r in survey_all(0.01)}
    big = {(r.alice_kind, r.bob_kind): r for r in survey_all(0.1)}
    assert len(small) == len(big) == 9
    for key, report in small.items():
        assert report.worst_error <= 1e-4, key
        assert report.within_bound, key
    for key, report in big.items():
        assert report.worst_error <= 1e-2, key
        assert report.within_bound, key
    for key in small:
        ratio = big[key].worst_error / small[key].worst_error
        assert 50 <= ratio <= 200, (key, ratio)
    assert len(FROZEN_WORST) == 18
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    _report("6 low-modulation validity with quadratic scaling")


def test_criterion_7_monte_carlo_session():
    start = time.perf_counter()
    cfg = SessionConfig(
        protocol=BB84,
        alice=make_modulator(UM, 0.1, math.pi / 4),
        bob=make_modulator(UM, 0.1, -math.pi / 4),
        link=LinkSpec(rf_frequency=RF, link_phase=0.27),
        mu=0.1,
        eta=1.0,
        p_dark=0.0,
        n_pulses=100_000,
        seed=11,
    )
    stats = run_session(cfg)
    assert stats.sifted_bits > 1000
    assert stats.qber is not None and stats.qber <= 0.005

    # reproducibility
    assert run_session(cfg) == stats

    # error rate vs uncompensated span-phase offset follows sin^2(delta/2)
    offsets = [0.0, math.pi / 4, math.pi / 3, math.pi / 2,
               2 * math.pi / 3, 3 * math.pi / 4, math.pi, 5 * math.pi / 4]
    for i, delta in enumerate(offsets):
        child = replace(cfg, seed=offset_seed(cfg.seed, i))
        result = run_session(child, phase_error=delta)
        expected = math.sin(delta / 2) ** 2
        band = 3 * math.sqrt(
            max(expected * (1 - expected), 0.0) / result.sifted_bits
        )
        assert abs(result.qber - expected) <= band + 1e-9, (delta, result.qber)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    _report("7 Monte Carlo session sanity and offset law")


def test_criterion_8_energy_conservation():
    for m in (0.1, 0.5, 1.0):
        # an undriven Bob over a lossless span passes Alice's field unchanged
        spectrum = exact_tandem_spectrum(
            make_modulator(PM, m), make_modulator(PM, 0.0), LinkSpec(rf_frequency=RF)
        )
        assert abs(spectrum.total_power() - 1.0) <= 1e-12
    _report("8 exact-spectrum energy conservation")
