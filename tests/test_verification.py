import math

import pytest

from fcqkd import (
    InvalidParameterError,
    LinkSpec,
    ModulatorKind,
    make_modulator,
    sideband_powers,
)
from fcqkd import verification
from fcqkd.verification import (
    KIND_PAIRS,
    lattice_points,
    pair_bound,
    survey_all,
)


def test_nine_pairs_enumerated():
    assert len(KIND_PAIRS) == 9
    assert len(set(KIND_PAIRS)) == 9


def test_lattice_points_respect_power_floor():
    for a, b in KIND_PAIRS:
        points = lattice_points(a, b, 0.1)
        assert len(points) >= 3
        for alice, bob, link in points:
            p_up, p_low = sideband_powers(alice, bob, link)
            assert min(p_up, p_low) >= 0.15


def per_candidate_lattice(alice_kind, bob_kind, m):
    """The lattice filter evaluated point by point: both powers per candidate pair."""
    link = LinkSpec(rf_frequency=1.0, link_phase=verification._LINK_PHASE)
    kept = []
    for phi_a, phi_b in verification._PHASE_CANDIDATES:
        alice = make_modulator(alice_kind, m, verification._PSI_A, phi_a)
        bob = make_modulator(bob_kind, m, verification._PSI_B, phi_b)
        if min(sideband_powers(alice, bob, link)) >= verification._POWER_FLOOR:
            kept.append((alice, bob, link))
        if len(kept) == verification._POINTS_PER_PAIR:
            break
    return kept


@pytest.mark.parametrize("m", [0.005, 0.01, 0.1, 0.2])
def test_lattice_keeps_the_per_candidate_points(m):
    for a, b in KIND_PAIRS:
        assert lattice_points(a, b, m) == per_candidate_lattice(a, b, m)


def test_lattice_without_fringe_keeps_the_first_points(monkeypatch):
    # a UM biased at pi/2 passes no carrier, so both powers are 1/2 everywhere
    monkeypatch.setattr(verification, "_PSI_A", math.pi / 2)
    points = lattice_points(ModulatorKind.UM, ModulatorKind.PM, 0.1)
    assert points == per_candidate_lattice(ModulatorKind.UM, ModulatorKind.PM, 0.1)
    assert [(a.phi, b.phi) for a, b, _ in points] == list(verification._PHASE_CANDIDATES[:4])


def test_pair_reports_within_frozen_bound():
    reports = survey_all(0.1)
    assert [(r.alice_kind, r.bob_kind) for r in reports] == list(KIND_PAIRS)
    for report in reports:
        assert report.within_bound
        assert 0.0 < report.worst_error <= report.bound


def test_empty_lattice_reports_zero_error(monkeypatch):
    monkeypatch.setattr(verification, "lattice_points", lambda *pairing: [])
    for report in survey_all(0.1):
        assert report.worst_error == 0.0 and report.points == 0


def test_generic_bound_for_unfrozen_index():
    bound = pair_bound(ModulatorKind.PM, ModulatorKind.PM, 0.05)
    assert bound == pytest.approx(0.05**2)
    reports = survey_all(0.05)
    assert all(r.within_bound for r in reports)


def test_out_of_regime_refused():
    with pytest.raises(InvalidParameterError):
        survey_all(0.3)
    with pytest.raises(InvalidParameterError):
        survey_all(0.0)
