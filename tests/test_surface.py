"""The package's public surface and the names the benchmark harness calls."""

import contextlib
import dataclasses
import importlib
import inspect
import io
import json

import pytest

import fcqkd
from fcqkd import cli

PUBLIC_NAMES = {
    "B92", "BB84", "ConfigError", "DegenerateConfigurationError", "FcqkdError",
    "InfeasibleProtocolError", "InvalidParameterError", "LinkSpec", "ModulatorKind",
    "ModulatorSpec", "PhaseUndefinedError", "SessionConfig", "TruncationError",
    "bias_phase_from_voltage", "classify_pair", "exact_tandem_spectrum",
    "expected_counts", "index_from_voltage", "interference_coeffs", "make_modulator",
    "qber_vs_offset", "run_session", "sideband_powers", "sideband_powers_direct",
    "small_signal_error",
}

# Module attributes bench/ reaches by name; renaming one breaks the benchmark.
BENCH_CONTRACT = {
    "modulator": ["make_modulator", "ModulatorKind", "ModulatorSpec"],
    "link": [
        "LinkSpec", "interference_coeffs", "phase_offset", "sideband_powers",
        "sideband_powers_direct",
    ],
    "harmonics": ["exact_tandem_spectrum"],
    "verification": ["survey_all"],
    "protocols": ["check_protocol", "classify_pair", "compare_row_with_reference"],
    "montecarlo": ["SessionConfig", "run_session", "qber_vs_offset"],
    "config": ["parse_config", "load_config"],
    "cli": ["main"],
}


def test_all_lists_exactly_the_public_names():
    assert len(fcqkd.__all__) == len(set(fcqkd.__all__)) == 25
    assert set(fcqkd.__all__) == PUBLIC_NAMES
    for name in fcqkd.__all__:
        assert hasattr(fcqkd, name)


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in BENCH_CONTRACT.items() for n in names]
)
def test_bench_contract_names_exist(module, name):
    value = getattr(importlib.import_module(f"fcqkd.{module}"), name)
    assert inspect.isclass(value) or callable(value)


def test_bench_contract_results():
    from fcqkd.config import default_config
    from fcqkd.harmonics import exact_tandem_spectrum
    from fcqkd.link import LinkSpec
    from fcqkd.modulator import ModulatorKind, ModulatorSpec, make_modulator
    from fcqkd.protocols import B92, check_protocol
    from fcqkd.verification import survey_all

    assert "__post_init__" in vars(ModulatorSpec)  # the tracer counts specs here
    mc = default_config().montecarlo
    for field in ("protocol", "mu", "eta", "p_dark", "n_pulses", "seed"):
        assert hasattr(mc, field)
    alice = make_modulator(ModulatorKind.UM, 0.1)
    bob = make_modulator(ModulatorKind.PM, 0.05)
    feasibility = check_protocol(alice, bob, B92)
    assert feasibility.feasible and feasibility.index_ratio > 0
    spectrum = exact_tandem_spectrum(alice, bob, LinkSpec(rf_frequency=1.0))
    assert spectrum.total_power() > 0
    # a drive index with no frozen ceiling falls back to the generic bound
    assert all(report.within_bound for report in survey_all(0.137))


def test_bench_keyword_fields():
    # bench/ passes these fields by keyword; renaming one breaks the benchmark
    from fcqkd.link import LinkSpec
    from fcqkd.modulator import ModulatorKind, make_modulator

    spec = dataclasses.replace(make_modulator(ModulatorKind.UM, 0.1, 0.2), phi=0.7)
    assert (spec.kind, spec.m, spec.psi, spec.phi) == (ModulatorKind.UM, 0.1, 0.2, 0.7)
    span = LinkSpec(rf_frequency=1.0, link_phase=0.3, loss=0.5)
    moved = dataclasses.replace(span, link_phase=0.9)
    assert (moved.rf_frequency, moved.link_phase, moved.loss) == (1.0, 0.9, 0.5)


@pytest.mark.parametrize(
    "argv",
    [["table2"], ["verify"], ["sweep"], ["sweep", "--format", "json"], ["spectrum"],
     ["spectrum", "--format", "json"], ["qkd"]],
    ids=" ".join,
)
def test_output_lands_in_a_redirected_stdout(capsys, argv):
    # bench/ captures the CLI's output this way; a writer that bound sys.stdout
    # at import, or as a default argument, would write past the redirect
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert capsys.readouterr().out == ""
    text = out.getvalue()
    if argv[0] in ("sweep", "spectrum") and "json" not in argv:
        assert text.count("\n") > 1 and text.endswith("\n")
    else:
        json.loads(text)
