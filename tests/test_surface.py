"""The package's public surface and the names the benchmark harness calls."""

import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcqkd
from fcqkd import cli, config

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
    assert PUBLIC_NAMES <= set(dir(fcqkd))
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


# --- typed errors at every public callable

_ALICE = fcqkd.make_modulator(fcqkd.ModulatorKind.UM, 0.1)
_BOB = fcqkd.make_modulator(fcqkd.ModulatorKind.PM, 0.05)
_LINK = fcqkd.LinkSpec(rf_frequency=1.0, link_phase=0.3)
_CFG = fcqkd.SessionConfig(fcqkd.B92, _ALICE, _BOB, _LINK, 0.1, n_pulses=1000)
# Arguments on which each callable returns; a drawn subset is replaced by junk.
_VALID_ARGS = {
    "LinkSpec": (1.0, 0.3, 0.5),
    "ModulatorSpec": (fcqkd.ModulatorKind.UM, 0.1, 0.2, 0.3),
    "SessionConfig": (fcqkd.B92, _ALICE, _BOB, _LINK, 0.1, 1.0, 0.0, 1000, 7),
    "bias_phase_from_voltage": (1.0, 3.0),
    "classify_pair": (fcqkd.ModulatorKind.UM, fcqkd.ModulatorKind.AM, [0.3, 0.5]),
    "exact_tandem_spectrum": (_ALICE, _BOB, _LINK, 11),
    "expected_counts": (_CFG, 0.1),
    "index_from_voltage": (1.0, 3.0),
    "interference_coeffs": (_ALICE, _BOB),
    "make_modulator": (fcqkd.ModulatorKind.UM, 0.1, 0.2, 0.3),
    "qber_vs_offset": (_CFG, [0.0, 0.5]),
    "run_session": (_CFG, 0.1),
    "sideband_powers": (_ALICE, _BOB, _LINK),
    "sideband_powers_direct": (_ALICE, _BOB, _LINK),
    "small_signal_error": (_ALICE, _BOB, _LINK, 11),
}
# str, None, bool, non-finite and huge floats, numpy scalars, 0-d and 2-element arrays
_JUNK = st.one_of(
    st.text(max_size=3),
    st.sampled_from([None, True, False, math.nan, math.inf, -math.inf, 1e308, -1e308]),
    st.sampled_from([np.float64(0.3), np.float32(-2.5), np.int64(2), np.bool_(True)]),
    st.floats(-10.0, 10.0).map(np.array),
    st.floats(-10.0, 10.0).map(lambda x: np.array([x, -x])),
)


def test_every_public_callable_has_valid_arguments():
    # Left out: the exception classes, whose constructors take any message and
    # check nothing, and the ModulatorKind enum, whose lookup by value raises
    # the Enum protocol's ValueError (the config reader turns that into a
    # ConfigError).  B92 and BB84 are strings.
    public = {name: getattr(fcqkd, name) for name in fcqkd.__all__}
    callables = {
        name
        for name, value in public.items()
        if callable(value)
        and not (inspect.isclass(value) and issubclass(value, Exception))
        and name != "ModulatorKind"
    }
    assert callables == set(_VALID_ARGS)
    for name, args in _VALID_ARGS.items():
        getattr(fcqkd, name)(*args)


# Entry points of the benchmark contract outside __all__, and arguments on
# which each returns
_CONTRACT_ARGS = {
    "verification.survey_all": (0.1,),
    "link.visibility": (0.3 + 0.1j, -0.2j),
    "link.phase_offset": (0.3 + 0.1j, -0.2j),
}


def public_callable(name):
    """A callable of ``__all__`` by its name, or one outside it as ``module.name``."""
    module, _, attr = name.rpartition(".")
    return getattr(importlib.import_module(f"fcqkd.{module}") if module else fcqkd, attr)


@settings(max_examples=360, deadline=None)
@given(st.sampled_from(sorted(_VALID_ARGS) + sorted(_CONTRACT_ARGS)), st.data())
def test_public_callables_return_or_raise_a_package_error(name, data):
    args = {**_VALID_ARGS, **_CONTRACT_ARGS}[name]
    junk = data.draw(st.lists(st.booleans(), min_size=len(args), max_size=len(args)))
    args = [data.draw(_JUNK) if replace else arg for arg, replace in zip(args, junk)]
    try:
        public_callable(name)(*args)
    except fcqkd.FcqkdError:
        pass


@pytest.mark.parametrize(
    "name, args",
    [
        ("verification.survey_all", ("0.1",)),
        ("verification.survey_all", (None,)),
        ("link.visibility", (None, 1)),
        ("link.phase_offset", ("a", 1j)),
        # non-finite coefficients, which used to return nan, 0.0 or pi/2
        ("link.visibility", (math.nan, 1)),
        ("link.phase_offset", (math.nan, 1)),
        ("link.visibility", (math.inf, 1)),
        ("link.phase_offset", (complex(math.inf, 0.0), 1j)),
        ("link.visibility", (0.0, complex(math.nan, math.inf))),
        ("link.phase_offset", (0.0, complex(0.0, math.nan))),
    ],
    ids=[
        "survey_all-str", "survey_all-None", "visibility-None", "phase_offset-str",
        "visibility-nan", "phase_offset-nan", "visibility-inf", "phase_offset-inf",
        "visibility-zero-and-nan", "phase_offset-zero-and-nan",
    ],
)
def test_contract_callables_reject_non_numbers(name, args):
    with pytest.raises(fcqkd.InvalidParameterError):
        public_callable(name)(*args)


# --- the import contract: only the layers that compute with arrays load numpy

SRC = pathlib.Path(fcqkd.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this package from source."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}"
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_and_config_parsing_load_no_numpy(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(config.DEFAULT_CONFIG)
    run_fresh(
        "import fcqkd, fcqkd.cli\n"
        "from fcqkd.config import load_config\n"
        "assert load_config(sys.argv[1]).montecarlo is not None\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'configparser' not in sys.modules",
        str(path),
    )


def test_sweep_loads_no_numpy():
    proc = run_fresh(
        "from fcqkd import cli\n"
        "assert cli.main(['sweep']) == 0\n"
        "assert 'numpy' not in sys.modules"
    )
    assert proc.stdout.startswith("delta_phi_rad,")


@pytest.mark.parametrize(
    "code",
    [
        "import fcqkd, fcqkd.protocols\n"
        "assert fcqkd.classify_pair is fcqkd.protocols.classify_pair",
        "import fcqkd, fcqkd.montecarlo\n"
        "assert fcqkd.run_session is fcqkd.montecarlo.run_session",
        "from fcqkd import *\n"
        "import fcqkd\n"
        "assert all(name in globals() for name in fcqkd.__all__)",
        "from fcqkd import harmonics\n"
        "assert harmonics.__name__ == 'fcqkd.harmonics'",
        "import fcqkd\n"
        "try:\n"
        "    fcqkd.not_a_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('fcqkd.not_a_name resolved')",
    ],
    ids=["classify_pair", "run_session", "star", "submodule", "unknown name"],
)
def test_lazy_names_resolve(code):
    run_fresh(code)


def test_numpy_reals_accepted_when_numpy_comes_later():
    # modulator looks numpy up at call time, so numpy imported after the
    # package still has its scalars recognised, and its bool still refused
    run_fresh(
        "import fcqkd\n"
        "import numpy as np\n"
        "from fcqkd import B92, InvalidParameterError, LinkSpec, SessionConfig\n"
        "from fcqkd import ModulatorKind, ModulatorSpec\n"
        "spec = ModulatorSpec(ModulatorKind.UM, np.float64(0.1), np.int64(0))\n"
        "assert (spec.m, spec.psi) == (0.1, 0.0)\n"
        "def session(n):\n"
        "    return SessionConfig(B92, spec, spec, LinkSpec(rf_frequency=1.0), 0.1, n_pulses=n)\n"
        "assert session(np.int64(10)).n_pulses == 10\n"
        "for bad in (np.bool_(True), True):\n"
        "    for build in (lambda: ModulatorSpec(ModulatorKind.UM, bad), lambda: session(bad)):\n"
        "        try:\n"
        "            build()\n"
        "        except InvalidParameterError:\n"
        "            continue\n"
        "        raise SystemExit(f'accepted {bad!r}')"
    )


@pytest.mark.parametrize(
    "argv, name", [(["verify"], "verification.survey_all"), (["qkd"], "montecarlo.run_session")]
)
def test_tracer_counts_the_lazily_imported_layers(monkeypatch, argv, name):
    # bench/run.py traces through bench/tracing.py, which wraps module
    # attributes; cli's function-local imports must read the wrappers
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert tracer.run(lambda: cli.main(argv)) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls[name] == 1
    assert tracer.calls["cli.main"] == 1
