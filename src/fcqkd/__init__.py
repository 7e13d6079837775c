"""Frequency-coded QKD link simulator built around tandem electro-optic modulators.

The package models an Alice-fiber-Bob cascade of PM/AM/UM modulators in
the low-modulation regime, classifies which key-distribution protocol
(B92, BB84) each of the nine pairings supports, validates the first-order
model against an exact harmonic expansion, and runs faint-pulse Monte
Carlo key-exchange sessions.
"""

__version__ = "0.1.0"

from .config import SessionConfig
from .errors import (
    ConfigError,
    DegenerateConfigurationError,
    FcqkdError,
    InfeasibleProtocolError,
    InvalidParameterError,
    PhaseUndefinedError,
    TruncationError,
)
from .link import B92, BB84, LinkSpec, interference_coeffs, sideband_powers, sideband_powers_direct
from .modulator import (
    ModulatorKind,
    ModulatorSpec,
    bias_phase_from_voltage,
    index_from_voltage,
    make_modulator,
)

# Public names from the layers that compute with arrays, read from their
# module on each access (PEP 562), so that ``import fcqkd`` loads no numpy.
_LAZY = {
    "exact_tandem_spectrum": "harmonics",
    "small_signal_error": "harmonics",
    "classify_pair": "protocols",
    "expected_counts": "montecarlo",
    "qber_vs_offset": "montecarlo",
    "run_session": "montecarlo",
}


def __getattr__(name):
    if name not in _LAZY:
        # also how ``from fcqkd import harmonics`` falls back to the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return [*globals(), *_LAZY]


__all__ = [
    "B92",
    "BB84",
    "ConfigError",
    "DegenerateConfigurationError",
    "FcqkdError",
    "InfeasibleProtocolError",
    "InvalidParameterError",
    "LinkSpec",
    "ModulatorKind",
    "ModulatorSpec",
    "PhaseUndefinedError",
    "SessionConfig",
    "TruncationError",
    "bias_phase_from_voltage",
    "classify_pair",
    "exact_tandem_spectrum",
    "expected_counts",
    "index_from_voltage",
    "interference_coeffs",
    "make_modulator",
    "qber_vs_offset",
    "run_session",
    "sideband_powers",
    "sideband_powers_direct",
    "small_signal_error",
]
