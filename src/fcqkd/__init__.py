"""Frequency-coded QKD link simulator built around tandem electro-optic modulators.

The package models an Alice-fiber-Bob cascade of PM/AM/UM modulators in
the low-modulation regime, classifies which key-distribution protocol
(B92, BB84) each of the nine pairings supports, validates the first-order
model against an exact harmonic expansion, and runs faint-pulse Monte
Carlo key-exchange sessions.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateConfigurationError,
    FcqkdError,
    InfeasibleProtocolError,
    InvalidParameterError,
    PhaseUndefinedError,
    TruncationError,
)
from .harmonics import exact_tandem_spectrum, small_signal_error
from .link import LinkSpec, interference_coeffs, sideband_powers, sideband_powers_direct
from .modulator import (
    ModulatorKind,
    ModulatorSpec,
    bias_phase_from_voltage,
    index_from_voltage,
    make_modulator,
)
from .montecarlo import SessionConfig, expected_counts, qber_vs_offset, run_session
from .protocols import B92, BB84, classify_pair

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
