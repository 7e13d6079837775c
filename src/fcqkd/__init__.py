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
from .harmonics import (
    HarmonicSpectrum,
    bessel_j,
    default_order,
    exact_modulator_spectrum,
    exact_tandem_spectrum,
    small_signal_error,
)
from .link import (
    LinkSpec,
    TandemResult,
    cascade,
    interference_coeffs,
    phase_offset,
    propagate,
    sideband_powers,
    sideband_powers_direct,
    tandem_result,
    visibility,
)
from .modulator import (
    ModulatorKind,
    ModulatorSpec,
    ThreeBandField,
    band_amplitudes,
    bias_phase_from_voltage,
    index_from_voltage,
    make_modulator,
)
from .montecarlo import (
    SessionConfig,
    SessionStats,
    expected_counts,
    qber_vs_offset,
    run_session,
)
from .protocols import (
    B92,
    BB84,
    ClassificationRow,
    ProtocolFeasibility,
    classify_pair,
    effective_phase_diff,
    phase_alphabet,
)

__all__ = [
    "B92",
    "BB84",
    "ClassificationRow",
    "ConfigError",
    "DegenerateConfigurationError",
    "FcqkdError",
    "HarmonicSpectrum",
    "InfeasibleProtocolError",
    "InvalidParameterError",
    "LinkSpec",
    "ModulatorKind",
    "ModulatorSpec",
    "PhaseUndefinedError",
    "ProtocolFeasibility",
    "SessionConfig",
    "SessionStats",
    "TandemResult",
    "ThreeBandField",
    "TruncationError",
    "band_amplitudes",
    "bessel_j",
    "bias_phase_from_voltage",
    "cascade",
    "classify_pair",
    "default_order",
    "effective_phase_diff",
    "exact_modulator_spectrum",
    "exact_tandem_spectrum",
    "expected_counts",
    "index_from_voltage",
    "interference_coeffs",
    "make_modulator",
    "phase_alphabet",
    "phase_offset",
    "propagate",
    "qber_vs_offset",
    "run_session",
    "sideband_powers",
    "sideband_powers_direct",
    "small_signal_error",
    "tandem_result",
    "visibility",
]
