"""Faint-pulse key-exchange sessions over the modeled tandem link.

Physics per pulse: the normalized counter powers come straight from the
first-order fringe law; each counter clicks with Poissonian probability
1 - exp(-eta * mu * P), independently OR-ed with a dark-count probability.
``mu`` is the mean photon number a counter receives at its fringe maximum
(P = 1).  No dead time or afterpulsing.

Encoding and sifting (the fringe law itself dictates neither; these are
this simulator's fixed choices):

BB84
    Alice draws a bit and a basis: phi_a in {0, pi} encodes bits 0/1 in
    basis 0 and {pi/2, 3*pi/2} in basis 1.  Bob draws a basis and applies
    the canonical phase {0, pi/2}, minus a fixed offset absorbing
    link_phase + phase offset so the achieved fringe argument is purely
    the canonical difference.  An upper-only click decodes as 0, a
    lower-only click as 1; no-click and double-click pulses are dropped,
    and sifting keeps matched-basis pulses.

B92
    Alice encodes bit 0 as phi_a = 0 and bit 1 as phi_a = pi/2.  Bob
    randomly applies canonical pi or 3*pi/2 (again minus the fixed
    offset).  Any click while Bob used pi implies bit 1; while 3*pi/2,
    bit 0 (the opposite choice sits on the fringe null and cannot click
    without dark counts).  Clicked pulses are the sifted key.

A session's statistics depend only on how many pulses fall into each
(Alice phase, Bob phase, click outcome) cell, where the outcome is one
of none, upper only, lower only or both.  Every alphabet cell is equally
likely and the two counters click independently, so each pulse lands in
a cell with a fixed probability and the cell counts follow one
multinomial law.  A session is a single ``multinomial(n_pulses, p)``
draw from a numpy PCG64 generator seeded from the config: exactly the
distribution of pulse-by-pulse sampling, in time and memory independent
of ``n_pulses``, and bit-reproducible for a given seed.

A session takes two steps: a pairing step, once per configuration, checks
the protocol and gives the fringe visibility and offset; a draw step, once
per seed, builds the cell table at a phase error and draws it.  The table
has only 16 (B92) or 32 (BB84) cells, so it is built and tallied as a flat
list of Python floats: one ``np.exp`` call gives every counter's no-click
probability, and each statistic is a sum over a fixed tuple of cell
indices derived once from the decoding and sifting rules.  The same tally
serves drawn counts and expected counts.

A session is described by :class:`~fcqkd.config.SessionConfig`, which
``config`` defines and checks without numpy and this module re-exports
with ``MAX_PULSES``.  numpy is imported here, at the top, so that no
session pays for an import on its call path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .config import MAX_PULSES, SessionConfig
from .errors import InfeasibleProtocolError, InvalidParameterError
from .link import B92, BB84, _fringe, _fringe_powers
from .modulator import _require_finite, _require_instances
from .protocols import check_protocol

# Drive phases of the key alphabets; each protocol's alphabet is drawn from
# these, and Bob's are compensated for the span and the offset.
CANONICAL_PHASES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)

# Indices into CANONICAL_PHASES.  BB84: Alice's row k encodes basis k % 2
# and bit k // 2, Bob's column is his basis.  B92: Alice's row is her bit,
# Bob's column c (canonical pi or 3*pi/2) decodes a click as bit 1 - c.
_ALPHABETS = {BB84: ((0, 1, 2, 3), (0, 1)), B92: ((0, 1), (2, 3))}
# Each alphabet cell's (phi_a, phi_b), row-major over (Alice row, Bob column).
_PAIRS = {
    protocol: tuple((CANONICAL_PHASES[a], CANONICAL_PHASES[b]) for a in rows for b in columns)
    for protocol, (rows, columns) in _ALPHABETS.items()
}

# Click outcomes of one pulse, the last index of a cell; 0 is no click.
_UPPER, _LOWER, _BOTH = 1, 2, 3


@dataclass(frozen=True)
class SessionStats:
    sent: int
    conclusive: int
    sifted_bits: int
    errors: int
    qber: float | None
    upper_clicks: int
    lower_clicks: int


def _pairing(cfg: SessionConfig) -> tuple[float, float]:
    """The pairing step: fringe (visibility, offset), or why the pairing cannot run the protocol."""
    feasibility = check_protocol(cfg.alice, cfg.bob, cfg.protocol)
    reason = feasibility.failure_reason
    if feasibility.feasible:
        _, _, vis, offset = _fringe(cfg.alice, cfg.bob)
        if offset is not None:
            return vis, offset
        reason = "zero-visibility"
    raise InfeasibleProtocolError(reason, f"{cfg.protocol} not supported by this pairing: {reason}")


def _cell_probabilities(cfg: SessionConfig, fringe: tuple, phase_error: float) -> list[float]:
    """Probability that one pulse lands in each (Alice, Bob, outcome) cell, summing to 1.

    Flat in cell order.  Bob compensates the link phase and the ``fringe``
    offset; ``phase_error`` shifts the span phase without his knowledge.
    """
    vis, offset = fringe
    compensation = cfg.link.link_phase + offset
    span_phase = cfg.link.link_phase + phase_error
    # One check for every cell: the drive phases cannot carry a finite sum past overflow.
    if not math.isfinite(span_phase - compensation):
        raise InvalidParameterError(
            f"link_phase + phase_error overflows: {cfg.link.link_phase!r} + {phase_error!r}"
        )
    # One np.exp call, not math.exp: the two differ in the last ulp for some
    # arguments, and a one-ulp change in a probability can change a draw.
    # No light is no light: a power rounded below zero must not click.
    scale = -cfg.eta * cfg.mu
    quiet = np.exp([
        scale * max(power, 0.0)
        for phi_a, phi_b in _PAIRS[cfg.protocol]
        for power in _fringe_powers(vis, offset, phi_b - compensation - phi_a + span_phase)
    ]).tolist()
    keep, size = 1.0 - cfg.p_dark, len(quiet) // 2
    cells = []
    for k in range(0, len(quiet), 2):
        quiet_up, quiet_low = keep * quiet[k], keep * quiet[k + 1]
        click_up, click_low = 1.0 - quiet_up, 1.0 - quiet_low
        cells += (
            quiet_up * quiet_low / size,
            click_up * quiet_low / size,
            quiet_up * click_low / size,
            click_up * click_low / size,
        )
    return cells


def _indices(protocol: str, outcomes) -> tuple[int, ...]:
    """Flat cell indices whose outcome is in ``outcomes(row, column)``."""
    rows, columns = (len(side) for side in _ALPHABETS[protocol])
    return tuple(
        (row * columns + column) * 4 + outcome
        for row in range(rows)
        for column in range(columns)
        for outcome in outcomes(row, column)
    )


def _tally_getters(protocol: str) -> tuple[itemgetter, ...]:
    """Getters of the (conclusive, sifted, errors, upper, lower) cells of a table."""
    upper, lower = (_UPPER, _BOTH), (_LOWER, _BOTH)
    if protocol == BB84:
        single = (_UPPER, _LOWER)
        # Alice's basis is row % 2; upper-only decodes as 0, lower-only as
        # 1, and rows 0-1 carry bit 0
        rules = (
            lambda r, c: single,
            lambda r, c: single if r % 2 == c else (),
            lambda r, c: ((_LOWER,) if r < 2 else (_UPPER,)) if r % 2 == c else (),
        )
    else:
        clicked = (_UPPER, _LOWER, _BOTH)
        # a click decodes as bit 1 - column: wrong exactly when column == row
        rules = (lambda r, c: clicked, lambda r, c: clicked, lambda r, c: clicked if r == c else ())
    rules += (lambda r, c: upper, lambda r, c: lower)
    # every rule selects at least two cells, so each getter returns a tuple
    return tuple(itemgetter(*_indices(protocol, rule)) for rule in rules)


_TALLIES = {protocol: _tally_getters(protocol) for protocol in _ALPHABETS}


def _tally(protocol: str, cells: list) -> list:
    """(conclusive, sifted, errors, upper clicks, lower clicks) of a flat cell table.

    Linear in ``cells``: drawn counts give a session's statistics, expected
    counts give their expectations.
    """
    return [sum(get(cells)) for get in _TALLIES[protocol]]


def expected_counts(cfg: SessionConfig, phase_error: float = 0.0) -> tuple[float, float, float]:
    """Expected (conclusive, sifted, errors) counts of a session."""
    _require_instances(SessionConfig, "cfg", cfg)
    phase_error = _require_finite("phase_error", phase_error)
    n = cfg.n_pulses
    conclusive, sifted, errors, _, _ = _tally(
        cfg.protocol, [n * p for p in _cell_probabilities(cfg, _pairing(cfg), phase_error)]
    )
    return float(conclusive), float(sifted), float(errors)


def _draw(cfg: SessionConfig, fringe: tuple, phase_error: float, seed: int) -> SessionStats:
    """The draw step: one session of ``cfg``'s pairing ``fringe`` from ``seed``."""
    counts = np.random.default_rng(seed).multinomial(
        cfg.n_pulses, _cell_probabilities(cfg, fringe, phase_error)
    )
    conclusive, sifted, errors, upper, lower = _tally(cfg.protocol, counts.tolist())
    qber = errors / sifted if sifted else None
    return SessionStats(int(cfg.n_pulses), conclusive, sifted, errors, qber, upper, lower)


def run_session(cfg: SessionConfig, phase_error: float = 0.0) -> SessionStats:
    """Simulate one key-exchange session; deterministic for a given seed."""
    _require_instances(SessionConfig, "cfg", cfg)
    phase_error = _require_finite("phase_error", phase_error)
    return _draw(cfg, _pairing(cfg), phase_error, cfg.seed)


def offset_seed(base_seed: int, index: int) -> int:
    """Deterministic child seed for the ``index``-th offset session."""
    return int(np.random.SeedSequence((base_seed, index)).generate_state(1)[0])


def qber_vs_offset(cfg: SessionConfig, offsets: list[float]) -> list[tuple[float, float | None]]:
    """QBER of one session per span-phase offset Bob does not compensate.

    The pairing step runs once, at the first offset; the ``i``-th offset
    then draws one session from ``offset_seed(cfg.seed, i)``.  With
    double-click discarding and matched bases, the expected BB84 error
    rate is sin^2(offset / 2).
    """
    _require_instances(SessionConfig, "cfg", cfg)
    try:
        indexed = enumerate(offsets)
    except TypeError:
        raise InvalidParameterError(f"offsets must be iterable, got {offsets!r}") from None
    results, fringe = [], None
    for i, delta in indexed:
        phase_error = _require_finite("phase_error", delta)
        fringe = fringe or _pairing(cfg)
        results.append((delta, _draw(cfg, fringe, phase_error, offset_seed(cfg.seed, i)).qber))
    return results
