"""Command-line front end.

Subcommands::

    sweep     fringe powers vs the effective phase difference (CSV/JSON)
    spectrum  exact output spectrum at a fixed phase difference (CSV/JSON)
    table2    nine-pairing classification table, checked against the
              embedded reference (JSON)
    verify    first-order model vs exact harmonics over the lattice (JSON)
    qkd       Monte Carlo key-exchange session (JSON)

Every command computes its whole result before it writes: a sweep holds
its rows in memory, never its text.  The result is then encoded straight
into stdout or the ``--out`` file, and both get the same bytes.

``sweep`` and config parsing use no array, so they load no numpy: the
other commands import the layer they compute with (``harmonics``,
``protocols``, ``verification`` or ``montecarlo``) when they run.

Exit codes: 0 success, 1 validation failure (a ``table2`` mismatch or a
``verify`` bound exceeded), 2 any package error (:class:`FcqkdError`).
The ``fcqkd`` program exits 141 (128 + SIGPIPE), with no traceback, when
the reader of its stdout goes away before the output is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from . import __version__
from .config import RunConfig, default_config, load_config
from .errors import (
    ConfigError,
    DegenerateConfigurationError,
    FcqkdError,
    InvalidParameterError,
)
from .link import _direct_powers, _fringe, _fringe_powers
from .modulator import _COUPLING, ModulatorSpec

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

_TABLE_GRID_N = 36
_DB_FLOOR = -400.0


def _output(out_path: str | None, encode, *args) -> None:
    """``encode(stream, *args)`` into ``sys.stdout`` as it is at the call, or into the opened file.

    A function, not a generator context manager: that would keep about
    0.6 KB alive through the encoding, which sets ``qkd``'s peak memory.
    """
    if out_path is None:
        encode(sys.stdout, *args)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            encode(handle, *args)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path!r}: {exc}") from exc


def _json_into(stream, payload: dict) -> None:
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _csv_into(stream, header: list[str], rows: list[list[float]]) -> None:
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(f"{v:.15g}" for v in row) + "\n")


def _document(command: str, **fields) -> dict:
    """A command's JSON document: the schema version and command name, then ``fields``."""
    return {"schema_version": SCHEMA_VERSION, "command": command, **fields}


def _emit(command, header, rows, fmt, out_path) -> None:
    if fmt == "json":
        _output(out_path, _json_into, _document(command, columns=header, rows=rows))
    else:
        _output(out_path, _csv_into, header, rows)


def _modulator_json(spec: ModulatorSpec) -> dict:
    eps1, eps2, share = _COUPLING[spec.kind]
    return {
        "kind": spec.kind.value,
        "eps1": eps1,
        "eps2": eps2,
        "m1": spec.m,
        "m2": share * spec.m,
        "psi": spec.psi,
        "phi": spec.phi,
    }


def _fringe_offset(cfg: RunConfig) -> tuple[float, float]:
    """Visibility and intrinsic offset of the configured pairing."""
    _, _, vis, offset = _fringe(cfg.alice, cfg.bob)  # raises when fully degenerate
    if offset is None:
        raise DegenerateConfigurationError(
            "no interference fringe: one sideband contribution vanishes "
            "at these biases"
        )
    return vis, offset


def _bob_phi_for(cfg: RunConfig, offset: float, delta_phi: float) -> float:
    """Bob's drive phase realizing the requested fringe argument."""
    phi = delta_phi - cfg.link.link_phase - offset + cfg.alice.phi
    if not math.isfinite(phi):
        raise InvalidParameterError(
            f"Bob's drive phase is not finite: fringe argument {delta_phi!r} "
            f"- [link] link_phase_rad {cfg.link.link_phase!r} - pairing offset {offset!r} "
            f"+ [alice] phi {cfg.alice.phi!r}"
        )
    return phi


def cmd_sweep(cfg: RunConfig, fmt: str, out_path: str | None) -> int:
    header = ["delta_phi_rad", "p_upper", "p_lower", "p_upper_closed", "p_lower_closed"]
    rows = []
    vis, offset = _fringe_offset(cfg)
    span = cfg.sweep_stop - cfg.sweep_start
    for k in range(cfg.sweep_steps):
        delta = cfg.sweep_start + span * k / cfg.sweep_steps
        bob_phi = _bob_phi_for(cfg, offset, delta)
        direct_up, direct_low = _direct_powers(cfg.alice, cfg.bob, bob_phi, cfg.link)
        closed_up, closed_low = _fringe_powers(
            vis, offset, bob_phi - cfg.alice.phi + cfg.link.link_phase
        )
        rows.append([delta, direct_up, direct_low, closed_up, closed_low])
    _emit("sweep", header, rows, fmt, out_path)
    return EXIT_OK


def cmd_spectrum(
    cfg: RunConfig, delta_phi: float, order: int | None, fmt: str, out_path: str | None
) -> int:
    from .harmonics import _rounding_floor, exact_tandem_spectrum

    if not math.isfinite(delta_phi):
        raise InvalidParameterError(f"--delta-phi must be finite, got {delta_phi!r}")
    _, offset = _fringe_offset(cfg)
    bob = dataclasses.replace(cfg.bob, phi=_bob_phi_for(cfg, offset, delta_phi))
    # every bin is read relative to the carrier, so span loss cancels: leave it out
    spectrum = exact_tandem_spectrum(cfg.alice, bob, dataclasses.replace(cfg.link, loss=1.0), order)
    carrier = spectrum.power(0)
    # a carrier within the transform's rounding would put every line at a noise ratio
    if carrier <= _rounding_floor(spectrum.order) * spectrum.total_power():
        raise DegenerateConfigurationError(
            "carrier fully suppressed; carrier-relative spectrum undefined"
        )
    header = ["offset_ghz", "power_db_rel_carrier"]
    rows = []
    for k in range(-spectrum.order, spectrum.order + 1):
        power = spectrum.power(k)
        db = _DB_FLOOR if power == 0.0 else max(
            10.0 * math.log10(power / carrier), _DB_FLOOR
        )
        rows.append([k * cfg.rf_ghz, db])
    _emit("spectrum", header, rows, fmt, out_path)
    return EXIT_OK


def _row_json(row) -> dict:
    """One :class:`~fcqkd.protocols.ClassificationRow` as JSON."""
    return {
        "alice": row.alice_kind.value,
        "bob": row.bob_kind.value,
        "theta": row.theta_label,
        "ratio_for_unit_visibility": row.ratio_label,
        "reference_bias": list(row.reference_bias),
        "theta_at_reference": row.theta_at_reference,
        "ratio_at_reference": row.ratio_at_reference,
        "b92": dataclasses.asdict(row.b92),
        "bb84": dataclasses.asdict(row.bb84),
    }


def table_grid() -> list[float]:
    """The 36 generic biases of ``table2``, on the principal branch and clear of singular points."""
    lo, hi = 0.03, 0.5 * math.pi - 0.03
    return [lo + (hi - lo) * i / (_TABLE_GRID_N - 1) for i in range(_TABLE_GRID_N)]


def cmd_table2(out_path: str | None) -> int:
    from .protocols import ROW_ORDER, classify_pair, compare_row_with_reference

    grid = table_grid()
    rows = []
    failures: list[str] = []
    for alice_kind, bob_kind in ROW_ORDER:
        row = classify_pair(alice_kind, bob_kind, grid)
        rows.append(row)
        failures.extend(compare_row_with_reference(alice_kind, bob_kind, row, grid))
    _output(
        out_path,
        _json_into,
        _document(
            "table2",
            grid_points=len(grid) ** 2,
            rows=[_row_json(row) for row in rows],
            reference_check={"pass": not failures, "failures": failures},
        ),
    )
    if failures:
        for failure in failures:
            print(f"table2 mismatch: {failure}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_verify(max_m: float, out_path: str | None) -> int:
    from .verification import survey_all

    reports = survey_all(max_m)
    passed = all(r.within_bound for r in reports)
    pairs = [
        {
            "alice": r.alice_kind.value,
            "bob": r.bob_kind.value,
            "worst_relative_error": r.worst_error,
            "bound": r.bound,
            "lattice_points": r.points,
            "pass": r.within_bound,
        }
        for r in reports
    ]
    payload = _document("verify", drive_index=max_m, pairs=pairs, **{"pass": passed})
    _output(out_path, _json_into, payload)
    if not passed:
        for r in reports:
            if not r.within_bound:
                print(
                    f"verify failure: {r.alice_kind.value}-{r.bob_kind.value} "
                    f"error {r.worst_error:.3e} exceeds bound {r.bound:.3e}",
                    file=sys.stderr,
                )
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_qkd(cfg: RunConfig, seed: int | None, out_path: str | None) -> int:
    from .montecarlo import run_session

    if cfg.montecarlo is None:
        raise ConfigError("qkd needs a [montecarlo] section in the config")
    session = cfg.montecarlo
    if seed is not None:
        session = dataclasses.replace(session, seed=seed)
    stats = run_session(session)
    # One dict literal, not _document: its keyword dict would sit beside the
    # payload and raise the keyexchange benchmark's peak memory.
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "qkd",
        "protocol": session.protocol,
        "alice": _modulator_json(session.alice),
        "bob": _modulator_json(session.bob),
        "mu": session.mu,
        "eta": session.eta,
        "p_dark": session.p_dark,
        "seed": session.seed,
        "stats": {
            "sent": stats.sent,
            "conclusive": stats.conclusive,
            "sifted_bits": stats.sifted_bits,
            "errors": stats.errors,
            "qber": stats.qber,
            "upper_clicks": stats.upper_clicks,
            "lower_clicks": stats.lower_clicks,
        },
    }
    _output(out_path, _json_into, payload)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and reused for the process.

    Parsing reads it and leaves it unchanged, so one parser serves every
    ``main`` call; building it at import would add to every import.
    """
    parser = argparse.ArgumentParser(
        prog="fcqkd",
        description="Tandem electro-optic modulator link simulator for "
        "frequency-coded QKD",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", help="run configuration file (INI)")
        p.add_argument("--out", help="output path (default: stdout)")

    p_sweep = sub.add_parser("sweep", help="fringe powers vs phase difference")
    add_common(p_sweep)
    p_sweep.add_argument("--format", choices=("csv", "json"), default=None)

    p_spec = sub.add_parser("spectrum", help="exact spectrum at one phase difference")
    add_common(p_spec)
    p_spec.add_argument("--format", choices=("csv", "json"), default=None)
    p_spec.add_argument("--delta-phi", type=float, default=0.0, help="fringe argument, rad")
    p_spec.add_argument("--order", type=int, default=None, help="harmonic truncation order")

    p_table = sub.add_parser("table2", help="nine-pairing classification table")
    add_common(p_table, config=False)

    p_verify = sub.add_parser("verify", help="first-order model vs exact harmonics")
    add_common(p_verify, config=False)
    p_verify.add_argument("--max-m", type=float, default=0.1, help="drive index to test")

    p_qkd = sub.add_parser("qkd", help="Monte Carlo key-exchange session")
    add_common(p_qkd)
    p_qkd.add_argument("--seed", type=int, default=None, help="override the config seed")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "table2":
            return cmd_table2(args.out)
        if args.command == "verify":
            return cmd_verify(args.max_m, args.out)
        cfg = load_config(args.config) if args.config else default_config()
        out_path = args.out or cfg.out_path
        if args.command == "qkd":
            return cmd_qkd(cfg, args.seed, out_path)
        fmt = args.format or cfg.out_format or "csv"
        if args.command == "sweep":
            return cmd_sweep(cfg, fmt, out_path)
        return cmd_spectrum(cfg, args.delta_phi, args.order, fmt, out_path)
    except FcqkdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # flush at exit cannot fail again, and exit as a process killed by
        # SIGPIPE would: 1 and 2 already mean a failed check and a bad input.
        # https://docs.python.org/3/library/signal.html#note-on-sigpipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)
