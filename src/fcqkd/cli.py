"""Command-line front end.

Subcommands::

    sweep     fringe powers vs the effective phase difference (CSV/JSON)
    spectrum  exact output spectrum at a fixed phase difference (CSV/JSON)
    table2    nine-pairing classification table, checked against the
              embedded reference (JSON)
    verify    first-order model vs exact harmonics over the lattice (JSON)
    qkd       Monte Carlo key-exchange session (JSON)

Exit codes: 0 success, 1 validation failure, 2 config/parameter error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import __version__
from .config import RunConfig, default_config, load_config
from .errors import (
    ConfigError,
    DegenerateConfigurationError,
    FcqkdError,
    InfeasibleProtocolError,
    InvalidParameterError,
    TruncationError,
)
from .harmonics import exact_tandem_spectrum
from .link import _fringe, _fringe_powers, sideband_powers_direct
from .modulator import ModulatorSpec
from .montecarlo import run_session
from .protocols import (
    ROW_ORDER,
    ClassificationRow,
    classify_pair,
    compare_row_with_reference,
)
from .verification import survey_all

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

_TABLE_GRID_N = 36
_DB_FLOOR = -400.0


def _fmt(value: float) -> str:
    return f"{value:.15g}"


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path!r}: {exc}") from exc


def _csv(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _rows_json(command: str, header: list[str], rows: list[list[float]]) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "columns": header,
        "rows": rows,
    }
    return json.dumps(payload, indent=2)


def _emit(command, header, rows, fmt, out_path) -> None:
    if fmt == "json":
        _write(_rows_json(command, header, rows), out_path)
    else:
        _write(_csv(header, rows), out_path)


def _modulator_json(spec: ModulatorSpec) -> dict:
    return {
        "kind": spec.kind.value,
        "eps1": spec.eps1,
        "eps2": spec.eps2,
        "m1": spec.m1,
        "m2": spec.m2,
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
    return delta_phi - cfg.link.link_phase - offset + cfg.alice.phi


def cmd_sweep(cfg: RunConfig, fmt: str, out_path: str | None) -> int:
    header = ["delta_phi_rad", "p_upper", "p_lower", "p_upper_closed", "p_lower_closed"]
    rows = []
    vis, offset = _fringe_offset(cfg)
    span = cfg.sweep_stop - cfg.sweep_start
    for k in range(cfg.sweep_steps):
        delta = cfg.sweep_start + span * k / cfg.sweep_steps
        bob_phi = _bob_phi_for(cfg, offset, delta)
        bob = dataclasses.replace(cfg.bob, phi=bob_phi)
        direct_up, direct_low = sideband_powers_direct(cfg.alice, bob, cfg.link)
        closed_up, closed_low = _fringe_powers(
            vis, offset, bob_phi - cfg.alice.phi + cfg.link.link_phase
        )
        rows.append([delta, direct_up, direct_low, closed_up, closed_low])
    _emit("sweep", header, rows, fmt, out_path)
    return EXIT_OK


def cmd_spectrum(
    cfg: RunConfig, delta_phi: float, order: int | None, fmt: str, out_path: str | None
) -> int:
    _, offset = _fringe_offset(cfg)
    bob = dataclasses.replace(cfg.bob, phi=_bob_phi_for(cfg, offset, delta_phi))
    spectrum = exact_tandem_spectrum(cfg.alice, bob, cfg.link, order)
    carrier = spectrum.power(0)
    if carrier <= 0.0:
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


def _row_json(row: ClassificationRow) -> dict:
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


def table_grid(n: int = _TABLE_GRID_N) -> list[float]:
    """Generic biases on the principal branch, clear of singular points."""
    lo, hi = 0.03, 0.5 * math.pi - 0.03
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def cmd_table2(out_path: str | None) -> int:
    grid = table_grid()
    rows = []
    failures: list[str] = []
    for alice_kind, bob_kind in ROW_ORDER:
        row = classify_pair(alice_kind, bob_kind, grid)
        rows.append(row)
        failures.extend(compare_row_with_reference(alice_kind, bob_kind, row, grid))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "table2",
        "grid_points": len(grid) ** 2,
        "rows": [_row_json(row) for row in rows],
        "reference_check": {"pass": not failures, "failures": failures},
    }
    _write(json.dumps(payload, indent=2), out_path)
    if failures:
        for failure in failures:
            print(f"table2 mismatch: {failure}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_verify(max_m: float, out_path: str | None) -> int:
    reports = survey_all(max_m)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "drive_index": max_m,
        "pairs": [
            {
                "alice": r.alice_kind.value,
                "bob": r.bob_kind.value,
                "worst_relative_error": r.worst_error,
                "bound": r.bound,
                "lattice_points": r.points,
                "pass": r.within_bound,
            }
            for r in reports
        ],
        "pass": all(r.within_bound for r in reports),
    }
    _write(json.dumps(payload, indent=2), out_path)
    if not payload["pass"]:
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
    if cfg.montecarlo is None:
        raise ConfigError("qkd needs a [montecarlo] section in the config")
    session = cfg.montecarlo
    if seed is not None:
        session = dataclasses.replace(session, seed=seed)
    stats = run_session(session)
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
    _write(json.dumps(payload, indent=2), out_path)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
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


def _load(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return default_config()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            cfg = _load(args)
            fmt = args.format or cfg.out_format or "csv"
            return cmd_sweep(cfg, fmt, args.out or cfg.out_path)
        if args.command == "spectrum":
            cfg = _load(args)
            fmt = args.format or cfg.out_format or "csv"
            return cmd_spectrum(cfg, args.delta_phi, args.order, fmt, args.out or cfg.out_path)
        if args.command == "table2":
            return cmd_table2(args.out)
        if args.command == "verify":
            return cmd_verify(args.max_m, args.out)
        if args.command == "qkd":
            cfg = _load(args)
            return cmd_qkd(cfg, args.seed, args.out or cfg.out_path)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InvalidParameterError, InfeasibleProtocolError,
            DegenerateConfigurationError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FcqkdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())
