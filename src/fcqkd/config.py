"""Run configuration: flat INI-style files with strict validation.

Sections and keys are fixed; anything unknown is rejected.  Each modulator
takes its drive as exactly one of ``v_rf_volts`` (converted through the
half-wave voltage) or a direct index ``m``, and its bias as exactly one of
``v_dc_volts`` or a direct ``psi``.  A ``[montecarlo]`` section becomes a
:class:`SessionConfig` over the parsed modulators and link, so its values
are checked at parse time whatever the command.

The text is read by :func:`_read_sections`, a strict line reader of
``[name]`` headers, ``key = value`` or ``key: value`` lines, blank lines and
``#``/``;`` comments (the README gives the full grammar).  A malformed line
is an error naming its number, and so are three forms other INI readers
accept: an indented continuation line, text after a header's ``]``, and
``[DEFAULT]`` (an unknown section).

:class:`SessionConfig` is defined here, not in :mod:`fcqkd.montecarlo`
(which re-exports it), so that parsing and checking a configuration
imports no numpy: only the layers that compute with arrays load it.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

from .errors import ConfigError, InvalidParameterError
from .link import B92, BB84, LinkSpec
from .modulator import (
    ModulatorKind,
    ModulatorSpec,
    _is_integer,
    _require_real,
    bias_phase_from_voltage,
    index_from_voltage,
    make_modulator,
)

_SECTION_KEYS = {
    "alice": {"kind", "v_pi_volts", "v_rf_volts", "m", "v_dc_volts", "psi", "phi"},
    "bob": {"kind", "v_pi_volts", "v_rf_volts", "m", "v_dc_volts", "psi", "phi"},
    "link": {"rf_ghz", "link_phase_rad", "loss"},
    "sweep": {"variable", "start", "stop", "steps"},
    "montecarlo": {"protocol", "mu", "eta", "p_dark", "n_pulses", "seed"},
    "output": {"format", "path"},
}

# Every sweep step is one output row.  The rows are held in memory until the
# sweep is written; the text is not, as it is encoded into its destination.
MAX_SWEEP_STEPS = 100_000

# Matches the bench this model was written around: 15 GHz drive and
# half-wave voltages of 5.5 V (UM) / 7.4 V (PM).
DEFAULT_CONFIG = """\
[alice]
kind = UM
v_pi_volts = 5.5
m = 0.1
psi = 0.0
phi = 0.0

[bob]
kind = PM
v_pi_volts = 7.4
m = 0.05
psi = 0.0
phi = 0.0

[link]
rf_ghz = 15.0
link_phase_rad = 0.0
loss = 1.0

[sweep]
variable = delta_phi
start = 0.0
stop = 6.283185307179586
steps = 64

[montecarlo]
protocol = B92
mu = 0.1
eta = 1.0
p_dark = 0.0
n_pulses = 100000
seed = 7
"""


# Largest session numpy's multinomial draw can count (int64).
MAX_PULSES = 2**63 - 1


@dataclass(frozen=True)
class SessionConfig:
    """One key-exchange session of :func:`fcqkd.montecarlo.run_session`."""

    protocol: str
    alice: ModulatorSpec
    bob: ModulatorSpec
    link: LinkSpec
    mu: float
    eta: float = 1.0
    p_dark: float = 0.0
    n_pulses: int = 100_000
    seed: int = 0

    def __post_init__(self):
        # the type first: a membership test on an array compares elementwise
        if not isinstance(self.protocol, str) or self.protocol not in (B92, BB84):
            raise InvalidParameterError(f"unknown protocol {self.protocol!r}")
        if not isinstance(self.alice, ModulatorSpec):
            raise InvalidParameterError(f"alice must be a ModulatorSpec, got {self.alice!r}")
        if not isinstance(self.bob, ModulatorSpec):
            raise InvalidParameterError(f"bob must be a ModulatorSpec, got {self.bob!r}")
        if not isinstance(self.link, LinkSpec):
            raise InvalidParameterError(f"link must be a LinkSpec, got {self.link!r}")
        for name in ("mu", "eta", "p_dark"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise InvalidParameterError(f"mu must be finite and >= 0, got {self.mu}")
        if not (0.0 <= self.eta <= 1.0):
            raise InvalidParameterError("eta must lie in [0, 1]")
        if not (0.0 <= self.p_dark < 1.0):
            raise InvalidParameterError("p_dark must lie in [0, 1)")
        if not _is_integer(self.n_pulses) or not 0 < self.n_pulses <= MAX_PULSES:
            raise InvalidParameterError(
                f"n_pulses must be an integer in [1, {MAX_PULSES}], got {self.n_pulses}"
            )
        if not _is_integer(self.seed) or self.seed < 0:
            raise InvalidParameterError(f"seed must be an integer >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunConfig:
    alice: ModulatorSpec
    bob: ModulatorSpec
    link: LinkSpec
    rf_ghz: float
    sweep_start: float
    sweep_stop: float
    sweep_steps: int
    montecarlo: SessionConfig | None
    out_format: str | None
    out_path: str | None


# A comment starts at '#' or ';' at the start of a line or after whitespace.
_COMMENT = re.compile(r"(?:^|\s)[#;]")


def _malformed(number: int, problem: str) -> ConfigError:
    return ConfigError(f"malformed config: line {number}: {problem}")


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    """INI text as {section name: {lower-cased key: value}}, in file order."""
    sections = {}
    keys = None
    key_indent = None  # indent of the current section's last key line
    for number, line in enumerate(text.split("\n"), 1):
        if ("#" in line or ";" in line) and (comment := _COMMENT.search(line)):
            line = line[: comment.start()]
        body = line.strip()
        if not body:
            continue
        indent = len(line) - len(line.lstrip())
        if key_indent is not None and indent > key_indent:
            raise _malformed(number, "an indented continuation line")
        end = body.rfind("]")
        if body[0] == "[" and end > 1:
            if end < len(body) - 1:
                raise _malformed(number, f"text after the header {body[: end + 1]!r}")
            name = body[1:end]
            if name in sections:
                raise _malformed(number, f"section [{name}] appears twice")
            keys = sections[name] = {}
            key_indent = None
            continue
        if keys is None:
            raise _malformed(number, "a key line before the first [section] header")
        key, sep, value = body.partition("=")
        if not sep or ":" in key:
            key, sep, value = body.partition(":")
        key = key.strip().lower()
        if not sep or not key:
            raise _malformed(number, f"expected '[section]' or 'key = value', got {body!r}")
        if key in keys:
            raise _malformed(number, f"key {key!r} appears twice in [{name}]")
        keys[key] = value.strip()
        key_indent = indent
    return sections


def _get(name, section, key, default=None):
    """``section[key]`` as a float, or an int where ``default`` is one; ``default`` if absent."""
    if key not in section:
        if default is None:
            raise ConfigError(f"missing key {key!r} in section [{name}]")
        return default
    text, integer = section[key], isinstance(default, int)
    if integer:
        try:
            return int(text)  # exact beyond 2**53, where floats round
        except ValueError:
            pass
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {key} = {text!r}: not a number") from exc
    if not integer:
        return value
    if not math.isfinite(value) or value != int(value):
        raise ConfigError(f"[{name}] {key} must be an integer")
    return int(value)


def _parse_modulator(name, section) -> ModulatorSpec:
    if "kind" not in section:
        raise ConfigError(f"missing key 'kind' in section [{name}]")
    try:
        kind = ModulatorKind(section["kind"].strip().upper())
    except ValueError as exc:
        raise ConfigError(f"[{name}] kind = {section['kind']!r}: expected PM, AM or UM") from exc

    has_vrf, has_m = "v_rf_volts" in section, "m" in section
    if has_vrf == has_m:
        raise ConfigError(f"[{name}] needs exactly one of 'v_rf_volts' and 'm'")
    has_vdc, has_psi = "v_dc_volts" in section, "psi" in section
    if has_vdc == has_psi:
        raise ConfigError(f"[{name}] needs exactly one of 'v_dc_volts' and 'psi'")
    if (has_vrf or has_vdc) and "v_pi_volts" not in section:
        raise ConfigError(f"[{name}] voltage keys require 'v_pi_volts'")

    v_pi = _get(name, section, "v_pi_volts", math.nan)
    m = index_from_voltage(_get(name, section, "v_rf_volts"), v_pi) if has_vrf \
        else _get(name, section, "m")
    psi = bias_phase_from_voltage(_get(name, section, "v_dc_volts"), v_pi) if has_vdc \
        else _get(name, section, "psi")
    phi = _get(name, section, "phi", ModulatorSpec.phi)
    return make_modulator(kind, m, psi, phi)


def parse_config(text: str) -> RunConfig:
    if not isinstance(text, str):
        raise ConfigError(f"config text must be a str, got {type(text).__name__}")
    sections = _read_sections(text)

    for name, keys in sections.items():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        for key in keys:
            if key not in _SECTION_KEYS[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
    for required in ("alice", "bob"):
        if required not in sections:
            raise ConfigError(f"missing section [{required}]")

    alice = _parse_modulator("alice", sections["alice"])
    bob = _parse_modulator("bob", sections["bob"])

    link_section = sections.get("link", {})
    rf_ghz = _get("link", link_section, "rf_ghz", 15.0)
    link_phase = _get("link", link_section, "link_phase_rad", LinkSpec.link_phase)
    loss = _get("link", link_section, "loss", LinkSpec.loss)
    if not (rf_ghz > 0.0 and math.isfinite(math.tau * rf_ghz * 1e9)):
        raise ConfigError(
            f"[link] rf_ghz must be positive, with 2*pi*rf_ghz*1e9 rad/s finite, got {rf_ghz!r}"
        )
    link = LinkSpec(rf_frequency=math.tau * rf_ghz * 1e9, link_phase=link_phase, loss=loss)

    sweep = sections.get("sweep", {})
    variable = sweep.get("variable", "delta_phi").strip()
    if variable != "delta_phi":
        raise ConfigError(f"[sweep] unsupported variable {variable!r}")
    sweep_start = _get("sweep", sweep, "start", 0.0)
    sweep_stop = _get("sweep", sweep, "stop", math.tau)
    sweep_steps = _get("sweep", sweep, "steps", 64)
    if not math.isfinite(sweep_stop - sweep_start):
        raise ConfigError("[sweep] start, stop and stop - start must be finite")
    if not 0 < sweep_steps <= MAX_SWEEP_STEPS:
        raise ConfigError(f"[sweep] steps must be in [1, {MAX_SWEEP_STEPS}]")

    montecarlo = None
    if "montecarlo" in sections:
        mc = sections["montecarlo"]
        protocol = mc.get("protocol", "").strip().upper()
        if protocol not in (B92, BB84):
            raise ConfigError(
                f"[montecarlo] protocol = {mc.get('protocol')!r}: expected {B92} or {BB84}"
            )
        montecarlo = SessionConfig(
            protocol=protocol,
            alice=alice,
            bob=bob,
            link=link,
            mu=_get("montecarlo", mc, "mu"),
            eta=_get("montecarlo", mc, "eta", SessionConfig.eta),
            p_dark=_get("montecarlo", mc, "p_dark", SessionConfig.p_dark),
            n_pulses=_get("montecarlo", mc, "n_pulses", SessionConfig.n_pulses),
            seed=_get("montecarlo", mc, "seed", SessionConfig.seed),
        )

    out_format = out_path = None
    if "output" in sections:
        out = sections["output"]
        if "format" in out:
            out_format = out["format"].strip().lower()
            if out_format not in ("csv", "json"):
                raise ConfigError("[output] format must be csv or json")
        out_path = out.get("path")

    return RunConfig(
        alice=alice,
        bob=bob,
        link=link,
        rf_ghz=rf_ghz,
        sweep_start=sweep_start,
        sweep_stop=sweep_stop,
        sweep_steps=sweep_steps,
        montecarlo=montecarlo,
        out_format=out_format,
        out_path=out_path,
    )


def load_config(path: str) -> RunConfig:
    # open() reads an int as a file descriptor, and closing the file closes it
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ConfigError(
            f"config path must be a str, bytes or os.PathLike, got {type(path).__name__}"
        )
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def default_config() -> RunConfig:
    return parse_config(DEFAULT_CONFIG)
