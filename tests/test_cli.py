import argparse
import configparser
import dataclasses
import gc
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fcqkd import (
    DegenerateConfigurationError,
    FcqkdError,
    InfeasibleProtocolError,
    InvalidParameterError,
    PhaseUndefinedError,
    TruncationError,
    cli,
    config,
    harmonics,
    link,
    montecarlo,
    verification,
)
from fcqkd.cli import main
from fcqkd.config import (
    MAX_SWEEP_STEPS,
    ConfigError,
    default_config,
    load_config,
    parse_config,
)
from fcqkd.modulator import ModulatorKind
from fcqkd.protocols import REFERENCE_TABLE

BB84_CONFIG = """\
[alice]
kind = UM
v_pi_volts = 5.5
m = 0.1
psi = 0.0

[bob]
kind = AM
v_pi_volts = 4.7
m = 0.05
psi = 0.7853981633974483

[link]
rf_ghz = 15.0
link_phase_rad = 0.0
loss = 1.0

[montecarlo]
protocol = BB84
mu = 0.1
eta = 1.0
p_dark = 0.0
n_pulses = 20000
seed = 5
"""


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def assert_drive_phase_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: Bob's drive phase is not finite: fringe argument 1e+308 "
        "- [link] link_phase_rad 0.0 - pairing offset "
    )
    assert captured.err.endswith(" + [alice] phi 1e+308\n")


class TestConfigParsing:
    def test_default_config_loads(self):
        cfg = default_config()
        assert cfg.alice.kind is ModulatorKind.UM
        assert cfg.bob.kind is ModulatorKind.PM
        assert cfg.rf_ghz == 15.0
        assert cfg.montecarlo.protocol == "B92"

    def test_voltage_derived_parameters(self):
        cfg = parse_config(
            "[alice]\nkind = PM\nv_pi_volts = 7.4\nv_rf_volts = 0.2\npsi = 0\n\n"
            "[bob]\nkind = UM\nv_pi_volts = 5.5\nm = 0.05\nv_dc_volts = 5.5\n"
        )
        assert cfg.alice.m == pytest.approx(math.pi * 0.2 / 7.4)
        assert cfg.bob.psi == pytest.approx(math.pi / 2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(
                "[alice]\nkind = PM\nm = 0.1\npsi = 0\nchirp = 3\n\n"
                "[bob]\nkind = PM\nm = 0.1\npsi = 0\n"
            )

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[detector]\nefficiency = 1\n")

    def test_source_section_rejected(self, tmp_path, capsys):
        # source wavelength and power reached no computed quantity
        path = write_config(tmp_path, "[source]\nwavelength_nm = 1550\n\n" + BB84_CONFIG)
        assert main(["sweep", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown section [source]\n"

    def test_conflicting_drive_keys_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(
                "[alice]\nkind = PM\nv_pi_volts = 7.4\nv_rf_volts = 0.2\nm = 0.1\npsi = 0\n\n"
                "[bob]\nkind = PM\nm = 0.1\npsi = 0\n"
            )

    def test_missing_drive_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("[alice]\nkind = PM\npsi = 0\n\n[bob]\nkind = PM\nm = 0.1\npsi = 0\n")

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError, match="expected PM, AM or UM"):
            parse_config("[alice]\nkind = QM\nm = 0.1\npsi = 0\n\n[bob]\nkind = PM\nm = 0.1\npsi = 0\n")

    @pytest.mark.parametrize("rf_ghz", ["0", "-1", "nan", "inf", "1e300"])
    def test_bad_rf_frequency_names_the_key(self, tmp_path, capsys, rf_ghz):
        # 1e300 is finite, but 2*pi*1e9 times it is not
        text = BB84_CONFIG.replace("rf_ghz = 15.0", f"rf_ghz = {rf_ghz}")
        assert main(["spectrum", "--config", write_config(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: [link] rf_ghz must be positive, with 2*pi*rf_ghz*1e9 rad/s finite, "
            f"got {float(rf_ghz)!r}\n"
        )

    def test_largest_rf_frequency_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, BB84_CONFIG.replace("rf_ghz = 15.0", "rf_ghz = 1e290"))
        assert main(["spectrum", "--config", path]) == 0
        assert "1e+290" in capsys.readouterr().out


class TestSweepCommand:
    def test_csv_columns_agree(self, tmp_path, capsys):
        assert main(["sweep"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "delta_phi_rad", "p_upper", "p_lower", "p_upper_closed", "p_lower_closed",
        ]
        assert len(lines) - 1 == 64
        for line in lines[1:]:
            delta, up, low, up_c, low_c = map(float, line.split(","))
            assert up == pytest.approx(up_c, abs=1e-12)
            assert low == pytest.approx(low_c, abs=1e-12)
            assert up_c == pytest.approx(math.cos(delta / 2) ** 2, abs=1e-12)

    def test_json_format(self, capsys):
        assert main(["sweep", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == "1"
        assert payload["command"] == "sweep"
        assert len(payload["rows"]) == 64

    def test_out_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        assert out.read_text().startswith("delta_phi_rad")

    def test_degenerate_config_is_an_error(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "[alice]\nkind = AM\nm = 0.1\npsi = 0.0\n\n[bob]\nkind = AM\nm = 0.1\npsi = 0.0\n",
        )
        assert main(["sweep", "--config", path]) == 2

    def test_complementary_fringes_for_four_state_config(self, tmp_path, capsys):
        path = write_config(tmp_path, BB84_CONFIG)
        assert main(["sweep", "--config", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            delta, up, low, up_c, low_c = map(float, line.split(","))
            assert up == pytest.approx(math.cos(delta / 2) ** 2, abs=1e-12)
            assert low == pytest.approx(math.sin(delta / 2) ** 2, abs=1e-12)
            assert up + low == pytest.approx(1.0, abs=1e-12)

    def test_one_fringe_evaluation_per_sweep(self, monkeypatch, capsys):
        calls, fringe = [], link._fringe

        def counting(alice, bob):
            calls.append(1)
            return fringe(alice, bob)

        monkeypatch.setattr(link, "_fringe", counting)
        monkeypatch.setattr(cli, "_fringe", counting)
        assert main(["sweep"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("m", ["1e155", "1e200"])
    def test_huge_drive_gives_finite_rows(self, tmp_path, capsys, m):
        # |coefficient|^2 overflows a float above m ~ 1e154
        path = write_config(
            tmp_path,
            f"[alice]\nkind = UM\nm = {m}\npsi = 0.3\n\n[bob]\nkind = AM\nm = {m}\npsi = 0.5\n",
        )
        assert main(["sweep", "--config", path, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 64
        for _, up, low, up_c, low_c in rows:
            assert all(math.isfinite(v) for v in (up, low, up_c, low_c))
            assert abs(up - up_c) <= 1e-12 and abs(low - low_c) <= 1e-12

    def test_steps_above_cap_is_a_config_error(self, tmp_path, capsys):
        text = BB84_CONFIG + f"\n[sweep]\nsteps = {MAX_SWEEP_STEPS + 1}\n"
        assert main(["sweep", "--config", write_config(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [sweep] steps") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "bounds", ["stop = inf", "start = nan", "start = -1e308\nstop = 1e308"]
    )
    def test_non_finite_bounds_name_the_sweep_keys(self, tmp_path, capsys, bounds):
        # an infinite span used to reach the modulator as "phi must be finite, got nan"
        path = write_config(tmp_path, BB84_CONFIG + f"\n[sweep]\n{bounds}\n")
        assert main(["sweep", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [sweep] start, stop and stop - start must be finite\n"

    def test_overflowing_drive_phase_names_its_inputs(self, tmp_path, capsys):
        # the finite start and Alice's finite phi sum to an infinite Bob phase
        text = BB84_CONFIG.replace("psi = 0.0\n", "psi = 0.0\nphi = 1e308\n", 1)
        path = write_config(tmp_path, text + "\n[sweep]\nstart = 1e308\nstop = 1.5e308\n")
        assert main(["sweep", "--config", path]) == 2
        assert_drive_phase_error(capsys)


class TestSpectrumCommand:
    def test_bright_fringe_shows_sidebands(self, capsys):
        assert main(["spectrum", "--delta-phi", "0"]) == 0
        rows = {
            float(line.split(",")[0]): float(line.split(",")[1])
            for line in capsys.readouterr().out.strip().splitlines()[1:]
        }
        assert rows[0.0] == 0.0
        assert rows[15.0] > -40.0
        assert rows[-15.0] > -40.0

    def test_dark_fringe_suppresses_sidebands(self, capsys):
        assert main(["spectrum", "--delta-phi", str(math.pi)]) == 0
        rows = {
            float(line.split(",")[0]): float(line.split(",")[1])
            for line in capsys.readouterr().out.strip().splitlines()[1:]
        }
        assert rows[15.0] < -50.0
        assert rows[-15.0] < -50.0

    def test_explicit_order_respected(self, capsys):
        assert main(["spectrum", "--delta-phi", "1.0", "--order", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) - 1 == 21

    def test_highest_order_runs(self, capsys):
        assert main(["spectrum", "--order", "170"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) - 1 == 341

    @pytest.mark.parametrize("delta_phi", ["nan", "inf", "-inf"])
    def test_non_finite_delta_phi_names_the_option(self, capsys, delta_phi):
        assert main(["spectrum", f"--delta-phi={delta_phi}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --delta-phi must be finite, got {float(delta_phi)!r}\n"

    def test_overflowing_drive_phase_names_its_inputs(self, tmp_path, capsys):
        text = BB84_CONFIG.replace("psi = 0.0\n", "psi = 0.0\nphi = 1e308\n", 1)
        path = write_config(tmp_path, text)
        assert main(["spectrum", "--config", path, "--delta-phi", "1e308"]) == 2
        assert_drive_phase_error(capsys)

    def test_carrier_rule_is_exactly_zero(self, tmp_path, capsys):
        # Span loss cancels out of a carrier-relative spectrum, so the
        # transform runs without it: at 5e-324, with Alice biased at psi = 1,
        # the carrier no longer underflows.
        def run(loss, psi="0.0"):
            text = BB84_CONFIG.replace("loss = 1.0", f"loss = {loss}")
            path = write_config(tmp_path, text.replace("psi = 0.0", f"psi = {psi}", 1))
            code = main(["spectrum", "--config", path])
            captured = capsys.readouterr()
            return code, [[float(x) for x in line.split(",")]
                          for line in captured.out.split()[1:]], captured.err

        code, unit, _ = run("1.0")
        assert code == 0
        code, faint, _ = run("1e-300")
        assert code == 0
        for (_, want), (_, got) in zip(unit, faint):
            if want > -100.0:
                assert got == pytest.approx(want, abs=1e-9)
        assert run("5e-324", "1.0") == run("1.0", "1.0")

    def test_zero_carrier_is_a_degenerate_configuration(self, monkeypatch, capsys):
        # no valid input is known to give a carrier of exactly 0.0; the rule
        # keeps the carrier-relative dB from dividing by zero
        exact = harmonics.exact_tandem_spectrum

        def carrier_zeroed(*args):
            spectrum = exact(*args)
            amps = spectrum.amps.copy()
            amps[spectrum.order] = 0.0
            return harmonics.HarmonicSpectrum(spectrum.order, amps)

        monkeypatch.setattr(harmonics, "exact_tandem_spectrum", carrier_zeroed)
        assert main(["spectrum"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: carrier fully suppressed; carrier-relative spectrum undefined\n"
        )

    @pytest.mark.parametrize(
        "m, suppressed, lo, hi",
        [
            ("1.2024127788478865", True, 0.0, 1e-4),  # the drives add to 2.4048, J0's first zero
            ("1.202412778847895", True, 0.1, 1.0),
            ("1.20241277884791", False, 1.0, 10.0),
        ],
    )
    def test_carrier_at_the_rounding_floor_is_suppressed(
        self, tmp_path, capsys, m, suppressed, lo, hi
    ):
        # PM/PM in phase: the carrier is J0(2m), so near 2m = 2.4048 it sits
        # at a chosen share of the transform's rounding floor.  At the zero
        # it is rounding noise, which used to print the lines at +315.8 dB;
        # the other two sit within 10x below and above the floor, so a floor
        # 10x higher or lower flips one of them.
        text = f"[alice]\nkind = PM\nm = {m}\npsi = 0\n\n[bob]\nkind = PM\nm = {m}\npsi = 0\n"
        code = main(["spectrum", "--config", write_config(tmp_path, text), "--delta-phi", "0"])
        captured = capsys.readouterr()
        if suppressed:
            assert (code, captured.out) == (2, "")
            assert captured.err == (
                "error: carrier fully suppressed; carrier-relative spectrum undefined\n"
            )
        else:
            assert code == 0 and captured.err == ""
            rows = dict(tuple(map(float, line.split(","))) for line in captured.out.split()[1:])
            assert rows[0.0] == 0.0 and rows[15.0] > 260.0
        cfg = parse_config(text)
        _, offset = cli._fringe_offset(cfg)
        bob = dataclasses.replace(cfg.bob, phi=cli._bob_phi_for(cfg, offset, 0.0))
        spectrum = harmonics.exact_tandem_spectrum(cfg.alice, bob, cfg.link)
        share = spectrum.power(0) / spectrum.total_power()
        assert lo < share / harmonics._rounding_floor(spectrum.order) < hi

    @pytest.mark.parametrize("command", ["sweep", "spectrum"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_span_loss_leaves_the_output_unchanged(self, tmp_path, capsys, command, fmt):
        # the powers are normalized and the spectrum is carrier-relative, so
        # loss cancels; 5e-324, the least positive float, is a valid loss
        def run(loss):
            text = BB84_CONFIG.replace("loss = 1.0", f"loss = {loss}")
            path = write_config(tmp_path, text.replace("psi = 0.0", "psi = 1.0", 1))
            code = main([command, "--config", path, "--format", fmt])
            return code, capsys.readouterr().out

        code, want = run("1.0")
        assert code == 0 and want
        for loss in ("0.5", "1e-300", "5e-324"):
            assert run(loss) == (0, want)

    def test_db_floor_reads_exact_zero_bins(self, tmp_path, capsys):
        # AM/AM at m = 0.001: the bins k = +/-16 (+/-240 GHz) hold exactly 0.0
        # at order 20 and read the -400 dB floor; no row reads below it
        path = write_config(
            tmp_path,
            "[alice]\nkind = AM\nm = 0.001\npsi = 0.7\n\n"
            "[bob]\nkind = AM\nm = 0.001\npsi = 0.3\n",
        )
        assert main(["spectrum", "--config", path, "--order", "20"]) == 0
        lines = capsys.readouterr().out.split()[1:]
        rows = dict(tuple(map(float, line.split(","))) for line in lines)
        assert len(rows) == 41
        assert rows[-240.0] == rows[240.0] == -400.0
        assert min(rows.values()) == -400.0

    def test_db_floor_clamps_lines_below_it(self, tmp_path, capsys):
        # PM/PM at m = 1e-8: the lines from |k| = 3 on lie near 1e-50 of the
        # carrier, under the floor's 1e-40 but not zero, and read -400 dB
        text = "[alice]\nkind = PM\nm = 1e-8\npsi = 0\n\n[bob]\nkind = PM\nm = 1e-8\npsi = 0\n"
        cfg = parse_config(text)
        assert main(["spectrum", "--config", write_config(tmp_path, text)]) == 0
        rows = [tuple(map(float, line.split(","))) for line in capsys.readouterr().out.split()[1:]]
        _, offset = cli._fringe_offset(cfg)
        bob = dataclasses.replace(cfg.bob, phi=cli._bob_phi_for(cfg, offset, 0.0))
        spectrum = harmonics.exact_tandem_spectrum(cfg.alice, bob, cfg.link)
        carrier = spectrum.power(0)
        ratios = [spectrum.power(k) / carrier for k in range(-spectrum.order, spectrum.order + 1)]
        under = [db for (_, db), ratio in zip(rows, ratios) if 0.0 < ratio < 1e-40]
        assert len(under) >= 2
        assert under == [-400.0] * len(under)
        assert min(db for _, db in rows) == -400.0

    @pytest.mark.parametrize("order", ["171", "100000"])
    def test_order_above_cap_is_a_parameter_error(self, capsys, order):
        # the cap bounds the transform size and the number of output rows
        assert main(["spectrum", "--order", order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: order") and "Traceback" not in captured.err

    @pytest.mark.parametrize("order", ["5", "-3"])
    def test_order_too_low_is_a_parameter_error(self, capsys, order):
        assert main(["spectrum", "--order", order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: order") and "Traceback" not in captured.err

    def test_drive_beyond_small_signal_regime_runs(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "[alice]\nkind = UM\nm = 2.0\npsi = 0.0\n\n[bob]\nkind = PM\nm = 0.05\npsi = 0.0\n",
        )
        assert main(["spectrum", "--config", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) - 1 == 2 * 14 + 1  # default order ceil(3 * 2.0) + 8

    @pytest.mark.parametrize("m, needed", [("55.0", 173), ("1e6", 3000008), ("1e308", "inf")])
    def test_drive_beyond_highest_order_names_the_drive(self, tmp_path, capsys, m, needed):
        path = write_config(
            tmp_path,
            f"[alice]\nkind = UM\nm = {m}\npsi = 0.0\n\n[bob]\nkind = PM\nm = 0.05\npsi = 0.0\n",
        )
        assert main(["spectrum", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: drive index {float(m)} needs order {needed}, "
            "above the supported maximum 170\n"
        )
        # an explicit order still gets the order message
        assert main(["spectrum", "--config", path, "--order", "171"]) == 2
        assert capsys.readouterr().err == "error: order 171 above the supported maximum 170\n"


def golden(name):
    return json.loads((pathlib.Path(__file__).parent / "data" / name).read_text())


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


class TestGoldenRuns:
    # recorded before the yardstick kernels were reworked; rounding may move
    # the last digits, and the spectrum bins far below the carrier, which
    # hold only transform rounding noise
    @pytest.mark.parametrize(
        "argv, name",
        [(["verify"], "verify.json"), (["verify", "--max-m", "0.2"], "verify_max_m_0.2.json")],
    )
    def test_verify(self, capsys, argv, name):
        got, want = run_json(capsys, argv), golden(name)
        for pair, ref in zip(got["pairs"], want["pairs"]):
            error, ref_error = pair.pop("worst_relative_error"), ref.pop("worst_relative_error")
            assert error == pytest.approx(ref_error, rel=1e-10, abs=0)
        assert got == want

    @pytest.mark.parametrize("command, name", [("sweep", "sweep.json"), ("spectrum", "spectrum.json")])
    def test_rows(self, capsys, command, name):
        got, want = run_json(capsys, [command, "--format", "json"]), golden(name)
        assert got["columns"] == want["columns"]
        assert len(got["rows"]) == len(want["rows"])
        for row, ref in zip(got["rows"], want["rows"]):
            assert row[0] == ref[0]
            for v, r in zip(row[1:], ref[1:]):
                if command == "spectrum":
                    # dB relative to the carrier: compare the power at every
                    # bin, the dB only where the bin is above rounding noise
                    assert abs(10 ** (v / 10) - 10 ** (r / 10)) <= 1e-12
                    if r < -200.0:
                        continue
                assert abs(v - r) <= 1e-12


    def test_qkd(self, capsys):
        # counts come from one seeded multinomial draw, so every digit is pinned
        want = (pathlib.Path(__file__).parent / "data" / "qkd.json").read_text()
        assert main(["qkd"]) == 0
        assert capsys.readouterr().out == want


class TestTable2Command:
    def test_output_matches_golden_run(self, capsys):
        # reported values come from scalar evaluation, so every digit is pinned
        golden = (pathlib.Path(__file__).parent / "data" / "table2.json").read_text()
        assert main(["table2"]) == 0
        assert capsys.readouterr().out == golden

    def test_passes_against_reference(self, capsys):
        assert main(["table2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reference_check"]["pass"] is True
        assert len(payload["rows"]) == 9
        um_um = payload["rows"][0]
        assert um_um["alice"] == "UM" and um_um["bob"] == "UM"
        assert um_um["b92"]["feasible"] and um_um["bb84"]["feasible"]

    def test_perturbed_reference_detected(self, capsys, monkeypatch):
        key = (ModulatorKind.UM, ModulatorKind.UM)
        ref = REFERENCE_TABLE[key]
        flipped = dataclasses.replace(ref.b92, feasible=not ref.b92.feasible)
        monkeypatch.setitem(REFERENCE_TABLE, key, dataclasses.replace(ref, b92=flipped))
        assert main(["table2"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["reference_check"]["pass"] is False
        assert any("UM-UM" in failure for failure in payload["reference_check"]["failures"])


class TestVerifyCommand:
    def test_within_frozen_bounds(self, capsys):
        assert main(["verify", "--max-m", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert len(payload["pairs"]) == 9
        assert all(p["worst_relative_error"] <= 1e-2 for p in payload["pairs"])

    def test_refuses_outside_regime(self, capsys):
        assert main(["verify", "--max-m", "0.3"]) == 2


class TestQkdCommand:
    def test_deterministic_json(self, tmp_path, capsys):
        path = write_config(tmp_path, BB84_CONFIG)
        assert main(["qkd", "--config", path]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["qkd", "--config", path]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["protocol"] == "BB84"
        assert first["stats"]["qber"] == 0.0
        assert first["stats"]["sent"] == 20000

    def test_seed_override_changes_stats(self, tmp_path, capsys):
        path = write_config(tmp_path, BB84_CONFIG)
        assert main(["qkd", "--config", path, "--seed", "99"]) == 0
        overridden = json.loads(capsys.readouterr().out)
        assert overridden["seed"] == 99

    def test_infeasible_pairing_cites_reason(self, tmp_path, capsys):
        text = (
            "[alice]\nkind = AM\nm = 0.1\npsi = 0.4\n\n"
            "[bob]\nkind = AM\nm = 0.1\npsi = 0.7\n\n"
            "[montecarlo]\nprotocol = BB84\nmu = 0.1\nn_pulses = 1000\nseed = 1\n"
        )
        path = write_config(tmp_path, text)
        assert main(["qkd", "--config", path]) == 2
        assert "theta-mismatch" in capsys.readouterr().err

    def test_zero_visibility_cited(self, tmp_path, capsys):
        text = (
            "[alice]\nkind = UM\nm = 0.1\npsi = 1.5707963267948966\n\n"
            "[bob]\nkind = AM\nm = 0.05\npsi = 0.7853981633974483\n\n"
            "[montecarlo]\nprotocol = B92\nmu = 0.1\nn_pulses = 1000\nseed = 1\n"
        )
        path = write_config(tmp_path, text)
        assert main(["qkd", "--config", path]) == 2
        assert "zero-visibility" in capsys.readouterr().err

    def test_vanished_coefficient_cited(self, tmp_path, capsys):
        # the biases support BB84, but Alice at m = 0 makes no sidebands
        text = BB84_CONFIG.replace("m = 0.1", "m = 0")
        assert main(["qkd", "--config", write_config(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "zero-visibility" in captured.err

    def test_invalid_montecarlo_fails_every_command(self, tmp_path, capsys):
        path = write_config(tmp_path, BB84_CONFIG.replace("mu = 0.1", "mu = nan"))
        for command in ("sweep", "spectrum", "qkd"):
            assert main([command, "--config", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: mu")

    def test_missing_montecarlo_section(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "[alice]\nkind = PM\nm = 0.1\npsi = 0\n\n[bob]\nkind = PM\nm = 0.1\npsi = 0\n",
        )
        assert main(["qkd", "--config", path]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [("mu", "nan"), ("mu", "inf"), ("n_pulses", "1e20"), ("n_pulses", "nan"),
         ("n_pulses", "inf")],
    )
    def test_unsamplable_session_is_a_config_error(self, tmp_path, capsys, key, value):
        text = BB84_CONFIG.replace(
            next(line for line in BB84_CONFIG.splitlines() if line.startswith(f"{key} =")),
            f"{key} = {value}",
        )
        assert main(["qkd", "--config", write_config(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and key in captured.err

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, BB84_CONFIG)
        assert main(["qkd", "--config", path, "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed")

    def test_largest_session_runs(self, tmp_path, capsys):
        # parsed exactly, not through a float that rounds up to 2**63
        text = BB84_CONFIG.replace("n_pulses = 20000", f"n_pulses = {2**63 - 1}")
        assert main(["qkd", "--config", write_config(tmp_path, text)]) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["sent"] == 2**63 - 1

    def test_huge_equal_drives_keep_the_visibility(self, tmp_path, capsys):
        # equal drives: V does not depend on m, so neither do the counts;
        # an overflowed |a|^2 + |b|^2 once read as V = 1 and QBER 0
        stats = []
        for m in ("0.1", "1e200"):
            text = BB84_CONFIG.replace("m = 0.1", f"m = {m}").replace("m = 0.05", f"m = {m}")
            assert main(["qkd", "--config", write_config(tmp_path, text)]) == 0
            stats.append(json.loads(capsys.readouterr().out)["stats"])
        assert stats[0] == stats[1]
        assert stats[1]["errors"] > 0


# Every command, and both formats where a command has two
_RUNS = [
    ["table2"], ["verify"], ["sweep"], ["sweep", "--format", "json"], ["spectrum"],
    ["spectrum", "--format", "json"], ["qkd"],
]


class TestOutputContract:
    @pytest.mark.parametrize("argv", _RUNS, ids=" ".join)
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, argv):
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_failed_sweep_writes_nothing(self, tmp_path, capsys, fmt, to_file):
        # steps 0 and 1 succeed; step 2's fringe argument 2 * 1e308 / 64 overflows
        text = config.DEFAULT_CONFIG.replace("stop = 6.283185307179586", "stop = 1e308")
        out = tmp_path / "out"
        argv = ["sweep", "--config", write_config(tmp_path, text), "--format", fmt]
        if to_file:
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: Bob's drive phase is not finite: fringe argument inf"
        )
        assert not out.exists()

    @pytest.mark.parametrize("fmt, ratio", [("json", 2.5), ("csv", 3.5)])
    def test_long_sweep_peak_stays_near_its_text(self, tmp_path, fmt, ratio):
        # the rows are held until the sweep is written; the text never is
        text = config.DEFAULT_CONFIG.replace("steps = 64", "steps = 10000")
        out = tmp_path / "out"
        argv = ["sweep", "--config", write_config(tmp_path, text), "--format", fmt,
                "--out", str(out)]
        # one-time costs (the parser, first imports) stay outside the trace
        assert main(["sweep", "--format", fmt, "--out", str(out)]) == 0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < ratio * out.stat().st_size


class TestParserReuse:
    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._build_parser.cache_clear()
        yield
        cli._build_parser.cache_clear()

    def test_calls_build_one_parser(self, monkeypatch, capsys):
        built, init = [], argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            if parser.prog == "fcqkd":  # not a subcommand's parser
                built.append(parser)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (["qkd"], ["sweep"], ["spectrum", "--format", "json"], ["qkd", "--seed", "3"]):
            assert main(argv) == 0
        assert len(built) == 1

    def test_seed_does_not_carry_over(self, capsys):
        want = (pathlib.Path(__file__).parent / "data" / "qkd.json").read_text()
        assert main(["qkd", "--seed", "9"]) == 0
        assert capsys.readouterr().out != want
        assert main(["qkd"]) == 0
        assert capsys.readouterr().out == want

    def test_format_does_not_carry_over(self, capsys):
        assert main(["spectrum", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "spectrum"
        assert main(["spectrum"]) == 0
        assert capsys.readouterr().out.startswith("offset_ghz,power_db_rel_carrier\n")

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--order", "ten"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        assert main(["spectrum", "--order", "10"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) - 1 == 21


_ERRORS = (
    ConfigError,
    DegenerateConfigurationError,
    InfeasibleProtocolError,
    InvalidParameterError,
    PhaseUndefinedError,
    TruncationError,
)


class TestErrorExit:
    def test_every_package_error_is_listed(self):
        assert set(FcqkdError.__subclasses__()) == set(_ERRORS)

    @pytest.mark.parametrize("error", _ERRORS, ids=lambda error: error.__name__)
    @pytest.mark.parametrize("command, stage", [("verify", "survey_all"), ("qkd", "run_session")])
    def test_every_package_error_exits_2(self, monkeypatch, capsys, error, command, stage):
        def failing(*args):
            raise error("no result")

        # cli imports each stage from its layer when the command runs
        layer = {"survey_all": verification, "run_session": montecarlo}[stage]
        monkeypatch.setattr(layer, stage, failing)
        assert main([command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no result\n"


def test_closed_pipe_ends_without_a_traceback(tmp_path):
    # 5000 rows outgrow the pipe's buffer, so the writer must meet the closed end
    path = tmp_path / "long.ini"
    path.write_text(config.DEFAULT_CONFIG.replace("steps = 64", "steps = 5000"))
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "fcqkd", "sweep", "--config", str(path)],
            stdout=subprocess.PIPE, stderr=err, env=env,
        )
        assert proc.stdout.read(10) == b"delta_phi_"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
    assert (tmp_path / "stderr").read_bytes() == b""


# --- fuzzing: INI text from the known sections and keys, with odd values ----

_ODD = ("nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e308", "1e-320", "garbage", "",
        str(2**63), str(2**63 - 1), str(-(2**63)), "0", "-0.0", "-1", "0.5", "1", "2", "1.5e2")
_PLAUSIBLE = {
    "kind": ("UM", "PM", "AM", "um", "QM"),
    "protocol": ("B92", "BB84", "bb84", "E91"),
    "format": ("csv", "json", "xml"),
    "variable": ("delta_phi", "psi"),
    "m": ("0.1", "0.05", "55.0"),
    "psi": ("0.0", "0.7853981633974483", "1.5707963267948966"),
    "mu": ("0.1", "0.3"),
    "n_pulses": ("1000", "100000"),
    "v_pi_volts": ("5.5", "7.4"),
    "v_rf_volts": ("0.2",),
    "v_dc_volts": ("5.5",),
}
# Large step counts run long and exercise nothing that small ones do not.
_STEPS = ("1", "7", "64", "2.0", "2.5", "0", "-1", "nan", "inf", "1e400", str(2**63), "garbage")


def _values(key):
    if key == "steps":
        return st.sampled_from(_STEPS)
    return st.one_of(
        st.sampled_from(_PLAUSIBLE.get(key, ()) + _ODD),
        st.floats().map(repr),
        st.integers(-(2**70), 2**70).map(str),
    )


# A valid configuration, which the fuzzer then edits.
_BASE = {
    "alice": {"kind": "UM", "m": "0.1", "psi": "0.0"},
    "bob": {"kind": "PM", "m": "0.05", "psi": "0.0"},
    "link": {"rf_ghz": "15.0", "link_phase_rad": "0.0", "loss": "1.0"},
    "sweep": {"variable": "delta_phi", "start": "0.0", "stop": "6.283185307179586", "steps": "8"},
    "montecarlo": {"protocol": "B92", "mu": "0.1", "eta": "1.0", "p_dark": "0.0",
                   "n_pulses": "1000", "seed": "7"},
    "output": {"format": "csv"},
}


@st.composite
def config_texts(draw):
    sections = {name: dict(keys) for name, keys in _BASE.items()}
    for name in ("alice", "bob"):
        sections[name]["kind"] = draw(st.sampled_from(("UM", "PM", "AM")))
        sections[name]["psi"] = draw(st.sampled_from(_PLAUSIBLE["psi"]))
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(sorted(sections)))
        # the [output] path would write outside the test's directory
        key = draw(st.sampled_from(sorted(config._SECTION_KEYS[name] - {"path"})))
        if draw(st.integers(0, 4)) == 0:
            sections[name].pop(key, None)
        else:
            sections[name][key] = draw(_values(key))
    if draw(st.integers(0, 3)) == 0:
        sections.pop(draw(st.sampled_from(sorted(sections))))
    lines = []
    for name, keys in sections.items():
        lines += [f"[{name}]", *(f"{key} = {value}" for key, value in keys.items())]
    return "\n".join(lines) + "\n"


_COMMANDS = st.one_of(
    st.tuples(st.just("sweep"), st.sampled_from(([], ["--format", "json"]))),
    st.tuples(
        st.just("spectrum"),
        st.lists(
            st.sampled_from((["--format", "csv"], ["--delta-phi", "1e308"], ["--delta-phi=nan"],
                             ["--order", "12"], ["--order", "171"], ["--order", "x"])),
            max_size=2,
        ).map(lambda opts: [arg for opt in opts for arg in opt]),
    ),
    st.tuples(st.just("qkd"), st.sampled_from(([], ["--seed", "4"], ["--seed", "-1"],
                                                ["--seed", str(2**64)], ["--seed", "1.5"]))),
)


class TestFuzzedConfigs:
    @settings(max_examples=300, deadline=None)
    @given(config_texts())
    def test_parse_config_returns_or_raises_a_typed_error(self, text):
        try:
            cfg = parse_config(text)
        except (ConfigError, InvalidParameterError):
            return
        assert isinstance(cfg, config.RunConfig)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config_texts(), _COMMANDS, st.booleans())
    def test_cli_exits_with_a_code(self, tmp_path, capsys, text, command, to_file):
        path = write_config(tmp_path, text)
        name, options = command
        argv = [name, "--config", path, *options]
        if to_file:
            argv += ["--out", str(tmp_path / "out")]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err


# --- the line reader against configparser, and junk at the config entry points

def configparser_front_end(text):
    """``parse_config`` with its text read by configparser, as it was before the reader."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    sections = {name: dict(parser[name]) for name in parser.sections()}
    with mock.patch.object(config, "_read_sections", lambda _: sections):
        return parse_config(text)


def _parse_outcome(parse, text):
    try:
        return ("returned", repr(parse(text)))
    except FcqkdError as exc:
        if str(exc).startswith("malformed config: "):
            return ("malformed", type(exc))
        return ("raised", type(exc), str(exc))


# Line styles, drawn whole: one draw per line keeps the property fast.
_PADS = ("", " ", "  ", "\t", " \t")
_TRAILINGS = ("", " ", "\t", "\r", " \xa0")
_COMMENTS = ("", " #", " ; pi/4", "\t# a=b: [c]", " \xa0;x #y", "  #;")  # each after whitespace
_KEY_STYLES = st.sampled_from(tuple(itertools.product(
    (str.lower, str.upper, str.title), _PADS, "=:", _PADS, _TRAILINGS, _COMMENTS)))
_HEADER_STYLES = st.sampled_from(tuple(a + b for a, b in itertools.product(_TRAILINGS, _COMMENTS)))
_FILLERS = st.sampled_from(
    (None,) * 8 + ("", " ", "\t", " \r", "# note", "  ; k = v", "\t#[alice]", ";"))
_MISTAKES = ("garbage", "= 1", "[]", "[alice", "m = 0.1")


@st.composite
def grammar_texts(draw):
    """INI text over the reader's grammar: both delimiters, comments, blank lines,
    key case and padding; one text in three has a repeated section or key, a key
    line before the first header or a line with no delimiter."""
    sections = [(name, dict(keys)) for name, keys in _BASE.items()]
    for _ in range(draw(st.integers(0, 4))):
        name, keys = sections[draw(st.integers(0, len(sections) - 1))]
        key = draw(st.sampled_from(sorted(config._SECTION_KEYS[name] - {"path"})))
        keys[key] = draw(_values(key))
    if draw(st.integers(0, 3)) == 0:
        sections.pop(draw(st.integers(0, len(sections) - 1)))
    lines = []
    indent = draw(st.sampled_from(_PADS))  # for every key line: deeper would be a continuation
    for name, keys in sections:
        lines.append(f"[{name}]" + draw(_HEADER_STYLES))
        for key, value in keys.items():
            filler = draw(_FILLERS)
            if filler is not None:
                lines.append(filler)
            case, before, delimiter, after, trailing, comment = draw(_KEY_STYLES)
            lines.append(indent + case(key) + before + delimiter + after + value + trailing + comment)
    if lines and draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            mistake = draw(st.sampled_from(_MISTAKES))
        elif kind == 1:
            mistake = f"[{draw(st.sampled_from(sections))[0]}]" if sections else "[alice]"
        else:
            mistake = draw(st.sampled_from(lines)).strip().upper()
        lines.insert(at, indent + mistake)
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", "\n\n")))


_MODULATORS = "[alice]\nkind = UM\nm = 0.1\npsi = 0\n[bob]\nkind = PM\nm = 0.1\npsi = 0\n"


class TestConfigReader:
    @settings(max_examples=500, deadline=None)
    @given(grammar_texts())
    def test_reads_as_configparser_did(self, text):
        assert _parse_outcome(parse_config, text) == _parse_outcome(configparser_front_end, text)

    def test_default_config_reads_as_configparser_did(self):
        assert repr(default_config()) == repr(configparser_front_end(config.DEFAULT_CONFIG))

    # Where the reader and configparser part ways on purpose: each form
    # configparser accepts and reads otherwise than it looks is an error.
    @pytest.mark.parametrize(
        "extra, read, expected, message",
        [
            # configparser appends an indented line to the value above it
            ("[output]\npath = run\n  two.json\n", lambda cfg: cfg.out_path, "run\ntwo.json",
             "malformed config: line 3: an indented continuation line"),
            # configparser merges [DEFAULT] into every section
            ("[DEFAULT]\nphi = 0.5\n", lambda cfg: cfg.bob.phi, 0.5, "unknown section [DEFAULT]"),
            # configparser ignores text after a header's ']'
            ("[output] format = json\npath = run.json\n", lambda cfg: cfg.out_path, "run.json",
             "malformed config: line 1: text after the header '[output]'"),
        ],
        ids=["continuation", "default", "after-header"],
    )
    def test_deliberate_differences(self, extra, read, expected, message):
        text = extra + _MODULATORS
        assert read(configparser_front_end(text)) == expected
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    def test_comment_starts_at_the_first_prefix_after_whitespace(self):
        # configparser before 3.13 reads 'a;b ;c': its search takes the first
        # '#' after whitespace before the second ';'
        text = _MODULATORS + "[output]\npath = a;b ;c #d\n"
        assert parse_config(text).out_path == "a;b"
        assert parse_config(text.replace(" ;c #d", "")).out_path == "a;b"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("m = 0.1\n[alice]\n", "line 1: a key line before the first [section] header"),
            ("[alice]\n\n# note\nkind\n", "line 4: expected '[section]' or 'key = value', got 'kind'"),
            ("[alice]\n\x0c\nkind\n", "line 3: expected '[section]' or 'key = value', got 'kind'"),
            ("[alice]\n[]\n", "line 2: expected '[section]' or 'key = value', got '[]'"),
            ("[alice]\n  = UM\n", "line 2: expected '[section]' or 'key = value', got '= UM'"),
            ("[alice]\n[bob]\n[alice]\n", "line 3: section [alice] appears twice"),
            ("[alice]\nkind = UM\nKIND: PM\n", "line 3: key 'kind' appears twice in [alice]"),
            ("[alice]\n  kind = UM\n   m = 0.1\n", "line 3: an indented continuation line"),
            ("[alice]\nkind = UM\n\n\t[bob]\n", "line 4: an indented continuation line"),
        ],
    )
    def test_malformed_lines_are_named(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == f"malformed config: {message}"

    def test_lines_end_at_newline_only(self):
        # str.splitlines would end a line at the U+2028 line separator too
        text = "[alice]\nkind = UM\u2028m = 0.1\npsi = 0\n[bob]\nkind = PM\nm = 0.1\npsi = 0\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == "[alice] kind = 'UM\\u2028m = 0.1': expected PM, AM or UM"

    def test_keys_are_lower_cased_and_split_at_the_first_delimiter(self):
        cfg = parse_config(
            "[alice]\n  KIND : UM\n  M=0.1\nPsi:0\n[bob]\n kind=PM\n m = 0.05 ; drive\n psi:\t0\n"
            "[output]\npath = a=b:c\n"
        )
        assert (cfg.alice.kind, cfg.alice.m, cfg.bob.m) == (ModulatorKind.UM, 0.1, 0.05)
        assert cfg.out_path == "a=b:c"
        with pytest.raises(ConfigError, match="kind = 'UM = x'"):
            parse_config("[alice]\nkind : UM = x\n[bob]\n")

    def test_parse_makes_no_reference_cycles(self):
        parse_config(config.DEFAULT_CONFIG)  # first-call caches
        gc.collect()
        gc.disable()
        try:
            parse_config(config.DEFAULT_CONFIG)
            assert gc.collect() == 0
        finally:
            gc.enable()

    # Junk a caller may pass by mistake: every call returns or raises a package error.
    _JUNK = st.one_of(
        st.text(max_size=20),
        st.binary(max_size=8),
        st.sampled_from([None, True, False, math.nan, 0, 1, 5, b"[alice]\n",
                         np.array(0.5), np.array([0.5, 1.0]), config.DEFAULT_CONFIG]),
    )

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_JUNK, st.sampled_from(("junk", "directory", "latin-1", "default")))
    def test_entry_points_return_or_raise_a_package_error(self, tmp_path, monkeypatch,
                                                          junk, path):
        monkeypatch.chdir(tmp_path)  # drawn text is a path relative to here
        (tmp_path / "latin-1").write_bytes(b"# caf\xe9\n" + config.DEFAULT_CONFIG.encode())
        (tmp_path / "default").write_text(config.DEFAULT_CONFIG)
        (tmp_path / "directory").mkdir(exist_ok=True)
        for call in (lambda: parse_config(junk), lambda: load_config(junk),
                     lambda: load_config(path if path != "junk" else junk)):
            try:
                assert isinstance(call(), config.RunConfig)
            except FcqkdError:
                pass

    def test_non_str_text_is_a_config_error(self):
        with pytest.raises(ConfigError, match="config text must be a str, got NoneType"):
            parse_config(None)
        with pytest.raises(ConfigError, match="config path must be a str, bytes or os.PathLike, got int"):
            load_config(1)  # not a file descriptor


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "latin-1.ini"
    path.write_bytes(b"# caf\xe9\n" + BB84_CONFIG.encode())
    assert main(["qkd", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: cannot read config {str(path)!r}: 'utf-8' codec can't decode byte 0xe9"
    )
    assert captured.err.count("\n") == 1
