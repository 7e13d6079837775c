import dataclasses
import json
import math
import pathlib

import pytest

from fcqkd import cli, link
from fcqkd.cli import main
from fcqkd.config import MAX_SWEEP_STEPS, ConfigError, default_config, parse_config
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
        assert cfg.alice.m1 == pytest.approx(math.pi * 0.2 / 7.4)
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

    def test_steps_above_cap_is_a_config_error(self, tmp_path, capsys):
        text = BB84_CONFIG + f"\n[sweep]\nsteps = {MAX_SWEEP_STEPS + 1}\n"
        assert main(["sweep", "--config", write_config(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [sweep] steps") and "Traceback" not in captured.err


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

    @pytest.mark.parametrize("m, needed", [("55.0", 173), ("1e6", 3000008)])
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
