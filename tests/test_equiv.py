"""tools/equiv.py, the equivalence checker between two source trees."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "equiv.py"


def run_tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=120
    )


def test_a_tree_is_equivalent_to_itself():
    proc = run_tool(str(ROOT), str(ROOT), "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    verdicts = [line for line in lines if line.endswith(("identical", "DIFFERENT"))]
    assert verdicts == ["cli: identical", "configs: identical", "runs: identical",
                        "classify: identical", "ops: identical"]
    counts = [line.split()[1] for line in lines if line.startswith("  parent: ")]
    # commands, configs, 4 configs x 5 commands, 2 grids x 9 pairings
    assert counts[:4] == ["8", "60", "20", "18"]

    # one worker's outcomes: only the ops name the workload's scratch directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--worker", str(ROOT), "--quick"],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    outcomes = [json.loads(line) for line in proc.stdout.splitlines()]
    masked = {category for category, text in outcomes if "<work>" in text}
    assert masked == {"ops"}
    assert outcomes[0][1].startswith("table2: (0, '{\\n  \"schema_version\"")  # unmasked text
    # a generated config's sweep ran, its direct columns beside the closed ones
    runs = [text for category, text in outcomes if category == "runs"]
    assert any(": (0, 'delta_phi_rad,p_upper,p_lower,p_upper_closed" in text for text in runs)


def test_a_tree_that_raises_while_building_fails(tmp_path):
    (tmp_path / "src" / "fcqkd").mkdir(parents=True)
    (tmp_path / "src" / "fcqkd" / "__init__.py").write_text("raise RuntimeError('broken')\n")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "workloads.py").write_text("")
    proc = run_tool(str(ROOT), str(tmp_path), "--quick")
    assert proc.returncode == 1
    assert "RuntimeError: broken" in proc.stderr
    assert "error: the change tree raised while building its corpus" in proc.stdout
    assert run_tool(str(ROOT), str(tmp_path / "src")).returncode == 2  # not a tree


def test_differences_are_found_in_lockstep():
    spec = importlib.util.spec_from_file_location("equiv", TOOL)
    equiv = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(equiv)

    def stream(*items):
        return iter(json.dumps(item) + "\n" for item in items)

    parent = stream(["cli", "a"], ["cli", "b"], ["configs", "x"], ["ops", "1"])
    change = stream(["cli", "a"], ["cli", "B"], ["configs", "x"], ["configs", "y"], ["ops", "1"])
    tallies, first = equiv.compare([parent, change])
    # a changed outcome, then an extra one; the streams fall back into step at "ops"
    assert first == {"cli": (1, ["b", "B"]), "configs": (1, [None, "y"])}
    assert [tally.count for tally in tallies["configs"]] == [1, 2]
    assert len({tally.sha.hexdigest() for tally in tallies["ops"]}) == 1
    assert equiv.canon([(1.0, 0.1 + 0j)]) == "[(1.0, (0.1+0j))]"
