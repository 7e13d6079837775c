"""Equivalence checker: do two trees give the same outputs on the same calls?

    python3 tools/equiv.py PARENT_DIR CHANGE_DIR [--quick]

Each tree is a checkout holding ``src/fcqkd`` and ``bench/workloads.py``.
One worker process per tree (this script with ``--worker``) runs with
``PYTHONPATH`` set to that tree's ``src``, builds the same corpus of calls
in the same order, and writes one outcome per call.  The categories:

* ``cli``: exit code and stdout of ``table2``, ``verify``, ``verify --max-m
  0.2``, ``sweep`` and ``spectrum`` (CSV and JSON) and ``qkd`` on the
  default config;
* ``configs``: ``parse_config`` of 3000 generated configs, invalid ones
  included;
* ``classify``: ``classify_pair`` and ``compare_row_with_reference`` of all
  nine pairings, and ``check_protocol`` at two bias pairs, on 400 generated
  bias grids, some of them 1e-9 to 1e-3 off multiples of pi/2;
* ``ops``: the set-up configs read by ``load_config`` and every op result,
  with its check, of ``Classify`` and ``KeyExchange`` passes 0-119 and
  ``Yardstick`` passes 0-29 of ``bench/workloads.py`` (imported, never
  written), at seeds 1-3.

``--quick`` shrinks every category to a smoke test of about a second.

An outcome is the result's repr, with every array as its dtype, shape and
the SHA-256 of its bytes so that no digit is lost, or the type and message
of what the call raised.  For each category the report prints each tree's
SHA-256 over its outcomes and their count, and the first outcome that
differs.

Exit status: 0 when both trees built their corpora, whether or not the
outcomes agree (a change may alter its output on purpose); 1 when a tree
raised while building its corpus, as opposed to inside a call; 2 on a
usage error.  Only the standard library is used here; the trees bring numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

CATEGORIES = ("cli", "configs", "classify", "ops")
# Corpus sizes of a full run and of --quick
FULL = {"configs": 3000, "grids": 400, "passes": 120, "yardstick_passes": 30, "seeds": (1, 2, 3)}
QUICK = {"configs": 60, "grids": 2, "passes": 1, "yardstick_passes": 1, "seeds": (1,)}
COMMANDS = (
    ["table2"], ["verify"], ["verify", "--max-m", "0.2"], ["sweep"], ["sweep", "--format", "json"],
    ["spectrum"], ["spectrum", "--format", "json"], ["qkd"],
)


# --- outcomes -----------------------------------------------------------------


def canon(value) -> str:
    """``repr`` of ``value``, with dataclasses, lists and tuples taken apart and arrays hashed."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = (f"{f.name}={canon(getattr(value, f.name))}" for f in dataclasses.fields(value))
        return f"{type(value).__name__}({', '.join(fields)})"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(map(canon, value))
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    if type(value).__name__ == "ndarray":
        digest = hashlib.sha256(value.tobytes()).hexdigest()[:16]
        return f"array({value.dtype}, {value.shape}, sha256={digest})"
    return repr(value)


def raised(exc: Exception) -> str:
    return f"raise {type(exc).__name__}: {exc}"


def outcome(call, *args) -> str:
    """The canonical result of ``call(*args)``, or what it raised."""
    try:
        return canon(call(*args))
    except Exception as exc:
        return raised(exc)


# --- generated inputs -------------------------------------------------------------

# Values no key accepts, or accepts only at an edge
_ODD = ("nan", "inf", "-inf", "1e400", "-1", "0", "abc", "", "1_000", "0x10", "2.5", "1e5",
        "9223372036854775808", "-0.0")
_VALID = {
    "m": (0.0, 0.3), "v_rf_volts": (0.0, 3.0), "v_pi_volts": (1.0, 10.0), "psi": (-7.0, 7.0),
    "v_dc_volts": (-10.0, 10.0), "phi": (-7.0, 7.0), "rf_ghz": (1.0, 40.0),
    "link_phase_rad": (-7.0, 7.0), "loss": (0.01, 1.0), "start": (-7.0, 7.0),
    "stop": (-7.0, 7.0), "steps": (1, 300), "mu": (0.0, 1.0), "eta": (0.0, 1.0),
    "p_dark": (0.0, 1e-3), "n_pulses": (1, 10**7), "seed": (0, 2**32),
}


def config_value(rng: random.Random, key: str, junk: float) -> str:
    if rng.random() < junk:
        return rng.choice(_ODD)
    lo, hi = _VALID[key]
    if isinstance(lo, int):
        return str(rng.randint(lo, hi))
    return f"{rng.uniform(lo, hi):.{rng.randint(1, 17)}g}"


def random_config(rng: random.Random) -> str:
    """An INI text of the config grammar; about half of them are invalid somewhere."""
    junk = rng.choice((0.0, 0.0, 0.0, 0.03, 0.2))
    sections = []
    for name in ("alice", "bob"):
        keys = {"kind": rng.choice(("PM", "AM", "UM") * 6 + ("um", " am ", "XM"))}
        keys.update(dict.fromkeys(rng.choice([["m"], ["v_rf_volts"]] * 9 + [["m", "v_rf_volts"]])))
        keys.update(dict.fromkeys(rng.choice([["psi"], ["v_dc_volts"]] * 9 + [[]])))
        voltages = "v_rf_volts" in keys or "v_dc_volts" in keys
        keys.update(dict.fromkeys(["v_pi_volts"] if rng.random() < (0.95 if voltages else 0.3) else []))
        keys.update(dict.fromkeys(["phi"] if rng.random() < 0.6 else []))
        sections.append((name, keys))
    for name, keys in (("link", ("rf_ghz", "link_phase_rad", "loss")),
                       ("sweep", ("variable", "start", "stop", "steps")),
                       ("montecarlo", ("protocol", "mu", "eta", "p_dark", "n_pulses", "seed")),
                       ("output", ("format", "path"))):
        if rng.random() < 0.6:
            required = ("protocol", "mu")
            keys = (k for k in keys if rng.random() < (0.97 if k in required else 0.8))
            sections.append((name, dict.fromkeys(keys)))
    if rng.random() < 0.05:
        sections.append((rng.choice(("extra", "DEFAULT", "alice")), {"m": None}))
    rng.shuffle(sections)
    lines = []
    for name, keys in sections:
        lines.append(f"[{name}]")
        for key, value in keys.items():
            if value is None:
                value = {
                    "variable": lambda: rng.choice(("delta_phi",) * 9 + ("phi",)),
                    "protocol": lambda: rng.choice(("B92", "BB84") * 4 + (" bb84", "E91")),
                    "format": lambda: rng.choice(("csv", "json") * 4 + ("JSON", "xml")),
                    "path": lambda: "out.txt",
                }.get(key, lambda: config_value(rng, key, junk))()
            lines.append(f"{key}{rng.choice((' = ', '=', ': '))}{value}")
        if rng.random() < 0.01:
            lines.append(rng.choice(("unknown = 1", "no delimiter", "  indented = 2", "# note")))
    return "\n".join(lines) + "\n"


def random_grid(rng: random.Random) -> list[float]:
    """A bias grid: generic, wide, near the multiples of pi/2, or a mix with exact ones."""
    n = rng.randint(1, 40)

    def near_null():
        offset = 10 ** rng.uniform(-9.0, -3.0)
        return rng.randint(-2, 2) * 0.5 * math.pi + rng.choice((-offset, offset))

    style = rng.randrange(4)
    if style == 0:
        step = (0.5 * math.pi - 0.06) / n
        return [0.03 + step * (i + rng.uniform(0.1, 0.9)) for i in range(n)]
    if style == 1:
        return [rng.uniform(-4.0, 4.0) for _ in range(n)]
    if style == 2:
        return [near_null() for _ in range(n)]
    draws = (near_null, lambda: rng.uniform(-4.0, 4.0), lambda: rng.randint(-2, 2) * 0.5 * math.pi)
    return [rng.choice(draws)() for _ in range(n)]


# --- the worker -------------------------------------------------------------------


def worker(tree: Path, sizes: dict) -> None:
    """Write this tree's outcomes to stdout, one JSON [category, outcome] per line."""
    sys.path.insert(0, str(tree / "bench"))
    import fcqkd
    from fcqkd import config, modulator, protocols

    if not Path(fcqkd.__file__).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"fcqkd imported from {fcqkd.__file__}, not from {tree / 'src'}")
    import workloads

    def emit(category: str, text: str) -> None:
        sys.stdout.write(json.dumps([category, text]) + "\n")

    for argv in COMMANDS:
        emit("cli", f"{' '.join(argv)}: {outcome(workloads.run_cli, argv)}")

    rng = random.Random("configs")
    for i in range(sizes["configs"]):
        emit("configs", f"{i}: {outcome(config.parse_config, random_config(rng))}")

    rng = random.Random("grids")
    kinds = list(modulator.ModulatorKind)
    for i in range(sizes["grids"]):
        grid = random_grid(rng)
        n = len(grid)
        for a in kinds:
            for b in kinds:
                try:
                    row = protocols.classify_pair(a, b, grid)
                except Exception as exc:
                    text = raised(exc)
                else:
                    compare = outcome(protocols.compare_row_with_reference, a, b, row, grid)
                    text = f"{canon(row)} | {compare}"
                checks = [
                    outcome(protocols.check_protocol, modulator.make_modulator(a, 1.0, pa),
                            modulator.make_modulator(b, 1.0, pb), protocol)
                    for pa, pb in ((grid[0], grid[-1]), (grid[n // 3], grid[2 * n // 3]))
                    for protocol in ("B92", "BB84")
                ]
                emit("classify", f"{i} {a.value}-{b.value}: {text} | {checks}")

    for name, passes in (("classify", sizes["passes"]), ("yardstick", sizes["yardstick_passes"]),
                         ("keyexchange", sizes["passes"])):
        for seed in sizes["seeds"]:
            with tempfile.TemporaryDirectory(prefix="equiv-") as work:
                workload = workloads.WORKLOADS[name](seed, Path(work))
                for path in workload.configs():
                    text = f"{name} {seed} setup {path}: {outcome(config.load_config, path)}"
                    emit("ops", text.replace(work, "<work>"))
                for index in range(passes):
                    for k, op in enumerate(workload.pass_ops(index)):
                        try:
                            result = op.run()
                        except Exception as exc:
                            text = raised(exc)
                        else:
                            text = f"{canon(result)} check={outcome(op.check, result)}"
                        text = f"{name} {seed} {index} {k} {op.kind}: {text}"
                        emit("ops", text.replace(work, "<work>"))
    sys.stdout.flush()


# --- the comparison ---------------------------------------------------------------


class Tally:
    def __init__(self):
        self.count = 0
        self.sha = hashlib.sha256()

    def add(self, item: str) -> None:
        self.count += 1
        self.sha.update(item.encode() + b"\n")


def compare(streams) -> tuple[dict, dict]:
    """Per category, each stream's Tally, and the first (index, items) where the streams differ.

    Reads the streams in lockstep, a category at a time, in the order of
    ``CATEGORIES``; a stream with fewer items in a category shows None.
    """
    tallies = {category: [Tally() for _ in streams] for category in CATEGORIES}
    first = {}
    readers = [(json.loads(line) for line in stream) for stream in streams]
    heads = [next(reader, None) for reader in readers]
    while any(heads):
        category = min((head[0] for head in heads if head), key=CATEGORIES.index)
        items = [head[1] if head and head[0] == category else None for head in heads]
        index = max(t.count for t, item in zip(tallies[category], items) if item is not None)
        if len(set(items)) > 1 and category not in first:
            first[category] = (index, items)
        for side, item in enumerate(items):
            if item is not None:
                tallies[category][side].add(item)
                heads[side] = next(readers[side], None)
    return tallies, first


def report(names, tallies, first) -> None:
    for category in CATEGORIES:
        sides = tallies[category]
        same = category not in first and len({t.count for t in sides}) == 1
        print(f"{category}: {'identical' if same else 'DIFFERENT'}")
        for name, tally in zip(names, sides):
            print(f"  {name}: {tally.count} outcomes, sha256 {tally.sha.hexdigest()}")
        if category in first:
            index, items = first[category]
            print(f"  first difference, outcome {index}:")
            for name, item in zip(names, items):
                shown = "(none)" if item is None else item[:2000]
                print(f"    {name}: {shown}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", metavar="DIR")
    parser.add_argument("--quick", action="store_true", help="a small corpus, for a smoke test")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    trees = [Path(tree).resolve() for tree in args.trees]
    sizes = QUICK if args.quick else FULL
    if args.worker:
        worker(trees[0], sizes)
        return 0
    if len(trees) != 2:
        parser.error("give two trees: PARENT_DIR CHANGE_DIR")
    for tree in trees:
        if not (tree / "src" / "fcqkd").is_dir() or not (tree / "bench" / "workloads.py").is_file():
            parser.error(f"{tree} holds no src/fcqkd or no bench/workloads.py")

    procs = []
    for tree in trees:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
                   PYTHONHASHSEED="0")
        procs.append(subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree),
             *(["--quick"] if args.quick else [])],
            env=env, stdout=subprocess.PIPE, text=True, cwd=tree,
        ))
    names = ["parent", "change"]
    print(f"parent: {trees[0]}\nchange: {trees[1]}\nsizes: {sizes}")
    tallies, first = compare([proc.stdout for proc in procs])
    report(names, tallies, first)
    failed = [name for name, proc in zip(names, procs) if proc.wait() != 0]
    for name in failed:
        print(f"error: the {name} tree raised while building its corpus (traceback above)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
