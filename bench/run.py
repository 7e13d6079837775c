"""fcqkd benchmark: run one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 5

One process, one thread, closed loop: each op starts when the previous one
has finished.  ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``:

* ``setup_s``: median over fresh interpreters of importing ``fcqkd`` and
  parsing the workload's generated configs;
* ``wall_s``: median time of one pass (a fixed, seed-drawn op mix), checks
  excluded; passes repeat until ``--seconds`` have elapsed;
* ``op_p50_ms``, ``op_p90_ms``: median over passes of each pass's op
  latency percentile.  Every pass holds the same op identities (sizes,
  pairings, protocols), so a percentile pooled over P passes would fall on
  the edge between two blocks of P like ops and read the extreme of one;
  within a pass it interpolates between the same two ops every time;
* ``peak_mem_mb``: the largest peak of traced allocations over the
  workload's largest ops, measured in a separate pass under
  ``tracemalloc``, which slows the pure-Python code it watches.

The times are scaled to a reference machine speed.  On a shared 2-core
VM the speed of identical work drifted by up to 30% over stretches of tens
of seconds, which no run length averages out.  So a fixed calibration loop,
which never calls the package and does the same kind of work as the
workload (interpreter-bound or array-bound), is timed at the start of each
pass and after every ``CALIBRATE_EVERY_S`` of op time.  Each pass's times
are multiplied by ``reference_s / mean loop time`` of that pass: they are
seconds on a machine where the loop takes ``reference_s``.  A change to
the package moves scaled and raw times alike; the provenance line also
prints the raw pass time and the scale.

``--trace 1`` reports the per-layer metrics instead: it runs a fixed number
of passes, each once untraced and once with every public function of the
package wrapped (see ``tracing.py``).  Call and pulse counts depend only
on the seed.

Every op's output is checked.  Lines before the last describe the run
(provenance, every metric with its unit, failures); the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
TRACE_PASSES = 2
CALIBRATE_EVERY_S = 0.05
# A later gain is confirmed on the held-out seed: the run's seed plus this.
HELD_OUT_OFFSET = 7919

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import fcqkd, fcqkd.cli
from fcqkd.config import load_config
for path in sys.argv[2:]:
    load_config(path)
"""


def interpreter_loop():
    """Fixed interpreter-bound work: dict stores, complex arithmetic."""
    table = {}
    for i in range(6000):
        table[i % 97] = complex(i, 1) * 1.0001
    return table


def array_loop():
    """Fixed array-bound work: draw and transform 3e5 doubles."""
    rng = numpy.random.default_rng(0)
    return lambda: numpy.exp(-rng.random(300_000)).sum()


class Calibration:
    """Times a fixed loop; ``scale`` maps measured times to reference ones."""

    def __init__(self, loop, reference_s: float):
        self.loop = loop
        self.reference_s = reference_s
        self.times: list[float] = []

    def measure(self) -> None:
        start = time.perf_counter()
        self.loop()
        self.times.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Scale over the loops timed since the last call."""
        times, self.times = self.times, []
        return self.reference_s / statistics.mean(times)


CALIBRATIONS = {
    "interpreter": lambda: Calibration(interpreter_loop, 2.0e-3),
    "array": lambda: Calibration(array_loop(), 4.0e-3),
}


def measure_setup(paths: list[str]) -> tuple[float, float]:
    """Median set-up time, scaled and raw.

    Set-up is interpreter-bound (module execution, unmarshalling); the
    interpreter loop is timed three times before each repeat.
    """
    calibration = CALIBRATIONS["interpreter"]()
    raw = []
    for _ in range(SETUP_REPEATS):
        for _ in range(3):
            calibration.measure()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *paths], check=True, cwd=ROOT)
        raw.append(time.perf_counter() - start)
    median = statistics.median(raw)
    return median * calibration.scale(), median


class Tally:
    """Op counts, pulses and failures accumulated over a run."""

    def __init__(self):
        self.kinds = Counter()
        self.failures: list[str] = []
        self.pulses = 0
        self.pulse_s = 0.0

    def run_op(self, op, run=None) -> float:
        start = time.perf_counter()
        try:
            result = run(op.run) if run else op.run()
        except Exception:
            elapsed = time.perf_counter() - start
            problem = "raised " + traceback.format_exc(limit=3)
        else:
            elapsed = time.perf_counter() - start
            try:
                problem = op.check(result)
            except Exception:
                problem = "check raised " + traceback.format_exc(limit=3)
        self.kinds[op.kind] += 1
        if problem is not None:
            self.failures.append(f"{op.kind}: {problem}")
        return elapsed

    def run_pass(self, ops, run=None, calibration=None) -> tuple[list[float], float]:
        """Run a pass; return its raw op times and the scale to reference speed."""
        times = []
        since_calibration = math.inf
        for op in ops:
            if calibration and since_calibration >= CALIBRATE_EVERY_S:
                calibration.measure()
                since_calibration = 0.0
            times.append(self.run_op(op, run))
            since_calibration += times[-1]
        scale = calibration.scale() if calibration else 1.0
        for op, t in zip(ops, times):
            if op.pulses:
                self.pulses += op.pulses
                self.pulse_s += t * scale
        return times, scale

    @property
    def attempted(self) -> int:
        return sum(self.kinds.values())


def peak_memory(tally: Tally, ops) -> tuple[int, float]:
    """Largest allocation peak over ``ops``, and the largest session's per pulse.

    Each op runs once untraced first, so that one-time allocations (lazy
    imports, caches, interned strings) do not count towards its peak, and
    starts from a full collection, so that where the garbage collector's
    next pass falls does not move the peak.
    """
    peak = 0
    per_pulse = 0.0
    for op in ops:
        tally.run_op(op)
    tracemalloc.start()
    try:
        for op in ops:
            gc.collect()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            tally.run_op(op)
            op_peak = tracemalloc.get_traced_memory()[1] - before
            peak = max(peak, op_peak)
            if op.pulses:
                per_pulse = max(per_pulse, op_peak / op.pulses)
    finally:
        tracemalloc.stop()
    return peak, per_pulse


def end_to_end(workload, seconds: float, tally: Tally) -> dict:
    setup_s, raw_setup_s = measure_setup(workload.configs())
    calibration = CALIBRATIONS[workload.calibration]()
    raw_s, scales, op_ms = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        times, scale = tally.run_pass(workload.pass_ops(index), calibration=calibration)
        raw_s.append(sum(times))
        scales.append(scale)
        op_ms.append([1e3 * t * scale for t in times])
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    peak, _ = peak_memory(tally, workload.mem_ops())
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r * s for r, s in zip(raw_s, scales)),
        "op_p50_ms": statistics.median(statistics.median(ms) for ms in op_ms),
        "op_p90_ms": statistics.median(statistics.quantiles(ms, n=10)[-1] for ms in op_ms),
        "peak_mem_mb": peak / 1e6,
        "passes": len(raw_s),
        "raw": {"setup_s": raw_setup_s, "wall_s": statistics.median(raw_s),
                "scale": statistics.median(scales)},
    }


def per_layer(workload, tally: Tally, names) -> dict:
    import tracing

    tracer = tracing.Tracer()
    untraced = traced = 0.0
    # Alternate untraced and traced runs of each pass, so that a drift in
    # the machine's speed does not read as tracing overhead.
    for index in range(TRACE_PASSES):
        ops = workload.pass_ops(index)
        untraced += sum(tally.run_pass(ops)[0])
        tracer.install()
        try:
            traced += sum(tally.run_pass(ops, tracer.run)[0])
        finally:
            tracer.uninstall()
    _, peak_per_pulse = peak_memory(tally, [op for op in workload.mem_ops() if op.pulses])

    calls, self_s = tracer.calls, tracer.self_s
    pulses = calls["montecarlo.pulses"]
    derived = {
        "montecarlo.ns_per_pulse": 1e9 * tracer.total_s["montecarlo.run_session"] / pulses
        if pulses else 0.0,
        "montecarlo.sifted_per_pulse": calls["montecarlo.sifted_bits"] / pulses if pulses else 0.0,
        "montecarlo.peak_bytes_per_pulse": peak_per_pulse,
        "trace.overhead_frac": traced / untraced - 1.0,
    }
    metrics = {}
    for name in names:
        layer, _, rest = name.partition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif rest == "self_s":
            metrics[name] = self_s[layer]
        else:
            metrics[name] = calls[name.removesuffix(".calls")]
    busy = sum(self_s.values())
    metrics["shares"] = {layer: self_s[layer] / busy for layer in sorted(self_s, key=self_s.get,
                                                                        reverse=True)}
    metrics["passes"] = TRACE_PASSES
    return metrics


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, args, spec: dict) -> tuple[dict, Tally]:
    from workloads import WORKLOADS

    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work_dir:
        workload = WORKLOADS[name](args.seed, Path(work_dir))
        if args.trace:
            entries = spec["per_layer"]
            measured = per_layer(workload, tally, [e["name"] for e in entries])
        else:
            entries = spec["end_to_end"]
            measured = end_to_end(workload, args.seconds, tally)
    metrics = {e["name"]: {"value": measured[e["name"]], "unit": e["unit"]} for e in entries}

    provenance = {
        "workload": name,
        "seed": args.seed,
        "held_out_seed": args.seed + HELD_OUT_OFFSET,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": measured["passes"],
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ops": dict(sorted(tally.kinds.items())),
        "fail_frac": len(tally.failures) / tally.attempted,
    }
    if tally.pulses and not args.trace:
        provenance["pulses_per_s"] = tally.pulses / tally.pulse_s
    if "shares" in measured:
        provenance["self_time_shares"] = measured["shares"]
    if "raw" in measured:
        provenance["unscaled"] = measured["raw"]
    print(json.dumps({"provenance": provenance}))
    for metric, entry in metrics.items():
        print(f"{name:12s} {metric:40s} {entry['value']:.6g} {entry['unit']}")
    for extra in ("fail_frac", "pulses_per_s"):
        if extra in provenance:
            print(f"{name:12s} {extra:40s} {provenance[extra]:.6g}")
    for failure in tally.failures[:10]:
        print(f"FAILED {name}: {failure}", file=sys.stderr)
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("classify", "yardstick", "keyexchange", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fcqkd" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a checkout holding src/fcqkd and {SPEC.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())

    names = ("classify", "yardstick", "keyexchange") if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        workload_metrics, tally = run_workload(name, args, spec)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in workload_metrics.items()})
        attempted += tally.attempted
        failed += len(tally.failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
