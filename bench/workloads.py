"""The benchmark's three workloads: inputs made from a seed, ops and checks.

Each workload turns ``(seed, pass index)`` into a list of ops.  An op is one
call, or a short fixed sequence of calls, into the package's public
functions or into ``fcqkd.cli.main``; its check runs afterwards, outside
the op's timing and outside any trace.  Each pass has the same op mix and
the same amount of work whatever the seed (grid and session sizes are
fixed, drive indices are drawn from fixed strata), so a run's timings
depend on the code and the machine rather than on the draw.  Every pass draws fresh
inputs, so nothing is repeated that a cache could reuse.

The package is always reached through module attributes (``link.x``),
never through names bound at import, so that the tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from fcqkd import cli, config, harmonics, link, modulator, montecarlo, protocols, verification

PM, AM, UM = modulator.ModulatorKind.PM, modulator.ModulatorKind.AM, modulator.ModulatorKind.UM
KIND_PAIRS = tuple((a, b) for a in (PM, AM, UM) for b in (PM, AM, UM))
RF = math.tau * 15e9  # rad/s; a 15 GHz drive

# Principal-branch biases clear of the multiples of pi/2, where a pairing's
# coefficients vanish and its fringe phase is undefined.
BIAS_LO, BIAS_HI = 0.1, 0.5 * math.pi - 0.1


@dataclass
class Op:
    """One timed unit of work and the check of its result.

    ``check`` returns a description of what is wrong, or None.  ``pulses``
    counts the Monte Carlo pulses the op simulates.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    pulses: int = 0


@dataclass(frozen=True)
class Drive:
    kind: modulator.ModulatorKind
    m: float
    psi: float
    phi: float = 0.0

    def spec(self):
        return modulator.make_modulator(self.kind, self.m, self.psi, self.phi)


def config_text(alice: Drive, bob: Drive, link_phase=0.0, loss=1.0, montecarlo_keys=None):
    """An INI run configuration for the ``fcqkd`` CLI and ``config.parse_config``."""
    lines = []
    for section, drive in (("alice", alice), ("bob", bob)):
        lines += [
            f"[{section}]",
            f"kind = {drive.kind.value}",
            f"m = {drive.m!r}",
            f"psi = {drive.psi!r}",
            f"phi = {drive.phi!r}",
        ]
    lines += ["[link]", "rf_ghz = 15.0", f"link_phase_rad = {link_phase!r}", f"loss = {loss!r}"]
    if montecarlo_keys:
        lines.append("[montecarlo]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in montecarlo_keys.items()]
    return "\n".join(lines) + "\n"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``fcqkd.cli.main`` with its standard streams captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_payload(result: tuple[int, str]) -> tuple[dict | None, str | None]:
    code, text = result
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(text), None
    except ValueError:
        return None, "output is not JSON"


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of ``n`` equal strata of [lo, hi], shuffled."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


class Workload:
    name = ""
    # The kind of calibration loop whose speed tracks this workload's:
    # "interpreter" or "array" (see run.py).
    calibration = "interpreter"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def rng(self, index) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def write(self, filename: str, text: str) -> str:
        path = self.work_dir / filename
        path.write_text(text, encoding="utf-8")
        return str(path)

    def configs(self) -> list[str]:
        """Paths of the generated configs that set-up parses."""
        raise NotImplementedError

    def pass_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def mem_ops(self) -> list[Op]:
        """The ops whose peak memory is reported: the largest of each kind."""
        raise NotImplementedError


# --- classify ----------------------------------------------------------------

GRID_SIZES = (12, 24, 36)
GRID_LO, GRID_HI = 0.03, 0.5 * math.pi - 0.03


def jittered_grid(rng: random.Random, n: int) -> list[float]:
    """``n`` increasing biases in (0.03, pi/2 - 0.03), one per equal stratum."""
    step = (GRID_HI - GRID_LO) / n
    return [GRID_LO + step * (i + rng.uniform(0.1, 0.9)) for i in range(n)]


def classify_and_compare(alice_kind, bob_kind, grid):
    row = protocols.classify_pair(alice_kind, bob_kind, grid)
    return protocols.compare_row_with_reference(alice_kind, bob_kind, row, grid)


def check_no_mismatch(failures):
    return None if failures == [] else f"{len(failures)} mismatches, first: {failures[0]}"


def check_table2(result):
    payload, problem = cli_payload(result)
    if problem:
        return problem
    if payload["reference_check"]["pass"] is not True or len(payload["rows"]) != 9:
        return "table2 reference check failed"
    return None


class Classify(Workload):
    name = "classify"

    def configs(self):
        rng = self.rng("configs")
        return [
            self.write(
                f"classify_{a.value}_{b.value}.ini",
                config_text(Drive(a, rng.uniform(0.05, 0.2), rng.uniform(BIAS_LO, BIAS_HI)),
                            Drive(b, rng.uniform(0.05, 0.2), rng.uniform(BIAS_LO, BIAS_HI))),
            )
            for a, b in KIND_PAIRS
        ]

    def pair_op(self, alice_kind, bob_kind, grid):
        return Op(
            f"pair{len(grid)}",
            lambda: classify_and_compare(alice_kind, bob_kind, grid),
            check_no_mismatch,
        )

    def pass_ops(self, index):
        rng = self.rng(index)
        ops = [
            self.pair_op(a, b, jittered_grid(rng, n)) for n in GRID_SIZES for a, b in KIND_PAIRS
        ]
        rng.shuffle(ops)
        ops.append(Op("cli_table2", lambda: run_cli(["table2"]), check_table2))
        return ops

    def mem_ops(self):
        rng = self.rng("mem")
        return [
            self.pair_op(UM, AM, jittered_grid(rng, max(GRID_SIZES))),
            Op("cli_table2", lambda: run_cli(["table2"]), check_table2),
        ]


# --- yardstick ---------------------------------------------------------------

# The exact model's Bessel series is accepted up to this drive index.  Fixed
# here, not read from the package, so the workload stays the same when the
# package's domain grows.
MAX_DRIVE = 1.5
POINTS_PER_PASS = 270
FRINGE_POINTS = 3
SWEEP_POINTS = 8
SURVEY_LADDER = 4
SURVEY_MAX_M = 0.2
POWER_TOL = 1e-12


def yardstick_point(alice, bobs_fringe, bobs_sweep, span):
    spectra = [harmonics.exact_tandem_spectrum(alice, bob, span) for bob in bobs_fringe]
    closed = [link.sideband_powers(alice, bob, span) for bob in bobs_sweep]
    direct = [link.sideband_powers_direct(alice, bob, span) for bob in bobs_sweep]
    return spectra, closed, direct


def check_closed_vs_direct(closed, direct):
    worst = max(abs(c - d) for pair in zip(closed, direct) for c, d in zip(*pair))
    return None if worst <= POWER_TOL else f"closed form and cascade differ by {worst:.3e}"


def check_surveys(reports):
    if len(reports) != 9:
        return f"{len(reports)} pairings surveyed"
    bad = [r for r in reports if not r.within_bound]
    return None if not bad else f"{len(bad)} pairings above their bound"


def check_verify(result):
    payload, problem = cli_payload(result)
    if problem:
        return problem
    return None if payload["pass"] is True and len(payload["pairs"]) == 9 else "verify failed"


def check_sweep(steps):
    def check(result):
        payload, problem = cli_payload(result)
        if problem:
            return problem
        rows = payload["rows"]
        if len(rows) != steps:
            return f"{len(rows)} sweep rows, expected {steps}"
        return check_closed_vs_direct([r[1:3] for r in rows], [r[3:5] for r in rows])

    return check


def check_spectrum(result):
    payload, problem = cli_payload(result)
    if problem:
        return problem
    rows = payload["rows"]
    order = (len(rows) - 1) // 2
    if len(rows) % 2 != 1 or rows[order] != [0.0, 0.0]:
        return "spectrum is not centred on a 0 dB carrier"
    if not all(math.isfinite(db) and db >= -400.0 for _, db in rows):
        return "spectrum has a non-finite or out-of-range level"
    return None


class Yardstick(Workload):
    name = "yardstick"

    def point_op(self, rng, kinds, m):
        m_other = m * rng.uniform(0.3, 1.0)
        m_a, m_b = (m, m_other) if rng.random() < 0.5 else (m_other, m)
        alice = Drive(kinds[0], m_a, rng.uniform(BIAS_LO, BIAS_HI), rng.uniform(0.0, math.tau))
        bob = Drive(kinds[1], m_b, rng.uniform(BIAS_LO, BIAS_HI))
        loss = rng.uniform(0.05, 1.0)
        span = link.LinkSpec(rf_frequency=RF, link_phase=rng.uniform(0.0, math.tau), loss=loss)
        alice_spec = alice.spec()
        bobs_fringe = [
            dataclasses.replace(bob, phi=rng.uniform(0.0, math.tau)).spec()
            for _ in range(FRINGE_POINTS)
        ]
        start = rng.uniform(0.0, math.tau)
        bobs_sweep = [
            dataclasses.replace(bob, phi=start + math.tau * k / SWEEP_POINTS).spec()
            for k in range(SWEEP_POINTS)
        ]

        def check(result):
            spectra, closed, direct = result
            for spectrum in spectra:
                total = spectrum.total_power()
                if not 0.0 < total <= loss * (1.0 + 1e-12):
                    return f"exact total power {total!r} exceeds the span loss {loss!r}"
            return check_closed_vs_direct(closed, direct)

        return Op(
            "point", lambda: yardstick_point(alice_spec, bobs_fringe, bobs_sweep, span), check
        )

    def cli_config(self, rng, index, m=None):
        """A config for the CLI ops; drives are drawn unless ``m`` pins them."""
        kinds = rng.choice(KIND_PAIRS)
        drives = [
            Drive(kind, m or rng.uniform(0.01, MAX_DRIVE), rng.uniform(BIAS_LO, BIAS_HI),
                  rng.uniform(0.0, math.tau))
            for kind in kinds
        ]
        text = config_text(*drives, link_phase=rng.uniform(0.0, math.tau),
                           loss=rng.uniform(0.05, 1.0))
        return self.write(f"yardstick_{index}.ini", text)

    def cli_ops(self, rng, index, max_m, drive=None):
        path = self.cli_config(rng, index, drive)
        delta_phi = repr(rng.uniform(0.0, math.tau))
        return [
            Op("cli_verify", lambda: run_cli(["verify", "--max-m", repr(max_m)]), check_verify),
            Op("cli_sweep", lambda: run_cli(["sweep", "--config", path, "--format", "json"]),
               check_sweep(64)),
            Op("cli_spectrum",
               lambda: run_cli(["spectrum", "--config", path, "--format", "json",
                                "--delta-phi", delta_phi]),
               check_spectrum),
        ]

    def configs(self):
        rng = self.rng("configs")
        return [self.cli_config(rng, f"setup{i}") for i in range(9)]

    def pass_ops(self, index):
        rng = self.rng(index)
        drives = stratified(rng, POINTS_PER_PASS, 0.01, MAX_DRIVE)
        ops = [
            self.point_op(rng, KIND_PAIRS[i % len(KIND_PAIRS)], m) for i, m in enumerate(drives)
        ]
        ladder = stratified(rng, SURVEY_LADDER, 0.005, SURVEY_MAX_M)
        ops += [
            Op("survey", lambda m=m: verification.survey_all(m), check_surveys) for m in ladder
        ]
        ops += self.cli_ops(rng, index, rng.choice(ladder))
        rng.shuffle(ops)
        return ops

    def mem_ops(self):
        rng = self.rng("mem")
        return [
            self.point_op(rng, (UM, AM), MAX_DRIVE),
            Op("survey", lambda: verification.survey_all(SURVEY_MAX_M), check_surveys),
            *self.cli_ops(rng, "mem", SURVEY_MAX_M, MAX_DRIVE),
        ]


# --- keyexchange -------------------------------------------------------------

# The feasible (pairing, protocol) combinations of the classification table,
# each with a map from (free bias t, second free bias u, branch n) to the
# biases (psi_a, psi_b) on its feasible locus.
FEASIBLE = (
    (UM, UM, "B92", lambda t, u, n: (t, t + n * math.pi)),
    (AM, AM, "B92", lambda t, u, n: (t, u)),
    (PM, PM, "B92", lambda t, u, n: (t, u)),
    (UM, PM, "B92", lambda t, u, n: (n * math.pi, t)),
    (PM, UM, "B92", lambda t, u, n: (t, n * math.pi)),
    (UM, UM, "BB84", lambda t, u, n: (t, t + (2 * n + 1) * 0.5 * math.pi)),
    (PM, AM, "BB84", lambda t, u, n: (t, u)),
    (AM, PM, "BB84", lambda t, u, n: (t, u)),
    (UM, AM, "BB84", lambda t, u, n: (n * math.pi, t)),
    (AM, UM, "BB84", lambda t, u, n: (t, n * math.pi)),
)
SESSIONS_PER_PROTOCOL = 10
MIN_PULSES, MAX_PULSES = 10_000, 2_000_000
SWEEP_OFFSETS = 4
SWEEP_PULSES = 100_000
CLI_PULSES = 300_000
# Two-sided tail probability of a 5-sigma normal deviation.
TAIL = math.erfc(5.0 / math.sqrt(2.0))


def session_sizes(k: int) -> list[int]:
    """``k`` session sizes spaced log-uniformly from MIN_PULSES to MAX_PULSES.

    A fixed ladder rather than random draws: op latency percentiles fall on
    the same sizes in every pass, and every pass simulates the same number
    of pulses.
    """
    ratio = MAX_PULSES / MIN_PULSES
    return [round(MIN_PULSES * ratio ** (j / (k - 1))) for j in range(k)]


def expected_rates(cfg, phase_error: float = 0.0) -> tuple[float, float, float]:
    """Per-pulse (conclusive, sifted, error) probabilities of a session.

    Follows the encoding documented in ``fcqkd.montecarlo``, with the
    counter powers from ``link.sideband_powers``: eight equally likely
    alphabet cells for BB84 and four for B92, each counter clicking
    independently with probability 1 - (1 - p_dark) exp(-eta mu P).
    """
    a, b = link.interference_coeffs(cfg.alice, cfg.bob)
    compensation = cfg.link.link_phase + link.phase_offset(a, b)
    actual = dataclasses.replace(cfg.link, link_phase=cfg.link.link_phase + phase_error)

    def clicks(phi_a, phi_b):
        powers = link.sideband_powers(
            dataclasses.replace(cfg.alice, phi=phi_a),
            dataclasses.replace(cfg.bob, phi=phi_b - compensation),
            actual,
        )
        return [1.0 - (1.0 - cfg.p_dark) * math.exp(-cfg.eta * cfg.mu * p) for p in powers]

    conclusive = sifted = error = 0.0
    if cfg.protocol == "BB84":
        for basis_a in (0, 1):
            for bit in (0, 1):
                for basis_b in (0, 1):
                    phi_a = 0.5 * math.pi * basis_a + math.pi * bit
                    up, low = clicks(phi_a, 0.5 * math.pi * basis_b)
                    single = (up * (1.0 - low) + low * (1.0 - up)) / 8.0
                    conclusive += single
                    if basis_a == basis_b:
                        sifted += single
                        wrong = low * (1.0 - up) if bit == 0 else up * (1.0 - low)
                        error += wrong / 8.0
    else:
        for bit in (0, 1):
            for choice in (0, 1):
                up, low = clicks(0.5 * math.pi * bit, math.pi + 0.5 * math.pi * choice)
                clicked = (1.0 - (1.0 - up) * (1.0 - low)) / 4.0
                conclusive += clicked
                sifted += clicked
                if 1 - choice != bit:
                    error += clicked
    return conclusive, sifted, error


def plausible_count(observed: int, n: int, p: float) -> bool:
    """Whether a Binomial(n, p) count lies within 5 sigma of its mean.

    For small means the normal approximation misjudges the tails, so there
    the count must instead have a Poisson tail probability of at least
    that of a 5-sigma deviation on each side.
    """
    if p > 0.5:
        observed, p = n - observed, 1.0 - p
    mean = n * p
    if mean * (1.0 - p) >= 400.0:
        return abs(observed - mean) <= 5.0 * math.sqrt(mean * (1.0 - p))
    if mean == 0.0:
        return observed == 0
    pmf = [math.exp(k * math.log(mean) - mean - math.lgamma(k + 1)) for k in range(observed + 1)]
    below = sum(pmf[:-1])
    return 1.0 - below >= TAIL / 2.0 and below + pmf[-1] >= TAIL / 2.0


def check_stats(cfg, sent: int, conclusive: int, errors: int) -> str | None:
    p_conclusive, _, p_error = expected_rates(cfg)
    if sent != cfg.n_pulses:
        return f"sent {sent} of {cfg.n_pulses} pulses"
    if not plausible_count(conclusive, cfg.n_pulses, p_conclusive):
        return f"conclusive {conclusive}, expected {p_conclusive * cfg.n_pulses:.1f}"
    if not plausible_count(errors, cfg.n_pulses, p_error):
        return f"errors {errors}, expected {p_error * cfg.n_pulses:.1f}"
    return None


class KeyExchange(Workload):
    name = "keyexchange"
    calibration = "array"

    def session_text(self, rng, combo, n_pulses, mu_lo=0.05):
        alice_kind, bob_kind, protocol, locus = combo
        psi_a, psi_b = locus(rng.uniform(BIAS_LO, BIAS_HI), rng.uniform(BIAS_LO, BIAS_HI),
                             rng.choice((0, 1)))
        unit = protocols.check_protocol(
            modulator.make_modulator(alice_kind, 1.0, psi_a),
            modulator.make_modulator(bob_kind, 1.0, psi_b),
            protocol,
        )
        if not unit.feasible:
            raise RuntimeError(f"benchmark bias rule infeasible for {combo[:3]}")
        m_b = rng.uniform(0.02, 0.1)
        return config_text(
            Drive(alice_kind, unit.index_ratio * m_b, psi_a),
            Drive(bob_kind, m_b, psi_b),
            link_phase=rng.uniform(0.0, math.tau),
            loss=rng.uniform(0.05, 1.0),
            montecarlo_keys={
                "protocol": protocol,
                "mu": rng.uniform(mu_lo, 1.0),
                "eta": rng.uniform(0.5, 1.0),
                "p_dark": rng.uniform(0.0, 1e-3),
                "n_pulses": n_pulses,
                "seed": rng.randrange(2**32),
            },
        )

    @staticmethod
    def session(text):
        run = config.parse_config(text)
        mc = run.montecarlo
        return montecarlo.SessionConfig(
            protocol=mc.protocol, alice=run.alice, bob=run.bob, link=run.link, mu=mc.mu,
            eta=mc.eta, p_dark=mc.p_dark, n_pulses=mc.n_pulses, seed=mc.seed,
        )

    def session_op(self, cfg, rerun=False):
        def check(stats):
            problem = check_stats(cfg, stats.sent, stats.conclusive, stats.errors)
            if problem is None and rerun and montecarlo.run_session(cfg) != stats:
                problem = "re-run with the same seed gave different stats"
            return problem

        return Op("session", lambda: montecarlo.run_session(cfg), check, cfg.n_pulses)

    def sweep_op(self, rng):
        combo = rng.choice([c for c in FEASIBLE if c[2] == "BB84"])
        cfg = self.session(self.session_text(rng, combo, SWEEP_PULSES, mu_lo=0.2))
        offsets = stratified(rng, SWEEP_OFFSETS, 0.3, 1.2)

        def check(results):
            for delta, qber in results:
                _, sifted, error = expected_rates(cfg, delta)
                expected_sifted = sifted * cfg.n_pulses
                q = error / sifted
                if qber is None or abs(qber - q) > 5.0 * math.sqrt(q * (1.0 - q) / expected_sifted):
                    return f"qber {qber} at offset {delta:.3f}, expected {q:.4f}"
            return None

        return Op("qber_sweep", lambda: montecarlo.qber_vs_offset(cfg, offsets), check,
                  SWEEP_OFFSETS * SWEEP_PULSES)

    def cli_op(self, rng, index):
        text = self.session_text(rng, rng.choice(FEASIBLE), CLI_PULSES)
        path = self.write(f"keyexchange_{index}.ini", text)
        cfg = self.session(text)

        def check(result):
            payload, problem = cli_payload(result)
            if problem:
                return problem
            stats = payload["stats"]
            return check_stats(cfg, stats["sent"], stats["conclusive"], stats["errors"])

        return Op("cli_qkd", lambda: run_cli(["qkd", "--config", path]), check, CLI_PULSES)

    def session_texts(self, rng):
        texts = []
        for protocol in ("B92", "BB84"):
            combos = [c for c in FEASIBLE if c[2] == protocol]
            combos = combos * (SESSIONS_PER_PROTOCOL // len(combos))
            rng.shuffle(combos)
            sizes = session_sizes(SESSIONS_PER_PROTOCOL)
            texts += [self.session_text(rng, c, n) for c, n in zip(combos, sizes)]
        return texts

    def configs(self):
        rng = self.rng("configs")
        return [
            self.write(f"keyexchange_setup{i}.ini", text)
            for i, text in enumerate(self.session_texts(rng))
        ]

    def pass_ops(self, index):
        rng = self.rng(index)
        sessions = [self.session(text) for text in self.session_texts(rng)]
        smallest = min(range(len(sessions)), key=lambda i: sessions[i].n_pulses)
        ops = [self.session_op(cfg, rerun=i == smallest) for i, cfg in enumerate(sessions)]
        ops += [self.sweep_op(rng), self.cli_op(rng, index)]
        rng.shuffle(ops)
        return ops

    def mem_ops(self):
        rng = self.rng("mem")
        largest = self.session(self.session_text(rng, FEASIBLE[5], MAX_PULSES))
        return [self.session_op(largest), self.sweep_op(rng), self.cli_op(rng, "mem")]


WORKLOADS = {w.name: w for w in (Classify, Yardstick, KeyExchange)}
