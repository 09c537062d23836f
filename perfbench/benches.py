"""Workload runners, the closed loop, the traced replay and metric assembly.

Every call into the program goes through a module attribute looked up at
call time (`phasescan.scan(...)`, never a name imported once), so the
traced run's wrappers see the outermost call too.
"""

from __future__ import annotations

import atexit
import contextlib
import inspect
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.integrate

import dicke2
import dicke2.cli as cli
import dicke2.dynamics as dynamics
import dicke2.model as model
import dicke2.phasescan as phasescan
import dicke2.stability as stability
import dicke2.steadystate as steadystate
import gauge
import oracles
import summary
import tracing
import workloads

MODULES = (dicke2, model, dynamics, steadystate, stability, phasescan, cli)
#: Seeded cells per scan whose growth rate is recomputed by finite differences.
FD_PROBES = 3
#: Fresh interpreters timed per run for setup_s and for the import breakdown.
SETUP_PROBES = 5
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 120.0


def public_functions() -> list:
    """The package's exported functions plus the CLI entry point."""
    fns = [getattr(dicke2, n) for n in dicke2.__all__ if inspect.isfunction(getattr(dicke2, n))]
    return fns + [cli.main]


@dataclass(frozen=True)
class Request:
    label: str
    round: int
    data: tuple


@dataclass
class Report:
    """What one closed loop did: attempts, failures, timings, work counts."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    slots: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    adjusted: list = field(default_factory=list)
    round_walls: list = field(default_factory=list)
    busy: float = 0.0
    work: float = 0.0
    counts: Counter = field(default_factory=Counter)
    layers: dict = field(default_factory=dict)

    def work_counts(self) -> dict:
        return {k: (round(v, 6) if isinstance(v, float) else v) for k, v in sorted(self.counts.items())}

    def absorb(self, other: "Report") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


class Spawner:
    """Runs children through spawner.py, so their peak RSS is their own."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        atexit.register(self.close)

    def run(self, cmd, env, cwd, stdout_path, stderr_path) -> tuple[int, float]:
        """Run one child to completion; return (exit code, peak RSS in MB)."""
        req = {"cmd": cmd, "env": env, "cwd": str(cwd), "stdout": str(stdout_path),
               "stderr": str(stderr_path), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        out = json.loads(reply)
        return out["code"], out["rss_mb"]

    def close(self) -> None:
        """End the spawner (it exits at the end of its input) and wait for it."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def setup_seconds(workload: str, seed: int, env: dict, root: Path) -> tuple[list, list]:
    """Import plus input generation, each timed inside a fresh interpreter.

    Returns the plain seconds and the same seconds adjusted to the
    reference host speed by the gauge samples on either side of each probe.
    """
    plain, adjusted = [], []
    before = gauge.sample()
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(seed)],
            env=env, cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr.strip()}")
        plain.append(float(res.stdout.strip().splitlines()[-1]))
        after = gauge.sample()
        adjusted.append(gauge.adjusted(plain[-1], before, after))
        before = after
    return plain, adjusted


def import_breakdown(env: dict, root: Path) -> dict:
    """Metrics: median cumulative import time of `import dicke2.cli` and two heavy deps.

    Measured from outside with -X importtime; a module missing from the
    report was not imported at start-up and reads 0.
    """
    wanted = {"dicke2.cli": [], "scipy.integrate": [], "mpmath": []}
    for _ in range(IMPORT_PROBES):
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dicke2.cli"],
            env=env, cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if res.returncode != 0:
            raise RuntimeError(f"import probe failed: {res.stderr.strip()[-500:]}")
        seen = {}
        for line in res.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            parts = line[len("import time:"):].split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for name in wanted:
            wanted[name].append(seen.get(name, 0.0))
    return {
        "cli.import.dicke2_s": (statistics.median(wanted["dicke2.cli"]), "s"),
        "cli.import.scipy_integrate_s": (statistics.median(wanted["scipy.integrate"]), "s"),
        "cli.import.mpmath_s": (statistics.median(wanted["mpmath"]), "s"),
    }


class ScanBench:
    """Library `scan` of all four phases per round, default window."""

    unit = "cells"
    rate_name = "cells_per_s"

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        gen = workloads.scan_rounds(workload, seed)
        self.grid = phasescan.GridSpec(**gen["grid"])
        self.params = [{ph: model.ModelParams(**d) for ph, d in rnd.items()} for rnd in gen["rounds"]]
        self.l1 = np.repeat(np.linspace(self.grid.l1_min, self.grid.l1_max, self.grid.l1_count),
                            self.grid.l2_count)
        self.l2 = np.tile(np.linspace(self.grid.l2_min, self.grid.l2_max, self.grid.l2_count),
                          self.grid.l1_count)

    def warm(self) -> None:
        small = phasescan.GridSpec(l1_count=5, l2_count=5)
        for name, p in self.params[0].items():
            phasescan.scan(model.Phase[name.upper()], small, p)

    def requests(self, r: int) -> list[Request]:
        rnd = self.params[r % len(self.params)]
        return [Request(name, r, (model.Phase[name.upper()], rnd[name])) for name in workloads.PHASES]

    def call(self, req: Request):
        phase, p = req.data
        return phasescan.scan(phase, self.grid, p)

    def tally(self, req: Request, res, counts: Counter) -> float:
        counts["cells"] += len(res.cells)
        return len(res.cells)

    def check(self, req: Request, res) -> list[str]:
        phase, p = req.data
        rng = workloads.rng_for(self.workload, self.seed, req.round, workloads.PHASES.index(req.label))
        probes = []
        for i in oracles.probe_indices(rng, phase.signs, p, self.l1, self.l2, FD_PROBES):
            q = replace(p, lambda1=float(self.l1[i]), lambda2=float(self.l2[i]))
            jac = stability.jacobian_fd(model.trivial_fixed_point(phase, q), q)
            probes.append((i, oracles.fd_growth(jac)))
        return oracles.check_scan(res, phase.signs, p, self.grid, probes)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class PointResult:
    y0: np.ndarray
    solutions: list
    newton_failures: int
    reports: list
    settled: object


class StatesBench:
    """Per parameter point: Newton from four seeds, assess, settle a kicked pole."""

    unit = "points"
    rate_name = "points_per_s"

    def __init__(self, seed: int):
        self.cfg = dynamics.IntegratorConfig(
            t_final=workloads.SETTLE_T_FINAL, sample_interval=workloads.SETTLE_SAMPLE
        )
        self.rounds = [
            [(pt["kind"], model.Phase[pt["phase"].upper()], model.ModelParams(**pt["params"]),
              pt["perturb"]) for pt in rnd]
            for rnd in workloads.states_rounds(seed)["rounds"]
        ]

    def warm(self) -> None:
        _, phase, p, _ = self.rounds[0][0]
        dynamics.settle(model.trivial_fixed_point(phase, p), p, replace(self.cfg, t_final=5.0))
        steadystate.solve_superradiant(model.ModelParams(lambda2=1.0))

    def requests(self, r: int) -> list[Request]:
        return [Request(pt[0], r, pt) for pt in self.rounds[r % len(self.rounds)]]

    def call(self, req: Request) -> PointResult:
        _, phase, p, kick = req.data
        solutions, failures = [], 0
        for init in workloads.NEWTON_SEEDS:
            try:
                solutions.append(steadystate.solve_superradiant(p, init=init))
            except steadystate.NewtonError:
                failures += 1
        reports = [stability.assess(sol.state, p) for sol in solutions]
        y0 = model.trivial_fixed_point(phase, p).to_array()
        y0[list(kick)] += workloads.PERTURB
        settled = dynamics.settle(y0, p, self.cfg)
        return PointResult(y0, solutions, failures, reports, settled)

    def tally(self, req: Request, res: PointResult, counts: Counter) -> float:
        counts["points"] += 1
        counts["newton_solutions"] += len(res.solutions)
        counts["newton_iterations"] += sum(s.newton_iterations for s in res.solutions)
        counts["newton_failures"] += res.newton_failures
        counts["mirror_missing"] += oracles.mirror_missing(res.solutions)
        counts["settles"] += 1
        counts["settles_converged"] += int(res.settled.converged)
        counts["settle_elapsed_time"] += float(res.settled.elapsed_time)
        return 1.0

    def check(self, req: Request, res: PointResult) -> list[str]:
        _, _, p, _ = req.data
        return oracles.check_point(p, res.y0, res.solutions, res.reports, res.settled,
                                   self.cfg.t_final)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    out_path: Path | None
    rss_mb: float | None

    def text(self) -> str:
        return self.out_path.read_text() if self.out_path else self.stdout


class CliBench:
    """The README command session; subprocesses, or cli.main in-process when traced."""

    unit = "commands"
    rate_name = "commands_per_s"

    def __init__(self, seed: int, out_dir: Path, env: dict, in_process: bool):
        self.dir = out_dir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env, self.in_process = env, in_process
        self.rounds = workloads.cli_rounds(seed)["rounds"]
        self.peak_child_mb = 0.0
        self.spawner = None if in_process else Spawner(env)

    def warm(self) -> None:
        self.call(Request("version", -1, ("version", ["--version"], None, "version", {})))

    def requests(self, r: int) -> list[Request]:
        return [Request(entry[0], r, entry) for entry in self.rounds[r % len(self.rounds)]]

    def call(self, req: Request) -> CliResult:
        _, argv, out_name, _, _ = req.data
        out_path = self.dir / out_name if out_name else None
        if self.in_process:
            argv = [str(out_path) if prev == "--out" else a for prev, a in zip([None] + argv, argv)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's --version exits
                    code = exc.code or 0
            return CliResult(code, buf.getvalue(), out_path, None)
        stdout_path, stderr_path = self.dir / "stdout.txt", self.dir / "stderr.txt"
        code, rss = self.spawner.run([sys.executable, "-m", "dicke2", *argv], self.env, self.dir,
                                     stdout_path, stderr_path)
        self.peak_child_mb = max(self.peak_child_mb, rss)
        return CliResult(code, stdout_path.read_text(), out_path, rss)

    def tally(self, req: Request, res: CliResult, counts: Counter) -> float:
        counts["commands"] += 1
        counts["bytes_out"] += len(res.stdout.encode())
        if res.out_path and res.out_path.exists():
            counts["bytes_out"] += res.out_path.stat().st_size
        return 1.0

    def check(self, req: Request, res: CliResult) -> list[str]:
        _, argv, _, kind, expect = req.data
        if res.code != 0:
            err = "" if self.in_process else (self.dir / "stderr.txt").read_text()[-300:]
            return [f"exit code {res.code}: {err.strip()}"]
        p = model.ModelParams(**expect.get("params", {}))
        if kind == "scan-csv":
            expect = {**expect, "library": phasescan.scan(model.Phase.NORMAL, phasescan.GridSpec(), p)}
        return oracles.check_cli_output(kind, res.text(), p, expect)

    def peak_rss_mb(self) -> float:
        if self.in_process:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self.peak_child_mb


def make(workload: str, seed: int, out_dir: Path, env: dict, trace: bool):
    if workload in ("scan_equal_freq", "scan_detuned"):
        return ScanBench(workload, seed)
    if workload == "states":
        return StatesBench(seed)
    if workload == "cli_session":
        return CliBench(seed, out_dir, env, in_process=trace)
    raise ValueError(f"unknown workload {workload!r}")


def closed_loop(bench, seconds: float | None, check: bool, rounds: int | None = None,
                tracer: tracing.Tracer | None = None) -> Report:
    """One caller, one request at a time, whole rounds only.

    Runs `rounds` rounds, or else starts rounds while the request time so
    far plus half a typical round stays within `seconds`, so the time
    measured is `seconds` to the nearest whole round. Only the calls into
    the program are timed. The host-speed gauge runs once before the
    first call and once right after each call; a call is adjusted by the
    gauge samples on either side of it. Checks run after the gauge, so
    they are not counted in the time.
    """
    rep = Report()
    r = 0
    before = gauge.sample()
    while True:
        if rounds is not None:
            if r >= rounds:
                break
        elif rep.round_walls and rep.busy + statistics.median(rep.round_walls) / 2 > seconds:
            break
        wall = work = 0.0
        for slot, req in enumerate(bench.requests(r)):
            if tracer is not None:
                tracer.run = rep.attempted
            rep.attempted += 1
            rep.labels.append(req.label)
            rep.slots.append(slot)
            t0 = time.perf_counter()
            try:
                res = bench.call(req)
            except Exception as exc:  # a failed request is counted; the run goes on
                dt = time.perf_counter() - t0
                wall += dt
                after = gauge.sample()
                rep.latencies.append(dt)
                rep.adjusted.append(gauge.adjusted(dt, before, after))
                before = after
                rep.failed += 1
                rep.problems.append(f"round {r} {req.label}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            wall += dt
            after = gauge.sample()
            rep.latencies.append(dt)
            rep.adjusted.append(gauge.adjusted(dt, before, after))
            before = after
            work += bench.tally(req, res, rep.counts)
            if check:
                problems = bench.check(req, res)
                if problems:
                    rep.failed += 1
                    rep.problems += [f"round {r} {req.label}: {msg}" for msg in problems]
        rep.round_walls.append(wall)
        rep.busy += wall
        rep.work += work
        r += 1
    return rep


class StepMeter:
    """Counts ODE solver steps and the model time they advance.

    Hooks the public `scipy.integrate.OdeSolver.step`, which both
    `solve_ivp` and hand-driven stepping go through.
    """

    def __init__(self):
        self.steps = 0
        self.model_time = 0.0
        self._orig = None

    def install(self) -> None:
        orig = self._orig = scipy.integrate.OdeSolver.step
        meter = self

        def step(solver):
            t_before = solver.t
            msg = orig(solver)
            meter.steps += 1
            meter.model_time += abs(solver.t - t_before)
            return msg

        scipy.integrate.OdeSolver.step = step

    def uninstall(self) -> None:
        if self._orig is not None:
            scipy.integrate.OdeSolver.step = self._orig
            self._orig = None


def traced_run(bench, seconds: float, spans_path: Path) -> Report:
    """Untraced rounds for `seconds`, then the same rounds again under tracing.

    The spans stay in memory during the replay and are written to
    `spans_path` (numpy .npz: `spans` rows as in tracing.FIELDS, `names`).
    """
    plain = closed_loop(bench, seconds, check=True)
    tracer = tracing.Tracer()
    meter = StepMeter()
    proxies = [(stability, "mpmath", {"eig": "stability.mp_eig"})] if hasattr(stability, "mpmath") else []
    undo = tracing.install(tracer, MODULES, public_functions(), proxies)
    meter.install()
    try:
        traced = closed_loop(bench, None, check=False, rounds=len(plain.round_walls), tracer=tracer)
    finally:
        meter.uninstall()
        undo()
    tracer.save(spans_path)
    traced.counts["refined_cells"] = int(tracer.mask(tracer.spans(), "stability.mp_eig").sum())
    traced.layers = layer_metrics(tracer, traced, plain, meter)
    traced.absorb(plain)
    return traced


def layer_metrics(tracer: tracing.Tracer, traced: Report, plain: Report, meter: StepMeter) -> dict:
    """Per-layer metrics of the traced replay, per round unless a ratio."""
    rounds = max(len(traced.round_walls), 1)
    spans = tracer.spans()
    dur = (spans[:, 3] - spans[:, 2]) / 1e9
    own = tracing.self_times(spans) / 1e9
    run = spans[:, 5]
    labels = np.array(traced.labels, dtype=object)
    m = {}

    def mask(name):
        return tracer.mask(spans, name)

    def calls(name):
        return int(mask(name).sum())

    def secs(name, extra=None):
        sel = mask(name) if extra is None else mask(name) & extra
        return float(dur[sel].sum())

    def per_round(name, value, unit):
        m[name] = (value / rounds, unit)

    def ratio(name, num, den, base_unit):
        r = summary.ratio(num, den)
        m[name] = (r["value"] or 0.0, "ratio")
        m[name + ".base"] = (den / rounds, base_unit)

    def label_runs(label):
        return np.isin(run, np.flatnonzero(labels == label))

    assess_calls = calls("stability.assess")
    per_round("stability.mp_eig.calls", calls("stability.mp_eig"), "count/round")
    per_round("stability.mp_eig.s", secs("stability.mp_eig"), "s/round")
    ratio("stability.refine_ratio", calls("stability.mp_eig"), assess_calls, "count/round")
    per_round("stability.assess.calls", assess_calls, "count/round")
    per_round("stability.assess.s", secs("stability.assess"), "s/round")
    per_round("stability.assess.self_s", float(own[mask("stability.assess")].sum()), "s/round")
    for name in ("eigenvalues", "jacobian", "boundary_value", "omega_pm"):
        per_round(f"stability.{name}.s", secs(f"stability.{name}"), "s/round")

    for phase in workloads.PHASES:
        per_round(f"phasescan.scan.{phase}.s", secs("phasescan.scan", label_runs(phase)), "s/round")
    # Time inside a scan when no child span runs on any thread.
    per_round("phasescan.scan.self_s", float(own[mask("phasescan.scan")].sum()), "s/round")
    per_round("phasescan.cells", traced.counts["cells"], "count/round")
    per_round("phasescan.analytic_boundary_curve.s", secs("phasescan.analytic_boundary_curve"), "s/round")

    per_round("model.eom_rhs.calls", calls("model.eom_rhs"), "count/round")
    per_round("model.eom_rhs.s", secs("model.eom_rhs"), "s/round")
    per_round("model.validate_params.calls", calls("model.validate_params"), "count/round")
    per_round("model.trivial_fixed_point.calls", calls("model.trivial_fixed_point"), "count/round")

    integrating = mask("dynamics.integrate") | mask("dynamics.settle")
    under = tracing.descendant_mask(spans, integrating)
    per_round("dynamics.integrate.s", secs("dynamics.integrate"), "s/round")
    per_round("dynamics.settle.s", secs("dynamics.settle"), "s/round")
    per_round("dynamics.nfev", int((mask("model.eom_rhs") & under).sum()), "count/round")
    per_round("dynamics.steps", meter.steps, "count/round")
    ratio("dynamics.settle.converged_ratio", traced.counts["settles_converged"],
          traced.counts["settles"], "count/round")
    ratio("dynamics.settle.useful_time_ratio", traced.counts["settle_elapsed_time"],
          meter.model_time if traced.counts["settles"] else 0.0, "t_model/round")

    per_round("steadystate.solve_superradiant.calls", calls("steadystate.solve_superradiant"), "count/round")
    per_round("steadystate.solve_superradiant.s", secs("steadystate.solve_superradiant"), "s/round")
    per_round("steadystate.newton_iterations", traced.counts["newton_iterations"], "count/round")
    per_round("steadystate.failures", traced.counts["newton_failures"], "count/round")
    per_round("steadystate.mirror_missing", traced.counts["mirror_missing"], "count/round")

    per_round("cli.main.s", secs("cli.main"), "s/round")
    for command in ("stability", "fixed-points", "simulate", "scan", "boundary", "version"):
        per_round(f"cli.main.{command}.s", secs("cli.main", label_runs(command)), "s/round")
    per_round("cli.format.self_s", float(own[mask("cli.main")].sum()), "s/round")
    per_round("cli.bytes_out", traced.counts["bytes_out"], "bytes/round")

    untraced, traced_wall = typical_round_s(plain), typical_round_s(traced)
    m["trace.overhead_s"] = (traced_wall - untraced, "s/round")
    overhead = summary.ratio(traced_wall - untraced, untraced)
    m["trace.overhead_ratio"] = (overhead["value"] or 0.0, "ratio")
    m["trace.overhead_ratio.base"] = (untraced, "s/round")
    per_round("trace.spans", len(spans), "count/round")
    return m


def typical_round_s(rep: Report, adjusted: bool = True) -> float:
    """Sum over a round's request slots of each slot's median latency.

    Request j of every round has the same kind (phase, point kind, CLI
    command), so the sum is the time of one typical round. By default the
    latencies are the gauge-adjusted ones (see gauge.py); `adjusted=False`
    sums the plain wall times.
    """
    by_slot = {}
    for slot, dt in zip(rep.slots, rep.adjusted if adjusted else rep.latencies):
        by_slot.setdefault(slot, []).append(dt)
    return sum(statistics.median(v) for v in by_slot.values())


def end_to_end(bench, rep: Report, setup_s: float) -> dict:
    work_per_round = rep.work / len(rep.round_walls)
    return {
        "setup_s": (setup_s, "s"),
        "adj_work_per_s": (work_per_round / typical_round_s(rep), "1/s"),
        "peak_rss_mb": (bench.peak_rss_mb(), "MB"),
    }


def describe(bench, rep: Report, metrics: dict) -> list[str]:
    """Human-readable lines: metrics by name with units, latency, failures."""
    lines = []
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}: {value:.6g} {unit}")
    if "adj_work_per_s" in metrics:
        work_per_round = rep.work / len(rep.round_walls)
        lines.append(f"{bench.rate_name}: {work_per_round / typical_round_s(rep, adjusted=False):.6g} 1/s "
                     f"unadjusted ({len(rep.round_walls)} rounds, {rep.work:g} {bench.unit} in "
                     f"{rep.busy:.3f} s of requests)")
        ratios = [a / t for a, t in zip(rep.adjusted, rep.latencies) if t > 0]
        if ratios:
            lines.append(f"host speed: median adjusted/wall {statistics.median(ratios):.4g} "
                         f"(min {min(ratios):.4g}, max {max(ratios):.4g}; reference gauge pass "
                         f"{gauge.REFERENCE_S * 1e3:g} ms)")
    lat = summary.latency_summary([x * 1e3 for x in rep.latencies])
    text = f"request latency: p50 {lat['p50']:.3f} ms" if lat["n"] else "request latency: none"
    if "tail" in lat:
        text += f", p{lat['tail_q']:g} {lat['tail']:.3f} ms"
    lines.append(text + f" (n={lat['n']})")
    if isinstance(bench, CliBench) and not bench.in_process:
        starts = [t for t, lab in zip(rep.latencies, rep.labels) if lab == "version"]
        if starts:
            lines.append(f"startup_s: {statistics.median(starts):.6g} s (median of {len(starts)} "
                         f"`dicke2 --version` calls)")
        lines.append(f"session_s: {typical_round_s(rep, adjusted=False):.6g} s (sum of per-command "
                     f"medians over {len(rep.round_walls)} sessions; {typical_round_s(rep):.6g} s "
                     f"adjusted)")
    fr = summary.ratio(rep.failed, rep.attempted)
    lines.append(f"fail_ratio: {fr['value'] or 0.0:.6g} ({rep.failed} of {rep.attempted} requests)")
    return lines
