"""Command-line front end writing deterministic CSV/JSON/matrix files.

Subcommands: simulate, stability, scan, boundary, fixed-points. Option
precedence is command-line flag > config-file entry > built-in default,
and the effective configuration is echoed into a '#'-prefixed metadata
header of every output; stripping '#' lines leaves pure machine-readable
data. Numbers are written in shortest round-trip decimal form. Run
statistics (timings and work counters) go only to the optional --stats
JSON file, never into the data output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .dynamics import IntegratorConfig, integrate, validate_config
from .model import (
    ModelParams,
    Phase,
    SystemState,
    eom_rhs,
    trivial_fixed_point,
    validate_params,
)
from .phasescan import GridSpec, analytic_boundary_curve, scan, validate_grid
from .stability import assess, boundary_value, omega_pm
from .steadystate import NewtonError, solve_superradiant

MATRIX_FIELDS = ("max_growth_rate", "boundary_b", "omega_plus", "omega_minus", "superradiant")
CELL_FIELDS = (
    "lambda1", "lambda2", "superradiant", "max_growth_rate", "boundary_b", "omega_plus", "omega_minus"
)

DEFAULTS: dict = {
    "omega1": 1.0,
    "omega2": 1.0,
    "omega_c": 1.0,
    "kappa": 1.0,
    "n1": 1.0,
    "n2": 1.0,
    "lambda1": 0.0,
    "lambda2": 0.0,
    "phase": "normal",
    "format": "csv",
    "rel_tol": 1e-10,
    "abs_tol": 1e-12,
    "max_step": None,
    "t_final": 100.0,
    "sample_interval": 0.1,
    "a1": 0.0,
    "a2": 0.0,
    "perturb": 0.0,
    "state": None,
    "l1_min": 0.0,
    "l1_max": 1.5,
    "l1_count": 61,
    "l2_min": 0.0,
    "l2_max": 1.5,
    "l2_count": 61,
    "samples": 101,
    "value": "max_growth_rate",
}

_PARAM_KEYS = ("omega1", "omega2", "omega_c", "kappa", "n1", "n2", "lambda1", "lambda2")
_GRID_KEYS = ("l1_min", "l1_max", "l1_count", "l2_min", "l2_max", "l2_count")
_INTEGRATOR_KEYS = ("rel_tol", "abs_tol", "max_step", "t_final", "sample_interval")

# Default Newton seeds (theta1, theta2, a1) for the fixed-points command:
# both cavity signs plus one-species-dominant tilts.
_FP_SEEDS = ((1.2, 1.2, 0.3), (1.2, 1.2, -0.3), (1.2, 0.2, 0.3), (0.2, 1.2, 0.3))


class UsageError(Exception):
    """Bad invocation detected after argparse (exit code 2)."""


def _fmt(x) -> str:
    """Shortest round-trip text for one CSV/matrix field."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return repr(float(x))


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    for key in data:
        if key not in DEFAULTS:
            raise UsageError(f"config file {path} has unknown key {key!r}")
    return data


def _effective(
    args: argparse.Namespace, keys: tuple[str, ...], overrides: dict | None = None
) -> dict:
    cfg = {k: DEFAULTS[k] for k in keys}
    if overrides:
        cfg.update(overrides)
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        for k in keys:
            if k in file_cfg:
                cfg[k] = file_cfg[k]
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            cfg[k] = v
    return cfg


def _params_from(cfg: dict) -> ModelParams:
    try:
        return validate_params(ModelParams(**{k: float(cfg[k]) for k in _PARAM_KEYS}))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _grid_from(cfg: dict) -> GridSpec:
    try:
        return validate_grid(
            GridSpec(
                l1_min=float(cfg["l1_min"]),
                l1_max=float(cfg["l1_max"]),
                l1_count=int(cfg["l1_count"]),
                l2_min=float(cfg["l2_min"]),
                l2_max=float(cfg["l2_max"]),
                l2_count=int(cfg["l2_count"]),
            )
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _integrator_from(cfg: dict) -> IntegratorConfig:
    max_step = cfg["max_step"]
    try:
        return validate_config(
            IntegratorConfig(
                rel_tol=float(cfg["rel_tol"]),
                abs_tol=float(cfg["abs_tol"]),
                max_step=np.inf if max_step is None else float(max_step),
                t_final=float(cfg["t_final"]),
                sample_interval=float(cfg["sample_interval"]),
            )
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _phase_from(cfg: dict) -> Phase:
    return Phase[str(cfg["phase"]).upper()]


def _meta_lines(command: str, cfg: dict) -> list[str]:
    # The echo describes the computation only: the output path and run
    # statistics are excluded so identical computations give identical bytes.
    return [
        f"# dicke2 {__version__}",
        f"# command: {command}",
        f"# config: {json.dumps(cfg, sort_keys=True)}",
    ]


def _write_output(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _json_block(obj) -> list[str]:
    return json.dumps(obj, sort_keys=True, indent=1).splitlines()


def _state_dict(s: SystemState) -> dict:
    return {
        "a1": s.a1,
        "a2": s.a2,
        "j1x": float(s.j1[0]),
        "j1y": float(s.j1[1]),
        "j1z": float(s.j1[2]),
        "j2x": float(s.j2[0]),
        "j2y": float(s.j2[1]),
        "j2z": float(s.j2[2]),
    }


def _initial_state(cfg: dict, p: ModelParams) -> np.ndarray:
    try:
        if cfg["state"] is not None:
            y0 = np.array([float(x) for x in str(cfg["state"]).split(",")])
            if len(y0) != 8:
                raise UsageError("--state needs 8 comma-separated components")
        else:
            y0 = trivial_fixed_point(_phase_from(cfg), p).to_array()
            y0[0] += float(cfg["a1"])
            y0[1] += float(cfg["a2"])
            eps = float(cfg["perturb"])
            # The perturbation seeds the cavity and tilts both spins off their poles.
            y0[0] += eps
            y0[2] += eps
            y0[5] += eps
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not np.all(np.isfinite(y0)):
        raise UsageError(f"initial state components must be finite (got {y0.tolist()})")
    return y0


def cmd_simulate(args: argparse.Namespace) -> tuple[list[str], dict]:
    keys = _PARAM_KEYS + _INTEGRATOR_KEYS + ("phase", "a1", "a2", "perturb", "state", "format")
    cfg = _effective(args, keys)
    p = _params_from(cfg)
    traj = integrate(_initial_state(cfg, p), p, _integrator_from(cfg))
    lines = _meta_lines("simulate", cfg)
    lines.append("t,a1,a2,j1x,j1y,j1z,j2x,j2y,j2z,drift")
    for i, t in enumerate(traj.times):
        fields = [_fmt(t)] + [_fmt(v) for v in traj.states[i]] + [_fmt(traj.drift[i].max())]
        lines.append(",".join(fields))
    return lines, {"nfev": traj.nfev, "steps": traj.steps}


def cmd_stability(args: argparse.Namespace) -> tuple[list[str], dict]:
    keys = _PARAM_KEYS + ("phase", "format")
    cfg = _effective(args, keys, overrides={"format": "json"})
    p = _params_from(cfg)
    phase = _phase_from(cfg)
    report = assess(trivial_fixed_point(phase, p), p)
    roots = omega_pm(phase, p.lambda1, p.lambda2, p)
    eigs = sorted((complex(e) for e in report.eigenvalues), key=lambda z: (z.real, z.imag))
    payload = {
        "phase": phase.name.lower(),
        "eigenvalues": [{"re": e.real, "im": e.imag} for e in eigs],
        "structural_zero_count": report.structural_zero_count,
        "max_growth_rate": report.max_growth_rate,
        "classification": report.classification.value,
        "boundary_b": boundary_value(phase, p.lambda1, p.lambda2, p),
        "omega_plus": roots.omega_plus,
        "omega_minus": roots.omega_minus,
    }
    return _meta_lines("stability", cfg) + _json_block(payload), {}


def _scan_csv(result) -> list[str]:
    lines = [",".join(CELL_FIELDS)]
    lines += [",".join(_fmt(getattr(c, f)) for f in CELL_FIELDS) for c in result.cells]
    return lines


def _scan_json(result) -> list[str]:
    payload = {
        "phase": result.phase.name.lower(),
        "grid": {k: getattr(result.grid, k) for k in _GRID_KEYS},
        "params": {k: getattr(result.params, k) for k in _PARAM_KEYS},
        "cells": [{f: getattr(c, f) for f in CELL_FIELDS} for c in result.cells],
        "boundary_curve": [[float(a), float(b)] for a, b in result.boundary_curve],
    }
    return _json_block(payload)


def _scan_matrix(result, field: str) -> list[str]:
    if field not in MATRIX_FIELDS:
        raise UsageError(f"--value must be one of {', '.join(MATRIX_FIELDS)}")
    n2 = result.grid.l2_count
    lines = []
    for i in range(result.grid.l1_count):
        row = result.cells[i * n2 : (i + 1) * n2]
        vals = []
        for c in row:
            v = getattr(c, field)
            if field == "superradiant":
                vals.append("1" if v else "0")
            else:
                vals.append("nan" if v is None else repr(float(v)))
        lines.append(" ".join(vals))
    return lines


def cmd_scan(args: argparse.Namespace) -> tuple[list[str], dict]:
    keys = _PARAM_KEYS + _GRID_KEYS + ("phase", "format", "value")
    cfg = _effective(args, keys)
    p = _params_from(cfg)
    result = scan(_phase_from(cfg), _grid_from(cfg), p)
    lines = _meta_lines("scan", cfg)
    if cfg["format"] == "csv":
        lines += _scan_csv(result)
    elif cfg["format"] == "json":
        lines += _scan_json(result)
    else:
        lines += _scan_matrix(result, str(cfg["value"]))
    return lines, {"cells": len(result.cells), "refined_cells": result.refined_cells}


def cmd_boundary(args: argparse.Namespace) -> tuple[list[str], dict]:
    keys = _PARAM_KEYS + _GRID_KEYS + ("phase", "samples", "format")
    cfg = _effective(args, keys)
    p = _params_from(cfg)
    grid = _grid_from(cfg)
    curve = analytic_boundary_curve(
        _phase_from(cfg),
        p,
        samples=int(cfg["samples"]),
        l1_max=grid.l1_max,
        l2_max=grid.l2_max,
    )
    lines = _meta_lines("boundary", cfg)
    lines.append("lambda1,lambda2")
    for l1, l2 in curve:
        lines.append(f"{_fmt(l1)},{_fmt(l2)}")
    return lines, {}


def cmd_fixed_points(args: argparse.Namespace) -> tuple[list[str], dict]:
    keys = _PARAM_KEYS + ("format",)
    cfg = _effective(args, keys, overrides={"format": "json"})
    p = _params_from(cfg)
    entries = []
    seen = set()

    def add(state: SystemState, branch: str, residual: float, iterations) -> None:
        key = tuple(round(float(x), 6) for x in state.to_array())
        if key in seen:
            return
        seen.add(key)
        report = assess(state, p)
        entries.append(
            {
                "branch": branch,
                "state": _state_dict(state),
                "residual_norm": residual,
                "newton_iterations": iterations,
                "classification": report.classification.value,
                "max_growth_rate": report.max_growth_rate,
            }
        )

    for phase in Phase:
        fp = trivial_fixed_point(phase, p)
        res = float(np.max(np.abs(eom_rhs(fp, p))))
        add(fp, phase.name.lower(), res, None)

    failures = []
    newton_iterations = 0
    if p.lambda1 > 0 or p.lambda2 > 0:
        for seed in _FP_SEEDS:
            try:
                sol = solve_superradiant(p, init=seed)
            except NewtonError as exc:
                failures.append({"seed": list(seed), "error": str(exc)})
                continue
            newton_iterations += sol.newton_iterations
            add(sol.state, sol.branch, sol.residual_norm, sol.newton_iterations)

    payload = {"fixed_points": entries, "failures": failures}
    lines = _meta_lines("fixed-points", cfg) + _json_block(payload)
    return lines, {"newton_iterations": newton_iterations}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke2",
        description="Semiclassical two-species Dicke model laboratory",
    )
    parser.add_argument("--version", action="version", version=f"dicke2 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    for key in _PARAM_KEYS:
        common.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)
    common.add_argument("--phase", choices=["normal", "inverted", "mixed1", "mixed2"])
    common.add_argument("--config", help="JSON config file (flags override its entries)")
    common.add_argument("--out", help="output path (stdout when omitted where allowed)")
    common.add_argument("--stats", help="write run timings and work counters as JSON to this path")

    grid = argparse.ArgumentParser(add_help=False)
    for key in _GRID_KEYS:
        typ = int if key.endswith("count") else float
        grid.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ)

    p_sim = sub.add_parser("simulate", parents=[common], help="integrate and write a trajectory CSV")
    for key in _INTEGRATOR_KEYS:
        p_sim.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)
    p_sim.add_argument("--a1", type=float, help="initial cavity quadrature offset")
    p_sim.add_argument("--a2", type=float, help="initial cavity quadrature offset")
    p_sim.add_argument("--perturb", type=float, help="offset added to a1, j1x and j2x")
    p_sim.add_argument("--state", help="explicit initial state: 8 comma-separated components")
    p_sim.add_argument("--format", choices=["csv"])
    p_sim.set_defaults(func=cmd_simulate, out_required=True)

    p_stab = sub.add_parser("stability", parents=[common], help="stability report at a pole fixed point")
    p_stab.add_argument("--format", choices=["json"])
    p_stab.set_defaults(func=cmd_stability, out_required=False)

    p_scan = sub.add_parser("scan", parents=[common, grid], help="coupling-plane phase scan")
    p_scan.add_argument("--format", choices=["csv", "json", "matrix"])
    p_scan.add_argument("--value", choices=list(MATRIX_FIELDS), help="cell value for matrix format")
    p_scan.set_defaults(func=cmd_scan, out_required=True)

    p_bnd = sub.add_parser("boundary", parents=[common, grid], help="analytic boundary polyline CSV")
    p_bnd.add_argument("--samples", type=int)
    p_bnd.add_argument("--format", choices=["csv"])
    p_bnd.set_defaults(func=cmd_boundary, out_required=True)

    p_fp = sub.add_parser("fixed-points", parents=[common], help="trivial and superradiant fixed points")
    p_fp.add_argument("--format", choices=["json"])
    p_fp.set_defaults(func=cmd_fixed_points, out_required=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out_required and not args.out:
        parser.error(f"{args.command}: --out is required")
    try:
        t0 = time.perf_counter()
        lines, counters = args.func(args)
        t1 = time.perf_counter()
        _write_output(args.out, lines)
        if args.stats:
            stats = {
                "command": args.command,
                "compute_s": t1 - t0,
                "write_s": time.perf_counter() - t1,
                **counters,
            }
            _write_output(args.stats, _json_block(stats))
        return 0
    except UsageError as exc:
        print(f"dicke2: usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"dicke2: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
