"""Command-line front end writing deterministic CSV/JSON/matrix files.

Subcommands: simulate, stability, scan, boundary, fixed-points (the poles
and every superradiant state). All take the model flags, --config, --out
and --stats, and all but fixed-points take --phase; each command's other
keys are declared once, in _OPTIONS. A --config file holds flag names with
'_' for '-' (null: the default); its entries are parsed as flags placed
before the command line's own, so they pass the same checks and flags win.
Parameters, grids and integrator settings check themselves when they are
built, so a bad value is a usage error (exit 2) before any work is done.
The effective configuration is echoed into a '#'-prefixed metadata header
of every output and loads back as a config file; stripping '#' lines leaves
pure data. Numbers are written in shortest round-trip decimal form. Run
statistics go only to the optional --stats JSON file, never into the data.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .dynamics import IntegratorConfig, integrate
from .model import STATE_LABELS, ModelParams, Phase, eom_rhs, trivial_fixed_point
from .phasescan import GridSpec, analytic_boundary_curve, indicator_grid, scan
from .stability import assess, pole_indicators
from .steadystate import _superradiant_label, superradiant_states

MATRIX_FIELDS = ("max_growth_rate", "boundary_b", "omega_plus", "omega_minus", "superradiant")
#: The closed-form cell fields, in the order indicator_grid returns them.
_INDICATOR_FIELDS = ("boundary_b", "omega_minus", "omega_plus")
CELL_FIELDS = (
    "lambda1", "lambda2", "superradiant", "max_growth_rate", "boundary_b", "omega_plus", "omega_minus"
)

_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))
_GRID_KEYS = tuple(f.name for f in fields(GridSpec))
_INTEGRATOR_KEYS = tuple(f.name for f in fields(IntegratorConfig))

DEFAULTS: dict = {
    **{f.name: f.default for cls in (ModelParams, GridSpec, IntegratorConfig) for f in fields(cls)},
    "phase": "normal",
    "format": "csv",
    "a1": 0.0,
    "a2": 0.0,
    "perturb": 0.0,
    "state": None,
    "samples": 101,
    "value": "max_growth_rate",
}

#: Each command's keys beyond the model parameters: its flags, the keys its
#: config file may hold and, with the parameters, its echoed configuration.
_OPTIONS = {
    "simulate": _INTEGRATOR_KEYS + ("phase", "a1", "a2", "perturb", "state"),
    "stability": ("phase",),
    "scan": _GRID_KEYS + ("phase", "format", "value"),
    "boundary": ("l1_max", "l2_max", "phase", "samples"),
    "fixed-points": (),
}
_CHOICES = {
    "phase": [phase.name.lower() for phase in Phase],
    "format": ["csv", "json", "matrix"],
    "value": list(MATRIX_FIELDS),
}
_HELP = {
    "a1": "initial cavity quadrature offset",
    "a2": "initial cavity quadrature offset",
    "perturb": "offset added to a1, j1x and j2x",
    "state": "explicit initial state: 8 comma-separated components",
    "value": "cell value for matrix format",
}


class UsageError(Exception):
    """Bad invocation detected after argparse (exit code 2)."""


def _fmt(x) -> str:
    """Shortest round-trip text for one CSV/matrix field."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return repr(float(x))


def _config_flags(path: str, keys: tuple[str, ...]) -> list[str]:
    """The entries of a JSON config file as --key=value flags; null entries are skipped."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    flags = []
    for key, value in data.items():
        if key not in keys:
            raise UsageError(f"config file {path}: this command does not take key {key!r}")
        if value is not None:
            text = value if isinstance(value, str) else json.dumps(value)
            flags.append(f"--{key.replace('_', '-')}={text}")
    return flags


def _build(cls, cfg: dict):
    """`cls` from the entries of cfg that name its fields; cls checks itself."""
    try:
        return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _phase_from(cfg: dict) -> Phase:
    return Phase[cfg["phase"].upper()]


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


def _initial_state(cfg: dict, p: ModelParams) -> np.ndarray:
    if cfg["state"] is not None:
        if cfg["a1"] or cfg["a2"] or cfg["perturb"]:
            raise UsageError("--state cannot be combined with --a1, --a2 or --perturb")
        try:
            y0 = np.array([float(x) for x in cfg["state"].split(",")])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if len(y0) != 8:
            raise UsageError("--state needs 8 comma-separated components")
    else:
        y0 = trivial_fixed_point(_phase_from(cfg), p).to_array()
        y0[0] += cfg["a1"]
        y0[1] += cfg["a2"]
        eps = cfg["perturb"]
        # The perturbation seeds the cavity and tilts both spins off their poles.
        y0[0] += eps
        y0[2] += eps
        y0[5] += eps
    if not np.all(np.isfinite(y0)):
        raise UsageError(f"initial state components must be finite (got {y0.tolist()})")
    return y0


def cmd_simulate(cfg: dict, p: ModelParams) -> tuple[list[str], dict]:
    traj = integrate(_initial_state(cfg, p), p, _build(IntegratorConfig, cfg))
    lines = ["t,a1,a2,j1x,j1y,j1z,j2x,j2y,j2z,drift"]
    for i, t in enumerate(traj.times):
        fields = [_fmt(t)] + [_fmt(v) for v in traj.states[i]] + [_fmt(traj.drift[i].max())]
        lines.append(",".join(fields))
    return lines, {"nfev": traj.nfev, "steps": traj.steps}


def cmd_stability(cfg: dict, p: ModelParams) -> tuple[list[str], dict]:
    phase = _phase_from(cfg)
    report = assess(trivial_fixed_point(phase, p), p)
    b, w_minus, w_plus = (float(x) for x in pole_indicators(phase, p))
    # Six tangent-space eigenvalues by (im, re), then the two exact zeros: pairs and
    # real eigenvalues have exact imaginary parts, so round-off cannot reorder them.
    tangent = sorted((complex(e) for e in report.eigenvalues[:6]), key=lambda z: (z.imag, z.real))
    eigs = tangent + [complex(e) for e in report.eigenvalues[6:]]
    payload = {
        "phase": phase.name.lower(),
        "eigenvalues": [{"re": e.real, "im": e.imag} for e in eigs],
        "max_growth_rate": report.max_growth_rate,
        "classification": report.classification.value,
        "boundary_b": b,
        "omega_plus": None if np.isnan(w_plus) else w_plus,
        "omega_minus": None if np.isnan(w_minus) else w_minus,
    }
    return _json_block(payload), {}


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


def cmd_scan(cfg: dict, p: ModelParams) -> tuple[list[str], dict]:
    phase, grid = _phase_from(cfg), _build(GridSpec, cfg)
    if cfg["format"] == "matrix" and cfg["value"] in _INDICATOR_FIELDS:
        # No spectrum is taken; repr(nan) is the "nan" _scan_matrix writes for no root.
        values = indicator_grid(phase, grid, p)[_INDICATOR_FIELDS.index(cfg["value"])]
        lines = [" ".join(map(repr, row)) for row in values.tolist()]
        return lines, {"cells": values.size, "refined_cells": 0}
    result = scan(phase, grid, p)
    if cfg["format"] == "csv":
        lines = _scan_csv(result)
    elif cfg["format"] == "json":
        lines = _scan_json(result)
    else:
        lines = _scan_matrix(result, cfg["value"])
    return lines, {"cells": len(result.cells), "refined_cells": result.refined_cells}


def cmd_boundary(cfg: dict, p: ModelParams) -> tuple[list[str], dict]:
    grid = _build(GridSpec, cfg)
    if cfg["samples"] < 2:
        raise UsageError(f"--samples must be at least 2 (got {cfg['samples']})")
    curve = analytic_boundary_curve(
        _phase_from(cfg), p, samples=cfg["samples"], l1_max=grid.l1_max, l2_max=grid.l2_max
    )
    return ["lambda1,lambda2"] + [f"{_fmt(l1)},{_fmt(l2)}" for l1, l2 in curve], {}


def cmd_fixed_points(cfg: dict, p: ModelParams) -> tuple[list[str], dict]:
    labelled = [(trivial_fixed_point(phase, p), phase.name.lower()) for phase in Phase]
    labelled += [(state, _superradiant_label(state)) for state in superradiant_states(p)]
    entries = []
    for state, branch in labelled:
        report = assess(state, p)
        entries.append(
            {
                "branch": branch,
                "state": dict(zip(STATE_LABELS, state.to_array().tolist())),
                "residual_norm": float(np.max(np.abs(eom_rhs(state, p)))),
                "classification": report.classification.value,
                "max_growth_rate": report.max_growth_rate,
            }
        )
    return _json_block({"fixed_points": entries}), {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke2",
        description="Semiclassical two-species Dicke model laboratory",
    )
    parser.add_argument("--version", action="version", version=f"dicke2 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": (cmd_simulate, "integrate and write a trajectory CSV"),
        "stability": (cmd_stability, "stability report at a pole fixed point"),
        "scan": (cmd_scan, "coupling-plane phase scan"),
        "boundary": (cmd_boundary, "analytic boundary polyline CSV"),
        "fixed-points": (cmd_fixed_points, "trivial and superradiant fixed points"),
    }
    for command, (func, help_text) in commands.items():
        cmd = sub.add_parser(command, help=help_text)
        keys = _PARAM_KEYS + _OPTIONS[command]
        for key in keys:
            cmd.add_argument(
                f"--{key.replace('_', '-')}",
                dest=key,
                type=str if key == "state" else type(DEFAULTS[key]),
                default=DEFAULTS[key],
                choices=_CHOICES.get(key),
                help=_HELP.get(key),
            )
        cmd.add_argument("--config", help="JSON config file (flags override its entries)")
        cmd.add_argument(
            "--out",
            required=command in ("simulate", "scan", "boundary"),
            help="output path (stdout when omitted where allowed)",
        )
        cmd.add_argument("--stats", help="write run timings and work counters as JSON to this path")
        cmd.set_defaults(func=func, keys=keys)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(argv[:1] + _config_flags(args.config, args.keys) + argv[1:])
        cfg = {k: getattr(args, k) for k in args.keys}
        t0 = time.perf_counter()
        data, counters = args.func(cfg, _build(ModelParams, cfg))
        lines = _meta_lines(args.command, cfg) + data
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
