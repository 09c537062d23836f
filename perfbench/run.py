"""dicke2 benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ./src. The
load is a single closed-loop caller: each request waits for the previous
result. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOAD_NAMES = ("scan_equal_freq", "scan_detuned", "states", "cli_session")
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Share of --seconds the untraced half of a traced run gets; the traced
#: replay of the same rounds takes the rest plus the tracing overhead.
TRACE_SPLIT = 0.45


def pin_environment(src: Path) -> dict:
    """Pin BLAS/OpenMP pools to one thread each and leave DICKE2_THREADS unset.

    The scan's own default then picks its worker count (two on two cores),
    so the process never runs more compute threads than cores.
    """
    for key in THREAD_ENV:
        os.environ[key] = "1"
    os.environ.pop("DICKE2_THREADS", None)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("PYTHONSTARTUP", None)
    return env


def source_provenance(root: Path) -> dict:
    import hashlib

    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "dicke2" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src / 'dicke2'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = pin_environment(src)
    sys.path.insert(0, str(src))
    import dicke2

    if not Path(dicke2.__file__).resolve().is_relative_to(src):
        print(f"perfbench: dicke2 imported from {dicke2.__file__}, not {src}", file=sys.stderr)
        return 2

    import benches

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    bench = benches.make(args.workload, args.seed, out_dir, env, trace=bool(args.trace))
    bench.warm()
    if args.trace:
        spans_path = out_dir / f"spans-{args.workload}.npz"
        report = benches.traced_run(bench, args.seconds * TRACE_SPLIT, spans_path)
        report.layers.update(benches.import_breakdown(env, root))
        metrics = report.layers
    else:
        report = benches.closed_loop(bench, args.seconds, check=True)
        setup_plain, setup_adjusted = benches.setup_seconds(args.workload, args.seed, env, root)
        metrics = benches.end_to_end(bench, report, statistics.median(setup_adjusted))

    import numpy
    import scipy
    import mpmath

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "dicke2": dicke2.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV + ("DICKE2_THREADS",)},
        **source_provenance(root),
        "work": report.work_counts(),
    }
    for line in benches.describe(bench, report, metrics):
        print(line)
    if not args.trace:
        print(f"setup_s unadjusted: {statistics.median(setup_plain):.6g} s (median of "
              f"{len(setup_plain)} fresh interpreters)")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for problem in report.problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "provenance": provenance,
        "result": result,
        "problems": report.problems,
        "round_walls": report.round_walls,
        "requests": list(zip(report.labels, report.latencies, report.adjusted)),
    }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
