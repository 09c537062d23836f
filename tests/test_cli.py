"""Command-line interface: file formats, precedence, exit codes, determinism."""

import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from dicke2 import GridSpec, ModelParams, Phase, scan
from dicke2.cli import DEFAULTS, _scan_matrix, cmd_scan, main


def run_cli(*argv, env_extra=None, check=True):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "dicke2", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def exit_code(*argv):
    """cli.main's exit code in-process; argparse rejections raise SystemExit."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def data_lines(text):
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def load_json_output(text):
    return json.loads("\n".join(data_lines(text)))


def read_csv(path):
    with open(path) as fh:
        lines = data_lines(fh.read())
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_simulate_decoupled_decay(tmp_path):
    out = tmp_path / "traj.csv"
    run_cli(
        "simulate",
        "--phase",
        "normal",
        "--lambda1",
        "0",
        "--lambda2",
        "0",
        "--a1",
        "1",
        "--t-final",
        "5",
        "--out",
        str(out),
    )
    header, rows = read_csv(out)
    assert header == ["t", "a1", "a2", "j1x", "j1y", "j1z", "j2x", "j2y", "j2z", "drift"]
    for row in rows:
        t, a1, a2 = float(row[0]), float(row[1]), float(row[2])
        assert abs(np.hypot(a1, a2) - np.exp(-t)) < 1e-8


def test_simulate_settles_to_partial_superradiance(tmp_path):
    out = tmp_path / "traj.csv"
    run_cli(
        "simulate",
        "--phase",
        "mixed1",
        "--lambda2",
        "1",
        "--perturb",
        "1e-3",
        "--t-final",
        "200",
        "--sample-interval",
        "1",
        "--out",
        str(out),
    )
    _, rows = read_csv(out)
    final_j2z = float(rows[-1][8])
    assert abs(final_j2z + 0.25) < 1e-4


def test_stability_reports_marginal_boundary_point():
    proc = run_cli("stability", "--phase", "normal", "--lambda1", "0.5", "--lambda2", "0.5")
    doc = load_json_output(proc.stdout)
    assert doc["classification"] == "Marginal"
    assert doc["omega_plus"] == 1.0 and doc["omega_minus"] == 1.0
    assert len(doc["eigenvalues"]) == 8
    # The two exact zeros come last; the six before them are ordered by
    # (im, re), which round-off in a real part cannot change.
    eigs = [(e["im"], e["re"]) for e in doc["eigenvalues"]]
    assert eigs[6:] == [(0.0, 0.0), (0.0, 0.0)]
    assert eigs[:6] == sorted(eigs[:6])


def test_stability_mixed1_forbidden_point():
    proc = run_cli("stability", "--phase", "mixed1", "--lambda1", "2", "--lambda2", "2")
    doc = load_json_output(proc.stdout)
    assert doc["boundary_b"] == -2.0
    assert doc["omega_plus"] is None and doc["omega_minus"] is None


def test_stability_inverted_mirror():
    inv = load_json_output(
        run_cli("stability", "--phase", "inverted", "--lambda1", "0.5", "--lambda2", "0.5").stdout
    )
    assert inv["omega_plus"] == -1.0 and inv["omega_minus"] == -1.0


def test_scan_csv_shape_and_repeatability(tmp_path):
    args = [
        "scan",
        "--phase",
        "normal",
        "--l1-count",
        "13",
        "--l2-count",
        "13",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(*args, "--out", str(out1))
    run_cli(*args, "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header[:3] == ["lambda1", "lambda2", "superradiant"]
    assert len(rows) == 169
    for row in rows:
        l1, l2, flag = float(row[0]), float(row[1]), row[2]
        expected = "true" if l1**2 + l2**2 > 0.5 else "false"
        if abs(np.hypot(l1, l2) - np.sqrt(0.5)) > np.hypot(0.125, 0.125):
            assert flag == expected


def test_scan_json_and_matrix_formats(tmp_path):
    out = tmp_path / "scan.json"
    run_cli("scan", "--l1-count", "4", "--l2-count", "5", "--format", "json", "--out", str(out))
    doc = load_json_output(out.read_text())
    assert len(doc["cells"]) == 20
    assert doc["grid"]["l1_count"] == 4
    assert doc["phase"] == "normal"

    mat = tmp_path / "scan.mat"
    run_cli(
        "scan",
        "--l1-count",
        "4",
        "--l2-count",
        "5",
        "--format",
        "matrix",
        "--value",
        "omega_plus",
        "--out",
        str(mat),
    )
    grid_rows = data_lines(mat.read_text())
    assert len(grid_rows) == 4
    assert all(len(r.split()) == 5 for r in grid_rows)
    assert grid_rows[0].split()[0] == "nan"  # no roots at zero coupling


def test_boundary_files(tmp_path):
    out = tmp_path / "b.csv"
    run_cli("boundary", "--phase", "normal", "--samples", "101", "--out", str(out))
    _, rows = read_csv(out)
    assert len(rows) == 101
    for row in rows:
        l1, l2 = float(row[0]), float(row[1])
        assert abs(l1**2 + l2**2 - 0.5) < 1e-12

    run_cli("boundary", "--phase", "inverted", "--out", str(out))
    header, rows = read_csv(out)
    assert header == ["lambda1", "lambda2"] and rows == []

    run_cli("boundary", "--phase", "mixed1", "--out", str(out))
    _, rows = read_csv(out)
    assert rows, "mixed1 boundary should not be empty"
    for row in rows:
        l1, l2 = float(row[0]), float(row[1])
        assert abs(l1**2 - l2**2 - 0.5) < 1e-12


def test_fixed_points_subcritical():
    # omega2 != omega1 so the normal pole is strictly stable (no dark mode).
    doc = load_json_output(
        run_cli(
            "fixed-points", "--omega2", "1.3", "--lambda1", "0.1", "--lambda2", "0.1"
        ).stdout
    )
    entries = doc["fixed_points"]
    assert len(entries) == 4
    by_branch = {e["branch"]: e for e in entries}
    assert by_branch["normal"]["classification"] == "Stable"


def test_fixed_points_includes_partial_superradiant_branch():
    doc = load_json_output(run_cli("fixed-points", "--lambda1", "0", "--lambda2", "1").stdout)
    j2zs = [e["state"]["j2z"] for e in doc["fixed_points"] if e["branch"].startswith("super")]
    assert any(abs(z + 0.25) < 1e-9 for z in j2zs)


def test_fixed_points_lists_every_superradiant_state_with_its_mirror():
    doc = load_json_output(run_cli("fixed-points", "--lambda1", "0", "--lambda2", "1").stdout)
    assert len(doc) == 1 and len(doc["fixed_points"]) == 8
    superradiant = [e["state"] for e in doc["fixed_points"] if e["branch"].startswith("super")]
    assert sorted((np.sign(s["a1"]), s["j1z"]) for s in superradiant) == [
        (-1, -0.5), (-1, 0.5), (1, -0.5), (1, 0.5)
    ]
    assert all(abs(s["j2z"] + 0.25) < 1e-12 for s in superradiant)

    doc = load_json_output(
        run_cli("fixed-points", "--lambda1", "1.4", "--lambda2", "0.5", "--omega2", "0.6").stdout
    )
    verdicts = {e["branch"]: e["classification"] for e in doc["fixed_points"]}
    assert {b: v for b, v in verdicts.items() if b.startswith("super")} == {
        "superradiant a1+ j1z- j2z-": "Stable",
        "superradiant a1- j1z- j2z-": "Stable",
        "superradiant a1+ j1z- j2z+": "Unstable",
        "superradiant a1- j1z- j2z+": "Unstable",
    }


def test_fixed_points_supercritical_normal_unstable():
    doc = load_json_output(
        run_cli("fixed-points", "--lambda1", "0.8", "--lambda2", "0.8").stdout
    )
    by_branch = {e["branch"]: e for e in doc["fixed_points"]}
    assert by_branch["normal"]["classification"] == "Unstable"


def test_fixed_points_just_above_threshold_are_labelled_superradiant(capsys):
    # One ulp above the species-2 threshold the branch has |a1| ~ 1e-8, below
    # the Newton solver's degenerate-pole cut, yet it is not a pole.
    l2 = np.nextafter(np.sqrt(0.5), 1.0)
    assert main(["fixed-points", "--lambda1", "0", "--lambda2", repr(float(l2))]) == 0
    branches = [e["branch"] for e in load_json_output(capsys.readouterr().out)["fixed_points"]]
    assert branches[:4] == ["normal", "inverted", "mixed1", "mixed2"]
    assert len(branches) == 8 and all(b.startswith("superradiant") for b in branches[4:])


def test_missing_required_flag_is_usage_error():
    proc = run_cli("scan", check=False)  # --out missing
    assert proc.returncode == 2
    assert "usage" in (proc.stderr + proc.stdout).lower()


def test_nonfinite_input_is_usage_error(tmp_path):
    for argv in (
        ("stability", "--lambda1", "nan"),
        ("stability", "--omega-c", "inf"),
        ("scan", "--l1-max", "inf", "--out", str(tmp_path / "s.csv")),
        ("scan", "--l2-count", "1", "--out", str(tmp_path / "s.csv")),
        ("simulate", "--t-final", "nan", "--out", str(tmp_path / "s.csv")),
        ("simulate", "--state", "0,0,0,0,nan,0,0,-0.5", "--out", str(tmp_path / "s.csv")),
        ("boundary", "--phase", "mixed2", "--l1-max", "inf", "--out", str(tmp_path / "s.csv")),
        ("boundary", "--samples", "1", "--out", str(tmp_path / "s.csv")),
        ("boundary", "--samples", "-5", "--out", str(tmp_path / "s.csv")),
    ):
        proc = run_cli(*argv, check=False)
        assert proc.returncode == 2, argv
        assert "usage error" in proc.stderr
        assert "Warning" not in proc.stderr
    assert not (tmp_path / "s.csv").exists()


def test_only_integration_imports_scipy_integrate(tmp_path):
    # scipy.integrate dominates start-up, so commands that never integrate
    # must not load it, and neither may input that simulate rejects.
    script = "\n".join(
        [
            "import sys",
            "import dicke2, dicke2.cli",
            "dicke2.cli.main(['stability', '--lambda1', '0.5', '--lambda2', '0.5'])",
            f"dicke2.cli.main(['simulate', '--t-final', 'nan', '--out', {str(tmp_path / 'x.csv')!r}])",
            "print('scipy.integrate' in sys.modules)",
            "y0 = [0, 0, 0, 0, -0.5, 0, 0, -0.5]",
            "dicke2.integrate(y0, dicke2.ModelParams(), dicke2.IntegratorConfig(t_final=0.1))",
            "print('scipy.integrate' in sys.modules)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=dict(os.environ)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["False", "True"]


def test_mpmath_loads_only_when_a_cell_is_refined(tmp_path):
    # mpmath serves only the 30-digit refinement, so commands that refine no
    # cell must not load it; the README's omega_plus matrix takes no spectrum.
    script = "\n".join(
        [
            "import sys",
            "import dicke2, dicke2.cli",
            f"out = {str(tmp_path / 'x.out')!r}",
            "runs = [",
            "    ['stability', '--phase', 'normal', '--lambda1', '0.5', '--lambda2', '0.5'],",
            "    ['fixed-points', '--lambda1', '0', '--lambda2', '1'],",
            "    ['boundary', '--phase', 'normal', '--samples', '101', '--out', out],",
            "    ['scan', '--phase', 'mixed1', '--format', 'matrix', '--value', 'omega_plus',",
            "     '--out', out],",
            "]",
            "assert all(dicke2.cli.main(argv) == 0 for argv in runs)",
            "print('mpmath' in sys.modules)",
            # The default value is max_growth_rate: at omega1 = omega2 the
            # mixed1 diagonal is refined.
            "assert dicke2.cli.main(['scan', '--phase', 'mixed1', '--format', 'matrix',"
            " '--out', out]) == 0",
            "print('mpmath' in sys.modules)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=dict(os.environ)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["False", "True"]


@pytest.mark.parametrize("phase", list(Phase))
@pytest.mark.parametrize(
    "grid, p",
    [
        (GridSpec(0.0, 1.5, 13, 0.0, 1.5, 17), ModelParams()),
        (GridSpec(0.0, 2.0, 11, 0.1, 1.8, 9), ModelParams(omega2=1.2, kappa=0.3)),
    ],
)
def test_indicator_matrix_equals_the_scan_oracle(phase, grid, p):
    # The closed-form matrix path must write the bytes the full scan writes.
    result = scan(phase, grid, p)
    cfg = {**DEFAULTS, **asdict(grid), "phase": phase.name.lower(), "format": "matrix"}
    for value in ("boundary_b", "omega_plus", "omega_minus"):
        lines, counters = cmd_scan({**cfg, "value": value}, p)
        assert lines == _scan_matrix(result, value)
        assert counters == {"cells": grid.l1_count * grid.l2_count, "refined_cells": 0}
        if value != "boundary_b":
            tokens = " ".join(lines).split()
            assert "nan" in tokens and any(t != "nan" for t in tokens)


def test_stats_file_is_a_side_channel(tmp_path, capsys):
    matrix = ["scan", "--phase", "mixed1", "--format", "matrix", "--value"]
    readme = {
        "scan": [*matrix, "omega_plus"],
        "scan-growth": [*matrix, "max_growth_rate"],
        "simulate": [
            "simulate", "--phase", "mixed1", "--lambda2", "1", "--perturb", "1e-3",
            "--t-final", "200",
        ],
        "fixed-points": ["fixed-points", "--lambda1", "0", "--lambda2", "1"],
    }
    stats = {}
    for label, argv in readme.items():
        stats_path = tmp_path / f"{label}.json"
        outputs = []
        for extra in ([], ["--stats", str(stats_path)]):
            out = tmp_path / f"{label}{len(extra)}.out"
            to_file = [] if label == "fixed-points" else ["--out", str(out)]
            assert main([*argv, *to_file, *extra]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes() if to_file else None))
        assert outputs[0] == outputs[1]
        stats[label] = json.loads(stats_path.read_text())
        assert stats[label]["command"] == argv[0]
        assert stats[label]["compute_s"] > 0 and stats[label]["write_s"] >= 0
    # omega_plus has a closed form, so no cell is refined; the growth rate needs the spectrum.
    assert stats["scan"]["cells"] == 61 * 61
    assert stats["scan"]["refined_cells"] == 0
    assert stats["scan-growth"]["cells"] == 61 * 61
    assert 0 < stats["scan-growth"]["refined_cells"] < stats["scan-growth"]["cells"]
    assert 0 < stats["simulate"]["steps"] < stats["simulate"]["nfev"]
    assert set(stats["fixed-points"]) == {"command", "compute_s", "write_s"}


def test_unknown_flag_is_usage_error(tmp_path):
    out = tmp_path / "out.txt"
    invocations = [
        ("simulate", "--no-such-flag", "1"),
        # Only scan takes --format; the other commands have a single format.
        ("simulate", "--format", "csv"),
        ("stability", "--format", "json"),
        ("boundary", "--format", "csv"),
        ("fixed-points", "--format", "json"),
        # fixed-points lists the states of every phase, so it takes no --phase.
        ("fixed-points", "--phase", "mixed1"),
        # boundary sweeps from zero up to the window caps: it has no minima or counts.
        ("boundary", "--l1-min", "0.6"),
        ("simulate", "--max-step", "1"),
        # --state gives every component, so offsets on top of it are refused, not dropped.
        ("simulate", "--state", "0,0,0,0,-0.5,0,0,-0.5", "--perturb", "1e-3"),
        ("simulate", "--state", "0,0,0,0,-0.5,0,0,-0.5", "--a1", "0.2"),
        ("simulate", "--state", "0,0,0,0,-0.5,0,0,-0.5", "--a2", "-0.2"),
    ]
    for argv in invocations:
        assert exit_code(*argv, "--out", str(out)) == 2, argv
        assert not out.exists(), argv


def test_unwritable_output_path_fails(tmp_path):
    proc = run_cli(
        "boundary", "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"), check=False
    )
    assert proc.returncode == 1
    assert proc.stderr


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda1": 0.5, "lambda2": 0.9, "phase": "inverted"}))
    proc = run_cli("stability", "--config", str(cfg), "--lambda2", "0.2")
    doc = load_json_output(proc.stdout)
    # Flag beats file, file beats default.
    assert doc["phase"] == "inverted"
    meta = [ln for ln in proc.stdout.splitlines() if ln.startswith("# config:")][0]
    echoed = json.loads(meta.split("# config:", 1)[1])
    assert echoed["lambda1"] == 0.5
    assert echoed["lambda2"] == 0.2
    assert echoed["phase"] == "inverted"


def test_bad_config_file_is_usage_error(tmp_path):
    # Config entries pass the same type and choice checks as the flags they
    # name, and a key the command does not take is rejected, not ignored.
    cfg, out = tmp_path / "bad.json", tmp_path / "out.txt"
    for command, entries in (
        ("stability", {"lambda_one": 0.5}),
        ("stability", {"t_final": 5, "format": "matrix"}),
        ("stability", {"phase": "bogus"}),
        ("stability", {"lambda1": True}),
        ("scan", {"format": "xml"}),
        ("scan", {"l1_count": 2.7}),
        ("boundary", {"samples": "x"}),
        ("boundary", {"l1_count": 7}),
    ):
        cfg.write_text(json.dumps(entries))
        assert exit_code(command, "--config", str(cfg), "--out", str(out)) == 2, entries
        assert not out.exists(), entries


def test_metadata_header_present_and_strippable(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("scan", "--l1-count", "3", "--l2-count", "3", "--out", str(out))
    text = out.read_text()
    assert text.startswith("# dicke2 ")
    lines = text.splitlines()
    assert any(ln.startswith("# config:") for ln in lines[:3])
    assert data_lines(text)[0].startswith("lambda1,")
