"""Command-line interface: file formats, precedence, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np

from dicke2.cli import main


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


def test_fixed_points_supercritical_normal_unstable():
    doc = load_json_output(
        run_cli("fixed-points", "--lambda1", "0.8", "--lambda2", "0.8").stdout
    )
    by_branch = {e["branch"]: e for e in doc["fixed_points"]}
    assert by_branch["normal"]["classification"] == "Unstable"


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


def test_stats_file_is_a_side_channel(tmp_path, capsys):
    readme = {
        "scan": ["scan", "--phase", "mixed1", "--format", "matrix", "--value", "omega_plus"],
        "simulate": [
            "simulate", "--phase", "mixed1", "--lambda2", "1", "--perturb", "1e-3",
            "--t-final", "200",
        ],
        "fixed-points": ["fixed-points", "--lambda1", "0", "--lambda2", "1"],
    }
    stats = {}
    for command, argv in readme.items():
        stats_path = tmp_path / f"{command}.json"
        outputs = []
        for extra in ([], ["--stats", str(stats_path)]):
            out = tmp_path / f"{command}{len(extra)}.out"
            to_file = [] if command == "fixed-points" else ["--out", str(out)]
            assert main([*argv, *to_file, *extra]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes() if to_file else None))
        assert outputs[0] == outputs[1]
        stats[command] = json.loads(stats_path.read_text())
        assert stats[command]["command"] == command
        assert stats[command]["compute_s"] > 0 and stats[command]["write_s"] >= 0
    assert stats["scan"]["cells"] == 61 * 61
    assert 0 < stats["scan"]["refined_cells"] < stats["scan"]["cells"]
    assert 0 < stats["simulate"]["steps"] < stats["simulate"]["nfev"]
    assert stats["fixed-points"]["newton_iterations"] > 0


def test_unknown_flag_is_usage_error():
    proc = run_cli("simulate", "--no-such-flag", "1", check=False)
    assert proc.returncode == 2


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


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"lambda_one": 0.5}))
    proc = run_cli("stability", "--config", str(cfg), check=False)
    assert proc.returncode == 2


def test_metadata_header_present_and_strippable(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("scan", "--l1-count", "3", "--l2-count", "3", "--out", str(out))
    text = out.read_text()
    assert text.startswith("# dicke2 ")
    lines = text.splitlines()
    assert any(ln.startswith("# config:") for ln in lines[:3])
    assert data_lines(text)[0].startswith("lambda1,")
