"""Tests of the benchmark's own arithmetic, generators and oracles.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import summary
import tracing
import workloads

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "n, q", [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
             (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert summary.tail_percentile(n) == q


def test_latency_summary_states_sample_count():
    values = list(range(1, 101))
    out = summary.latency_summary(values)
    assert out["n"] == 100 and out["p50"] == 50.5
    assert out["tail_q"] == 90.0 and out["tail"] == 90
    assert sum(v > out["tail"] for v in values) == 10
    assert "tail" not in summary.latency_summary(values[:19])


def test_percentile_is_nearest_rank():
    assert summary.percentile([5, 1, 3, 2, 4], 50.0) == 3
    assert summary.percentile([5, 1, 3, 2, 4], 99.9) == 5
    with pytest.raises(ValueError):
        summary.percentile([], 50.0)


def test_ratio_carries_its_base():
    assert summary.ratio(3, 12) == {"value": 0.25, "num": 3, "base": 12}
    assert summary.ratio(0, 0) == {"value": None, "num": 0, "base": 0}


def _spans(rows):
    """(sid, start, end, parent) rows -> span records with name 0 and run 0."""
    return np.array([(sid, 0, s, e, parent, 0) for sid, s, e, parent in rows], dtype=np.int64)


def test_self_time_subtracts_nested_children_once():
    spans = _spans([
        (1, 0, 100, 0),    # root
        (2, 10, 30, 1),    # child
        (3, 40, 90, 1),    # child with its own child
        (4, 50, 60, 3),    # grandchild: not subtracted from the root again
    ])
    assert tracing.self_times(spans).tolist() == [30, 20, 40, 10]


def test_self_time_counts_overlapping_children_as_a_union():
    # Two worker threads under one scan: [10, 60] and [40, 80] cover 70.
    spans = _spans([(1, 0, 100, 0), (2, 10, 60, 1), (3, 40, 80, 1), (4, 85, 95, 1)])
    assert tracing.self_times(spans).tolist() == [20, 50, 40, 10]


def test_self_time_of_empty_and_orphan_spans():
    assert tracing.self_times(np.zeros((0, 6), dtype=np.int64)).size == 0
    assert tracing.self_times(_spans([(5, 3, 9, 2)])).tolist() == [6]


def test_descendant_mask_walks_all_generations():
    spans = _spans([(1, 0, 100, 0), (2, 10, 30, 1), (3, 12, 20, 2), (4, 40, 50, 0)])
    inside = tracing.descendant_mask(spans, spans[:, 0] == 1)
    assert inside.tolist() == [False, True, True, False]


def test_install_wraps_every_binding_and_restores():
    def inner(x):
        return x + 1

    inner.__module__ = "pkg.low"

    def outer(x):
        return low.inner(x) * 2

    outer.__module__ = "pkg.high"
    low = types.ModuleType("pkg.low")
    low.inner = inner
    high = types.ModuleType("pkg.high")
    high.inner = inner  # a second binding of the same function
    high.outer = outer
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, [low, high], [inner, outer])
    assert high.inner is low.inner and low.inner is not inner
    tracer.run = 7
    assert high.outer(1) == 4
    assert high.inner(1) == 2
    undo()
    assert low.inner is inner and high.inner is inner and high.outer is outer
    spans = tracer.spans()
    names = [tracer.names[i] for i in spans[:, 1]]
    assert names == ["low.inner", "high.outer", "low.inner"]
    assert spans[0, 4] == spans[1, 0]  # inner's parent is outer
    assert spans[1, 4] == 0 and spans[2, 4] == 0
    assert set(spans[:, 5]) == {7}
    assert tracer.mask(spans, "low.inner").sum() == 2
    assert tracer.mask(spans, "never.ran").sum() == 0


def test_proxy_times_a_third_party_call_as_the_layer_makes_it():
    real = types.ModuleType("third")
    real.eig = lambda m: ("eig", m)
    real.other = 42
    layer = types.ModuleType("layer")
    layer.third = real
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, [], [], [(layer, "third", {"eig": "layer.third_eig"})])
    assert layer.third.eig(3) == ("eig", 3) and layer.third.other == 42
    undo()
    assert layer.third is real
    assert [tracer.names[i] for i in tracer.spans()[:, 1]] == ["layer.third_eig"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_generators_are_deterministic_in_the_seed(workload):
    a = json.dumps(workloads.generate(workload, 11), sort_keys=True)
    assert a == json.dumps(workloads.generate(workload, 11), sort_keys=True)
    assert a != json.dumps(workloads.generate(workload, 12), sort_keys=True)


def test_scan_inputs_respect_the_frequency_rules():
    eq = [p for rnd in workloads.generate("scan_equal_freq", 3)["rounds"] for p in rnd.values()]
    assert all(r["omega1"] == r["omega2"] for r in eq)
    det = workloads.generate("scan_detuned", 3)
    assert det["grid"]["l1_count"] == det["grid"]["l2_count"] == 101
    det = [p for rnd in det["rounds"] for p in rnd.values()]
    assert all(abs(r["omega1"] - r["omega2"]) >= 0.1 for r in det)
    for r in eq + det:
        for key in ("omega1", "kappa", "omega_c"):
            assert 0.75 <= r[key] <= 1.25


def test_states_rounds_have_a_fixed_mix_and_decaying_stable_points():
    gen = workloads.generate("states", 5)
    for rnd in gen["rounds"]:
        kinds = sorted(pt["kind"] for pt in rnd)
        assert kinds == sorted(["stable_detuned", "mixed1_partial", "marginal_equal",
                                "superradiant_equal"] * 2)
        for pt in rnd:
            p = pt["params"]
            if pt["kind"] == "stable_detuned":
                g = oracles.pole_growth(-1, -1, p["lambda1"], p["lambda2"], p["omega1"],
                                        p["omega2"], p["kappa"], p["omega_c"])
                assert g <= -0.08 and abs(p["omega1"] - p["omega2"]) >= 0.1
            if pt["kind"].endswith("_equal"):
                assert p["omega1"] == p["omega2"]


def test_pole_growth_matches_polynomial_roots():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w1, w2, k, wc, l1, l2 = rng.uniform(0.5, 1.5, 6)
        s1, s2 = rng.choice([-1, 1], 2)
        base = np.polymul(np.polymul([1, 2 * k, k * k + wc * wc], [1, 0, w1 * w1]), [1, 0, w2 * w2])
        drive = 4 * wc * (s1 * l1**2 * w1 * np.array([1, 0, w2 * w2])
                          + s2 * l2**2 * w2 * np.array([1, 0, w1 * w1]))
        want = np.roots(np.polyadd(base, drive)).real.max()
        got = oracles.pole_growth(s1, s2, l1, l2, w1, w2, k, wc)
        assert abs(got - want) < 1e-9


def test_mirror_missing_counts_unpaired_superradiant_states():
    def sol(y):
        return types.SimpleNamespace(state=types.SimpleNamespace(to_array=lambda: np.array(y, float)))

    a = [0.3, 0.3, 0.2, 0.0, -0.4, 0.1, 0.0, -0.45]
    mirror = [-0.3, -0.3, -0.2, 0.0, -0.4, -0.1, 0.0, -0.45]
    pole = [0, 0, 0, 0, -0.5, 0, 0, -0.5]
    assert oracles.mirror_missing([sol(a), sol(pole)]) == 1
    assert oracles.mirror_missing([sol(a), sol(mirror), sol(pole)]) == 0


def test_scan_oracle_passes_the_program_and_catches_a_flipped_verdict():
    dicke2 = pytest.importorskip("dicke2")
    from dataclasses import replace

    p = dicke2.ModelParams(omega1=0.9, omega2=0.9, kappa=1.1, omega_c=0.95)
    grid = dicke2.GridSpec(l1_count=9, l2_count=9)
    for phase in dicke2.Phase:
        res = dicke2.scan(phase, grid, p)
        assert oracles.check_scan(res, phase.signs, p, grid) == []
    cells = list(res.cells)
    k = next(i for i, c in enumerate(cells) if c.max_growth_rate > 1e-3)
    cells[k] = replace(cells[k], superradiant=False)
    problems = oracles.check_scan(replace(res, cells=cells), phase.signs, p, grid)
    assert any("verdict" in msg for msg in problems)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "states", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0 and res.stdout == ""


def test_typical_round_sums_per_slot_medians_of_adjusted_times():
    pytest.importorskip("dicke2")
    import benches

    rep = benches.Report()
    # Two slots over four rounds; slot 1 has two slowed requests.
    for r, (a, b) in enumerate([(1.0, 5.0), (1.2, 15.0), (1.1, 5.2), (0.9, 14.0)]):
        rep.slots += [0, 1]
        rep.latencies += [a, b]
        rep.adjusted += [a / 2, b / 2]
        rep.round_walls.append(a + b)
    assert benches.typical_round_s(rep, adjusted=False) == pytest.approx(1.05 + 9.6)
    assert benches.typical_round_s(rep) == pytest.approx((1.05 + 9.6) / 2)
    rep.work = 4 * 10.0
    metrics = benches.end_to_end(types.SimpleNamespace(peak_rss_mb=lambda: 1.0), rep, 0.5)
    assert metrics["adj_work_per_s"] == (pytest.approx(10.0 / 5.325), "1/s")


def test_gauge_adjusts_to_the_reference_speed():
    import gauge

    ref = gauge.REFERENCE_S
    # A host twice as slow as the reference halves the adjusted time.
    assert gauge.adjusted(1.0, [2 * ref] * 2, [2 * ref, 9 * ref]) == pytest.approx(0.5)
    assert gauge.adjusted(1.0, [ref], [ref]) == pytest.approx(1.0)
    passes = gauge.sample()
    assert len(passes) == gauge.PASSES and all(t > 0 for t in passes)


def test_spawner_reports_the_childs_own_exit_code_and_peak_rss(tmp_path):
    pytest.importorskip("dicke2")
    import os
    import resource

    import benches

    spawner = benches.Spawner(dict(os.environ))
    try:
        code, rss = spawner.run([sys.executable, "-S", "-c", "raise SystemExit(3)"], dict(os.environ),
                                tmp_path, tmp_path / "out", tmp_path / "err")
    finally:
        spawner.close()
    assert code == 3 and spawner.proc.returncode == 0
    # Started from this process, a bare interpreter would read as this process's size.
    assert 0 < rss < resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
