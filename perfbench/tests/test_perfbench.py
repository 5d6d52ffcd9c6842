"""Tests of the benchmark's own code: span arithmetic, tracer, checks, seeds.

    python3 -m pytest perfbench/tests -q
"""
import math
import os
import shutil
import sys
import threading
import time
import types

import pytest

from run import (KERNEL_REF_S, KERNEL_SAMPLES, at_reference_speed, kernel_samples,
                 tail_percentile)
from squidring.config import parse_config
from tracer import EXPERIMENTS, Tracer, layer_totals, union_length
from workloads import REFERENCE_DIR, WORKLOADS, compare_csv, parse_summary

MAIN, W1, W2 = 1, 2, 3


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == 4


def test_self_time_of_nested_spans():
    spans = [
        (EXPERIMENTS, 0.0, 10.0, None),   # 0
        ("x", 1.0, 4.0, 0),               # 1
        ("y", 2.0, 3.0, 1),               # 2
        ("x", 5.0, 9.0, 0),               # 3
    ]
    totals = layer_totals({MAIN: spans}, MAIN)
    assert totals[EXPERIMENTS]["self_s"] == pytest.approx(3.0)
    assert totals["x"] == {"calls": 2, "self_s": pytest.approx(6.0)}
    assert totals["y"] == {"calls": 1, "self_s": pytest.approx(1.0)}
    assert totals[EXPERIMENTS]["overlap"] == pytest.approx(1.0)


def test_nested_experiments_spans_count_wall_once():
    spans = [(EXPERIMENTS, 0.0, 10.0, None), (EXPERIMENTS, 2.0, 6.0, 0), ("x", 3.0, 4.0, 1)]
    totals = layer_totals({MAIN: spans}, MAIN)
    assert totals[EXPERIMENTS]["self_s"] == pytest.approx(9.0)
    assert totals[EXPERIMENTS]["overlap"] == pytest.approx(1.0)


def test_self_time_of_threaded_spans():
    main = [(EXPERIMENTS, 0.0, 10.0, None), ("x", 8.0, 9.0, 0)]
    w1 = [("x", 1.0, 2.0, None), ("x", 3.0, 4.0, None)]
    w2 = [("y", 1.0, 3.0, None), ("z", 1.5, 2.5, 0), ("y", 5.0, 6.0, None)]
    totals = layer_totals({MAIN: main, W1: w1, W2: w2}, MAIN)
    # workers are busy over [1, 4] and [1, 6]; the main thread waits there
    main_self = 10 - 1 - 5
    worker_gaps = (3 - 2) + (5 - 3)
    assert totals[EXPERIMENTS]["self_s"] == pytest.approx(main_self + worker_gaps)
    assert totals["x"] == {"calls": 3, "self_s": pytest.approx(3.0)}
    assert totals["y"] == {"calls": 2, "self_s": pytest.approx(2.0)}
    assert totals["z"] == {"calls": 1, "self_s": pytest.approx(1.0)}
    # busy: main 10 - 5, workers 3 + 5, over 10 s of wall time
    assert totals[EXPERIMENTS]["overlap"] == pytest.approx(1.3)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner(delay):
        time.sleep(delay)

    def outer(delay):
        mod.inner(delay)
        time.sleep(delay)

    def counted():
        return 7

    mod.inner, mod.outer, mod.counted = inner, outer, counted
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


def test_tracer_nests_spans_per_thread(fake_module):
    tracer = Tracer((("fake_layers", "outer", EXPERIMENTS, True),
                     ("fake_layers", "inner", "inner", True),
                     ("fake_layers", "counted", "counted", False)))
    tracer.install()
    try:
        fake_module.counted()
        threads = [threading.Thread(target=fake_module.outer, args=(0.02,)) for _ in range(3)]
        for t in threads:
            t.start()
        fake_module.outer(0.02)
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    finally:
        tracer.uninstall()
    assert fake_module.counted() == 7 and not hasattr(fake_module.counted, "__wrapped__")
    report = tracer.report()
    assert report["inner"]["calls"] == 4
    assert report["counted"] == {"calls": 1}
    # every inner span nested in its own thread's outer span
    assert 0.07 < report["inner"]["self_s"] < 0.5
    assert 0.005 < report[EXPERIMENTS]["self_s"] < 0.5
    assert tracer.missing == []


def test_missing_target_is_absent(fake_module):
    tracer = Tracer((("fake_layers", "inner", "inner", True),
                     ("fake_layers", "gone", "gone", True),
                     ("fake_layers", "Gone.method", "gone", True)))
    tracer.install()
    fake_module.inner(0.0)
    tracer.uninstall()
    assert tracer.missing == ["fake_layers.gone", "fake_layers.Gone.method"]
    report = tracer.report()
    assert "gone" not in report and report["inner"]["calls"] == 1


def test_tracer_targets_exist():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []


def test_checker_accepts_reference_and_rejects_perturbed_csv(tmp_path):
    sweep = WORKLOADS["sweep"]
    for name in ("sweep.csv", "summary.txt"):
        shutil.copy(REFERENCE_DIR / "sweep" / name, tmp_path / name)
    assert sweep.check(tmp_path, seed=0) == []

    path = tmp_path / "sweep.csv"
    lines = path.read_text().splitlines()
    cells = lines[100].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    lines[100] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    errors = sweep.check(tmp_path, seed=0)
    assert len(errors) == 1 and "row 99" in errors[0] and "avg_E_e" in errors[0]
    # other seeds skip the reference but keep the physics checks
    assert sweep.check(tmp_path, seed=1) == []


def test_checker_compares_every_stride_row(tmp_path):
    ref = tmp_path / "ref.csv"
    ref.write_text("t,x\n0,1.0\n2,1.5\n")
    out = tmp_path / "out.csv"
    out.write_text("t,x\n0,1.0\n1,99\n2,1.5000000000001\n")
    assert compare_csv(ref, out, stride=2) == []
    out.write_text("t,x\n0,1.0\n1,99\n2,1.50001\n")
    assert compare_csv(ref, out, stride=2) != []
    out.write_text("t,x\n0,1.0\n1,99\n")
    assert compare_csv(ref, out, stride=2) != []


def test_physics_checks_reject_broken_summaries(tmp_path):
    text = (REFERENCE_DIR / "sweep" / "summary.txt").read_text()
    assert parse_summary(text)[""]["centers"] == [0.42864, 0.57136]
    ramp = WORKLOADS["ramp"]
    (tmp_path / "ramp.csv").write_text("t\n")
    summary = (REFERENCE_DIR / "ramp" / "summary.txt").read_text()
    (tmp_path / "summary.txt").write_text(summary.replace("ent_mag_mean: 0.69", "ent_mag_mean: 0.59"))
    assert any("ent_mag_mean" in e for e in ramp.check(tmp_path, seed=1))

    diss = WORKLOADS["dissipative"]
    for path in (REFERENCE_DIR / "dissipative").iterdir():
        shutil.copy(path, tmp_path / path.name)
    assert diss.check(tmp_path, seed=1) == []
    sections = parse_summary((tmp_path / "summary.txt").read_text())
    weak, strong = sections["1e-05"]["ent_mag_mean"], sections["0.0001"]["ent_mag_mean"]
    swapped = (tmp_path / "summary.txt").read_text().replace(weak, "W").replace(strong, weak)
    (tmp_path / "summary.txt").write_text(swapped.replace("W", strong))
    assert diss.check(tmp_path, seed=1) != []


def test_seed_zero_is_the_default_config():
    for workload in WORKLOADS.values():
        assert workload.config(0) == {}
        assert parse_config(workload.config(0)) == parse_config({})


def test_other_seeds_change_physical_values_only():
    default = parse_config({})
    for workload in WORKLOADS.values():
        configs = [parse_config(workload.config(seed)) for seed in range(1, 21)]
        assert workload.config(7) == workload.config(7)
        assert len({repr(c) for c in configs}) == len(configs)
        for cfg in configs:
            assert cfg.truncation == default.truncation
            assert cfg.integrator == default.integrator
            assert cfg.output == default.output
            assert cfg.ramp.t0 == default.ramp.t0 and cfg.ramp.t_end == default.ramp.t_end
            assert cfg.ramp_config().resolved_t_end == default.ramp_config().resolved_t_end
            assert (cfg.sweep.points, cfg.sweep.tau, cfg.sweep.sample_dt) == (
                default.sweep.points, default.sweep.tau, default.sweep.sample_dt)
            assert len(cfg.bath.gammas) == len(default.bath.gammas)


def test_tail_percentile_leaves_ten_samples_above():
    assert tail_percentile([1.0] * 10) is None
    values = [float(i) for i in range(1, 21)]
    p, value = tail_percentile(values)
    assert p == 50 and sum(v > value for v in values) == 10
    p, value = tail_percentile([float(i) for i in range(1, 12)])
    assert p == 9 and value == 1.0
    assert math.isclose(tail_percentile([float(i) for i in range(100)])[1], 89.0)


def test_at_reference_speed_scales_the_median_by_machine_speed():
    # the kernel takes twice the reference on average: half speed
    kernel = [3 * KERNEL_REF_S, 2 * KERNEL_REF_S, 1 * KERNEL_REF_S]
    assert at_reference_speed([6.0, 5.0, 9.0], kernel) == pytest.approx(3.0)
    assert at_reference_speed([4.0], [KERNEL_REF_S]) == pytest.approx(4.0)


def test_kernel_samples_restore_the_cpu_affinity():
    before = os.sched_getaffinity(0)
    times = kernel_samples()
    assert len(times) == KERNEL_SAMPLES and all(t > 0 for t in times)
    assert os.sched_getaffinity(0) == before
