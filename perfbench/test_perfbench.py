"""Checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench -q

The counter tests run each workload's traced pass at the committed seed
(about two minutes in all) and require every work counter to equal the
committed value: the counters are host-independent, so any difference
means the program did different work.
"""

import json
import shutil
import subprocess
import sys

import pytest

from pools import (
    COPIES,
    ROOT,
    SWEEP_STRATA,
    WORKLOADS,
    all_designs,
    draw_list,
    load_json,
    pool,
    rerun_list,
)

sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counters_repeat_exactly(workload):
    committed = load_json("counters.json")[workload]
    metrics, counters, tally = run.collect_counters(workload, committed["seed"])
    assert tally.failed == 0, tally.failures
    assert counters == committed["counters"]
    if workload == "sweep-rerun":
        return
    # Self times partition the traced design spans exactly.
    recorder = layers.SpanRecorder()
    spans_path = run.OUT / f"spans-{workload}-seed{committed['seed']}.jsonl"
    with open(spans_path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            recorder.spans.append(
                [row["name"], row["start"], row["end"], row["parent"], row["design"]]
            )
    own = recorder.self_times()
    covered = sum(own.get(layer, 0.0) for layer in layers.EXPLORE_LAYERS)
    assert covered == pytest.approx(recorder.total("engine"), rel=1e-9)
    assert metrics["trace.overhead_frac"] < 0.5


def test_lists_hold_every_entry_and_repeat_per_seed():
    for workload in WORKLOADS:
        designs = draw_list(workload, 7)
        assert designs == draw_list(workload, 7)
        for design in pool(workload):
            assert designs.count(design) == COPIES[workload]
    warm = rerun_list(7)
    edited = [d for d in warm if d.deadline is not None]
    assert len(edited) == len(SWEEP_STRATA)
    assert warm == rerun_list(7)


def test_every_design_has_an_expected_optimum():
    expected = load_json("expected.json")
    for design in all_designs():
        assert design.name in expected
        if design.case == "rpl":
            assert expected[design.name]["monolithic_cost"] == expected[design.name]["cost"]


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(60)]
    value, percentile, beyond = run.tail(samples, list_length=60)
    assert value == 49.0 and beyond == 10
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100 * 50 / 60)
    # Lists too short for a tail above the median report the median.
    assert run.tail([3.0, 1.0, 2.0], list_length=3)[:2] == (2.0, 50.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cut-growth",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
