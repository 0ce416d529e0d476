"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

* a tiny-size smoke run of every workload, untraced and traced, checks
  that the last output line is the result object and that it names every
  metric of ``BENCHMARK.json`` with its unit;
* deliberately broken results — an infeasible mapping, a tampered
  journal tail — must trip the checks;
* the ladder's walk, its backlog-growth test and the scaling of the
  timings by the local speed factor behave as documented;
* without the program sources the command fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from repro.steady_state.mapping import Mapping  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", trace,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace == "0":
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
    digests = [
        line.split()[-1]
        for line in proc.stdout.splitlines()
        if line.startswith("# digest")
    ]
    assert len(set(digests)) == 1  # traced == untraced decisions


def test_infeasible_mapping_fails_its_check():
    job = workloads.make_jobs(3, 1)[0]
    # Every task on one SPE overflows its local store.
    crowded = Mapping(
        job.graph,
        workloads.PLATFORM,
        {name: 1 for name in job.graph.task_names()},
    )
    assert isinstance(workloads.check_mapping(crowded), str)
    solved = workloads.solve(job)
    assert workloads.check_mapping(solved) > 0.0


def test_tampered_journal_tail_fails_recovery(tmp_path):
    events = workloads.fault_timeline(5, 40, 2.5, 1)
    cut = 21
    (crash,) = workloads.make_crash_images(events, [cut], tmp_path / "crash")
    expected = workloads.report_decisions(
        workloads.service_scheduler().run(events[:cut])
    )
    errors = []
    workloads.recover_and_check(crash, tmp_path / "ok", expected, errors)
    assert errors == []

    journal = crash / "journal.jsonl"
    lines = journal.read_text().splitlines()
    last = json.loads(lines[-1])
    last["event"]["time"] += 0.5
    lines[-1] = json.dumps(last)
    journal.write_text("\n".join(lines) + "\n")
    workloads.recover_and_check(crash, tmp_path / "bad", expected, errors)
    assert errors and "differs" in errors[0]


def staircase(meets, start):
    """Walk the ladder; returns (rates tried, mean staircase rate)."""
    tried = []

    def record(rate):
        tried.append(rate)
        return meets(rate)

    n = workloads.walk_ladder(record, start)
    return tried, (sum(tried[-n:]) / n if n else None)


def test_ladder_staircase_settles_on_the_capacity():
    capacity = 217.0
    step = workloads.LADDER_STEP

    def meets(rate):
        return rate <= capacity

    tried, rate = staircase(meets, 150.0)
    assert tried[0] <= 150.0 < tried[0] * step
    # After the climb, the staircase alternates across the capacity.
    for r in tried[-workloads.STAIRCASE_STEPS :]:
        assert capacity / step < r < capacity * step
    assert capacity / step < rate < capacity * step
    # Starting above the capacity, the walk comes down to it.
    assert staircase(meets, 1000.0)[1] == pytest.approx(rate)
    # A chance miss below the capacity ends the climb early; the
    # staircase climbs on from there.
    fluke = workloads.ladder_rung(5)
    missed = []

    def flaky(rate):
        if rate == fluke and not missed:
            missed.append(rate)
            return False
        return meets(rate)

    tried, rate = staircase(flaky, workloads.LADDER_START)
    assert missed and max(tried) > capacity
    assert abs(rate - capacity) / capacity < 0.1
    # No rung met: no staircase.
    assert staircase(lambda rate: False, 150.0)[1] is None


def test_backlog_growth_is_a_trend_not_a_bump():
    assert not workloads.backlog_grows([0] * 50)
    # Builds in a heavy stretch, then drains: not growing.
    assert not workloads.backlog_grows([min(i, 60 - i) // 2 for i in range(61)])
    # One request in ten stays queued: growing.
    assert workloads.backlog_grows([i // 10 for i in range(100)])


def test_timings_are_scaled_by_the_local_speed_factor():
    import stats

    probe = stats.SpeedProbe()
    nominal = stats.REFERENCE_KERNEL_S
    # A fast second, then a second at half speed.
    probe.samples = [(t / 100, nominal) for t in range(100)] + [
        (10 + t / 100, 2 * nominal) for t in range(100)
    ]
    probe._times = [t for t, _s in probe.samples]
    assert probe.scaled(0.5, 0.01) == pytest.approx(0.01)
    assert probe.scaled(10.5, 0.01) == pytest.approx(0.005)
    # Far from every sample: the nearest ones are used.
    assert probe.scaled(30.0, 0.01) == pytest.approx(0.005)
    # A region over both states is slowed by their mean.
    probe.samples = [(t / 100, nominal * (1 + t % 2)) for t in range(100)]
    probe._times = [t for t, _s in probe.samples]
    assert probe.scaled(0.4, 0.2) == pytest.approx(0.2 / 1.5)


def test_end_to_end_keeps_the_measured_value_in_the_note():
    import run
    import stats

    result = workloads.Result(
        op_s=[0.01, 0.02, 0.03], ops_per_s=50.0, attempted=3, failed=0,
        digest="", measured={"ops_per_s": 25.0},
    )
    rows = run.end_to_end(result, (0.5, 1.0), stats)
    assert rows["setup_s"][0] == 0.5 and "measured 1" in rows["setup_s"][2]
    assert rows["ops_per_s"][0] == 50.0 and "measured 25" in rows["ops_per_s"][2]
    assert rows["op_ms.p50"][0] == pytest.approx(20.0)
    assert rows["ok_share"][0] == 1.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = run_bench(
        "--workload", "search", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert not any(
        line.startswith("{") for line in proc.stdout.splitlines()
    )
