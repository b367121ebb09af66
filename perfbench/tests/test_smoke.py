"""Tiny runs of every workload through the benchmark's own entry point."""

import dataclasses
import json

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# The smallest instance kinds of each workload.
TINY_SLOTS = {"certify": 3, "spectrum": 2, "operators": 1}


@pytest.fixture
def tiny(monkeypatch):
    for name, count in TINY_SLOTS.items():
        full = workloads.WORKLOADS[name]
        monkeypatch.setitem(
            workloads.WORKLOADS, name,
            dataclasses.replace(full, slots=full.slots[:count]),
        )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_SLOTS))
def test_run_prints_every_metric_with_its_unit(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_same_seed_same_tasks(tmp_path):
    workload = workloads.WORKLOADS["certify"]
    pool = workloads.Pool(workload, tmp_path)
    first = workloads.rounds(workload, pool, 3, 2)
    assert first == workloads.rounds(workload, pool, 3, 2)
    assert first != workloads.rounds(workload, pool, 4, 2)
    mix = sorted((t.slot, t.command) for t in first[0])
    assert mix == sorted((t.slot, t.command) for t in first[1])
    assert len(mix) == sum(len(slot.commands) for slot in workload.slots)


def test_run_length_is_fixed_work():
    assert workloads.round_count(0.01) == 1
    assert workloads.round_count(25) == workloads.POOL_SIZE


def test_every_pool_task_has_a_reference(tmp_path):
    reference = run.load_reference()
    for workload in workloads.WORKLOADS.values():
        pool = workloads.Pool(workload, tmp_path)
        for s in range(len(workload.slots)):
            for idx in range(workloads.POOL_SIZE):
                for task in pool.tasks(s, idx):
                    assert reference[task.key]["input"] == task.input_digest
