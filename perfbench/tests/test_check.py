"""The output check and the latency statistics."""

import copy
import dataclasses

import pytest

import check
import hostprobe
import run
import workloads


def _tiny_run(tmp_path, reference):
    """One round of the first certify slot, n = 1 with an alpha*e1 member."""
    full = workloads.WORKLOADS["certify"]
    with hostprobe.Sampler() as sampler:
        return run.run_workload(
            run.import_cli(), dataclasses.replace(full, slots=full.slots[:1]), 1, 0.01, False,
            reference, tmp_path, sampler,
        )


def test_corrupted_exact_reference_is_caught(tmp_path):
    reference = copy.deepcopy(run.load_reference())
    result, _ = _tiny_run(tmp_path, reference)
    assert result["correct"] and result["failed"] == 0
    for k in reference:
        if k.startswith("certify:n1-e1#1/") and "stdout_sha256" in reference[k]:
            digest = reference[k]["stdout_sha256"]
            reference[k]["stdout_sha256"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    result, report = _tiny_run(tmp_path, reference)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert all("stdout differs" in m for m in report["mismatches"])


def test_spectrum_coordinates_are_compared_within_tolerance():
    stdout = "sigma_Q: 1 point(s), bound 4\n  lam = (1.5, -2)  mu = (0.25, 0)  residual = 1.000e-15\n"
    expected = {"input": "x", **check.outcome("spectrum", 0, stdout)}
    close = stdout.replace("1.5,", "1.50000000001,").replace("1.000e-15", "3.000e-14")
    far = stdout.replace("1.5,", "1.5001,")
    assert check.mismatch(expected, "x", check.outcome("spectrum", 0, close)) is None
    assert "coordinate" in check.mismatch(expected, "x", check.outcome("spectrum", 0, far))
    assert "exit" in check.mismatch(expected, "x", check.outcome("spectrum", 3, stdout))
    fewer = stdout.replace("1 point(s)", "0 point(s)")
    assert check.mismatch(expected, "x", check.outcome("spectrum", 0, fewer)) is not None
    assert check.mismatch(expected, "y", check.outcome("spectrum", 0, stdout)) is not None


def test_non_convergence_and_crashes_are_failures():
    assert check.is_failure(3)
    assert check.is_failure("SystemExit(2)")
    assert check.is_failure("OverflowError: int too large")
    assert not check.is_failure(0) and not check.is_failure(1)


@pytest.mark.parametrize("n", [56, 70, 288])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n):
    values = [float(v) for v in range(n)]
    p = run.tail_percentile(n)
    assert sum(v > run.percentile(values, p) for v in values) >= run.TAIL_BEYOND
    assert sum(v > run.percentile(values, p + 1) for v in values) < run.TAIL_BEYOND
