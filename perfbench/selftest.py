"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload at its smallest size with --trace 0 and --trace 1 and
   asserts that the last line is the JSON result with exactly the metrics of
   BENCHMARK.json, and that every metric name is printed with its unit.
2. Injects corrupted results (a shifted level, a flipped verdict, a rising
   cost history, a stretched semiclassical profile) through each workload's
   check and asserts that each counts as a failure; asserts that only the
   documented primes:40 level error counts as a known defect.
3. Asserts that the run loop and the traced pass check each result before
   the next operation runs.
4. Asserts that the benchmark exits nonzero without a result in a directory
   holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# printed on --trace 0 next to the BENCHMARK.json metrics
REPORTED = {
    "design": ["op_tail_s", "fail_frac", "max_level_err"],
    "filter": ["op_tail_s", "fail_frac", "unitarity_err"],
    "hologram": ["op_tail_s", "fail_frac", "max_level_err", "holo_final_cost", "holo_sr_err"],
    "semiclassical": ["op_tail_s", "fail_frac", "wkb_count_err"],
}


def run_smallest(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smallest"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    return proc.stdout.strip().splitlines()


def assert_printed(lines: list[str], name: str, unit: str) -> None:
    for line in lines:
        fields = line.split()
        if fields and fields[0] == name and len(fields) >= 3 and fields[2] == unit:
            float(fields[1])
            return
    raise AssertionError(f"metric {name} [{unit}] not printed")


def check_outputs() -> None:
    for workload in REPORTED:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            lines = run_smallest(workload, trace)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, f"{workload} trace={trace}: {lines}"
            assert result["attempted"] >= 1
            units = {m["name"]: m["unit"] for m in declared}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == units
            for name, unit in units.items():
                assert_printed(lines[:-1], name, unit)
            if trace == 0:
                for name in REPORTED[workload]:
                    assert any(line.split()[:1] == [name] and len(line.split()) >= 3 for line in lines[:-1]), name
            print(f"ok   {workload} trace={trace}: {len(units)} metrics printed with units")


def check_corruption() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np

    import worker
    from primepot.semiclassical import SemiclassicalProfile
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(0, workdir, smallest=True)
            op = next(wl.cycles())[0]
            result = wl.run(op)
            clean = wl.check(op, result)
            assert clean.ok, f"{name}: clean result fails its check"
            if name == "design":
                check_known_defects(wl, result, np)
            for label, bad in corruptions(name, result, np, SemiclassicalProfile):
                outcome = wl.check(op, bad)
                assert not outcome.ok and not outcome.known, f"{name}: {label} passed"
                tally = worker.summarize(wl, [clean, outcome])
                assert tally["failed"] == 1 and tally["unexpected"], f"{name}: {label} not counted"
                print(f"ok   {name}: {label} counts as a failure")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def corruptions(name, result, np, profile_cls):
    if name in ("design", "hologram"):
        shifted = np.array(result.eigenvalues, copy=True)
        shifted[-1] += 0.5
        yield "level shifted by 0.5", dataclasses.replace(result, eigenvalues=shifted)
    if name == "hologram":
        path = Path(result.files["cost_history"])
        history = json.loads(path.read_text())
        history[-1] = history[0] * 2.0
        path.write_text(json.dumps(history))
        yield "rising cost history", result
    if name == "filter":
        yield "flipped verdict", dataclasses.replace(result, is_lucky_prime=not result.is_lucky_prime)
    if name == "semiclassical":
        profile, potential = result
        stretched = profile_cls(
            v_values=profile.v_values,
            x_values=1.5 * profile.x_values,
            e0=profile.e0,
            kinetic_scale=profile.kinetic_scale,
        )
        yield "profile stretched by 1.5", (stretched, potential)


def check_known_defects(wl, result, np) -> None:
    """Only primes:40 at spacing 0.005 with an error near 0.064 is the known level defect."""
    from workloads import DESIGN_HALF_WIDTH, DesignInput, first_n

    cases = (
        ("primes:20", 0.005, 0.06, False),
        ("lucky:25", 0.005, 0.06, False),
        ("primes:40", 0.0025, 0.064, False),
        ("primes:40", 0.005, 0.2, False),
        ("primes:40", 0.005, 0.064, True),
    )
    for sequence, spacing, err, known in cases:
        kind, _, n = sequence.partition(":")
        targets = tuple(first_n(kind, int(n)))
        op = DesignInput(sequence, targets, DESIGN_HALF_WIDTH, spacing)
        shifted = np.asarray(targets, dtype=np.float64) + err
        outcome = wl.check(op, dataclasses.replace(result, eigenvalues=shifted))
        assert not outcome.ok and outcome.known is known, f"{sequence} at {spacing}, error {err}"
        print(f"ok   design: {sequence} at spacing {spacing}, error {err} counts as "
              f"{'known defect' if known else 'unexpected failure'}")


def check_order() -> None:
    """Each result is checked before the next operation runs, in the loop and the traced pass."""
    import worker
    from workloads import Outcome, Workload

    class Recorder(Workload):
        name = "recorder"
        calls: list = []

        def smallest_cycle(self):
            return [1, 2, 3]

        def run(self, op):
            self.calls.append(f"run {op}")
            return op

        def check(self, op, result):
            self.calls.append(f"check {result}")
            return Outcome(True)

    expected = [f"{step} {op}" for op in (1, 2, 3) for step in ("run", "check")]
    wl = Recorder(0, ROOT, smallest=True)
    worker.run_loop(wl, 0.0, [1.0])
    assert Recorder.calls == expected, Recorder.calls
    Recorder.calls.clear()
    worker.one_pass(Recorder, 0, ROOT, smallest=True)
    assert Recorder.calls == expected, Recorder.calls
    print("ok   run loop and traced pass check each result before the next operation")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0, "benchmark succeeded without the program's sources"
        assert '"correct"' not in proc.stdout, "benchmark printed a result without sources"
        print("ok   bare directory: exit code", proc.returncode, "and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_bare_directory()
    check_corruption()
    check_order()
    check_outputs()
    print("selftest passed")
