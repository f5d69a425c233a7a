"""primepot benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``.
Workloads (see ``workloads.py``): design, filter, hologram, semiclassical.

Every run starts three fresh interpreters that import ``primepot.cli`` and
do the workload's own set-up in the program (the filter apparatus); ``setup_s``
is the median time from spawn to ready. Inputs are generated later, a cycle at
a time, as the loop reaches them. The first two exit there; the third goes on:

* ``--trace 0`` runs the workload as a closed loop with one caller for S
  seconds and prints the end-to-end metrics of BENCHMARK.json. Set-up and
  operation times are rescaled to nominal machine speed with calibration
  loops timed after set-up and between operations (see README.md);
  wall-clock values are printed too.
* ``--trace 1`` runs the first input cycle untraced and then traced, plus one
  smallest-size operation of every other workload, and prints the per-layer
  metrics of BENCHMARK.json.

Every operation's result is checked; a wrong result counts in ``failed``.
``correct`` is false when a failure is not one of the documented known
defects, or a run-level check fails. The last line of stdout is the JSON
result; everything above it is the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("design", "filter", "hologram", "semiclassical")
SETUPS = 3
DEADLINE_S = 170.0  # the whole run, every child included, ends within this
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
# calibration time that defines nominal machine speed; it only sets the scale
# (about the median calibration time on a 2-vCPU Xeon KVM guest)
CAL_NOMINAL_S = 0.004

# printed after the BENCHMARK.json metrics, without a bound: the tail is the
# maximum of a few samples on most workloads, and the failure share and the
# correctness fingerprints are zero or undefined on some of them
REPORTED = {
    "op_tail_s": "s",
    "fail_frac": "1",
    "max_level_err": "1",
    "unitarity_err": "1",
    "holo_final_cost": "1",
    "holo_sr_err": "1",
    "wkb_count_err": "count",
}


class ChildFailed(RuntimeError):
    pass


def run_child(args, mode: str, workdir: Path, timeout: float):
    """Spawn one worker; return seconds to READY and the payload of each tagged line."""
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", str(workdir),
    ]
    if args.smallest:
        cmd.append("--smallest")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    deadline = start + timeout
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    payloads, ready_s, buf = {}, None, b""
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise ChildFailed(f"{mode} worker timed out after {timeout:.0f} s")
                if not sel.select(remaining):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    tag, _, payload = line.decode().partition(" ")
                    if tag == "READY" and ready_s is None:
                        ready_s = time.perf_counter() - start
                    if tag in ("READY", "CALIBRATION", "RESULT"):
                        payloads[tag] = json.loads(payload)
        proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or "CALIBRATION" not in payloads:
        raise ChildFailed(f"{mode} worker exited with code {proc.returncode}")
    return ready_s, payloads


def tail(durations):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND samples that percentile would sit under the median,
    so the maximum is reported instead (percentile 100).
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n >= 2 * TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return ordered[-1], 100.0


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def at_nominal_speed(durations, calibration):
    """Operation times rescaled to the speed at which the calibration loop takes CAL_NOMINAL_S.

    calibration[i] and calibration[i + 1] bracket operation i.
    """
    return [
        d * CAL_NOMINAL_S / (0.5 * (calibration[i] + calibration[i + 1]))
        for i, d in enumerate(durations)
    ]


def op_metrics(durations):
    tail_s, tail_pct = tail(durations)
    return {
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_s,
    }, tail_pct


def end_to_end(result: dict, setup_s: float):
    durations = at_nominal_speed(result["durations"], result["calibration"])
    ops, tail_pct = op_metrics(durations)
    raw, _ = op_metrics(result["durations"])
    attempted = result["attempted"]
    metrics = {
        "setup_s": setup_s,
        **ops,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "fail_frac": result["failed"] / attempted,
        **result["fingerprints"],
    }
    notes = {name: f"wall clock {fmt(value)}" for name, value in raw.items()}
    notes["op_tail_s"] += f"; p{tail_pct:.0f} of n={len(durations)}"
    notes["ops_per_s"] += f"; n={attempted}"
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="primepot benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smallest", action="store_true", help="smallest inputs (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "primepot" / "__init__.py").is_file():
        print(f"error: no primepot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    deadline = time.perf_counter() + DEADLINE_S
    setup_times, setup_nominal, imports, result = [], [], [], None
    try:
        for i in range(SETUPS):
            mode = "setup" if i < SETUPS - 1 else ("trace" if args.trace else "run")
            ready_s, payloads = run_child(args, mode, workdir, deadline - time.perf_counter())
            setup_times.append(ready_s)
            setup_nominal.append(ready_s * CAL_NOMINAL_S / payloads["CALIBRATION"]["s"])
            imports.append(payloads["READY"])
            result = payloads.get("RESULT")
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        print("error: worker printed no result", file=sys.stderr)
        return 1
    setup_s = statistics.median(setup_nominal)

    print(f"primepot benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    print(f"setup runs: {', '.join(f'{t:.4f}' for t in setup_times)} s wall clock, "
          f"{', '.join(f'{t:.4f}' for t in setup_nominal)} s at nominal speed")
    if args.trace:
        metrics = dict(result["metrics"])
        for key in ("primepot.import_s", "cli.import_s"):
            metrics[key] = statistics.median(r[key] for r in imports)
        notes = result["notes"]
    else:
        metrics, notes = end_to_end(result, setup_s)

    units = {m["name"]: m["unit"] for m in declared}
    shown = {**units, **{name: REPORTED[name] for name in metrics if name in REPORTED}}
    width = max(len(name) for name in shown)
    for name, unit in shown.items():
        value = metrics.get(name)
        note = f"  ({notes[name]})" if notes.get(name) else ""
        print(f"{name:<{width}}  {fmt(value) if value is not None else 'missing'} {unit}{note}")
    if args.trace:
        print_trace(result)
    else:
        print(f"failures: {result['failed']} of {result['attempted']}")
        for detail in result["known"]:
            print(f"  known defect: {detail}")
        for detail in result["unexpected"]:
            print(f"  UNEXPECTED: {detail}")
        if result.get("verdict_paths"):
            print(f"verdict paths: {json.dumps(result['verdict_paths'], sort_keys=True)}")
    if not result["final_ok"]:
        print(f"run-level check failed: {result['final_detail']}")

    missing = [name for name in units if metrics.get(name) is None]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    correct = not result["unexpected"] and result["final_ok"] and result["attempted"] >= 1
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def print_trace(result: dict) -> None:
    wall = result["metrics"]["trace.wall_s"]
    print(f"traced wall {wall:.4f} s, untraced {result['metrics']['trace.untraced_s']:.4f} s, "
          f"overhead {result['metrics']['trace.overhead_s']:+.4f} s")
    for title, table in (("self time by span", result["self_time"]),
                         ("self time by layer", result["layer_self_time"])):
        print(f"{title} (sum {sum(table.values()):.4f} s of {wall:.4f} s traced wall):")
        for name, value in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<40} {value:10.4f} s  {100.0 * value / wall:6.2f} %")
    layers = {k: v for k, v in result["layer_self_time"].items() if k != "remainder"}
    spans = {k: v for k, v in result["self_time"].items() if k != "remainder"}
    print(f"dominant layer: {max(layers, key=layers.get)}; dominant span: {max(spans, key=spans.get)}")


if __name__ == "__main__":
    sys.exit(main())
