"""Child process of the benchmark: set up one workload, then run or trace it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE --workdir DIR

Modes:
  setup  import primepot.cli, do the workload's set-up in the program,
         print READY, exit.
  run    after READY, a closed loop with one caller: the next operation starts
         when the previous one has returned and its result has been checked;
         whole input cycles run until S seconds have passed.
  trace  after READY, run the first input cycle untraced, then again with spans
         around the program's public functions, then one smallest-size
         operation of every other workload so that each layer is measured.

Protocol on stdout: one ``READY {...}`` line once set-up is done, then one
``CALIBRATION {...}`` line with the machine speed right after set-up, and for
run/trace one ``RESULT {...}`` line at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

t_imports = time.perf_counter()
import primepot  # noqa: E402

t_cli = time.perf_counter()
import primepot.cli  # noqa: E402,F401

t_done = time.perf_counter()
IMPORT_TIMES = {"primepot.import_s": t_cli - t_imports, "cli.import_s": t_done - t_cli}

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import WORKLOADS, plane_bytes  # noqa: E402

KERNEL_REPEATS = 3
CAL_ROW = np.linspace(0.0, 1.0, 33)
CAL_WAVE = np.exp(1j * np.linspace(0.0, 1.0, 64))


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def environment(seed: int) -> dict:
    def read(path):
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.partition(":")[2].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in ("index2", "index3"):
        caches[f"L{read(f'{base}/{index}/level')}"] = read(f"{base}/{index}/size")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": primepot.backend_name(),
        "seed": seed,
        "holo_plane_bytes": {f"m{m}": plane_bytes(m) for m in (64, 256)},
    }


def _small_array_loop():
    total = 0.0
    for i in range(3000):
        total += float((CAL_ROW * 1.0001 + 0.5)[i % CAL_ROW.size])


def _complex_array_loop():
    m = CAL_WAVE
    for _ in range(400):
        k = np.sqrt(m * 0.999 + 0.1)
        m = np.exp(0.01j * k) * m
        m = m / np.abs(m).max()


def _scalar_loop():
    u, v = 1.0, 0.0
    for _ in range(20000):
        u, v = u + 0.001 * v, v + 0.0005 * u


CAL_LOOPS = (_small_array_loop, _complex_array_loop, _scalar_loop)


def calibration_s() -> float:
    """Geometric mean over three fixed loops of the faster of two timed runs each.

    The loops stand for the program's kinds of code (small float arrays,
    small complex arrays, scalar arithmetic) without calling it. Timed between
    operations, they tell how fast a host whose speed drifts in phases of a
    few seconds ran around each operation.
    """
    logs = 0.0
    for loop in CAL_LOOPS:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            loop()
            best = min(best, time.perf_counter() - t0)
        logs += math.log(best)
    return math.exp(logs / len(CAL_LOOPS))


def run_loop(wl, seconds: float, calibration: list) -> dict:
    """Whole cycles until `seconds` have passed; `calibration` holds the one taken before.

    Each result is checked as soon as its operation returns, outside the
    timed call and before the next operation can overwrite its files.
    """
    durations, outcomes = [], []
    start = time.perf_counter()
    for cycle in wl.cycles():
        for op in cycle:
            t0 = time.perf_counter()
            result = wl.run(op)
            durations.append(time.perf_counter() - t0)
            outcomes.append(wl.check(op, result))
            calibration.append(calibration_s())
        if time.perf_counter() - start >= seconds:
            break
    summary = summarize(wl, outcomes)
    summary["durations"] = durations
    summary["calibration"] = calibration
    summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return summary


def summarize(wl, outcomes) -> dict:
    final = wl.finish()
    fingerprints: dict[str, float] = {}
    for out in outcomes + [final]:
        for key, value in out.fingerprints.items():
            fingerprints[key] = max(fingerprints.get(key, value), value)
    return {
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "unexpected": [o.detail for o in outcomes if not o.ok and not o.known],
        "known": [o.detail for o in outcomes if not o.ok and o.known],
        "final_ok": final.ok,
        "final_detail": final.detail,
        "fingerprints": fingerprints,
        **wl.report(),
    }


def one_pass(cls, seed, workdir, smallest=False):
    """Build the workload and run its first cycle, checking each result as it returns."""
    wl = cls(seed, workdir, smallest=smallest)
    return wl, [wl.check(op, wl.run(op)) for op in next(wl.cycles())]


def kernel_reference() -> dict:
    """The two kernel micro-timings: Riccati sweep on primes:10, 400-energy transfer scan."""
    from primepot import _kernels
    from primepot.grid import default_grid
    from primepot.sequences import first_primes
    from primepot.susy import KINETIC_HALF, design_potential

    c = KINETIC_HALF
    grid = default_grid(12.0, 0.005)
    pot = design_potential(first_primes(10), grid)
    q = (pot.values[grid.center_index :] - pot.asymptote + 27.0) / (c * c)
    wide = default_grid(6.0, 0.0025)
    v = np.where(np.abs(wide.x) < 4.0, 20.0 - 18.0 * np.cos(1.5 * wide.x) ** 2, 0.0)
    cells = 0.5 * (v[:-1] + v[1:])
    energies = np.linspace(0.5, 25.0, 400)

    def median_time(fn, *args):
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return {
        "kernels.riccati_sweep.ref_s": median_time(_kernels.riccati_sweep, q, grid.spacing, c),
        "kernels.transfer_scan.ref_s": median_time(
            _kernels.transfer_scan, cells, wide.spacing, energies, c, 0.0
        ),
    }


def trace(cls, seed: int, workdir: Path, smallest: bool) -> dict:
    import spans

    t0 = time.perf_counter()
    one_pass(cls, seed, workdir, smallest)
    untraced_s = time.perf_counter() - t0

    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.region("workload") as root:
            wl, outcomes = one_pass(cls, seed, workdir, smallest)
        with tracer.region("reference") as reference:
            for other in WORKLOADS.values():
                if other is not cls:
                    one_pass(other, 0, workdir, smallest=True)
    finally:
        tracer.uninstall()
    tracer.write(workdir.parent / f"trace-{cls.name}-seed{seed}.json")

    summary = summarize(wl, outcomes)
    own = spans.layer_metrics(list(spans.descendants(root)))
    ref = spans.layer_metrics(list(spans.descendants(reference)))
    metrics = {**ref, **own, **kernel_reference()}
    summary["notes"] = {
        name: ("workload" if name in own else "reference") + (", computed" if name in spans.COMPUTED else "")
        for name in {**ref, **own}
    }
    table = spans.self_time_table(root)
    metrics.update(
        {
            "trace.wall_s": root.duration,
            "trace.untraced_s": untraced_s,
            "trace.overhead_s": root.duration - untraced_s,
            "trace.remainder_s": table["remainder"],
            "trace.spans": len(tracer.spans),
        }
    )
    summary["metrics"] = metrics
    summary["self_time"] = table
    summary["layer_self_time"] = spans.layer_roll_up(root)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smallest", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls = WORKLOADS[args.workload]
        wl = cls(args.seed, workdir, smallest=args.smallest)
        emit("READY", IMPORT_TIMES)
        after_setup = calibration_s()
        emit("CALIBRATION", {"s": after_setup})
        if args.mode == "setup":
            return 0
        if args.mode == "run":
            result = run_loop(wl, args.seconds, [after_setup])
        else:
            result = trace(cls, args.seed, workdir, args.smallest)
        result["env"] = environment(args.seed)
        emit("RESULT", result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
