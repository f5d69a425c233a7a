"""Cold-start timings of the primepot CLI, with an output fingerprint per command.

Each run is a fresh `python -m primepot` process in an empty working
directory, so the wall time includes interpreter start-up and every import
the subcommand pays for. A command that reads a file comes after the setup
commands that write it; they run first, untimed, in the same directory.
Given two source trees (for example a parent checkout's `src` and this
one's), the runs alternate between them and the side that goes first swaps
on every repeat.

The fingerprint of a run is its exit code and the sha256 of its stdout
followed by every file in its directory, setup outputs included. The script
exits 1 when a command exits nonzero, when one tree's fingerprint changes
between repeats, or when two trees print different fingerprints: a faster
start cannot hide a changed output.

    python tools/cold_cli.py                      # this checkout's src, 7 repeats
    python tools/cold_cli.py --repeats 11 ../parent/src src

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# each entry's commands run in order in one directory; the last is timed
COMMANDS = {
    "primes": [["primes", "--count", "100"]],
    "lucky": [["lucky", "--count", "100"]],
    "units": [["units", "--mass", "rb87", "--l", "20", "--L", "5e-4"]],
    "filter": [["filter", "--w", "7"]],
    "rejected": [["filter", "--w", "8"]],
    # a rejection decided by one search pass: the second would only revisit energies
    "filter_window": [["filter", "--w", "5"]],
    # an apparatus other than the default, whose spacing and w_max differ from it
    "filter15": [["filter", "--w", "7", "--lucky-count", "15", "--prime-count", "15"]],
    "design": [["design", "--levels", "primes:10", "--out", "pot.csv"]],
    # design, solve and report.json with no hologram: the design benchmark's operation
    "design_solve": [["pipeline", "--sequence", "primes:40", "--outdir", "."]],
    # every pipeline setting off its default, so each flag's conversion is fingerprinted
    "pipeline_flags": [
        [
            "pipeline", "--sequence", "lucky:8", "--half-width", "10", "--spacing", "0.01", "--hologram",
            "--holo-m", "52", "--holo-iters", "30", "--seed", "3", "--outdir", ".",
        ],
    ],
    "pi": [["pi", "--x", "1000"]],
    "semiclassical": [["semiclassical", "--out", "sc.csv"]],
    # the large-v_max regime, where the phi quadrature holds x(V) to a few ulp
    "semiclassical_wide": [["semiclassical", "--vmax", "1000", "--out", "sc.csv"]],
    "holo": [["pipeline", "--sequence", "primes:10", "--hologram", "--outdir", "."]],
    "holo256": [
        ["pipeline", "--sequence", "primes:10", "--hologram", "--holo-m", "256", "--holo-iters", "40", "--outdir", "."],
    ],
    "holo63": [
        ["pipeline", "--sequence", "primes:10", "--hologram", "--holo-m", "63", "--holo-iters", "200", "--outdir", "."],
    ],
    # an SR length above the 100-pixel floor (213 pixels)
    "holo_lucky20": [
        ["pipeline", "--sequence", "lucky:20", "--hologram", "--holo-m", "128", "--holo-iters", "200", "--outdir", "."],
    ],
    # 8 resonances above the semiclassical well's rim, through the peak finder
    "scatter": [
        ["semiclassical", "--out", "sc.csv"],
        ["scatter", "sc.csv", "--emin", "100.5", "--emax", "160", "--steps", "400", "--json", "scan.json"],
    ],
    # 5000 energies: one block of cells per step call, the scan's smallest span
    "scatter_wide": [
        ["semiclassical", "--out", "sc.csv"],
        ["scatter", "sc.csv", "--emin", "100.5", "--emax", "160", "--steps", "5000", "--json", "scan.json"],
    ],
    "solve": [
        ["design", "--levels", "primes:10", "--out", "pot.csv"],
        ["solve", "pot.csv", "--targets", "primes:10", "--json", "report.json"],
    ],
    # no targets: two Sturm counts on the full matrix size the window, and the
    # parity blocks take their shares from coarse brackets
    "solve_window": [
        ["design", "--levels", "primes:10", "--out", "pot.csv"],
        ["solve", "pot.csv", "--json", "report.json"],
    ],
    # no targets on a hologram read-back, which is not even: one full-grid block
    "solve_uneven": [
        ["pipeline", "--sequence", "primes:10", "--hologram", "--outdir", "."],
        ["solve", "potential_reconstructed.csv", "--json", "report.json"],
    ],
}


def cold_run(src: Path, commands: list[list[str]]) -> tuple[float, int, str]:
    """(wall seconds of the last command, exit code of the first that fails
    or of the last, sha256) of fresh `python -m primepot` runs of `commands`
    in one empty directory."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as cwd:
        for argv in commands:
            start = time.perf_counter()
            out = subprocess.run(
                [sys.executable, "-m", "primepot", *argv], cwd=cwd, env=env, capture_output=True
            )
            wall = time.perf_counter() - start
            if out.returncode:
                break
        digest = hashlib.sha256(out.stdout)
        for path in sorted(Path(cwd).iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    if out.returncode:
        sys.stderr.write(out.stderr.decode(errors="replace"))
    return wall, out.returncode, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    default_src = Path(__file__).resolve().parents[1] / "src"
    parser.add_argument("src", nargs="*", type=Path, help=f"one or two source trees (default {default_src})")
    parser.add_argument("--repeats", type=int, default=7, help="cold runs per command and tree")
    args = parser.parse_args(argv)
    srcs = [p.resolve() for p in args.src] or [default_src]
    if len(srcs) > 2 or args.repeats < 1:
        parser.error("give one or two source trees and --repeats >= 1")

    walls = {(name, src): [] for name in COMMANDS for src in srcs}
    prints = {(name, src): set() for name in COMMANDS for src in srcs}
    for repeat in range(args.repeats):
        for name, commands in COMMANDS.items():
            for src in srcs[repeat % 2 :] + srcs[: repeat % 2]:
                wall, code, sha = cold_run(src, commands)
                walls[name, src].append(wall)
                prints[name, src].add((code, sha))

    failed = False
    print(f"{'command':<18} {'tree':<2} {'median_s':>8}  exit  sha256 (stdout and files)")
    for name in COMMANDS:
        for i, src in enumerate(srcs):
            for code, sha in sorted(prints[name, src]):
                print(f"{name:<18} {'AB'[i]:<2} {statistics.median(walls[name, src]):8.3f}  {code:>4}  {sha[:16]}")
                failed |= code != 0
            if len(prints[name, src]) > 1:
                print(f"  {name}: tree {'AB'[i]} printed {len(prints[name, src])} fingerprints over {args.repeats} runs")
                failed = True
        if len(srcs) == 2 and prints[name, srcs[0]] != prints[name, srcs[1]]:
            print(f"  {name}: trees A and B differ")
            failed = True
    for i, src in enumerate(srcs):
        print(f"tree {'AB'[i]}: {src}")
    print(f"{args.repeats} cold runs per command and tree; {'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
