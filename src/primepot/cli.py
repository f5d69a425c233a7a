"""Command-line interface wiring every subsystem.

Exit codes: 0 success; 1 when the failure, or the failed pipeline stage's
cause, is bad input (``pipeline.INPUT_FAILURES``); 2 on any other of
``pipeline.RUN_FAILURES`` and when `solve --targets` or `pipeline` misses a
target level, and on an argparse usage error, a bad line of an ``@FILE``
included; 141 when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .eigensolver import bound_states, compare_spectrum
from .grid import PotentialGrid
from .hologram import intensity_to_potential, read_intensity_csv
from .pipeline import (
    INPUT_FAILURES,
    RUN_FAILURES,
    PipelineConfig,
    PipelineStageError,
    design_sequence,
    parse_sequence_spec,
    run_pipeline,
    synthesize_hologram,
    write_json,
)
from .scattering import (
    DEFAULT_LEVEL_COUNT,
    SCAN_STEP_LIMIT,
    build_filter_apparatus,
    filter_lucky_prime,
    transmission_scan,
)
from .semiclassical import DENSITY_FLOOR, invert_to_potential, prime_density_of_states, profile_to_potential
from .sequences import counting_estimates, first_lucky, first_primes, sieve_lucky, sieve_primes
from .susy import KINETIC_HALF
from .units import PhysicalContext, energy_scale

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a tool that signal ends


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_list(args) -> int:
    values = args.sieve(args.limit) if args.limit is not None else args.first(args.count)
    for v in values:
        print(int(v))
    return EXIT_OK


def _cmd_pi(args) -> int:
    est = counting_estimates(args.x)
    _print_json(est.as_dict())
    return EXIT_OK


def _cmd_design(args) -> int:
    _, pot = design_sequence(args.levels, args.half_width, args.spacing)
    pot.write_csv(args.out)
    print(f"wrote {args.out} ({pot.grid.points} nodes, asymptote {pot.asymptote})")
    return EXIT_OK


def _cmd_solve(args) -> int:
    pot = PotentialGrid.read_csv(args.potential)
    targets = parse_sequence_spec(args.targets) if args.targets else None
    spectrum = bound_states(pot, KINETIC_HALF, targets=targets)
    payload = {
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "continuum_edge": spectrum.continuum_edge,
        "targets": [],
    }
    if targets is not None:
        report = compare_spectrum(spectrum.eigenvalues, targets)
        payload["targets"] = targets.tolist()
        payload.update(report.as_dict())
    if args.json:
        write_json(args.json, payload)
    _print_json(payload)
    return EXIT_OK if targets is None or report.all_round else EXIT_NUMERICAL


def _cmd_semiclassical(args) -> int:
    profile = invert_to_potential(prime_density_of_states, DENSITY_FLOOR, args.vmax, args.samples)
    pot = profile_to_potential(profile)
    pot.write_csv(args.out)
    print(f"wrote {args.out} ({pot.grid.points} nodes, edge {pot.asymptote})")
    return EXIT_OK


def _cmd_scatter(args) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if args.steps > SCAN_STEP_LIMIT:
        raise ValueError(f"--steps {args.steps} exceeds {SCAN_STEP_LIMIT:.0e}")
    for flag, energy in (("--emin", args.emin), ("--emax", args.emax)):
        if not np.isfinite(energy):
            raise ValueError(f"{flag} must be finite, got {energy}")
    pot = PotentialGrid.read_csv(args.potential)
    energies = np.linspace(args.emin, args.emax, args.steps)
    payload = transmission_scan(pot, energies)
    if args.json:
        write_json(args.json, payload)
        print(f"wrote {args.json} ({len(payload['resonances'])} resonances)")
    else:
        _print_json(payload)
    return EXIT_OK


def _cmd_filter(args) -> int:
    apparatus = build_filter_apparatus(lucky_count=args.lucky_count, prime_count=args.prime_count)
    result = filter_lucky_prime(args.w, apparatus)
    _print_json(result.as_dict())
    return EXIT_OK


def _cmd_holo_synth(args) -> int:
    paths = args.out.split(",")
    if len(paths) != 2 or not all(paths):
        raise ValueError(f"--out needs two comma-separated paths, phase,intensity; got {args.out!r}")
    phase_out, intensity_out = paths
    pot = PotentialGrid.read_csv(args.potential)
    holo = synthesize_hologram(pot, args.m, args.iters, args.seed)
    holo.write(phase_out, intensity_out, args.cost_out)
    print(
        f"wrote {phase_out}, {intensity_out}; iterations {holo.result.history.size - 1}, "
        f"SR intensity rms error {holo.sr_error:.4f}"
    )
    if holo.result.line_search_failed:
        print("warning: line search stalled; best-so-far returned", file=sys.stderr)
    return EXIT_OK


def _cmd_holo_extract(args) -> int:
    intensity, tmap = read_intensity_csv(args.intensity)
    intensity_to_potential(intensity, tmap).write_csv(args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_units(args) -> int:
    try:
        mass = float(args.mass)
    except ValueError:
        ctx = PhysicalContext.for_atom(args.mass, l=args.l, L=args.L)
    else:
        ctx = PhysicalContext(mass=mass, l=args.l, L=args.L)
    _print_json(energy_scale(ctx).as_dict())
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    report = run_pipeline(PipelineConfig(**{f.name: getattr(args, f.name) for f in fields(PipelineConfig)}))
    for target, value, flag in zip(
        report.targets, report.eigenvalues, report.report.rounds_to_target
    ):
        status = "ok" if flag else "MISS"
        print(f"target {target:g}: eigenvalue {value:.4f} [{status}]")
    print(f"report: {report.files['report']}")
    return EXIT_OK if report.all_round else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primepot",
        description="1D quantum potentials with prescribed integer spectra",
        fromfile_prefix_chars="@",  # @FILE: one argument per line
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("primes", help="list primes")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--limit", type=int)
    group.add_argument("--count", type=int)
    p.set_defaults(func=_cmd_list, sieve=sieve_primes, first=first_primes)

    p = sub.add_parser("lucky", help="list lucky numbers")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--limit", type=int)
    group.add_argument("--count", type=int)
    p.set_defaults(func=_cmd_list, sieve=sieve_lucky, first=first_lucky)

    p = sub.add_parser("pi", help="prime counting estimates at x")
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_cmd_pi)

    p = sub.add_parser("design", help="build a potential for a level sequence")
    p.add_argument("--levels", required=True, help="primes:N | lucky:N | file:path")
    p.add_argument("--half-width", type=float, default=PipelineConfig.half_width, dest="half_width")
    p.add_argument("--spacing", type=float, default=PipelineConfig.spacing)
    p.add_argument("--out", default="pot.csv")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("solve", help="bound states of a potential CSV")
    p.add_argument("potential")
    p.add_argument("--targets", help="primes:N | lucky:N | file:path")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("semiclassical", help="smooth prime potential by inversion")
    p.add_argument("--vmax", type=float, default=100.0)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--out", default="sc.csv")
    p.set_defaults(func=_cmd_semiclassical)

    p = sub.add_parser("scatter", help="transmission scan of a truncated potential")
    p.add_argument("potential")
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("filter", help="test whether w is both lucky and prime")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--lucky-count", type=int, default=DEFAULT_LEVEL_COUNT, dest="lucky_count")
    p.add_argument("--prime-count", type=int, default=DEFAULT_LEVEL_COUNT, dest="prime_count")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("holo", help="holographic synthesis and extraction")
    holo_sub = p.add_subparsers(dest="holo_command", required=True)
    ps = holo_sub.add_parser("synth", help="optimize a phase hologram for a potential")
    ps.add_argument("potential")
    ps.add_argument("--m", type=int, default=PipelineConfig.holo_m)
    ps.add_argument("--iters", type=int, default=PipelineConfig.holo_iters)
    ps.add_argument("--seed", type=int, default=PipelineConfig.seed)
    ps.add_argument("--out", default="phase.csv,intensity.csv")
    ps.add_argument("--cost-out", dest="cost_out")
    ps.set_defaults(func=_cmd_holo_synth)
    pe = holo_sub.add_parser("extract", help="read a potential back from an intensity row")
    pe.add_argument("intensity")
    pe.add_argument("--out", default="pot_rec.csv")
    pe.set_defaults(func=_cmd_holo_extract)

    p = sub.add_parser("units", help="dimensionless-to-physical energy scale")
    p.add_argument("--mass", required=True, help="atom key (rb87, ...) or mass in kg")
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--L", type=float, required=True)
    p.set_defaults(func=_cmd_units)

    p = sub.add_parser("pipeline", help="design -> (hologram) -> solve -> compare")
    # one flag per config field, defaulting to the field's default
    for f in fields(PipelineConfig):
        kind = {"action": "store_true"} if isinstance(f.default, bool) else {"type": type(f.default)}
        p.add_argument("--" + f.name.replace("_", "-"), default=f.default, **kind)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except BrokenPipeError:
        # no error line: the reader (`| head`) chose to stop. Exit's final
        # flush then writes to /dev/null, as in Python's SIGPIPE note
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except RUN_FAILURES as err:
        print(f"error: {err}", file=sys.stderr)
        cause = err.original if isinstance(err, PipelineStageError) else err
        return EXIT_VALIDATION if isinstance(cause, INPUT_FAILURES) else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
