"""End-to-end reproduction pipeline: design, optional holography, verify.

A PipelineConfig round-trips losslessly through a flat key=value file; the
`pipeline` command has one flag per field, overriding the file. Settings no
run turns are module constants, such as ``susy.KINETIC_HALF`` and
``hologram.STEEPNESS``. Runs are deterministic for a fixed config and seed,
including the bytes of every artifact written.

Failure policy: ``RUN_FAILURES`` are the failures a run can meet, bad input
(``INPUT_FAILURES``: ValueError, OSError) and numerical breakdown
(ArithmeticError and RuntimeError, ``susy.ChainError`` among them). Any of
them raised inside one of the stages sequence, design, hologram and solve is
re-raised as a ``PipelineStageError`` that names the stage and keeps the
failure as ``original``. No file is written before every stage up to solve
has succeeded. The CLI exits 1 on an input failure and 2 on any other, with
or without a stage around it.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .eigensolver import DiscrepancyReport, bound_states, compare_spectrum
from .grid import DEFAULT_HALF_WIDTH, DEFAULT_SPACING, PotentialGrid, default_grid
from .hologram import (
    OptimizeResult,
    extract_profile,
    make_state,
    optimize_phase,
    potential_to_target,
    propagate,
    sr_intensity_error,
    write_intensity_csv,
    write_phase_csv,
)
from .sequences import first_lucky, first_primes
from .susy import KINETIC_HALF, design_potential

__all__ = [
    "INPUT_FAILURES",
    "RUN_FAILURES",
    "HologramRun",
    "PipelineConfig",
    "PipelineReport",
    "PipelineStageError",
    "design_sequence",
    "parse_sequence_spec",
    "run_pipeline",
    "synthesize_hologram",
    "write_json",
]

INPUT_FAILURES = (ValueError, OSError)
RUN_FAILURES = INPUT_FAILURES + (ArithmeticError, RuntimeError)


class PipelineStageError(RuntimeError):
    def __init__(self, stage: str, original: Exception):
        super().__init__(f"stage {stage!r} failed: {original}")
        self.stage = stage
        self.original = original


@contextmanager
def _stage(name: str):
    """Re-raise any of RUN_FAILURES as stage `name`'s PipelineStageError."""
    try:
        yield
    except RUN_FAILURES as err:
        raise PipelineStageError(name, err) from err


def parse_sequence_spec(spec: str) -> np.ndarray:
    """primes:N | lucky:N | file:path -> ascending level array."""
    kind, _, arg = spec.partition(":")
    if not arg:
        raise ValueError(f"sequence spec {spec!r} needs the form kind:argument")
    if kind == "primes":
        return first_primes(int(arg)).astype(np.float64)
    if kind == "lucky":
        return first_lucky(int(arg)).astype(np.float64)
    if kind == "file":
        with warnings.catch_warnings():  # an empty file fails below, on one error line
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            levels = np.atleast_1d(np.loadtxt(arg, dtype=np.float64))
        if levels.ndim != 1:
            raise ValueError(f"{arg}: levels must be one column or one line; got {levels.shape[1]} columns")
        if not np.all(np.isfinite(levels)):
            raise ValueError(f"{arg}: levels must be finite; got {levels[~np.isfinite(levels)].tolist()}")
        if levels.size < 2 or np.any(np.diff(levels) <= 0):
            raise ValueError(f"{arg}: levels must be at least two, strictly increasing")
        return levels
    raise ValueError(f"unknown sequence kind {kind!r} (use primes/lucky/file)")


_BOOLEANS = {"True": True, "true": True, "1": True, "False": False, "false": False, "0": False}


@dataclass
class PipelineConfig:
    sequence: str = "primes:10"
    half_width: float = DEFAULT_HALF_WIDTH
    spacing: float = DEFAULT_SPACING
    hologram: bool = False
    holo_m: int = 64
    holo_iters: int = 500
    seed: int = 1
    outdir: str = "pipeline_out"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for f in fields(self):
                fh.write(f"{f.name}={getattr(self, f.name)!r}\n")

    @classmethod
    def read(cls, path) -> "PipelineConfig":
        """Parse a file in ``write``'s format; an unknown key or an unreadable
        value raises ValueError."""
        kinds = {f.name: type(f.default) for f in fields(cls)}
        kwargs = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, text = (part.strip() for part in line.partition("="))
                kind = kinds.get(key)
                if kind is None:
                    raise ValueError(f"{path}: unknown config key {key!r}")
                if kind is bool:
                    if text not in _BOOLEANS:
                        raise ValueError(f"{path}: {key} must be one of {sorted(_BOOLEANS)}, got {text!r}")
                    kwargs[key] = _BOOLEANS[text]
                elif kind is str:
                    kwargs[key] = text.strip("'\"")
                else:
                    try:
                        kwargs[key] = kind(text)
                    except ValueError:
                        raise ValueError(f"{path}: {key}={text!r} is not a valid {kind.__name__}") from None
        return cls(**kwargs)


@dataclass
class PipelineReport:
    config: PipelineConfig
    targets: np.ndarray
    eigenvalues: np.ndarray
    continuum_edge: float
    report: DiscrepancyReport
    files: dict
    hologram_sr_error: float | None = None

    @property
    def all_round(self) -> bool:
        return self.report.all_round

    def as_dict(self) -> dict:
        payload = {
            "sequence": self.config.sequence,
            "targets": self.targets.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
            "continuum_edge": self.continuum_edge,
            "all_round": self.all_round,
            "files": self.files,
        }
        payload.update(self.report.as_dict())
        if self.hologram_sr_error is not None:
            payload["hologram_sr_error"] = self.hologram_sr_error
        return payload


def write_json(path, payload) -> None:
    """Indented, key-sorted JSON with a trailing newline (the JSON artifact format)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class HologramRun:
    """Outcome of the hologram stage for one potential."""

    result: OptimizeResult
    field: np.ndarray  # complex SR row
    sr_error: float

    def write(self, phase_path, intensity_path, history_path=None) -> None:
        """Phase plane as bare CSV; SR intensity with its target map; the cost
        history as JSON when given a path."""
        write_phase_csv(phase_path, self.result.rows)
        write_intensity_csv(intensity_path, np.abs(self.field) ** 2, self.result.state.target_map)
        if history_path:
            write_json(history_path, self.result.history.tolist())


def synthesize_hologram(potential: PotentialGrid, m: int, max_iters: int, seed: int) -> HologramRun:
    """Target row, seeded random-phase state, optimized phase and output field
    under the uniform beam, plus the SR intensity error."""
    amp, tmap = potential_to_target(potential)
    state = make_state(m, amp, seed=seed, target_map=tmap)
    result = optimize_phase(state, max_iters=max_iters)
    field = propagate(result.state)
    return HologramRun(result, field, sr_intensity_error(field, result.state))


def design_sequence(spec: str, half_width: float, spacing: float) -> tuple[np.ndarray, PotentialGrid]:
    """The sequence and design stages: (target levels, designed potential)."""
    with _stage("sequence"):
        targets = parse_sequence_spec(spec)
    with _stage("design"):
        designed = design_potential(targets, default_grid(half_width, spacing))
    return targets, designed


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """design -> (optional hologram synth + extract) -> eigensolve -> compare."""
    targets, designed = design_sequence(config.sequence, config.half_width, config.spacing)
    solve_input = designed
    if config.hologram:
        with _stage("hologram"):
            holo = synthesize_hologram(designed, config.holo_m, config.holo_iters, config.seed)
            solve_input = extract_profile(holo.field, holo.result.state)

    # the first file is written once every stage before solve has succeeded
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}

    def artifact(name: str) -> str:
        """Path of outdir/name, listed in the report under the name's stem."""
        files[Path(name).stem] = path = str(outdir / name)
        return path

    designed.write_csv(artifact("potential.csv"))
    if config.hologram:
        holo.write(artifact("phase.csv"), artifact("intensity.csv"), artifact("cost_history.json"))
        solve_input.write_csv(artifact("potential_reconstructed.csv"))

    with _stage("solve"):
        spectrum = bound_states(solve_input, KINETIC_HALF, targets=targets)
    eigenvalues = spectrum.eigenvalues
    report = compare_spectrum(eigenvalues, targets)

    write_json(
        artifact("spectrum.json"),
        {
            "eigenvalues": eigenvalues.tolist(),
            "continuum_edge": spectrum.continuum_edge,
            "kinetic_scale": KINETIC_HALF,
            # level n has n nodes: its index is certified (discrete Sturm oscillation theorem)
            "node_counts": list(range(eigenvalues.size)),
        },
    )

    out = PipelineReport(
        config=config,
        targets=targets,
        eigenvalues=eigenvalues,
        continuum_edge=spectrum.continuum_edge,
        report=report,
        files=files,
        hologram_sr_error=holo.sr_error if config.hologram else None,
    )
    report_path = outdir / "report.json"  # listed once written: it lists the files before it
    write_json(report_path, out.as_dict())
    files["report"] = str(report_path)
    return out
