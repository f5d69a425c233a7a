"""Seeded inputs, timed operations and correctness checks of the four workloads.

Each workload hands the program only generated inputs (level lists, ``w``
values, ``(v_max, samples)`` pairs, hologram seeds) and checks every result
against references computed here, independently of the program's own
sequence code. A check returns an ``Outcome``; a failed outcome counts
against ``fail_frac`` and is never filtered out.

Inputs come in *cycles*: every cycle of a workload has the same shape (the
same mix of sizes and verdict paths) and the seed picks the members and their
order. A cycle is built from the seeded generator only when the loop asks for
it, so set-up holds no input generation. A run executes whole cycles, so a
different seed changes the inputs but hardly the work per cycle.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from primepot.pipeline import PipelineConfig, PipelineStageError, run_pipeline
from primepot.scattering import build_filter_apparatus, filter_lucky_prime, transmission
from primepot.semiclassical import (
    invert_to_potential,
    prime_density_of_states,
    profile_to_potential,
    wkb_level_count,
)
from primepot.sequences import check_growth_bound

LEVEL_BUDGET = 0.05  # max abs level error a design may have (acceptance budget)
WKB_TOLERANCE = 2  # |N_WKB(E) - pi(E)| allowed on the semiclassical workload
UNITARITY_TOLERANCE = 1e-8  # max |T + R - 1| on the composed filter apparatus
GROWTH_BOUND = 3.0  # admissibility e_n <= A n^2 for random level lists


# --- independent references -------------------------------------------------


def primes_upto(limit: int) -> list[int]:
    """Trial-division primes <= limit (small limits only)."""
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def lucky_upto(limit: int) -> list[int]:
    """Lucky numbers <= limit by the survivor-position sieve."""
    seq = list(range(1, limit + 1, 2))
    i = 1
    while i < len(seq) and seq[i] <= len(seq):
        step = seq[i]
        del seq[step - 1 :: step]
        i += 1
    return seq


def first_n(kind: str, n: int) -> list[int]:
    limit = 16
    while True:
        values = primes_upto(limit) if kind == "primes" else lucky_upto(limit)
        if len(values) >= n:
            return values[:n]
        limit *= 2


@dataclass
class Outcome:
    """Result of one check: ``known`` marks a failure of a documented defect."""

    ok: bool
    detail: str = ""
    known: bool = False
    fingerprints: dict = field(default_factory=dict)


def _level_outcome(eigenvalues, targets, budget: float | None) -> Outcome:
    eig = np.asarray(eigenvalues, dtype=np.float64)
    goal = np.asarray(targets, dtype=np.float64)
    if eig.shape != goal.shape:
        return Outcome(False, f"{eig.size} levels for {goal.size} targets")
    err = float(np.max(np.abs(eig - goal)))
    fp = {"max_level_err": err}
    if not np.array_equal(np.rint(eig), np.rint(goal)):
        return Outcome(False, "levels do not round to their targets", fingerprints=fp)
    if budget is not None and err > budget:
        return Outcome(False, f"max level error {err:.4f} over {budget}", fingerprints=fp)
    return Outcome(True, fingerprints=fp)


class Workload:
    """Seeded input cycles, ``run`` (the timed program call) and ``check``.

    ``check`` must see each result straight after its ``run``: a pipeline
    result points at files that the next operation overwrites.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path, smallest: bool = False):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.smallest = smallest

    def cycles(self):
        """Endless input cycles, each built from the seeded generator when asked for."""
        for k in itertools.count():
            yield self.smallest_cycle() if self.smallest else self.cycle(k)

    def cycle(self, k: int) -> list:
        raise NotImplementedError

    def smallest_cycle(self) -> list:
        raise NotImplementedError

    def finish(self) -> Outcome:
        """Run-level check after the loop, over what the checks have seen."""
        return Outcome(True)

    def report(self) -> dict:
        """Extra run-level facts for the report."""
        return {}


# --- design -------------------------------------------------------------------

# (spacing, N range or fixed spec) per cycle slot. primes:40 at the coarse
# spacing is the known level-error defect (0.064 > 0.05).
KNOWN_LEVEL_DEFECT = ("primes:40", 0.005, 0.08)  # (sequence, spacing, error below which it is the defect)
DESIGN_SLOTS = (
    (0.005, (8, 18)),
    (0.005, (19, 29)),
    (0.005, "primes:40"),
    (0.0025, (8, 18)),
    (0.0025, (19, 29)),
    (0.0025, (30, 40)),
)
DESIGN_HALF_WIDTH = 12.0
OFF_HALF_WIDTHS = tuple(float(hw) for hw in range(8, 21) if hw != 12)


@dataclass(frozen=True)
class DesignInput:
    sequence: str
    targets: tuple
    half_width: float
    spacing: float


class Design(Workload):
    """A stream of ``run_pipeline`` calls without the hologram stage.

    One cycle: six designs over two spacings and three sizes, one of them at a
    half-width other than 12 (known defect: fails at ``solve``).
    """

    name = "design"

    def __init__(self, seed: int, workdir: Path, smallest: bool = False):
        super().__init__(seed, workdir, smallest)
        self.outdir = str(workdir / "out")

    def smallest_cycle(self):
        return [DesignInput("primes:8", tuple(first_n("primes", 8)), DESIGN_HALF_WIDTH, 0.005)]

    def cycle(self, k):
        rng = self.rng
        off_slot = rng.choice([i for i, (_, size) in enumerate(DESIGN_SLOTS) if not isinstance(size, str)])
        ops = []
        for i, (spacing, size) in enumerate(DESIGN_SLOTS):
            if isinstance(size, str):
                spec, targets = size, first_n("primes", 40)
            else:
                n = rng.randint(*size)
                kind = rng.choice(("primes", "lucky", "random"))
                if kind == "random":
                    targets = admissible_levels(rng, n)
                    path = self.workdir / f"levels-{k}-{i}.txt"
                    path.write_text("\n".join(str(v) for v in targets) + "\n")
                    spec = f"file:{path}"
                else:
                    spec, targets = f"{kind}:{n}", first_n(kind, n)
            half_width = rng.choice(OFF_HALF_WIDTHS) if i == off_slot else DESIGN_HALF_WIDTH
            ops.append(DesignInput(spec, tuple(targets), half_width, spacing))
        rng.shuffle(ops)
        return ops

    def run(self, op: DesignInput):
        config = PipelineConfig(
            sequence=op.sequence, half_width=op.half_width, spacing=op.spacing, outdir=self.outdir
        )
        try:
            return run_pipeline(config)
        except PipelineStageError as err:
            return err

    def check(self, op: DesignInput, result) -> Outcome:
        if isinstance(result, PipelineStageError):
            known = result.stage == "solve" and op.half_width != DESIGN_HALF_WIDTH
            return Outcome(False, f"stage {result.stage}: {result.original}", known)
        out = _level_outcome(result.eigenvalues, op.targets, LEVEL_BUDGET)
        sequence, spacing, below = KNOWN_LEVEL_DEFECT
        err = out.fingerprints.get("max_level_err", math.inf)
        out.known = (
            not out.ok
            and op.sequence == sequence
            and op.spacing == spacing
            and op.half_width == DESIGN_HALF_WIDTH
            and err < below
        )
        return out


def admissible_levels(rng, n: int) -> list[int]:
    """Random strictly increasing integers, gaps 1..8, admissible at GROWTH_BOUND."""
    while True:
        levels = [rng.randint(1, 3)]
        for _ in range(n - 1):
            levels.append(levels[-1] + rng.randint(1, 8))
        if check_growth_bound(levels, GROWTH_BOUND):
            return levels


# --- filter -------------------------------------------------------------------

# One pool per verdict path on the default apparatus. The members of a pool
# cost the same work (8, 9 and 6 transfer scans; 8.6 M, 6.5 M and 3.4 M
# cell-energies), so the seed changes the inputs of a cycle but not its work.
ACCEPTED_W = (3, 7)  # lucky and prime: accepted after both confirmation checks
CAVITY_W = (8, 24)  # cavity mode above threshold, rejected at a confirmation check
WINDOW_W = (2, 4, 5, 9, 11, 17, 19, 21, 23, 25)  # rejected by the windowed search


class Filter(Workload):
    """``filter_lucky_prime`` verdicts on the default apparatus.

    One cycle: one verdict from each path pool, in seeded order.
    """

    name = "filter"

    def __init__(self, seed: int, workdir: Path, smallest: bool = False):
        super().__init__(seed, workdir, smallest)
        self.apparatus = build_filter_apparatus()
        w_max = self.apparatus.w_max
        self.lucky_primes = set(lucky_upto(w_max)) & set(primes_upto(w_max))
        self.energies: set[float] = set()  # every w and peak energy checked so far
        self.paths: dict[str, int] = {}

    def smallest_cycle(self):
        return [16]

    def cycle(self, k):
        ops = [self.rng.choice(pool) for pool in (ACCEPTED_W, CAVITY_W, WINDOW_W)]
        self.rng.shuffle(ops)
        return ops

    def run(self, w: int):
        return filter_lucky_prime(w, self.apparatus)

    def check(self, w: int, result) -> Outcome:
        self.energies.update((float(result.w), float(result.peak_energy)))
        path = verdict_path(result)
        self.paths[path] = self.paths.get(path, 0) + 1
        expected = w in self.lucky_primes
        if result.is_lucky_prime != expected:
            return Outcome(False, f"w={w}: verdict {result.is_lucky_prime}, sieve says {expected}")
        return Outcome(True)

    def finish(self) -> Outcome:
        """Flux conservation on the composed apparatus at every peak found."""
        energies = sorted(self.energies)
        t, r = transmission(self.apparatus.composed(), energies, self.apparatus.kinetic_scale)
        err = float(np.max(np.abs(t + r - 1.0)))
        ok = err <= UNITARITY_TOLERANCE
        return Outcome(ok, "" if ok else f"|T+R-1| = {err:.2e}", fingerprints={"unitarity_err": err})

    def report(self) -> dict:
        return {"verdict_paths": self.paths}


def verdict_path(result) -> str:
    if result.is_lucky_prime:
        return "accepted"
    return "cavity" if result.peak_transmission >= 0.5 else "window"


# --- hologram -----------------------------------------------------------------

HOLO_SEQUENCE = "primes:10"
HOLO_SMALL = (64, 500)  # (m, iteration cap): 128^2 complex plane, 256 KiB
HOLO_LARGE = (256, 40)  # 512^2 complex plane, 4 MiB: does not fit in L2
HOLO_SMALL_PER_CYCLE = 3


def plane_bytes(m: int) -> int:
    """Working-set size of one padded complex128 output plane."""
    return (2 * m) ** 2 * 16


@dataclass(frozen=True)
class HoloInput:
    m: int
    iters: int
    seed: int


class Hologram(Workload):
    """``run_pipeline`` on primes:10 with the hologram stage.

    One cycle: three m=64 syntheses and one m=256 synthesis at a reduced
    iteration cap, each with a seeded hologram phase.
    """

    name = "hologram"

    def __init__(self, seed: int, workdir: Path, smallest: bool = False):
        super().__init__(seed, workdir, smallest)
        self.outdir = str(workdir / "out")
        self.targets = tuple(first_n("primes", 10))

    def smallest_cycle(self):
        return [HoloInput(64, 20, 1), HoloInput(256, 15, 1)]

    def cycle(self, k):
        rng = self.rng
        ops = [HoloInput(*HOLO_SMALL, rng.randrange(1, 2**31)) for _ in range(HOLO_SMALL_PER_CYCLE)]
        ops.append(HoloInput(*HOLO_LARGE, rng.randrange(1, 2**31)))
        rng.shuffle(ops)
        return ops

    def run(self, op: HoloInput):
        config = PipelineConfig(
            sequence=HOLO_SEQUENCE,
            hologram=True,
            holo_m=op.m,
            holo_iters=op.iters,
            seed=op.seed,
            outdir=self.outdir,
        )
        try:
            return run_pipeline(config)
        except PipelineStageError as err:
            return err

    def check(self, op: HoloInput, result) -> Outcome:
        if isinstance(result, PipelineStageError):
            return Outcome(False, f"stage {result.stage}: {result.original}")
        # every operation writes the same outdir: only valid before the next run
        with open(result.files["cost_history"]) as fh:
            history = np.asarray(json.load(fh), dtype=np.float64)
        out = _level_outcome(result.eigenvalues, self.targets, None)
        out.fingerprints.update(
            holo_final_cost=float(history[-1]), holo_sr_err=float(result.hologram_sr_error)
        )
        if np.any(np.diff(history) > 0.0):
            return Outcome(False, "cost history increases", fingerprints=out.fingerprints)
        return out


# --- semiclassical ------------------------------------------------------------

SC_E0 = 2.0
SC_TERMS = 25  # the CLI default
SC_VMAX = (40.0, 100.0)  # v_max range; 100 is the CLI default
SC_SAMPLE_BUCKETS = ((220, 246), (287, 313), (354, 380))  # the CLI default is 400


@dataclass(frozen=True)
class SemiInput:
    v_max: float
    samples: int


class Semiclassical(Workload):
    """``invert_to_potential`` with the prime density, then ``profile_to_potential``.

    One cycle: three inversions, one per sample-count bucket, each at a seeded
    v_max. The density is passed as the same lambda the CLI builds.
    """

    name = "semiclassical"

    def __init__(self, seed: int, workdir: Path, smallest: bool = False):
        super().__init__(seed, workdir, smallest)
        self.pi = np.cumsum(np.isin(np.arange(int(SC_VMAX[1]) + 1), primes_upto(int(SC_VMAX[1]))))

    def smallest_cycle(self):
        return [SemiInput(40.0, 20)]

    def cycle(self, k):
        rng = self.rng
        ops = [SemiInput(round(rng.uniform(*SC_VMAX), 3), rng.randint(*bucket)) for bucket in SC_SAMPLE_BUCKETS]
        rng.shuffle(ops)
        return ops

    def run(self, op: SemiInput):
        dos = lambda e: prime_density_of_states(e, SC_TERMS)  # noqa: E731 - as the CLI passes it
        profile = invert_to_potential(dos, SC_E0, op.v_max, op.samples)
        return profile, profile_to_potential(profile)

    def check(self, op: SemiInput, result) -> Outcome:
        profile, potential = result
        energies = range(int(SC_E0) + 1, int(math.floor(op.v_max)) + 1)
        err = max(abs(wkb_level_count(profile, float(e)) - int(self.pi[e])) for e in energies)
        fp = {"wkb_count_err": err}
        if potential.asymptote != profile.v_max:
            return Outcome(False, "potential edge differs from the profile's v_max", fingerprints=fp)
        if err > WKB_TOLERANCE:
            return Outcome(False, f"WKB count off pi(E) by {err}", fingerprints=fp)
        return Outcome(True, fingerprints=fp)


WORKLOADS = {cls.name: cls for cls in (Design, Filter, Hologram, Semiclassical)}
