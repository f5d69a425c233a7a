import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from primepot.cli import build_parser, main
from primepot.grid import GRID_POINT_LIMIT, Grid, PotentialGrid, default_grid
from primepot.hologram import MODULATOR_LIMIT, potential_to_target, write_intensity_csv
from primepot.pipeline import (
    PipelineConfig,
    PipelineStageError,
    parse_sequence_spec,
    run_pipeline,
)
from primepot import cli, hologram, pipeline, scattering, semiclassical, sequences, susy
from primepot.scattering import SCAN_STEP_LIMIT
from primepot.semiclassical import SAMPLE_LIMIT
from primepot.sequences import EXACT_COUNT_LIMIT, LUCKY_LIMIT, first_primes
from primepot.susy import ChainError, design_potential


def test_parse_sequence_specs(tmp_path):
    assert parse_sequence_spec("primes:4").tolist() == [2, 3, 5, 7]
    assert parse_sequence_spec("lucky:3").tolist() == [1, 3, 7]
    levels = tmp_path / "levels.txt"
    levels.write_text("1.5\n4.0\n9.0\n")
    assert parse_sequence_spec(f"file:{levels}").tolist() == [1.5, 4.0, 9.0]
    with pytest.raises(ValueError):
        parse_sequence_spec("fibonacci:5")
    with pytest.raises(ValueError):
        parse_sequence_spec("primes")


def test_config_round_trips(tmp_path):
    config = PipelineConfig(sequence="lucky:7", spacing=0.004, hologram=True, seed=9)
    path = tmp_path / "run.cfg"
    config.write(path)
    assert PipelineConfig.read(path) == config


@pytest.mark.parametrize(
    "line, named",
    [
        ("spaceing=0.01", "spaceing"),
        ("hologram=yes", "yes"),
        ("kinetic='half'", "kinetic"),
        ("holo_d=9", "holo_d"),
        ("holo_sr=100", "holo_sr"),  # the SR length is derived from the potential
        ("half_width=abc", "half_width='abc' is not a valid float"),
        ("holo_m=2.5", "holo_m='2.5' is not a valid int"),
    ],
)
def test_config_rejects_bad_input(tmp_path, capsys, line, named):
    path = tmp_path / "bad.cfg"
    path.write_text(f"sequence='primes:4'\n{line}\noutdir='{tmp_path / 'out'}'\n")
    with pytest.raises(ValueError, match=named):
        PipelineConfig.read(path)
    assert main(["pipeline", "--config", str(path)]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pipeline_primes5(tmp_path):
    config = PipelineConfig(
        sequence="primes:5", half_width=10.0, outdir=str(tmp_path / "out")
    )
    report = run_pipeline(config)
    assert report.all_round
    assert report.eigenvalues.size == 5
    for key in ("potential", "spectrum", "report"):
        assert Path(report.files[key]).exists()
    payload = json.loads(Path(report.files["report"]).read_text())
    assert payload["all_round"] is True
    assert len(payload["per_level_frac"]) == 5


def test_pipeline_deterministic_bytes(tmp_path):
    outdir = tmp_path / "run"
    config = PipelineConfig(
        sequence="primes:4", half_width=10.0, outdir=str(outdir), seed=5
    )
    blobs = []
    for _ in range(2):
        run_pipeline(config)
        blobs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    assert blobs[0] == blobs[1]


def test_pipeline_invalid_sequence_writes_nothing(tmp_path):
    outdir = tmp_path / "nothing"
    config = PipelineConfig(sequence="primes", outdir=str(outdir))
    with pytest.raises(PipelineStageError) as info:
        run_pipeline(config)
    assert info.value.stage == "sequence"
    assert not outdir.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--holo-iters", "0"], "max_iters must be >= 1"),
        (
            ["--holo-m", "8"],
            "signal region (sr_length = 100) must sit strictly inside the output row of 2m = 16 pixels: "
            "m = 8 is too small, the smallest m that fits is 51",
        ),
        (
            ["--sequence", "primes:40", "--holo-m", "64"],
            "signal region (sr_length = 372) must sit strictly inside the output row of 2m = 128 pixels: "
            "m = 64 is too small, the smallest m that fits is 187",
        ),
        (["--holo-m", "0"], "m must be at least 1"),
    ],
    ids=["iters0", "m8", "primes40_m64", "m0"],
)
def test_pipeline_failed_hologram_writes_nothing(tmp_path, capsys, flags, message):
    outdir = tmp_path / "out"
    argv = ["pipeline", "--sequence", "primes:5", "--half-width", "10", "--hologram", "--outdir", str(outdir)]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert "stage 'hologram' failed" in err and message in err
    assert not outdir.exists()


def test_pipeline_with_hologram(tmp_path):
    config = PipelineConfig(
        sequence="primes:5",
        half_width=10.0,
        hologram=True,
        holo_m=52,
        holo_iters=300,
        outdir=str(tmp_path / "holo"),
    )
    report = run_pipeline(config)
    assert report.all_round
    assert report.hologram_sr_error is not None and report.hologram_sr_error < 0.05
    for key in ("phase", "intensity", "cost_history", "potential_reconstructed"):
        assert Path(report.files[key]).exists()
    history = json.loads(Path(report.files["cost_history"]).read_text())
    assert all(b <= a for a, b in zip(history, history[1:]))


@pytest.mark.parametrize("m, iters", [(64, 500), (256, 40)])
def test_hologram_level_budget_over_seeds(tmp_path, m, iters):
    # primes:10 at the hologram benchmark's (m, iterations): every read-back
    # level within 0.05 of its target, a non-increasing cost history, and at
    # (64, 500) a median final cost no higher than a Polak-Ribiere conjugate
    # gradient's 4.4e-6 over the same seeds
    targets = first_primes(10)
    finals = []
    for seed in range(1, 9):
        config = PipelineConfig(hologram=True, holo_m=m, holo_iters=iters, seed=seed, outdir=str(tmp_path))
        report = run_pipeline(config)
        assert np.max(np.abs(report.eigenvalues - targets)) <= 0.05, seed
        history = np.asarray(json.loads(Path(report.files["cost_history"]).read_text()))
        assert np.all(np.diff(history) <= 0.0), seed
        finals.append(history[-1])
    if (m, iters) == (64, 500):
        assert np.median(finals) <= 4.4e-6


@pytest.mark.parametrize("sequence", ["primes:20", "lucky:20", "primes:30", "primes:40"])
def test_hologram_level_budget_long_lists(tmp_path, sequence):
    # a 100-pixel SR undersamples these wells (lucky:20 0.058, primes:30
    # 0.225, primes:40 2.37); the derived length keeps them within 0.05
    config = PipelineConfig(sequence=sequence, hologram=True, holo_m=256, seed=1, outdir=str(tmp_path))
    report = run_pipeline(config)
    assert np.max(report.report.per_level_abs) <= 0.05


@pytest.mark.parametrize("half_width", [8.0, 12.0, 20.0, 40.0])
def test_pipeline_levels_independent_of_box(tmp_path, half_width):
    config = PipelineConfig(sequence="primes:10", half_width=half_width, outdir=str(tmp_path))
    report = run_pipeline(config)
    assert report.all_round
    assert np.max(report.report.per_level_abs) <= 1e-4


def test_pipeline_primes40_coarse_spacing_within_budget(tmp_path):
    config = PipelineConfig(sequence="primes:40", spacing=0.005, outdir=str(tmp_path))
    report = run_pipeline(config)
    assert report.all_round
    assert np.max(report.report.per_level_abs) <= 0.05


def test_cli_primes_output(capsys):
    assert main(["primes", "--limit", "12"]) == 0
    assert capsys.readouterr().out.split() == ["2", "3", "5", "7", "11"]


def test_cli_lucky_count(capsys):
    assert main(["lucky", "--count", "6"]) == 0
    assert capsys.readouterr().out.split() == ["1", "3", "7", "9", "13", "15"]


def test_cli_pi_record(capsys):
    assert main(["pi", "--x", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] == 25
    assert set(payload) == {"x", "exact", "gauss", "li", "riemann_r"}


def test_cli_pi_rejects_x_over_sieve_limit(monkeypatch, capsys):
    def no_sieve(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(sequences, "sieve_primes", no_sieve)
    assert main(["pi", "--x", str(EXACT_COUNT_LIMIT + 1)]) == 1
    assert f"exceeds {EXACT_COUNT_LIMIT:.0e}" in capsys.readouterr().err


def test_cli_sieves_reject_limits_past_their_bounds(monkeypatch, capsys):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated a sieve")

    monkeypatch.setattr(sequences.np, "ones", no_allocation)
    monkeypatch.setattr(sequences.np, "arange", no_allocation)
    for argv, bound in (
        (["primes", "--limit", str(EXACT_COUNT_LIMIT + 1)], EXACT_COUNT_LIMIT),
        (["primes", "--count", str(EXACT_COUNT_LIMIT // 10)], EXACT_COUNT_LIMIT),  # sieves about 21 n first
        (["lucky", "--limit", str(LUCKY_LIMIT + 1)], LUCKY_LIMIT),
        (["lucky", "--count", str(LUCKY_LIMIT // 4 + 1)], LUCKY_LIMIT),  # sieves 4 n first
    ):
        assert main(argv) == 1, argv
        assert f"exceeds {bound:.0e}" in capsys.readouterr().err, argv


def test_cli_semiclassical_rejects_sizes_past_their_bounds(monkeypatch, capsys, tmp_path):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated an oversized array")

    out = str(tmp_path / "sc.csv")
    # x_max grows like sqrt(v_max): 1e15 would need about 5.5e8 output nodes
    monkeypatch.setattr(Grid, "x", property(no_allocation))
    assert main(["semiclassical", "--vmax", "1e15", "--out", out]) == 1
    assert f"exceeds the limit of {GRID_POINT_LIMIT:.0e}" in capsys.readouterr().err
    # the quadrature lattice holds (samples - 1) x 256 energies
    monkeypatch.setattr(semiclassical.np, "linspace", no_allocation)
    assert main(["semiclassical", "--samples", str(SAMPLE_LIMIT + 1), "--out", out]) == 1
    assert f"not exceed {SAMPLE_LIMIT:.0e}" in capsys.readouterr().err


def test_cli_rejects_grids_past_the_point_limit(monkeypatch, capsys, tmp_path):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated an oversized array")

    # an intensity file whose target map declares a 2e9-node design grid
    grid = default_grid(3.0, 0.05)
    row, tmap = potential_to_target(PotentialGrid(grid=grid, values=-6.0 / np.cosh(grid.x) ** 2, asymptote=0.0))
    path = tmp_path / "intensity.csv"
    write_intensity_csv(path, row**2, replace(tmap, grid_points=2000000001))
    monkeypatch.setattr(Grid, "x", property(no_allocation))
    monkeypatch.setattr(susy, "chain_from_gaps", no_allocation)
    monkeypatch.chdir(tmp_path)  # the default outputs land here
    assert main(["holo", "extract", str(path)]) == 1
    assert f"a grid of 2000000001 points exceeds the limit of {GRID_POINT_LIMIT:.0e}" in capsys.readouterr().err
    # spacing 1e-8 on the default half-width would be a grid of 2.4e9 nodes
    assert main(["design", "--levels", "primes:10", "--spacing", "1e-8"]) == 1
    assert f"a grid of 2400000001 points exceeds the limit of {GRID_POINT_LIMIT:.0e}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_cli_eigensolver_breakdown_exits_numerical(monkeypatch, capsys, tmp_path):
    from scipy.linalg import lapack

    dstein = lapack.dstein

    def unconverged(*args, **kwargs):
        z, _ = dstein(*args, **kwargs)
        return z, 1

    pot = tmp_path / "pot.csv"
    design_potential(first_primes(5)).write_csv(pot)
    monkeypatch.setattr(lapack, "dstein", unconverged)
    assert main(["solve", str(pot), "--targets", "primes:5"]) == 2
    assert "dstein failed with info = 1" in capsys.readouterr().err
    outdir = tmp_path / "out"
    assert main(["pipeline", "--sequence", "primes:5", "--outdir", str(outdir)]) == 2
    assert "stage 'solve' failed: dstein failed with info = 1" in capsys.readouterr().err
    # the design is written before the solve stage runs; no report follows it
    assert sorted(p.name for p in outdir.iterdir()) == ["potential.csv"]


def test_cli_design_solve_cycle(tmp_path, capsys):
    pot = tmp_path / "pot.csv"
    rep = tmp_path / "report.json"
    assert (
        main(
            [
                "design",
                "--levels",
                "primes:5",
                "--half-width",
                "10",
                "--out",
                str(pot),
            ]
        )
        == 0
    )
    # bitwise mirrored on read-back, so solve takes the parity-block path
    assert PotentialGrid.read_csv(pot).even
    assert main(["solve", str(pot)]) == 0  # no targets, nothing to miss
    assert main(["solve", str(pot), "--targets", "primes:5", "--json", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["rounds_to_target"] == [True] * 5
    assert payload["rms_frac"] < 0.01
    assert {"eigenvalues", "continuum_edge", "targets", "per_level_frac", "rms_frac", "rounds_to_target"} <= set(payload)


def test_cli_solve_exits_numerical_on_missed_targets(tmp_path, capsys):
    # a primes:10 well holds no 11th and 12th prime: the payload is still
    # written, and the exit code says the levels missed
    pot = tmp_path / "pot.csv"
    rep = tmp_path / "report.json"
    assert main(["design", "--levels", "primes:10", "--out", str(pot)]) == 0
    capsys.readouterr()
    assert main(["solve", str(pot), "--targets", "primes:12", "--json", str(rep)]) == 2
    payload = json.loads(rep.read_text())
    assert payload["rounds_to_target"][-2:] == [False, False]
    assert json.loads(capsys.readouterr().out) == payload


def test_cli_solve_rejects_more_targets_than_nodes(tmp_path, capsys):
    # a 5-node grid holds at most 5 levels; the error names the count and the grid
    grid = Grid(half_width=1.0, points=5)
    pot = tmp_path / "pot.csv"
    PotentialGrid(grid=grid, values=-0.1 / np.cosh(grid.x) ** 2, asymptote=0.0).write_csv(pot)
    assert main(["solve", str(pot), "--targets", "primes:10"]) == 1
    captured = capsys.readouterr()
    assert "count asks for 10 levels of a 5-node grid" in captured.err
    assert captured.out == ""


def test_cli_half_integer_targets_exit_ok(tmp_path, capsys):
    # the designed 1.5 lands 1e-10 below its target, on the other side of
    # 1.5's rounding boundary: a correct design must still exit 0
    levels = tmp_path / "levels.txt"
    levels.write_text("1.5\n2.5\n4\n")
    pot = tmp_path / "pot.csv"
    assert main(["design", "--levels", f"file:{levels}", "--out", str(pot)]) == 0
    capsys.readouterr()
    assert main(["solve", str(pot), "--targets", f"file:{levels}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rounds_to_target"] == [True] * 3
    assert max(payload["per_level_abs"]) < 1e-6
    assert main(["pipeline", "--sequence", f"file:{levels}", "--outdir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("spacing", ["0", "-0.005"])
@pytest.mark.parametrize(
    "argv",
    [["design", "--levels", "primes:3", "--out"], ["pipeline", "--sequence", "primes:3", "--outdir"]],
    ids=["design", "pipeline"],
)
def test_cli_rejects_nonpositive_spacing(tmp_path, capsys, argv, spacing):
    assert main([*argv, str(tmp_path / "out"), f"--spacing={spacing}"]) == 1
    assert "spacing" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["units", "--mass", "rb87", "--l", "nan", "--L", "1"], "l=nan"),
        (["design", "--levels", "primes:3", "--half-width", "inf"], "half_width=inf"),
        (["pi", "--x", "inf"], "x=inf"),
        (["semiclassical", "--vmax", "inf"], "v_max=inf"),
    ],
    ids=["units", "design", "pi", "semiclassical"],
)
def test_cli_rejects_non_finite(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)  # design and semiclassical write to the working directory
    assert main(argv) == 1
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, bad",
    [("design", "inf"), ("design", "nan"), ("solve", "inf"), ("solve", "nan")],
    ids=["inf", "nan", "solve-inf", "solve-nan"],
)
def test_cli_design_rejects_non_finite_levels(tmp_path, capsys, command, bad):
    levels = tmp_path / "levels.txt"
    levels.write_text(f"1\n{bad}\n")
    out = tmp_path / "out"
    if command == "design":
        argv = ["design", "--levels", f"file:{levels}", "--out", str(out)]
    else:
        grid = default_grid(3.0, 0.05)
        pot = tmp_path / "pot.csv"
        PotentialGrid(grid=grid, values=-6.0 / np.cosh(grid.x) ** 2, asymptote=0.0).write_csv(pot)
        argv = ["solve", str(pot), "--targets", f"file:{levels}", "--json", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"levels must be finite; got [{bad}]" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "three", "one", "meta"])
@pytest.mark.parametrize("command", ["solve", "scatter", "synth", "extract"])
def test_cli_rejects_non_finite_csv_rows(tmp_path, monkeypatch, capsys, command, bad):
    # a non-finite value, a row of three or one values, or a metadata value
    # that is not a number: each is named by path and line or key
    grid = default_grid(3.0, 0.05)
    pot = PotentialGrid(grid=grid, values=-6.0 / np.cosh(grid.x) ** 2, asymptote=0.0)
    if command == "extract":
        _, tmap = potential_to_target(pot)
        path = tmp_path / "intensity.csv"
        write_intensity_csv(path, np.ones(tmap.sr_length), tmap)
    else:
        path = tmp_path / "pot.csv"
        pot.write_csv(path)
    lines = path.read_text().splitlines()
    if bad == "meta":
        key = "sr_length" if command == "extract" else "asymptote"
        lines = [f"# {key}=1x0" if line.startswith(f"# {key}=") else line for line in lines]
        message = f"{path}: metadata {key}='1x0' is not a valid"
    else:
        row = len(lines) - 5
        x = lines[row].partition(",")[0]
        lines[row] = {"three": f"{x},1,5", "one": x}.get(bad, f"{x},{bad}")
        problem = "is not two comma-separated numbers" if bad in ("three", "one") else "holds a non-finite value"
        message = f"{path}: line {row + 1} {problem}"
    path.write_text("\n".join(lines) + "\n")
    argv = {
        "solve": ["solve", str(path), "--json", "spectrum.json"],
        "scatter": ["scatter", str(path), "--emin", "1", "--emax", "2", "--json", "scan.json"],
        "synth": ["holo", "synth", str(path), "--iters", "2", "--cost-out", "cost.json"],
        "extract": ["holo", "extract", str(path)],
    }[command]
    monkeypatch.chdir(tmp_path)  # every default output lands here
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


@pytest.mark.parametrize("bad", ["short", "ceiling", "dark"])
def test_cli_holo_extract_rejects_bad_intensity_files(tmp_path, monkeypatch, capsys, bad):
    # three rows fewer than the declared sr_length, no ceiling line, or no power
    grid = default_grid(3.0, 0.05)
    _, tmap = potential_to_target(PotentialGrid(grid=grid, values=-6.0 / np.cosh(grid.x) ** 2, asymptote=0.0))
    path = tmp_path / "intensity.csv"
    write_intensity_csv(path, np.zeros(tmap.sr_length) if bad == "dark" else np.ones(tmap.sr_length), tmap)
    lines = path.read_text().splitlines()
    if bad == "short":
        lines = lines[:-3]
    elif bad == "ceiling":
        lines = [line for line in lines if not line.startswith("# ceiling=")]
    path.write_text("\n".join(lines) + "\n")
    message = {
        "short": f"{path}: {tmap.sr_length - 3} intensity rows, but sr_length={tmap.sr_length}",
        "ceiling": f"{path}: missing metadata ['ceiling']",
        "dark": "no power in the signal region",
    }[bad]
    monkeypatch.chdir(tmp_path)  # the default output lands here
    assert main(["holo", "extract", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_cli_pipeline_rejects_unordered_levels(tmp_path, capsys):
    levels = tmp_path / "levels.txt"
    levels.write_text("3\n2\n5\n")
    outdir = tmp_path / "run"
    assert main(["pipeline", "--sequence", f"file:{levels}", "--outdir", str(outdir)]) == 1
    captured = capsys.readouterr()
    assert f"error: stage 'sequence' failed: {levels}: levels must be at least two, strictly increasing" in captured.err
    assert captured.out == ""
    assert not outdir.exists()


@pytest.mark.parametrize(
    "xs, message",
    [
        ([-0.1, 0.1], "expected at least 3 rows"),
        ([-1.0, -0.2, 0.0, 0.2, 1.0], "grid is not uniform"),
        ([0.0, 0.5, 1.0], "grid is not symmetric about zero"),
        ([-0.75, -0.25, 0.25, 0.75], "grid must have an odd number of nodes"),
    ],
    ids=["rows", "uniform", "symmetric", "odd"],
)
def test_cli_solve_rejects_malformed_grids(tmp_path, capsys, xs, message):
    path = tmp_path / "pot.csv"
    path.write_text("# asymptote=0.0\nx,V\n" + "".join(f"{x!r},0.0\n" for x in xs))
    assert main(["solve", str(path)]) == 1
    assert f"error: {path}: {message}" in capsys.readouterr().err


def test_unresolvable_levels_fail_at_design(tmp_path, capsys):
    # the eigensolver's resolution rule, applied where the potential is made
    levels = tmp_path / "levels.txt"
    levels.write_text("1\n2000\n")
    out = tmp_path / "pot.csv"
    assert main(["design", "--levels", f"file:{levels}", "--out", str(out)]) == 1
    assert "use spacing <= 0.00354" in capsys.readouterr().err
    assert not out.exists()
    outdir = tmp_path / "run"
    assert main(["pipeline", "--sequence", f"file:{levels}", "--outdir", str(outdir)]) == 1
    assert "stage 'design' failed" in capsys.readouterr().err
    assert not outdir.exists()
    with pytest.raises(PipelineStageError) as info:
        run_pipeline(PipelineConfig(sequence=f"file:{levels}", outdir=str(outdir)))
    assert info.value.stage == "design"
    assert not outdir.exists()


def test_cli_scatter_rejects_steps_past_limit(monkeypatch, capsys, tmp_path):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated an energy array")

    grid = default_grid(3.0, 0.005)
    path = tmp_path / "barrier.csv"
    PotentialGrid(grid=grid, values=np.where(np.abs(grid.x) < 1.0, 6.0, 0.0), asymptote=0.0).write_csv(path)
    monkeypatch.setattr(cli.np, "linspace", no_allocation)
    argv = ["scatter", str(path), "--emin", "0.5", "--emax", "20", "--steps", str(SCAN_STEP_LIMIT + 1)]
    assert main(argv) == 1
    assert f"exceeds {SCAN_STEP_LIMIT:.0e}" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [0, -1])
def test_cli_scatter_rejects_steps_below_one(capsys, tmp_path, steps):
    grid = default_grid(3.0, 0.005)
    path = tmp_path / "barrier.csv"
    PotentialGrid(grid=grid, values=np.where(np.abs(grid.x) < 1.0, 6.0, 0.0), asymptote=0.0).write_csv(path)
    argv = ["scatter", str(path), "--emin", "0.5", "--emax", "20", "--steps", str(steps)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"--steps must be at least 1, got {steps}" in captured.err
    assert captured.out == ""


def test_cli_scatter_schema(tmp_path, capsys):
    grid = default_grid(3.0, 0.005)
    values = np.where(np.abs(grid.x) < 1.0, 6.0, 0.0)
    pot = PotentialGrid(grid=grid, values=values, asymptote=0.0)
    path = tmp_path / "barrier.csv"
    pot.write_csv(path)
    out = tmp_path / "scan.json"
    assert (
        main(
            ["scatter", str(path), "--emin", "0.5", "--emax", "20", "--steps", "200", "--json", str(out)]
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert set(payload) == {"energies", "T", "resonances"}
    assert len(payload["energies"]) == 200
    assert all(0.0 <= t <= 1.0 + 1e-12 for t in payload["T"])
    capsys.readouterr()
    # without --json the same payload goes to stdout
    assert main(["scatter", str(path), "--emin", "0.5", "--emax", "20", "--steps", "200"]) == 0
    assert json.loads(capsys.readouterr().out) == payload


@pytest.mark.parametrize("t", [1.0 + 1e-6, -1e-6, np.nan])
def test_cli_scatter_transmission_outside_unit_interval_exits_numerical(monkeypatch, tmp_path, capsys, t):
    # a kernel breakdown such as T = nan, which JSON cannot hold
    grid = default_grid(3.0, 0.005)
    path = tmp_path / "barrier.csv"
    PotentialGrid(grid=grid, values=np.where(np.abs(grid.x) < 1.0, 6.0, 0.0), asymptote=0.0).write_csv(path)
    monkeypatch.setattr(scattering, "transmission", lambda pot, e: (np.full(e.size, t), None))
    out = tmp_path / "scan.json"
    assert main(["scatter", str(path), "--emin", "0.5", "--emax", "20", "--steps", "20", "--json", str(out)]) == 2
    assert "transmission outside [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("height", [1e308, -1e308])
def test_cli_scatter_rejects_a_potential_range_past_a_float(tmp_path, capsys, height):
    # two neighbouring nodes of 1e308 overflow their cell's midpoint sum
    grid = default_grid(3.0, 0.05)
    path = tmp_path / "barrier.csv"
    PotentialGrid(grid=grid, values=np.where(np.abs(grid.x) < 1.0, height, 0.0), asymptote=0.0).write_csv(path)
    out = tmp_path / "scan.json"
    assert main(["scatter", str(path), "--emin", "0.5", "--emax", "20", "--steps", "20", "--json", str(out)]) == 1
    low, high = sorted((height, 0.0))
    assert f"potential range [{low:.3g}, {high:.3g}] overflows a float" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--emin", "nan"), ("--emax", "nan"), ("--emax", "inf"), ("--emin", "-inf")])
def test_cli_scatter_rejects_non_finite_energies(tmp_path, capsys, flag, value):
    # refused before the energy grid is built, naming the flag
    grid = default_grid(3.0, 0.005)
    path = tmp_path / "barrier.csv"
    PotentialGrid(grid=grid, values=np.where(np.abs(grid.x) < 1.0, 6.0, 0.0), asymptote=0.0).write_csv(path)
    bounds = {"--emin": "0.5", "--emax": "20", flag: value}
    out = tmp_path / "scan.json"
    argv = ["scatter", str(path), *(f"{k}={v}" for k, v in bounds.items()), "--steps", "20", "--json", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"error: {flag} must be finite, got {value}" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_scatter_rejects_unequal_asymptotes(tmp_path, capsys):
    # a step whose right lead sits above its left one
    grid = default_grid(3.0, 0.005)
    path = tmp_path / "step.csv"
    PotentialGrid(grid=grid, values=np.where(grid.x > 1.0, 2.0, 0.0), asymptote=0.0).write_csv(path)
    out = tmp_path / "scan.json"
    assert main(["scatter", str(path), "--emin", "3", "--emax", "20", "--steps", "20", "--json", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error: potential must have equal asymptotes (truncate it first)" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_units_anchor(capsys):
    assert main(["units", "--mass", "rb87", "--l", "20", "--L", "5e-4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"scale_J", "scale_hHz", "scale_kBK"}
    assert payload["scale_J"] > 0


def test_cli_units_mass_error_names_lengths(capsys):
    # a numeric mass with a bad length is a length error, not an unknown atom
    assert main(["units", "--mass", "1.4e-25", "--l", "-1", "--L", "1"]) == 1
    err = capsys.readouterr().err
    assert "lengths" in err and "unknown atom" not in err


def test_cli_defaults_match_pipeline_config():
    config = PipelineConfig()
    parser = build_parser()
    design = parser.parse_args(["design", "--levels", "primes:3"])
    assert (design.half_width, design.spacing) == (config.half_width, config.spacing)
    synth = parser.parse_args(["holo", "synth", "pot.csv"])
    assert (synth.m, synth.iters, synth.seed) == (config.holo_m, config.holo_iters, config.seed)
    pipeline = parser.parse_args(["pipeline"])
    assert set(vars(pipeline)) == {f.name for f in fields(PipelineConfig)} | {"config", "command", "func"}
    assert all(getattr(pipeline, f.name) is None for f in fields(PipelineConfig))


def test_cli_validation_exit_code(capsys):
    assert main(["design", "--levels", "nonsense:3", "--out", "/tmp/x.csv"]) == 1


@pytest.mark.parametrize(
    "failure, code",
    [
        (ValueError("bad input"), 1),
        (OSError("unreadable"), 1),
        (FloatingPointError("overflow"), 2),
        (RuntimeError("no convergence"), 2),
        (ChainError("node in the chain"), 2),
    ],
    ids=["ValueError", "OSError", "FloatingPointError", "RuntimeError", "ChainError"],
)
def test_cli_exit_code_by_failure(tmp_path, monkeypatch, capsys, failure, code):
    # the exit code follows the failure's type, raised directly by a command
    # or inside a pipeline stage, and a failed pipeline writes no file
    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cli, "counting_estimates", fail)
    monkeypatch.setattr(pipeline, "design_potential", fail)
    outdir = tmp_path / "out"
    for argv in (["pi", "--x", "100"], ["pipeline", "--sequence", "primes:3", "--outdir", str(outdir)]):
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(failure) in captured.err, argv
    assert not outdir.exists()


def test_cli_numerical_exit_code(tmp_path, capsys):
    # one optimizer iteration leaves the hologram far from its target, so the
    # reconstructed levels miss theirs: numerical failure
    code = main(
        [
            "pipeline",
            "--sequence",
            "primes:10",
            "--hologram",
            "--holo-iters",
            "1",
            "--outdir",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "MISS" in capsys.readouterr().out


def test_cli_holo_commands(tmp_path, capsys):
    pot = tmp_path / "pot.csv"
    main(["design", "--levels", "primes:5", "--half-width", "10", "--out", str(pot)])
    phase = tmp_path / "phase.csv"
    intensity = tmp_path / "intensity.csv"
    code = main(
        [
            "holo",
            "synth",
            str(pot),
            "--m",
            "52",
            "--iters",
            "250",
            "--out",
            f"{phase},{intensity}",
        ]
    )
    assert code == 0
    rec = tmp_path / "rec.csv"
    assert main(["holo", "extract", str(intensity), "--out", str(rec)]) == 0
    assert rec.exists()
    capsys.readouterr()
    assert main(["solve", str(rec), "--targets", "primes:5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rounds_to_target"] == [True] * 5


def test_cli_holo_synth_warns_on_failed_line_search(tmp_path, capsys, monkeypatch):
    pot = tmp_path / "pot.csv"
    main(["design", "--levels", "primes:5", "--half-width", "10", "--out", str(pot)])
    out = f"{tmp_path / 'phase.csv'},{tmp_path / 'intensity.csv'}"
    synth = ["holo", "synth", str(pot), "--m", "52", "--iters", "20", "--out", out]
    capsys.readouterr()
    assert main(synth) == 0
    assert "line search stalled" not in capsys.readouterr().err
    exact = hologram.cost_and_gradient

    def uphill(state, sums=None):
        cost, grad = exact(state, sums)
        return cost, -grad

    monkeypatch.setattr(hologram, "cost_and_gradient", uphill)
    assert main(synth) == 0
    captured = capsys.readouterr()
    assert "iterations 0" in captured.out
    assert "warning: line search stalled" in captured.err


@pytest.mark.parametrize("out", ["one.csv", "a.csv,b.csv,c.csv", "phase.csv,"])
def test_cli_holo_synth_needs_two_outputs(tmp_path, capsys, out):
    assert main(["holo", "synth", str(tmp_path / "pot.csv"), "--out", out]) == 1
    assert "two comma-separated paths" in capsys.readouterr().err


def test_cli_semiclassical(tmp_path, capsys):
    out = tmp_path / "sc.csv"
    assert main(["semiclassical", "--vmax", "40", "--samples", "150", "--out", str(out)]) == 0
    pot = PotentialGrid.read_csv(out)
    assert pot.asymptote == pytest.approx(40.0)
    assert pot.even


def test_cli_filter_verdicts(capsys):
    assert main(["filter", "--w", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["lucky_prime"] is True
    assert main(["filter", "--w", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["lucky_prime"] is False
    assert main(["filter", "--w", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["w"] == 3


def test_cli_pipeline_exit_zero(tmp_path):
    assert (
        main(
            [
                "pipeline",
                "--sequence",
                "primes:4",
                "--half-width",
                "10",
                "--outdir",
                str(tmp_path / "p"),
            ]
        )
        == 0
    )


def test_cli_holo_matches_pipeline_bytes(tmp_path):
    # synth derives the pipeline's SR length from the written CSV: at the
    # 100-pixel floor (primes:5) and above it (lucky:20, 213 pixels)
    for sequence, m, iters in (("primes:5", 52, 250), ("lucky:20", 128, 40)):
        outdir = tmp_path / sequence.replace(":", "")
        config = PipelineConfig(
            sequence=sequence,
            half_width=10.0,
            hologram=True,
            holo_m=m,
            holo_iters=iters,
            seed=1,
            outdir=str(outdir),
        )
        run_pipeline(config)
        phase, intensity, rec, cost = (
            tmp_path / name for name in ("phase.csv", "intensity.csv", "rec.csv", "cost.json")
        )
        synth = ["holo", "synth", str(outdir / "potential.csv"), "--m", str(m)]
        synth += ["--iters", str(iters), "--seed", "1", "--out", f"{phase},{intensity}"]
        synth += ["--cost-out", str(cost)]
        assert main(synth) == 0
        assert main(["holo", "extract", str(intensity), "--out", str(rec)]) == 0
        assert phase.read_bytes() == (outdir / "phase.csv").read_bytes()
        assert intensity.read_bytes() == (outdir / "intensity.csv").read_bytes()
        assert rec.read_bytes() == (outdir / "potential_reconstructed.csv").read_bytes()
        assert cost.read_bytes() == (outdir / "cost_history.json").read_bytes()


def test_cli_holo_synth_rejects_nan_asymptote(tmp_path, monkeypatch, capsys):
    grid = default_grid(3.0, 0.05)
    path = tmp_path / "pot.csv"
    PotentialGrid(grid=grid, values=-6.0 / np.cosh(grid.x) ** 2, asymptote=0.0).write_csv(path)
    path.write_text(path.read_text().replace("# asymptote=0.0\n", "# asymptote=nan\n"))
    monkeypatch.chdir(tmp_path)  # the default outputs land here
    assert main(["holo", "synth", str(path), "--iters", "2", "--cost-out", "cost.json"]) == 1
    assert f"{path}: metadata asymptote='nan' is not finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_cli_holo_synth_rejects_an_overflowing_range(tmp_path, monkeypatch, capsys):
    # asymptote - min V = 2e308 is inf; the suite's RuntimeWarning filter shows nothing overflowed first
    grid = default_grid(3.0, 0.05)
    path = tmp_path / "pot.csv"
    PotentialGrid(grid=grid, values=-1e308 / np.cosh(grid.x) ** 2, asymptote=1e308).write_csv(path)
    monkeypatch.chdir(tmp_path)  # the default outputs land here
    assert main(["holo", "synth", str(path), "--iters", "2", "--cost-out", "cost.json"]) == 1
    assert "potential range [-1e+308, 1e+308] overflows a float" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_cli_holo_synth_rejects_sizes_past_modulator_limit(tmp_path, monkeypatch, capsys):
    def no_plane(*args, **kwargs):
        raise AssertionError("drew a start plane")

    exact_linspace = np.linspace

    def bounded_linspace(start, stop, num=50, **kwargs):
        if num >= 2 * MODULATOR_LIMIT:
            raise AssertionError(f"built a {num}-pixel row")
        return exact_linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(hologram.np.random, "default_rng", no_plane)
    monkeypatch.setattr(hologram.np, "linspace", bounded_linspace)
    grid = default_grid(3.0, 0.05)
    path = tmp_path / "pot.csv"
    PotentialGrid(grid=grid, values=-6.0 / np.cosh(grid.x) ** 2, asymptote=0.0).write_csv(path)
    monkeypatch.chdir(tmp_path)  # the default outputs land here
    # refused before any draw: at m = 4096 phase.csv is already about 420 MB
    assert main(["holo", "synth", str(path), "--m", str(MODULATOR_LIMIT + 1)]) == 1
    assert f"m = {MODULATOR_LIMIT + 1} exceeds the limit of {MODULATOR_LIMIT}" in capsys.readouterr().err
    # an asymptote of 1e10 derives an SR of 1,697,058 pixels
    path.write_text(path.read_text().replace("# asymptote=0.0\n", "# asymptote=10000000000.0\n"))
    assert main(["holo", "synth", str(path)]) == 1
    err = capsys.readouterr().err
    assert "sr_length = 1697058" in err and f"m = 848530, past the limit of {MODULATOR_LIMIT}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


@pytest.mark.parametrize("m", [48, 63, 256])
def test_phase_writer_bytes_match_savetxt(tmp_path, m):
    # a double-phase plane repeats its 2 (odd m: 3) distinct rows
    rng = np.random.default_rng(m)
    rows = hologram._double_phase(rng.normal(size=m) + 1j * rng.normal(size=m))
    written, reference = tmp_path / "phase.csv", tmp_path / "savetxt.csv"
    hologram.write_phase_csv(written, rows)
    np.savetxt(reference, rows[hologram.plane_row_index(m)], delimiter=",")
    assert written.read_bytes() == reference.read_bytes()


@pytest.fixture(scope="module")
def primes5_potential():
    return design_potential(first_primes(5).astype(np.float64), default_grid(10.0))


@pytest.mark.parametrize("m", [52, 63, 256])
def test_reported_field_is_the_written_planes(tmp_path, primes5_potential, m):
    holo = pipeline.synthesize_hologram(primes5_potential, m, 30, seed=1)
    holo.write(tmp_path / "phase.csv", tmp_path / "intensity.csv")
    plane = np.loadtxt(tmp_path / "phase.csv", delimiter=",")
    assert plane.shape == (m, m)
    sums = (np.exp(1j * plane) * (1.0 / m)).sum(axis=0)
    # the state's sums come from the distinct rows, so they match the file's to roundoff
    bound = m * np.finfo(float).eps * np.max(np.abs(sums))
    assert np.max(np.abs(sums - holo.result.state.sums)) <= bound
    assert np.array_equal(holo.field, hologram.propagate(holo.result.state))
