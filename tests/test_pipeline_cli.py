import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from primepot.cli import build_parser, main
from primepot.grid import PotentialGrid, default_grid
from primepot.hologram import potential_to_target, write_intensity_csv
from primepot.pipeline import (
    PipelineConfig,
    PipelineStageError,
    parse_sequence_spec,
    run_pipeline,
)
from primepot import cli, semiclassical, sequences
from primepot.scattering import SCAN_STEP_LIMIT
from primepot.semiclassical import PROFILE_POINT_LIMIT, SAMPLE_LIMIT
from primepot.sequences import DEFAULT_TERMS, EXACT_COUNT_LIMIT, LUCKY_LIMIT


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
    [("spaceing=0.01", "spaceing"), ("hologram=yes", "yes"), ("kinetic='half'", "kinetic"), ("holo_d=9", "holo_d")],
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


def test_pipeline_with_hologram(tmp_path):
    config = PipelineConfig(
        sequence="primes:5",
        half_width=10.0,
        hologram=True,
        holo_m=48,
        holo_sr=80,
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
    monkeypatch.setattr(semiclassical, "Grid", no_allocation)
    assert main(["semiclassical", "--vmax", "1e15", "--out", out]) == 1
    assert f"exceeds {PROFILE_POINT_LIMIT:.0e}" in capsys.readouterr().err
    # the quadrature lattice holds (samples - 1) x 256 energies
    monkeypatch.setattr(semiclassical.np, "linspace", no_allocation)
    assert main(["semiclassical", "--samples", str(SAMPLE_LIMIT + 1), "--out", out]) == 1
    assert f"not exceed {SAMPLE_LIMIT:.0e}" in capsys.readouterr().err


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


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_cli_design_rejects_non_finite_levels(tmp_path, capsys, bad):
    levels = tmp_path / "levels.txt"
    levels.write_text(f"1\n{bad}\n")
    out = tmp_path / "pot.csv"
    assert main(["design", "--levels", f"file:{levels}", "--out", str(out)]) == 1
    assert f"levels must be finite; got [{bad}]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("command", ["solve", "scatter", "synth", "extract"])
def test_cli_rejects_non_finite_csv_rows(tmp_path, monkeypatch, capsys, command, bad):
    grid = default_grid(3.0, 0.05)
    pot = PotentialGrid(grid=grid, values=-6.0 / np.cosh(grid.x) ** 2, asymptote=0.0)
    if command == "extract":
        _, tmap = potential_to_target(pot, 20)
        path = tmp_path / "intensity.csv"
        write_intensity_csv(path, np.ones(tmap.sr_length), tmap)
    else:
        path = tmp_path / "pot.csv"
        pot.write_csv(path)
    lines = path.read_text().splitlines()
    row = len(lines) - 5
    lines[row] = lines[row].partition(",")[0] + "," + bad
    path.write_text("\n".join(lines) + "\n")
    argv = {
        "solve": ["solve", str(path), "--json", "spectrum.json"],
        "scatter": ["scatter", str(path), "--emin", "1", "--emax", "2", "--json", "scan.json"],
        "synth": ["holo", "synth", str(path), "--iters", "2", "--cost-out", "cost.json"],
        "extract": ["holo", "extract", str(path)],
    }[command]
    monkeypatch.chdir(tmp_path)  # every default output lands here
    assert main(argv) == 1
    assert f"{path}: line {row + 1} holds a non-finite value" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


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
    assert (synth.m, synth.sr, synth.iters, synth.seed) == (
        config.holo_m,
        config.holo_sr,
        config.holo_iters,
        config.seed,
    )
    pipeline = parser.parse_args(["pipeline"])
    assert set(vars(pipeline)) == {f.name for f in fields(PipelineConfig)} | {"config", "command", "func"}
    assert all(getattr(pipeline, f.name) is None for f in fields(PipelineConfig))
    for command in ("pi --x 10", "semiclassical"):
        assert parser.parse_args(command.split()).terms == DEFAULT_TERMS


def test_cli_validation_exit_code(capsys):
    assert main(["design", "--levels", "nonsense:3", "--out", "/tmp/x.csv"]) == 1


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
            "48",
            "--sr",
            "80",
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
    outdir = tmp_path / "pipe"
    config = PipelineConfig(
        sequence="primes:5",
        half_width=10.0,
        hologram=True,
        holo_m=48,
        holo_sr=80,
        holo_iters=250,
        seed=1,
        outdir=str(outdir),
    )
    run_pipeline(config)
    phase, intensity, rec, cost = (
        tmp_path / name for name in ("phase.csv", "intensity.csv", "rec.csv", "cost.json")
    )
    synth = ["holo", "synth", str(outdir / "potential.csv"), "--m", "48", "--sr", "80"]
    synth += ["--iters", "250", "--seed", "1", "--out", f"{phase},{intensity}"]
    synth += ["--cost-out", str(cost)]
    assert main(synth) == 0
    assert main(["holo", "extract", str(intensity), "--out", str(rec)]) == 0
    assert phase.read_bytes() == (outdir / "phase.csv").read_bytes()
    assert intensity.read_bytes() == (outdir / "intensity.csv").read_bytes()
    assert rec.read_bytes() == (outdir / "potential_reconstructed.csv").read_bytes()
    assert cost.read_bytes() == (outdir / "cost_history.json").read_bytes()
