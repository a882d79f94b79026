import contextlib
import errno
import filecmp
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modegap import cli, network, spectral
from modegap.activations import sigmoid_prime
from modegap.bogoliubov import planck_occupation, reconstruct, uniform_channel
from modegap.network import sweep, write_report_csv
from modegap.spectral import Grid
from modegap import verify as verify_mod


def run_cli(args):
    return cli.main(args)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def checkout_env():
    """The environment with this checkout's ``src`` on PYTHONPATH: pytest's
    ``pythonpath`` setting does not reach a subprocess."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


COMMANDS = ["spectrum", "channel", "degrade", "train-sweep"]
# One bad value per key; the channel parameters are unread under the default
# uniform profile, except channel.iota.
BAD_VALUES = {"grid.L": "abc", "grid.N": "6", "channel.profile": "bandstop",
              "channel.iota": "7", "channel.kc": "abc", "channel.T": "-5",
              "sweep.levels": "0,2", "sweep.seeds": "-1", "task.name": "cifar"}


class TestConfigResolution:
    def test_defaults_file_set_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nchannel.iota = 0.25\ngrid.N = 1024\n")
        options = ["--config", str(cfg), "--set", "grid.N=512",
                   "--set", "sweep.seeds=0,1", "--set", "sweep.seeds=3",
                   "--out", str(tmp_path / "o")]
        resolved = cli.resolve_config(cli.build_parser().parse_args(["train-sweep", *options]))
        # --set beats file, a later --set beats an earlier one, defaults survive,
        # and --out is no key.
        assert resolved.values == {"grid.L": 40.0, "grid.N": 512,
                                   "sweep.levels": [0.0, 0.25, 0.5, 0.75, 1.0], "sweep.seeds": [3],
                                   "task.name": "xor"}
        assert {key: type(v) for key, v in resolved.values.items()} == {
            "grid.L": float, "grid.N": int, "sweep.levels": list, "sweep.seeds": list,
            "task.name": str}
        assert resolved.grid.n_points == 512
        assert resolved.out == tmp_path / "o"              # --out names the directory
        assert np.all(resolved.channel.iota == 0.25)       # an unrecorded key still resolves
        degrade = cli.resolve_config(cli.build_parser().parse_args(["degrade", *options]))
        assert degrade.values["channel.iota"] == 0.25      # file beats default
        assert degrade.values["grid.N"] == 512             # --set beats file
        assert degrade.values["channel.profile"] == "uniform"  # default survives

    def test_every_profile_parameter_is_checked_by_its_maker(self, tmp_path, monkeypatch,
                                                             capsys):
        """Every profile's maker checks its parameter, but only the run's
        profile is built on the run's grid."""
        assert run_cli(["channel", "--set", "channel.kc=abc", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: bad channel.kc: could not convert string to float: 'abc'\n")
        grids = {}

        def recording(name, real):
            def maker(grid, value):
                grids[name] = grid
                return real(grid, value)
            return maker

        for name in ("uniform_channel", "lowpass_channel", "thermal_channel"):
            monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
        run = cli.resolve_config(cli.build_parser().parse_args(
            ["channel", "--set", "channel.profile=lowpass", "--set", "grid.N=1024"]))
        assert grids == {"uniform_channel": cli.CHECK_GRID, "lowpass_channel": run.grid,
                         "thermal_channel": cli.CHECK_GRID}
        assert run.grid.n_points == 1024 and run.compose == 1
        assert run.values == {"grid.L": 40.0, "grid.N": 1024, "channel.profile": "lowpass",
                              "channel.kc": 2.0}
        assert type(run.values["channel.kc"]) is float

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_refuses_seed(self, tmp_path, command):
        """Seeds are set as ``sweep.seeds`` alone; no command has a ``--seed``."""
        assert run_cli([command, "--seed", "3", "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_out_dir_is_no_key(self, tmp_path, monkeypatch, capsys):
        """``--out`` alone names the output directory."""
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text("out.dir = x\n")
        assert run_cli(["spectrum", "--config", "run.cfg"]) == 2
        assert capsys.readouterr().err == (
            "error: run.cfg:1: expected 'key = value' with a known key, got 'out.dir = x'\n")
        assert run_cli(["spectrum", "--set", "out.dir=x"]) == 2
        assert capsys.readouterr().err == (
            "error: --set: expected 'key = value' with a known key, got 'out.dir=x'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_defaults_are_verify_configuration(self, tmp_path):
        resolved = cli.resolve_config(cli.build_parser().parse_args(
            ["train-sweep", "--out", str(tmp_path)]))
        assert resolved.grid == verify_mod.DEFAULT_GRID
        assert resolved.values["sweep.levels"] == list(verify_mod.SWEEP_LEVELS)
        assert resolved.values["sweep.seeds"] == list(verify_mod.SWEEP_SEEDS)
        cli.write_run(resolved, [])
        assert [p.name for p in tmp_path.iterdir()] == ["config.resolved"]
        assert (tmp_path / "config.resolved").read_text() == (
            "grid.L = 40\ngrid.N = 4096\nsweep.levels = 0,0.25,0.5,0.75,1\n"
            "sweep.seeds = 0,1,2,3,4,5,6,7,8,9\ntask.name = xor\n")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        """The error names the assignment's source: the file's path:line,
        counting comment and blank lines, or the flag."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\n\ngrid.N = 1024\ngrid.M = 3\n")
        assert run_cli(["spectrum", "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:4: expected 'key = value' with a known key, got 'grid.M = 3'\n")
        assert run_cli(["spectrum", "--set", "nope=1",
                        "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: --set: expected 'key = value' with a known key, got 'nope=1'\n")
        assert not (tmp_path / "o").exists()

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.N 1024  # no equals sign\n")
        assert run_cli(["spectrum", "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:1: expected 'key = value' with a known key, got 'grid.N 1024'\n")
        assert run_cli(["spectrum", "--set", "grid.N",
                        "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: --set: expected 'key = value' with a known key, got 'grid.N'\n")
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli(["spectrum", "--config", str(tmp_path / "none.cfg"),
                        "--out", str(tmp_path / "o")]) == 2
        (tmp_path / "cfgdir").mkdir()
        assert run_cli(["spectrum", "--config", str(tmp_path / "cfgdir"),
                        "--out", str(tmp_path / "o")]) == 2
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"# \xe9\xff\ngrid.N = 1024\n")
        assert run_cli(["spectrum", "--config", str(latin1),
                        "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["train-sweep", "--set", "sweep.levels=0,2"],
        ["train-sweep", "--set", "sweep.levels=1,0"],
        ["train-sweep", "--set", "sweep.levels=0,0,1", "--set", "sweep.seeds=0,1"],
        ["train-sweep", "--set", "sweep.seeds=0,1,0"],
        ["degrade", "--set", "sweep.levels=0,2"],
        ["degrade", "--set", "sweep.levels="],
        ["spectrum", "--set", "grid.N=4"],
        ["spectrum", "--set", "grid.L=nan"],
        ["spectrum", "--set", "grid.L=0.1", "--set", "grid.N=8"],
        ["channel", "--set", "grid.L=inf"],
        ["channel", "--set", "channel.profile=lowpass", "--set", "channel.kc=nan"],
        ["channel", "--set", "channel.profile=lowpass", "--set", "channel.kc=inf"],
        ["channel", "--set", "channel.profile=thermal", "--set", "channel.T=inf"],
        ["channel", "--set", f"grid.N={2**56}"],
        ["spectrum", "--set", "grid.L=5e-324"],
        ["spectrum", "--set", "grid.L=1e308"],
        ["degrade", "--set", "grid.L=5e-324"],
        ["degrade", "--set", "grid.L=1e308"],
        ["spectrum", "--set", "task.name=cifar"],
        ["degrade", "--set", "channel.profile=lowpass", "--set", "sweep.levels=0,2"],
        ["train-sweep", "--set", "channel.profile=bandstop", "--set", "sweep.levels=1",
         "--set", "sweep.seeds=0"],
        ["degrade", "--set", "grid.L=1e300"],
        ["channel", "--set", "grid.L=3000", "--set", "grid.N=8"],
        ["channel", "--set", "grid.N=8", "--set", "channel.profile=thermal", "--compose", "20"],
        ["channel", "--set", "grid.N=8", "--set", "channel.profile=thermal", "--compose", "38"],
        ["channel", "--compose", "0"],
        ["channel", "--compose", "1" + "0" * 400],
        ["channel", "--set", "channel.profile=thermal", "--compose", "100000000000"],
        ["train-sweep", "--set", "sweep.levels=0,,1"],
        ["train-sweep", "--set", "sweep.seeds=0,1,"],
        ["train-sweep", "--set", "task.name=XOR"],
        ["spectrum", "--set", "task.name=XOR"],
        # Every key on every command, whether or not the command or the run's
        # profile reads it.
        *([command, "--set", f"{key}={val}"]
          for command in COMMANDS for key, val in BAD_VALUES.items()),
        *([command, "--set", profile, "--set", bad] for command in COMMANDS
          for profile, bad in [("channel.profile=lowpass", "channel.iota=7"),
                               ("channel.profile=thermal", "channel.kc=abc"),
                               ("channel.profile=lowpass", "channel.T=-5")]),
    ])
    @pytest.mark.filterwarnings("error")  # no warning may precede the error line
    def test_bad_value_exits_2_with_one_line(self, tmp_path, capsys, argv):
        assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_bad_values_cover_every_key(self):
        assert set(BAD_VALUES) == set(cli.DEFAULTS)

    def test_options_belong_to_the_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["--out", "o", "channel", "--set", "grid.N=128"]) == 2
        assert run_cli(["--set", "grid.N=128", "channel", "--out", "o"]) == 2
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "out").exists()
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["verify", "--out", "x"])

    def test_empty_out_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        """An empty ``--out`` names no directory; ``--out .`` is the current one."""
        monkeypatch.chdir(tmp_path)
        assert run_cli(["spectrum", "--out", ""]) == 2
        assert capsys.readouterr().err == (
            "error: --out is empty; use --out . for the current directory\n")
        assert list(tmp_path.iterdir()) == []
        assert run_cli(["channel", "--out", ".", "--set", "grid.N=128"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "channel.txt", "channel_modes.csv", "config.resolved"]

    def test_resolved_echoed(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["channel", "--out", str(out),
                        "--set", "grid.N=256"]) == 0
        text = (out / "config.resolved").read_text()
        assert "grid.N = 256" in text
        assert "channel.profile = uniform" in text


# Config values for the fuzz: edge floats, the valid names, bounded integers,
# junk text without decimal digits (so it never parses as a huge grid.N), and
# empty, unsorted or out-of-range comma lists.
EDGE_VALUES = ["nan", "-nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e-310",
               "2.2250738585072014e-308", "1e-300", "1e300", "1e308", "-1", "0.5",
               "1", "2", "40", "uniform", "lowpass", "thermal", "xor", "moons", ""]
NUMBERS = st.one_of(st.integers(-2**16, 2**16), st.floats(-2.0, 2.0), st.just(float("nan")))
CONFIG_VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.integers(-2**16, 2**16).map(str),
    st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=8),
    st.lists(NUMBERS, max_size=4).map(lambda xs: ",".join(map(str, xs))),
)
FUZZED_KEYS = sorted(cli.DEFAULTS)


def set_flags(values):
    return [flag for key, val in values.items() for flag in ("--set", f"{key}={val}")]


class TestConfigFuzz:
    @given(st.sampled_from(COMMANDS),
           st.dictionaries(st.sampled_from(FUZZED_KEYS), CONFIG_VALUES, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_resolve_config_returns_or_raises_config_error(self, command, values):
        args = cli.build_parser().parse_args([command, *set_flags(values)])
        try:
            run = cli.resolve_config(args)
        except cli.ConfigError:
            return
        assert isinstance(run, cli.RunConfig)

    @given(st.sampled_from(["spectrum", "channel", "degrade"]),
           st.dictionaries(st.sampled_from(FUZZED_KEYS), CONFIG_VALUES, max_size=3),
           st.one_of(st.sampled_from([2**e for e in range(13)]),
                     st.integers(-2**12, 2**12)),
           st.sampled_from([0, 1, 2, 3, 19, 20, 10**11]))
    @settings(max_examples=50, deadline=None)
    def test_cli_exits_0_or_2(self, command, values, n_points, compose):
        values["grid.N"] = n_points
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            argv = [command, *set_flags(values), "--out", str(out)]
            if command == "channel":
                argv += ["--compose", str(compose)]
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = run_cli(argv)
            assert code in (0, 2)
            if code == 2:
                lines = stderr.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: ")
                assert not out.exists()


GRID_RECORD = ("grid.L = 40", "grid.N = 256")
SWEEP_RECORD = (*GRID_RECORD, "sweep.levels = 1", "sweep.seeds = 0", "task.name = xor")
# (command, profile, the lines of its config.resolved after record_flags(profile))
RECORDS = [
    ("spectrum", "uniform", GRID_RECORD),
    ("spectrum", "lowpass", GRID_RECORD),
    ("spectrum", "thermal", GRID_RECORD),
    ("channel", "uniform", ("channel.iota = 0.5", "channel.profile = uniform", *GRID_RECORD)),
    ("channel", "lowpass", ("channel.kc = 2", "channel.profile = lowpass", *GRID_RECORD)),
    ("channel", "thermal", ("channel.T = 1", "channel.profile = thermal", *GRID_RECORD)),
    ("degrade", "uniform", ("channel.iota = 0.5", "channel.profile = uniform", *GRID_RECORD,
                            "sweep.levels = 1")),
    ("degrade", "lowpass", ("channel.kc = 2", "channel.profile = lowpass", *GRID_RECORD)),
    ("degrade", "thermal", ("channel.T = 1", "channel.profile = thermal", *GRID_RECORD)),
    ("train-sweep", "uniform", SWEEP_RECORD),
    ("train-sweep", "lowpass", SWEEP_RECORD),
    ("train-sweep", "thermal", SWEEP_RECORD),
]
RECORD_IDS = [f"{command}-{profile}" for command, profile, _ in RECORDS]


def record_flags(profile):
    return ["--set", f"channel.profile={profile}", "--set", "grid.N=256",
            "--set", "sweep.levels=1", "--set", "sweep.seeds=0"]


def assert_same_files(first, *others):
    """Each of ``others`` holds the files of ``first``, config.resolved among
    them, byte for byte."""
    names = sorted(p.name for p in first.iterdir())
    assert "config.resolved" in names
    for other in others:
        assert sorted(p.name for p in other.iterdir()) == names
        for name in names:
            assert (first / name).read_bytes() == (other / name).read_bytes(), (other, name)


class TestRunRecord:
    """``config.resolved`` lists the keys that shaped a command's outputs, and
    no other, in sorted order, each with its parsed value in the one text that
    parses back to it."""

    @pytest.mark.parametrize("command, profile, recorded", RECORDS, ids=RECORD_IDS)
    def test_recorded_keys(self, tmp_path, command, profile, recorded):
        out = tmp_path / "o"
        assert run_cli([command, "--out", str(out), *record_flags(profile)]) == 0
        assert (out / "config.resolved").read_text().splitlines() == list(recorded)

    @pytest.mark.parametrize("command, profile", [r[:2] for r in RECORDS], ids=RECORD_IDS)
    def test_record_reruns_to_the_same_directory(self, tmp_path, capsys, command, profile):
        """A command run on its own config.resolved, at the same grid.N, writes
        the same directory and prints the same lines."""
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli([command, "--out", str(first), *record_flags(profile)]) == 0
        printed = capsys.readouterr()
        assert run_cli([command, "--out", str(second), "--config", str(first / "config.resolved"),
                        "--set", "grid.N=256"]) == 0
        assert capsys.readouterr() == printed
        assert_same_files(first, second)

    @pytest.mark.parametrize("command, spellings", [
        (["train-sweep", "--set", "sweep.levels=0,1"],
         [["--set", "sweep.seeds=0,01"], ["--set", "sweep.seeds=0,1"]]),
        (["spectrum"], [["--set", "grid.L=4e1"], []]),
        (["degrade", "--set", "grid.N=256"],
         [["--set", "channel.iota=.5"], ["--set", "channel.iota=0.50"], []]),
        (["train-sweep", "--set", "sweep.seeds=0", "--set", "grid.N=256"],
         [["--set", "sweep.levels=-0,1"], ["--set", "sweep.levels=0,1"]]),
        (["degrade", "--set", "grid.N=256"],
         [["--set", "sweep.levels=-0,1"], ["--set", "sweep.levels=0,1"]]),
        (["channel", "--set", "grid.N=256"],
         [["--set", "channel.iota=-0"], ["--set", "channel.iota=0"]]),
    ], ids=["sweep.seeds", "grid.L", "channel.iota", "sweep.levels-0-train-sweep",
            "sweep.levels-0-degrade", "channel.iota-0"])
    def test_spellings_of_one_value_write_one_directory(self, tmp_path, capsys, command,
                                                        spellings):
        """The record holds parsed values, so spellings of the same values write
        the same directory, config.resolved included, and print the same lines."""
        printed = []
        for n, spelling in enumerate(spellings):
            assert run_cli([*command, *spelling, "--out", str(tmp_path / str(n))]) == 0
            printed.append(capsys.readouterr())
        assert printed == [printed[0]] * len(spellings)
        assert_same_files(*(tmp_path / str(n) for n in range(len(spellings))))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_lines_are_printed_once_every_file_is_in_place(self, tmp_path, monkeypatch, command):
        """A command computes its files, as (name, writer) pairs, and its lines,
        and opens no path; the writer puts every file in place, and only then
        are the lines printed."""
        out = tmp_path / "o"
        argv = [command, "--out", str(out), *record_flags("uniform")]
        monkeypatch.chdir(tmp_path)
        args = cli.build_parser().parse_args(argv)
        files, lines = args.run(cli.resolve_config(args))
        assert list(tmp_path.iterdir()) == []
        names = sorted(["config.resolved", *(name for name, _ in files)])
        listings = []

        class Watching(io.StringIO):
            def write(self, text):
                listings.append(sorted(p.name for p in out.iterdir()))
                return super().write(text)
        with contextlib.redirect_stdout(Watching()) as printed:
            assert run_cli(argv) == 0
        assert printed.getvalue() == "".join(f"{line}\n" for line in lines)
        assert listings and listings == [names] * len(listings)

    def test_unread_channel_keys_leave_a_sweep_unchanged(self, tmp_path, capsys):
        """A sweep never reads the channel keys, so setting them changes no byte
        of its directory, config.resolved included, nor of its printed lines."""
        printed = []
        for name, extra in [("default", []),
                            ("thermal", ["--set", "channel.profile=thermal",
                                         "--set", "channel.T=0.01"])]:
            assert run_cli(["train-sweep", "--out", str(tmp_path / name), *extra,
                            "--set", "sweep.seeds=0,1"]) == 0
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1]
        assert_same_files(tmp_path / "default", tmp_path / "thermal")


class TestSpectrumCommand:
    def test_outputs_and_oracle_columns(self, tmp_path, capsys):
        out = tmp_path / "spec"
        assert run_cli(["spectrum", "--out", str(out),
                        "--set", "grid.N=1024"]) == 0
        for name in ("gap_samples.csv", "gap_spectrum.csv",
                     "oracle_comparison.csv", "gap_spectrum.svg",
                     "config.resolved"):
            assert (out / name).exists()
        lines = (out / "oracle_comparison.csv").read_text().splitlines()
        assert lines[0] == "k,numeric,analytic,rel_err"
        printed = capsys.readouterr().out
        assert "grid-oracle-agreement" in printed

    def test_default_grid_prints_verify_line(self, tmp_path, capsys):
        assert run_cli(["spectrum", "--out", str(tmp_path / "spec")]) == 0
        assert capsys.readouterr().out == (
            "PASS grid-oracle-agreement: "
            + verify_mod.check_grid_oracle_agreement()[1] + "\n")

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["spectrum", "--out", str(out),
                            "--set", "grid.N=1024"]) == 0
        for name in ("gap_samples.csv", "gap_spectrum.csv", "oracle_comparison.csv"):
            assert filecmp.cmp(a / name, b / name, shallow=False)

    def test_finer_grid_reduces_error(self, tmp_path, capsys):
        def max_rel(n):
            out = tmp_path / f"n{n}"
            assert run_cli(["spectrum", "--out", str(out),
                            "--set", f"grid.N={n}"]) == 0
            rows = (out / "oracle_comparison.csv").read_text().splitlines()[1:]
            vals = [(float(r.split(",")[0]), float(r.split(",")[3])) for r in rows]
            return max(e for k, e in vals if 0.1 <= k <= 10.0)

        assert max_rel(8192) < max_rel(4096)

    def test_unwritable_out_dir(self, capsys):
        assert run_cli(["spectrum", "--out", "/dev/null/nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: spectrum cannot write its output: [Errno 20] "
                                "Not a directory: '/dev/null/nope'\n")

class TestChannelCommand:
    def test_uniform_residual_printed(self, tmp_path, capsys):
        out = tmp_path / "ch"
        assert run_cli(["channel", "--out", str(out),
                        "--set", "channel.iota=0", "--set", "grid.N=256"]) == 0
        assert "commutator residual: 0" in capsys.readouterr().out

    def test_compose_residual(self, tmp_path, capsys):
        out = tmp_path / "ch"
        assert run_cli(["channel", "--out", str(out), "--compose", "2",
                        "--set", "channel.iota=0.5", "--set", "grid.N=256"]) == 0
        assert "commutator residual: 0.75" in capsys.readouterr().out

    def test_deep_composition_described_flat(self, tmp_path):
        """A 10^11-fold composition is described as its base channel plus
        ``compose = 100000000000``, so writing channel.txt cannot recurse per
        level; it is one closed form, so the command ends well within the
        timeout, which turns a return to per-copy composition into a failure."""
        out = tmp_path / "ch"
        proc = subprocess.run(
            [sys.executable, "-m", "modegap", "channel", "--out", str(out),
             "--compose", "100000000000", "--set", "grid.N=8"],
            capture_output=True, text=True, env=checkout_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = (out / "channel.txt").read_text().splitlines()
        values = dict(line.split(" = ", 1) for line in lines)
        assert values["compose"] == "100000000000"
        assert values["max_iota"] == "1.0"
        resolved = (out / "config.resolved").read_text().splitlines()
        assert "channel.profile = uniform" in resolved
        assert "channel.iota = 0.5" in resolved

    def test_descriptor(self, tmp_path):
        out = tmp_path / "ch"
        assert run_cli(["channel", "--out", str(out), "--set", "channel.profile=thermal",
                        "--set", "channel.T=2", "--set", "grid.L=20",
                        "--set", "grid.N=256"]) == 0
        assert (out / "config.resolved").read_text() == (
            "channel.T = 2\nchannel.profile = thermal\ngrid.L = 20\ngrid.N = 256\n")
        lines = (out / "channel.txt").read_text().splitlines()
        assert [line.split(" = ")[0] for line in lines] == ["max_iota", "max_squeeze"]

    @pytest.mark.filterwarnings("error")
    def test_tiny_temperature_without_warning(self, tmp_path):
        """|k|/2T overflows for T = 1e-320; exp(-inf) = 0 is the exact limit."""
        out = tmp_path / "ch"
        assert run_cli(["channel", "--out", str(out), "--set", "channel.profile=thermal",
                        "--set", "channel.T=1e-320"]) == 0
        rows = (out / "channel_modes.csv").read_text().splitlines()[1:]
        occupations = [float(row.split(",")[4]) for row in rows]
        assert sum(occ != 0.0 for occ in occupations) == 1  # only the capped k = 0 mode

    def test_thermal_occupation_column(self, tmp_path):
        out = tmp_path / "ch"
        assert run_cli(["channel", "--out", str(out),
                        "--set", "channel.profile=thermal",
                        "--set", "channel.T=1.0", "--set", "grid.N=512"]) == 0
        rows = (out / "channel_modes.csv").read_text().splitlines()
        assert rows[0] == "k,alpha,beta,eta,occupation"
        for row in rows[1:]:
            k, alpha, beta, eta, occ = (float(v) for v in row.split(","))
            assert eta == 1.0
            if abs(k) > 0.5:
                assert occ == pytest.approx(planck_occupation(k, 1.0), abs=1e-10)

    def test_unknown_profile(self, tmp_path):
        assert run_cli(["channel", "--out", str(tmp_path / "x"),
                        "--set", "channel.profile=bandstop"]) == 2


class TestDegradeCommand:
    def test_identity_reports_tiny_deviation(self, tmp_path, capsys):
        out = tmp_path / "deg"
        assert run_cli(["degrade", "--out", str(out),
                        "--set", "channel.iota=0"]) == 0
        printed = capsys.readouterr().out
        assert "loss_fraction: 0" in printed
        dev = float(printed.split("max deviation from sigmoid:")[1].strip())
        assert dev < 1e-6

    def test_total_loss(self, tmp_path, capsys):
        out = tmp_path / "deg"
        assert run_cli(["degrade", "--out", str(out),
                        "--set", "channel.iota=1"]) == 0
        assert "loss_fraction: 1" in capsys.readouterr().out

    def test_half_loss_fraction(self, tmp_path, capsys):
        out = tmp_path / "deg"
        assert run_cli(["degrade", "--out", str(out),
                        "--set", "channel.iota=0.5"]) == 0
        assert "loss_fraction: 0.5" in capsys.readouterr().out

    def test_csv_and_svg_family(self, tmp_path):
        out = tmp_path / "deg"
        assert run_cli(["degrade", "--out", str(out)]) == 0
        lines = (out / "degraded_activation.csv").read_text().splitlines()
        assert lines[0] == "z,f,fprime"
        assert len(lines) == 1 + 4096
        svg = (out / "degraded_activation.svg").read_text()
        assert svg.count("<polyline") == 5  # one curve per default sweep level

    FAMILIES = {"own level inside": [], "own level outside": ["--set", "channel.iota=0.3"],
                "one level": ["--set", "sweep.levels=0.5"],
                "off the lattice": ["--set", "grid.L=5"],
                "lowpass": ["--set", "channel.profile=lowpass"],
                "thermal": ["--set", "channel.profile=thermal"]}

    @pytest.mark.parametrize("options", FAMILIES.values(), ids=FAMILIES)
    def test_family_transforms_two_arrays(self, tmp_path, monkeypatch, options):
        """A degrade of any profile transforms the gap and sigma' once each.
        Each curve of a uniform run's family has the bits of that level's own
        reconstruction read at the plot's points, the family's path before it
        shared them; another profile plots the run's own curve alone."""
        transformed, plotted = [], []
        real_transform, real_plot = spectral.transform_samples, cli.line_plot

        def transform(grid, samples):
            transformed.append(samples)
            return real_transform(grid, samples)

        def plot(path, curves, *labels):
            plotted.extend(curves)
            return real_plot(path, curves, *labels)
        bound = [(module, name) for module in list(sys.modules.values())
                 if module.__name__.split(".")[0] == "modegap"
                 for name, value in vars(module).items() if value is real_transform]
        assert {(module.__name__, name) for module, name in bound} >= {
            ("modegap", "transform_samples"), ("modegap.spectral", "transform_samples"),
            ("modegap.bogoliubov", "transform_samples")}
        for module, name in bound:
            monkeypatch.setattr(module, name, transform)
        monkeypatch.setattr(cli, "line_plot", plot)
        assert run_cli(["degrade", "--out", str(tmp_path / "deg"), *options]) == 0

        run = cli.resolve_config(cli.build_parser().parse_args(["degrade", *options]))
        grid, profile = run.grid, run.values["channel.profile"]
        assert len(transformed) == 2
        assert same_bits(transformed[0], spectral.gap_samples(grid))
        assert same_bits(transformed[1], sigmoid_prime(grid.z))
        if profile == "uniform":
            expected = [(f"iota={iota:g}", uniform_channel(grid, iota))
                        for iota in run.values["sweep.levels"]]
        else:
            expected = [(profile, run.channel)]
        assert [label for label, *_ in plotted] == [label for label, _ in expected]
        for (_, zs, curve), (_, channel) in zip(plotted, expected):
            assert same_bits(zs, np.linspace(-10.0, 10.0, 801))
            assert same_bits(curve, reconstruct(channel).evaluate(zs))


class TestTrainSweepCommand:
    def test_endpoints_and_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run_cli(["train-sweep", "--out", str(out),
                        "--set", "sweep.levels=0,1",
                        "--set", "sweep.seeds=0,1"]) == 0
        printed = capsys.readouterr().out
        report = sweep("xor", [0, 1], [0, 1], Grid(40, 4096))
        write_report_csv(tmp_path / "expected.csv", report)
        assert ((out / "train_reports.csv").read_bytes()
                == (tmp_path / "expected.csv").read_bytes())
        checks = verify_mod.sweep_checks("xor", report)
        assert [name for name, _, _ in checks] == ["xor-trainability-endpoints",
                                                   "grad-norm-monotone"]
        assert printed.splitlines() == [
            f"{'PASS' if passed else 'FAIL'} {name}: {measured}"
            for name, passed, measured in checks]
        assert report.final_loss.shape == (2, 2)
        assert report.iota.tolist() == [0.0, 1.0]
        assert np.all(report.mean_grad_norm_first100[1] == 0.0)
        assert (out / "train_sweep.svg").exists()

    def test_one_level_prints_only_monotone(self, tmp_path, capsys):
        assert run_cli(["train-sweep", "--out", str(tmp_path / "sweep"),
                        "--set", "sweep.levels=1", "--set", "sweep.seeds=0"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1
        assert printed[0].startswith("PASS grad-norm-monotone: ")

    def test_unknown_task(self, tmp_path, capsys):
        assert run_cli(["train-sweep", "--out", str(tmp_path / "x"),
                        "--set", "task.name=cifar"]) == 2
        assert run_cli(["train-sweep", "--out", str(tmp_path / "x"),
                        "--set", "task.name=XOR"]) == 2  # names are exact
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: unknown task: 'XOR' (xor, moons)")

    def test_negative_seed_rejected(self, tmp_path):
        assert run_cli(["train-sweep", "--out", str(tmp_path / "x"),
                        "--set", "sweep.seeds=-1"]) == 2
        assert run_cli(["train-sweep", "--out", str(tmp_path / "x"),
                        "--set", "sweep.seeds=0,1.5"]) == 2

    def test_seeds_past_int64_are_written_as_integers(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli(["train-sweep", "--out", str(out), "--set", "sweep.levels=0",
                        "--set", "sweep.seeds=7,9223372036854775809"]) == 0
        rows = (out / "train_reports.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["7", "9223372036854775809"]

    def test_seed_of_2_to_the_64_rejected_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli(["train-sweep", "--out", str(out),
                        "--set", "sweep.seeds=18446744073709551616"]) == 2
        assert capsys.readouterr().err == ("error: sweep.seeds must be distinct integers "
                                           "in [0, 2**64): '18446744073709551616'\n")
        assert not out.exists()


class TestVerifyCommand:
    def test_exit_codes_and_lines(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(verify_mod, "run_criteria",
                            lambda full=False: [("alpha", True, "ok"),
                                                ("beta", False, "bad")])
        assert run_cli(["verify"]) == 1
        printed = capsys.readouterr().out
        assert "PASS alpha: ok" in printed
        assert "FAIL beta: bad" in printed
        assert "1/2 criteria passed" in printed

        monkeypatch.setattr(verify_mod, "run_criteria",
                            lambda full=False: [("alpha", True, "ok")])
        assert run_cli(["verify"]) == 0

    def test_corrupted_build_fails_oracle(self, monkeypatch):
        """A sign flip injected into the gap must trip the oracle criterion."""
        from modegap import spectral

        true_gap = spectral.gap_samples
        monkeypatch.setattr(spectral, "gap_samples", lambda grid: -true_gap(grid))
        passed, measured = verify_mod.check_grid_oracle_agreement()
        assert not passed


# Where each command meets each exit-2 rule: its options; the function that
# raises MemoryError in its place; its first output, which a directory of that
# name blocks (verify writes none); and the function its first worker on two
# cores runs, with the worker's name in the error.  A writer forks only for a
# table of more than 8,192 rows, and its first worker formats the first output.
TWO_CHUNKS = ["--set", "grid.N=16384"]
WRITER = ((spectral, "_write_rows"), "formatting rows 8192-16383 of {first}")
EXIT_2 = {
    "spectrum": (TWO_CHUNKS, (cli, "continuum_gap_spectrum"), "gap_samples.csv", WRITER),
    "channel": (TWO_CHUNKS, (cli, "write_columns"), "channel_modes.csv", WRITER),
    "degrade": (TWO_CHUNKS, (cli, "reconstruct"), "degraded_activation.csv", WRITER),
    "train-sweep": (["--set", "sweep.levels=0,1", "--set", "sweep.seeds=0,1,2"], (cli, "sweep"),
                    "train_reports.csv", ((network, "_train"), "training seeds 1,2")),
    "verify": (None, (verify_mod, "run_criteria"), None,
               ((network, "_train"), "training seeds 5,6,7,8,9")),
}


# The exit-2 paths of a run into --out.
EXIT_2_PATHS = ["bad-config", "memory-while-computing", "memory-in-a-writer", "training-worker",
                "writer-worker", "directory-in-the-way", "unwritable", "move-fails-second",
                "move-fails-last"]


def tree(root):
    """Each path under ``root`` -> its bytes, or None for a directory."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


class TestExit2:
    """Each resource failure exits 2 with one ``error:`` line, nothing on
    stdout and no worker left, for every command it can meet."""

    @staticmethod
    def error_line(harness, capsys, command, out, profile=None):
        options = EXIT_2[command][0]
        argv = [command] if options is None else [command, "--out", str(out), *options]
        argv += ["--set", f"channel.profile={profile}"] if profile else []
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        harness.assert_nothing_left()
        return captured.err

    @pytest.mark.parametrize("command, profile", [
        *((command, None) for command in EXIT_2), ("degrade", "lowpass"), ("degrade", "thermal")],
        ids=[*EXIT_2, "degrade-lowpass", "degrade-thermal"])
    def test_out_of_memory(self, tmp_path, monkeypatch, capsys, harness, command, profile):
        """The spy stands in for an allocation too large: while spectrum,
        degrade and train-sweep compute, and in channel's first table's
        writer, after its record is staged.  No command makes its
        directory.  The hint names only what the run reads: grid points
        (grid.N), seeds (sweep.seeds), levels (sweep.levels, which only a
        uniform degrade plots as a family); verify reads no key and gets
        none."""
        def no_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(*EXIT_2[command][1], no_memory)
        hint = {"spectrum": "; use fewer grid points",
                "channel": "; use fewer grid points",
                "degrade": ("; use fewer grid points" if profile  # lowpass, thermal
                            else "; use fewer levels or grid points"),
                "train-sweep": "; use fewer seeds, levels or grid points",
                "verify": ""}[command]
        out = tmp_path / "out"
        assert self.error_line(harness, capsys, command, out, profile) == (
            f"error: {command} ran out of memory{hint}\n")
        assert not out.exists()

    def test_out_of_memory_while_resolving(self, tmp_path, monkeypatch, capsys, harness):
        """Before the run's keys are known, the hint names every key the
        command may read, and nothing is written."""
        def no_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli, "thermal_channel", no_memory)
        out = tmp_path / "out"
        assert self.error_line(harness, capsys, "degrade", out, "lowpass") == (
            "error: degrade ran out of memory; use fewer levels or grid points\n")
        assert not out.exists()

    def test_out_of_memory_in_the_family_spectrum(self, tmp_path, monkeypatch, capsys, harness):
        """A uniform degrade transforms the gap for its run and its family
        once, as the grid's ``gap_spectrum``, before ``reconstruct``; that
        allocation exits 2 the same way, and nothing is written."""
        def no_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(spectral, "gap_samples", no_memory)
        out = tmp_path / "out"
        assert self.error_line(harness, capsys, "degrade", out) == (
            "error: degrade ran out of memory; use fewer levels or grid points\n")
        assert not out.exists()

    @pytest.mark.parametrize("before", ["earlier-run", "absent"])
    @pytest.mark.parametrize("path", EXIT_2_PATHS)
    def test_an_exit_2_leaves_out_as_it_was(self, tmp_path, monkeypatch, capsys, harness,
                                            path, before):
        """Each exit-2 path, run into a directory that holds a good run, leaves
        its listing and bytes as they were; run into a directory that did not
        exist, under a parent that did not either, it leaves neither.  A move
        into place that fails (as ``EPERM`` does on another user's file in a
        sticky directory) undoes the moves before it: on the second move, and
        on the last, into a run whose record is gone, so that a new file with
        no old one is taken back too."""
        out = tmp_path / "new" / "out"
        blocked = out / "degraded_activation.svg"
        if before == "earlier-run":
            assert run_cli(["degrade", "--out", str(out), "--set", "grid.N=256"]) == 0
            capsys.readouterr()
            if path == "directory-in-the-way":
                blocked.unlink()
                blocked.mkdir()
            if path == "move-fails-last":
                (out / "config.resolved").unlink()
        was = tree(tmp_path)
        argv = ["degrade", "--out", str(out), "--set", "grid.N=256", "--set", "channel.iota=0.25"]
        no_memory = "error: degrade ran out of memory; use fewer levels or grid points"
        real_plot, failed = cli.line_plot, []   # failed: the move that fails

        def failing(error):
            def fail(*args, **kwargs):
                raise error
            return fail

        def blocking_plot(*args):
            blocked.mkdir(exist_ok=True)
            return real_plot(*args)
        if path == "bad-config":
            argv += ["--set", "channel.iota=7"]
            error = "error: bad channel.iota: loss profile must lie in [0, 1]"
        elif path == "memory-while-computing":
            monkeypatch.setattr(cli, "reconstruct", failing(MemoryError))
            error = no_memory
        elif path == "memory-in-a-writer":  # the last writer, once every other file is staged
            monkeypatch.setattr(cli, "line_plot", failing(MemoryError))
            error = no_memory
        elif path == "training-worker":
            harness.cores(2)
            harness.spy(network, "_train", fail="worker")
            argv = ["train-sweep", "--out", str(out), "--set", "sweep.levels=0,1",
                    "--set", "sweep.seeds=0,1"]
            error = "error: train-sweep: the worker training seeds 1 exited with 1"
        elif path == "writer-worker":
            harness.cores(2)
            harness.spy(spectral, "_write_rows", fail="worker")
            argv += ["--set", "grid.N=16384"]
            error = (f"error: degrade: the worker formatting rows 8192-16383 of "
                     f"{out}/degraded_activation.csv exited with 1")
        elif path == "directory-in-the-way":  # absent: the directory appears while the run writes
            monkeypatch.setattr(cli, "line_plot", blocking_plot)
            error = ("error: degrade cannot write its output: "
                     f"[Errno 21] Is a directory: '{blocked}'")
        elif path == "unwritable":
            monkeypatch.setattr(cli, "line_plot", failing(OSError(errno.ENOSPC, "No space left")))
            error = "error: degrade cannot write its output: [Errno 28] No space left"
        else:  # move-fails-second, move-fails-last
            real_replace, moves = Path.replace, []

            def replace(source, target):  # fails once; the moves that undo it succeed
                moves.append(target)
                if not failed and (len(moves) == 2 if path == "move-fails-second"
                                   else target == blocked):
                    failed.append(f"'{source}' -> '{target}'")
                    raise OSError(errno.EPERM, "Operation not permitted", str(source), None,
                                  str(target))
                return real_replace(source, target)
            monkeypatch.setattr(Path, "replace", replace)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        if failed:
            error = ("error: degrade cannot write its output: [Errno 1] Operation not "
                     f"permitted: {failed[0]}")
        assert captured.out == "" and captured.err == f"{error}\n"
        assert tree(tmp_path) == was
        assert (tmp_path / "new").exists() == (before == "earlier-run")

    @pytest.mark.parametrize("command", [c for c in EXIT_2 if EXIT_2[c][2]])
    def test_directory_in_the_way(self, tmp_path, capsys, harness, command):
        """The output that cannot be written is named, and nothing is
        written: not the record, nor any file that comes before it."""
        out, blocked = tmp_path / "out", EXIT_2[command][2]
        (out / blocked).mkdir(parents=True)
        error = self.error_line(harness, capsys, command, out)
        assert error == (f"error: {command} cannot write its output: [Errno 21] "
                         f"Is a directory: '{out / blocked}'\n")
        assert [p.name for p in out.iterdir()] == [blocked]
        assert list((out / blocked).iterdir()) == []

    @pytest.mark.parametrize("command", EXIT_2)
    def test_failed_worker(self, tmp_path, capsys, harness, command):
        *_, first, (work, name) = EXIT_2[command]
        harness.cores(2)
        harness.spy(*work, fail="worker")
        out = tmp_path / "out"
        assert self.error_line(harness, capsys, command, out) == (
            f"error: {command}: the worker {name.format(first=f'{out}/{first}')} exited with 1\n")
        # a writer's table is named at its place in --out, where nothing is written
        assert not out.exists()


class TestBenchmarkTracing:
    def test_tracer_installs_and_summarises(self, tmp_path):
        """The benchmark's span tracer wraps every public callable of the
        package and counts the rows of the spectrum and activation writers;
        it must install and summarise traced commands that call both, and a
        traced train-sweep, which two of the benchmark's workloads run.  The
        parser binds each command's handler per call, so the tracer times
        every ``cmd_*`` it rebinds."""
        root = Path(__file__).resolve().parents[1]
        script = (
            "import child\n"
            "from tracer import Tracer\n"
            "from modegap import cli\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "codes = [cli.main([command, '--set', 'grid.N=256', '--out', f'o-{command}'])\n"
            "         for command in ('degrade', 'spectrum', 'channel')]\n"
            "sweep_code = cli.main(['train-sweep', '--set', 'grid.N=256', '--set',\n"
            "                       'sweep.levels=0,1', '--set', 'sweep.seeds=0',\n"
            "                       '--out', 'o-sweep'])\n"
            "metrics, _ = child.per_layer_metrics(tracer, [0])\n"
            "print(*(metrics[f'cli.cmd_{name}.s'] > 0\n"
            "        for name in ('degrade', 'spectrum', 'channel', 'train_sweep')))\n"
            "print(sweep_code, metrics['network.train.calls'])\n"
            "print(codes, metrics['spectral.write_spectrum_csv.rows'],\n"
            "      metrics['bogoliubov.write_activation_csv.rows'])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] 256 256"
        assert proc.stdout.splitlines()[-2] == "0 1"
        assert proc.stdout.splitlines()[-3] == "True True True True"


class TestEntryPoint:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "modegap", "channel", "--out",
             str(tmp_path / "o"), "--set", "grid.N=128"],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 0
        assert "commutator residual" in proc.stdout

    def test_usage_error_exit_code(self):
        assert run_cli(["nonsense-command"]) == 2
