import contextlib
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

from modegap import cli
from modegap.bogoliubov import planck_occupation
from modegap.network import sweep, write_report_csv
from modegap.spectral import Grid
from modegap import verify as verify_mod


def run_cli(args):
    return cli.main(args)


def checkout_env():
    """The environment with this checkout's ``src`` on PYTHONPATH: pytest's
    ``pythonpath`` setting does not reach a subprocess."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


COMMANDS = ["spectrum", "channel", "degrade", "train-sweep"]
# One bad value per key but out.dir; the channel parameters are unread under the
# default uniform profile, except channel.iota.
BAD_VALUES = {"grid.L": "abc", "grid.N": "6", "channel.profile": "bandstop",
              "channel.iota": "7", "channel.kc": "abc", "channel.T": "-5",
              "sweep.levels": "0,2", "sweep.seeds": "-1", "task.name": "cifar"}


class TestConfigResolution:
    def test_defaults_file_set_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nchannel.iota = 0.25\ngrid.N = 1024\n")
        args = cli.build_parser().parse_args(
            ["train-sweep", "--config", str(cfg), "--set", "grid.N=512",
             "--set", "out.dir=a", "--set", "sweep.seeds=0,1", "--seed", "3",
             "--out", str(tmp_path / "o")])
        resolved = cli.resolve_config(args)
        assert resolved.values["channel.iota"] == "0.25"   # file beats default
        assert resolved.values["grid.N"] == "512"          # --set beats file
        assert resolved.values["out.dir"] == str(tmp_path / "o")  # --out beats --set
        assert resolved.values["sweep.seeds"] == "3"       # --seed beats --set
        assert resolved.values["channel.profile"] == "uniform"  # default survives
        assert resolved.grid.n_points == 512

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
        assert run.grid.n_points == 1024 and run.params == {"kc": 2.0}

    def test_seed_flag_overrides_sweep_seeds(self, tmp_path):
        args = cli.build_parser().parse_args(["train-sweep", "--seed", "7"])
        resolved = cli.resolve_config(args)
        assert resolved.values["sweep.seeds"] == "7"
        assert resolved.seeds == [7]

    def test_defaults_are_verify_configuration(self):
        resolved = cli.resolve_config(cli.build_parser().parse_args(["train-sweep"]))
        assert resolved.grid == verify_mod.DEFAULT_GRID
        assert resolved.levels == list(verify_mod.SWEEP_LEVELS)
        assert resolved.seeds == list(verify_mod.SWEEP_SEEDS)
        assert [resolved.values[key] for key in ("grid.L", "grid.N", "sweep.levels",
                                                 "sweep.seeds")] == [
            "40", "4096", "0,0.25,0.5,0.75,1", "0,1,2,3,4,5,6,7,8,9"]

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
         "--seed", "0"],
        ["degrade", "--set", "grid.L=1e300"],
        ["channel", "--set", "grid.L=3000", "--set", "grid.N=8"],
        ["channel", "--set", "grid.N=8", "--set", "channel.profile=thermal", "--compose", "20"],
        ["channel", "--set", "grid.N=8", "--set", "channel.profile=thermal", "--compose", "38"],
        ["channel", "--compose", "0"],
        ["channel", "--compose", "1" + "0" * 400],
        ["channel", "--set", "channel.profile=thermal", "--compose", "100000000000"],
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
        assert set(BAD_VALUES) == set(cli.DEFAULTS) - {"out.dir"}

    def test_options_belong_to_the_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["--out", "o", "channel", "--set", "grid.N=128"]) == 2
        assert run_cli(["--set", "grid.N=128", "channel", "--out", "o"]) == 2
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "out").exists()
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["verify", "--out", "x"])

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
FUZZED_KEYS = sorted(set(cli.DEFAULTS) - {"out.dir"})


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

    def test_unwritable_out_dir(self):
        assert run_cli(["spectrum", "--out", "/dev/null/nope"]) == 2


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
        assert values["profile"] == "uniform"
        assert values["compose"] == "100000000000"
        assert values["iota"] == "0.5"
        assert values["max_iota"] == "1.0"

    def test_descriptor(self, tmp_path):
        out = tmp_path / "ch"
        assert run_cli(["channel", "--out", str(out), "--set", "channel.profile=thermal",
                        "--set", "channel.T=2", "--set", "grid.L=20",
                        "--set", "grid.N=256"]) == 0
        text = (out / "channel.txt").read_text()
        assert "profile = thermal" in text
        assert "T = 2.0" in text
        assert "grid.L = 20.0" in text
        assert "grid.N = 256" in text

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


class TestTrainSweepCommand:
    def test_endpoints_and_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run_cli(["train-sweep", "--out", str(out),
                        "--set", "sweep.levels=0,1",
                        "--set", "sweep.seeds=0,1"]) == 0
        printed = capsys.readouterr().out
        reports = sweep("xor", [0, 1], [0, 1], Grid(40, 4096))
        write_report_csv(tmp_path / "expected.csv", reports)
        assert ((out / "train_reports.csv").read_bytes()
                == (tmp_path / "expected.csv").read_bytes())
        checks = verify_mod.sweep_checks("xor", reports, [0.0, 1.0])
        assert [name for name, _, _ in checks] == ["xor-trainability-endpoints",
                                                   "grad-norm-monotone"]
        assert printed.splitlines() == [
            f"{'PASS' if passed else 'FAIL'} {name}: {measured}"
            for name, passed, measured in checks]
        assert len(reports) == 4
        at1 = [r for r in reports if r.iota == 1.0]
        assert all(r.mean_grad_norm_first100 == 0.0 for r in at1)
        assert (out / "train_sweep.svg").exists()

    def test_one_level_prints_only_monotone(self, tmp_path, capsys):
        assert run_cli(["train-sweep", "--out", str(tmp_path / "sweep"),
                        "--set", "sweep.levels=1", "--seed", "0"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1
        assert printed[0].startswith("PASS grad-norm-monotone: ")

    def test_unknown_task(self, tmp_path):
        assert run_cli(["train-sweep", "--out", str(tmp_path / "x"),
                        "--set", "task.name=cifar"]) == 2

    def test_negative_seed_rejected(self, tmp_path):
        assert run_cli(["train-sweep", "--out", str(tmp_path / "x"),
                        "--seed", "-1"]) == 2
        assert run_cli(["train-sweep", "--out", str(tmp_path / "x"),
                        "--set", "sweep.seeds=0,1.5"]) == 2


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


class TestBenchmarkTracing:
    def test_tracer_installs_and_summarises(self, tmp_path):
        """The benchmark's span tracer wraps every public callable of the
        package and counts the rows of the spectrum and activation writers;
        it must install and summarise traced commands that call both, and a
        traced train-sweep, which two of the benchmark's workloads run."""
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
            "                       'sweep.levels=0,1', '--seed', '0', '--out', 'o-sweep'])\n"
            "metrics, _ = child.per_layer_metrics(tracer, [0])\n"
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
