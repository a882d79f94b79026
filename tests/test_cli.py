import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modegap import cli
from modegap.bogoliubov import read_activation_csv, planck_occupation
from modegap.network import read_report_csv
from modegap import verify as verify_mod


def run_cli(args):
    return cli.main(args)


class TestConfigResolution:
    def test_defaults_file_set_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nchannel.iota = 0.25\ngrid.N = 1024\n")
        args = cli.build_parser().parse_args(
            ["degrade", "--config", str(cfg), "--set", "grid.N=512",
             "--out", str(tmp_path / "o")])
        resolved = cli.resolve_config(args)
        assert resolved["channel.iota"] == "0.25"   # file beats default
        assert resolved["grid.N"] == "512"          # --set beats file
        assert resolved["out.dir"] == str(tmp_path / "o")
        assert resolved["channel.profile"] == "uniform"  # default survives

    def test_seed_flag_overrides_sweep_seeds(self, tmp_path):
        args = cli.build_parser().parse_args(["train-sweep", "--seed", "7"])
        assert cli.resolve_config(args)["sweep.seeds"] == "7"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.M = 3\n")
        assert run_cli(["spectrum", "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 2
        assert run_cli(["spectrum", "--set", "nope=1",
                        "--out", str(tmp_path / "o")]) == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.N 1024\n")
        assert run_cli(["spectrum", "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run_cli(["spectrum", "--config", str(tmp_path / "none.cfg"),
                        "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv", [
        ["train-sweep", "--set", "sweep.levels=0,2"],
        ["train-sweep", "--set", "sweep.levels=1,0"],
        ["degrade", "--set", "sweep.levels=0,2"],
        ["degrade", "--set", "sweep.levels="],
        ["spectrum", "--set", "grid.N=4"],
        ["spectrum", "--set", "grid.L=nan"],
        ["spectrum", "--set", "grid.L=0.1", "--set", "grid.N=8"],
        ["channel", "--set", "grid.L=inf"],
    ])
    def test_bad_value_exits_2_with_one_line(self, tmp_path, capsys, argv):
        assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_resolved_echoed(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["channel", "--out", str(out),
                        "--set", "grid.N=256"]) == 0
        text = (out / "config.resolved").read_text()
        assert "grid.N = 256" in text
        assert "channel.profile = uniform" in text


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
        assert "oracle max rel err" in printed

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
        z, f, fp = read_activation_csv(out / "degraded_activation.csv")
        assert len(z) == 4096
        svg = (out / "degraded_activation.svg").read_text()
        assert svg.count("<polyline") == 5  # one curve per default sweep level


class TestTrainSweepCommand:
    def test_endpoints_and_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run_cli(["train-sweep", "--out", str(out),
                        "--set", "sweep.levels=0,1",
                        "--set", "sweep.seeds=0,1"]) == 0
        printed = capsys.readouterr().out
        assert "monotone-degradation check" in printed
        assert "median_epochs@1=never" in printed
        reports = read_report_csv(out / "train_reports.csv")
        assert len(reports) == 4
        at1 = [r for r in reports if r.iota == 1.0]
        assert all(r.mean_grad_norm_first100 == 0.0 for r in at1)
        assert (out / "train_sweep.svg").exists()

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
        package; it must install and summarise a traced command."""
        root = Path(__file__).resolve().parents[1]
        script = (
            "import sys\n"
            "import child\n"
            "from tracer import Tracer\n"
            "from modegap import cli\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            f"code = cli.main(['degrade', '--set', 'grid.N=256', '--out', {str(tmp_path / 'o')!r}])\n"
            "child.per_layer_metrics(tracer, [0])\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr


class TestEntryPoint:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "modegap", "channel", "--out",
             str(tmp_path / "o"), "--set", "grid.N=128"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "commutator residual" in proc.stdout

    def test_usage_error_exit_code(self):
        assert run_cli(["nonsense-command"]) == 2
