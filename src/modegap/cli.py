"""Experiment runner: spectrum, channel, degrade, train-sweep, verify.

Options follow the subcommand.  Configuration is a flat key-value file (one
``key = value`` per line, ``#`` comments) overridden by repeatable ``--set
key=value`` flags; ``--out`` and ``--seed`` are shorthands for ``out.dir`` and
a single-seed sweep.  ``verify`` takes only ``--full``.  ``resolve_config``
checks every key once, before any command writes, and the fully resolved
configuration is echoed to ``<out.dir>/config.resolved`` next to the outputs.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error; a command that exits 2 has written nothing.
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .activations import sigmoid
from .spectral import Grid, continuum_spectrum, gap_samples, write_columns, write_spectrum_csv
from .bogoliubov import (
    BogoliubovChannel,
    channel_descriptor,
    commutator_residual,
    lowpass_channel,
    reconstruct,
    self_compose,
    thermal_channel,
    uniform_channel,
    write_activation_csv,
)
from .network import TASKS, sweep, write_report_csv
from .svgplot import line_plot
from . import verify as verify_mod

DEFAULTS = {
    "grid.L": "40",
    "grid.N": "4096",
    "channel.profile": "uniform",
    "channel.iota": "0.5",
    "channel.kc": "2.0",
    "channel.T": "1.0",
    "sweep.levels": "0,0.25,0.5,0.75,1",
    "sweep.seeds": "0,1,2,3,4,5,6,7,8,9",
    "task.name": "xor",
    "out.dir": "out",
}


class ConfigError(ValueError):
    pass


def parse_config_file(path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


@dataclass(frozen=True)
class RunConfig:
    """The resolved ``key = value`` strings of a run, and every one parsed and checked."""

    values: dict
    grid: Grid
    channel: BogoliubovChannel
    levels: list
    seeds: list
    task: str


def _comma_list(values, key, convert):
    text = values[key]
    try:
        return [convert(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad {key}: {text!r}") from exc


def resolve_config(args) -> RunConfig:
    """Merge defaults, ``--config``, ``--set``, ``--out`` and ``--seed``, then
    parse and check every key; raises ``ConfigError`` on the first bad one."""
    values = dict(DEFAULTS)
    if args.config:
        file_values = parse_config_file(args.config)
        unknown = set(file_values) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = (part.strip() for part in item.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        values[key] = val
    if args.out:
        values["out.dir"] = args.out
    if args.seed is not None:
        values["sweep.seeds"] = str(args.seed)

    try:
        grid = Grid(float(values["grid.L"]), int(values["grid.N"]))
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc

    # Built per call, so that a maker rebound on this module (as the
    # benchmark's span tracer does) is the one called.
    makers = {"uniform": (uniform_channel, "channel.iota"),
              "lowpass": (lowpass_channel, "channel.kc"),
              "thermal": (thermal_channel, "channel.T")}
    profile = values["channel.profile"]
    if profile not in makers:
        raise ConfigError(f"unknown profile: {profile!r} (uniform, lowpass, thermal)")
    maker, key = makers[profile]
    try:
        channel = maker(grid, float(values[key]))
    except ValueError as exc:
        raise ConfigError(f"bad channel: {exc}") from exc

    levels = _comma_list(values, "sweep.levels", float)
    if not levels or levels != sorted(levels) or not all(0.0 <= v <= 1.0 for v in levels):
        raise ConfigError("sweep.levels must be non-empty, ascending and in [0, 1]: "
                          f"{values['sweep.levels']!r}")
    seeds = _comma_list(values, "sweep.seeds", int)
    if not seeds or any(s < 0 for s in seeds):
        raise ConfigError(f"sweep.seeds must be non-negative integers: {values['sweep.seeds']!r}")
    task = values["task.name"].lower()
    if task not in TASKS:
        raise ConfigError(f"unknown task: {task!r} ({', '.join(TASKS)})")
    return RunConfig(values, grid, channel, levels, seeds, task)


def prepare_out(run: RunConfig) -> Path:
    out_dir = Path(run.values["out.dir"])
    lines = [f"{k} = {v}" for k, v in sorted(run.values.items())]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.resolved").write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir}: {exc}") from exc
    return out_dir


def print_checks(results) -> int:
    """Print a ``PASS|FAIL name: measured`` line per check; return the failures."""
    for name, passed, measured in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {measured}")
    return sum(not passed for _, passed, _ in results)


def cmd_spectrum(run: RunConfig) -> int:
    grid = run.grid
    g = gap_samples(grid)
    spec = continuum_spectrum(grid, g)
    try:
        (ks, numeric, analytic, rel_err), oracle = verify_mod.oracle_comparison(spec)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    out_dir = prepare_out(run)

    write_columns(out_dir / "gap_samples.csv", ["z", "g"], [grid.z, g])
    write_spectrum_csv(out_dir / "gap_spectrum.csv", spec)
    write_columns(out_dir / "oracle_comparison.csv", ["k", "numeric", "analytic", "rel_err"],
                  [ks, numeric.imag, analytic.imag, rel_err])

    show = ks <= 20.0
    line_plot(out_dir / "gap_spectrum.svg",
              [("numeric |g(k)|", ks[show], np.abs(numeric[show])),
               ("analytic |g(k)|", ks[show], np.abs(analytic[show]))],
              "Gap mode spectrum", "k", "|amplitude|")

    print_checks([("grid-oracle-agreement", *oracle)])
    return 0


def cmd_channel(run: RunConfig, compose_n: int) -> int:
    out_dir = prepare_out(run)
    channel = self_compose(run.channel, compose_n)

    beta = channel.beta
    write_columns(out_dir / "channel_modes.csv", ["k", "alpha", "beta", "eta", "occupation"],
                  [run.grid.k, channel.alpha, beta, channel.eta, beta**2])
    (out_dir / "channel.txt").write_text(channel_descriptor(channel))
    print(f"commutator residual: {commutator_residual(channel):.12g}")
    return 0


def cmd_degrade(run: RunConfig) -> int:
    grid, channel = run.grid, run.channel
    out_dir = prepare_out(run)
    activation = reconstruct(channel)

    write_activation_csv(out_dir / "degraded_activation.csv", activation)
    (out_dir / "channel.txt").write_text(channel_descriptor(channel))

    zs = np.linspace(-10.0, 10.0, 801)
    curves = []
    if channel.profile == "uniform":
        for iota in run.levels:
            act = activation if iota == channel.params["iota"] \
                else reconstruct(uniform_channel(grid, iota))
            curves.append((f"iota={iota:g}", zs, act.evaluate(zs)))
    else:
        curves.append((channel.profile, zs, activation.evaluate(zs)))
    line_plot(out_dir / "degraded_activation.svg", curves,
              "Degraded activations", "z", "f(z)")

    sigma_dev = float(np.max(np.abs(activation.samples - sigmoid(grid.z))))
    print(f"loss_fraction: {activation.loss_fraction:.12g}")
    print(f"max deviation from sigmoid: {sigma_dev:.6e}")
    return 0


def cmd_train_sweep(run: RunConfig) -> int:
    out_dir = prepare_out(run)
    task, levels = run.task, run.levels
    reports = sweep(task, levels, run.seeds, run.grid)
    write_report_csv(out_dir / "train_reports.csv", reports)

    medians_g = verify_mod.grad_norm_medians(reports, levels)
    medians_a = [float(np.median([r.final_accuracy for r in reports if r.iota == iota]))
                 for iota in levels]
    line_plot(out_dir / "train_sweep.svg",
              [("median hidden grad norm", levels, medians_g),
               ("median final accuracy", levels, medians_a)],
              f"Trainability vs loss level ({task})", "iota", "median metric")

    print_checks(verify_mod.sweep_checks(task, reports, levels))
    return 0


def cmd_verify(full: bool) -> int:
    results = verify_mod.run_criteria(full=full)
    failures = print_checks(results)
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 1 if failures else 0


def build_parser():
    """Each option is declared once, on the subcommands that read it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--out", help="output directory (out.dir)")
    common.add_argument("--seed", type=int, help="run sweeps with this single seed")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")

    parser = argparse.ArgumentParser(
        prog="modegap", description="Mode-spectrum degradation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common],
                   help="gap samples, spectrum, and oracle comparison")
    p_channel = sub.add_parser("channel", parents=[common],
                               help="per-mode channel coefficients")
    p_channel.add_argument("--compose", type=int, default=1, metavar="N",
                           help="apply the channel N times in sequence")
    sub.add_parser("degrade", parents=[common],
                   help="reconstruct the degraded activation")
    sub.add_parser("train-sweep", parents=[common],
                   help="trainability sweep over loss levels")
    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--full", action="store_true",
                          help="include the moons sweep")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "verify":
        return cmd_verify(args.full)
    try:
        run = resolve_config(args)
        if args.command == "spectrum":
            return cmd_spectrum(run)
        if args.command == "channel":
            if args.compose < 1:
                raise ConfigError("--compose must be >= 1")
            return cmd_channel(run, args.compose)
        if args.command == "degrade":
            return cmd_degrade(run)
        return cmd_train_sweep(run)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
