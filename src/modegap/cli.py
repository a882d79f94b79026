"""Experiment runner: spectrum, channel, degrade, train-sweep, verify.

Configuration is a flat key-value file (one ``key = value`` per line, ``#``
comments) overridden by repeatable ``--set key=value`` flags; ``--out`` and
``--seed`` are shorthands for ``out.dir`` and a single-seed sweep.  The fully
resolved configuration is echoed to ``<out.dir>/config.resolved`` next to the
outputs of every command.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error; a command that exits 2 has checked every value and written nothing.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .spectral import (
    Grid,
    GridError,
    continuum_spectrum,
    gap_samples,
    sigmoid_samples,
    write_columns,
    write_spectrum_csv,
)
from .bogoliubov import (
    ProfileError,
    channel_descriptor,
    commutator_residual,
    lowpass_channel,
    reconstruct,
    self_compose,
    thermal_channel,
    uniform_channel,
    write_activation_csv,
)
from .network import sweep, write_report_csv
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


def resolve_config(args) -> dict:
    config = dict(DEFAULTS)
    if args.config:
        file_values = parse_config_file(args.config)
        unknown = set(file_values) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config.update(file_values)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        config[key] = val.strip()
    if args.out:
        config["out.dir"] = args.out
    if args.seed is not None:
        config["sweep.seeds"] = str(args.seed)
    return config


def config_grid(config) -> Grid:
    try:
        grid = Grid(float(config["grid.L"]), int(config["grid.N"]))
    except (ValueError, GridError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    if grid.n_points < 8:
        raise ConfigError(f"bad grid: grid.N must be >= 8, got {grid.n_points}")
    return grid


def config_channel(config, grid: Grid):
    profile = config["channel.profile"]
    try:
        if profile == "uniform":
            return uniform_channel(grid, float(config["channel.iota"]))
        if profile == "lowpass":
            return lowpass_channel(grid, float(config["channel.kc"]))
        if profile == "thermal":
            return thermal_channel(grid, float(config["channel.T"]))
    except (ValueError, ProfileError) as exc:
        raise ConfigError(f"bad channel: {exc}") from exc
    raise ConfigError(f"unknown profile: {profile!r} (uniform, lowpass, thermal)")


def parse_levels(config):
    """``sweep.levels`` as floats: non-empty, ascending and in [0, 1]."""
    text = config["sweep.levels"]
    try:
        levels = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad sweep.levels: {text!r}") from exc
    if not levels or levels != sorted(levels) or not all(0.0 <= v <= 1.0 for v in levels):
        raise ConfigError(f"sweep.levels must be non-empty, ascending and in [0, 1]: {text!r}")
    return levels


def parse_seed_list(text):
    try:
        seeds = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad sweep.seeds: {text!r}") from exc
    if not seeds or any(s < 0 for s in seeds):
        raise ConfigError(f"sweep.seeds must be non-negative integers: {text!r}")
    return seeds


def prepare_out(config) -> Path:
    out_dir = Path(config["out.dir"])
    lines = [f"{k} = {config[k]}" for k in sorted(config)]
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


def cmd_spectrum(config) -> int:
    grid = config_grid(config)
    g = gap_samples(grid)
    spec = continuum_spectrum(grid, g)
    try:
        (ks, numeric, analytic, rel_err), oracle = verify_mod.oracle_comparison(spec)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    out_dir = prepare_out(config)

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


def cmd_channel(config, compose_n: int) -> int:
    grid = config_grid(config)
    channel = config_channel(config, grid)
    out_dir = prepare_out(config)
    if compose_n > 1:
        channel = self_compose(channel, compose_n)

    beta = channel.beta
    write_columns(out_dir / "channel_modes.csv", ["k", "alpha", "beta", "eta", "occupation"],
                  [grid.k, channel.alpha, beta, channel.eta, beta**2])
    (out_dir / "channel.txt").write_text(channel_descriptor(channel))
    print(f"commutator residual: {commutator_residual(channel):.12g}")
    return 0


def cmd_degrade(config) -> int:
    grid = config_grid(config)
    channel = config_channel(config, grid)
    levels = parse_levels(config) if channel.profile == "uniform" else []
    out_dir = prepare_out(config)
    activation = reconstruct(channel)

    write_activation_csv(out_dir / "degraded_activation.csv", activation)
    (out_dir / "channel.txt").write_text(channel_descriptor(channel))

    zs = np.linspace(-10.0, 10.0, 801)
    curves = []
    if channel.profile == "uniform":
        for iota in levels:
            act = activation if iota == channel.params["iota"] \
                else reconstruct(uniform_channel(grid, iota))
            curves.append((f"iota={iota:g}", zs, act.evaluate(zs)))
    else:
        curves.append((channel.profile, zs, activation.evaluate(zs)))
    line_plot(out_dir / "degraded_activation.svg", curves,
              "Degraded activations", "z", "f(z)")

    sigma_dev = float(np.max(np.abs(activation.samples - sigmoid_samples(grid))))
    print(f"loss_fraction: {activation.loss_fraction:.12g}")
    print(f"max deviation from sigmoid: {sigma_dev:.6e}")
    return 0


def cmd_train_sweep(config) -> int:
    grid = config_grid(config)
    levels = parse_levels(config)
    seeds = parse_seed_list(config["sweep.seeds"])
    task = config["task.name"].lower()
    if task not in ("xor", "moons"):
        raise ConfigError(f"unknown task: {task!r} (xor, moons)")
    out_dir = prepare_out(config)

    reports = sweep(task, levels, seeds, grid)
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--out", help="output directory (out.dir)")
    common.add_argument("--seed", type=int, help="run sweeps with this single seed")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")

    parser = argparse.ArgumentParser(
        prog="modegap", parents=[common],
        description="Mode-spectrum degradation experiments.")
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
    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the acceptance checks")
    p_verify.add_argument("--full", action="store_true",
                          help="include the moons sweep")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = resolve_config(args)
        if args.command == "spectrum":
            return cmd_spectrum(config)
        if args.command == "channel":
            if args.compose < 1:
                raise ConfigError("--compose must be >= 1")
            return cmd_channel(config, args.compose)
        if args.command == "degrade":
            return cmd_degrade(config)
        if args.command == "train-sweep":
            return cmd_train_sweep(config)
        if args.command == "verify":
            return cmd_verify(args.full)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
