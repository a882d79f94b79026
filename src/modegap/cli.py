"""Experiment runner: spectrum, channel, degrade, train-sweep, verify.

Configuration is a flat key-value file (one ``key = value`` per line, ``#``
comments) overridden by repeatable ``--set key=value`` flags; ``--out`` and
``--seed`` are shorthands for ``out.dir`` and a single-seed sweep.  The fully
resolved configuration is echoed to ``<out.dir>/config.resolved`` next to the
outputs of every command.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .spectral import (
    Grid,
    GridError,
    analytic_gap_spectrum,
    continuum_gap_spectrum,
    gap_samples,
    sigmoid_samples,
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
from .network import median_epochs, sweep, write_report_csv
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
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
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
        if not Path(args.config).exists():
            raise ConfigError(f"config file not found: {args.config}")
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


def write_resolved(config, out_dir: Path):
    lines = [f"{k} = {config[k]}" for k in sorted(config)]
    (out_dir / "config.resolved").write_text("\n".join(lines) + "\n")


def prepare_out(config) -> Path:
    out_dir = Path(config["out.dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_resolved(config, out_dir)
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir}: {exc}") from exc
    return out_dir


def cmd_spectrum(config) -> int:
    out_dir = prepare_out(config)
    grid = config_grid(config)
    positive = grid.k > 0
    ks = grid.k[positive]
    band = (ks >= verify_mod.ORACLE_BAND[0]) & (ks <= verify_mod.ORACLE_BAND[1])
    if not band.any():
        raise ConfigError("bad grid: no wavenumber in the oracle band "
                          f"{verify_mod.ORACLE_BAND}")
    g = gap_samples(grid)
    spec = continuum_gap_spectrum(grid)

    with open(out_dir / "gap_samples.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["z", "g"])
        for z, v in zip(grid.z, g):
            w.writerow([repr(float(z)), repr(float(v))])
    write_spectrum_csv(out_dir / "gap_spectrum.csv", spec)

    numeric = spec.amplitudes[positive]
    analytic = analytic_gap_spectrum(ks)
    rel_err = np.abs(numeric - analytic) / np.abs(analytic)
    with open(out_dir / "oracle_comparison.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "numeric", "analytic", "rel_err"])
        for k, nu, an, re_ in zip(ks, numeric.imag, analytic.imag, rel_err):
            w.writerow([repr(float(k)), repr(float(nu)), repr(float(an)),
                        repr(float(re_))])

    show = ks <= 20.0
    line_plot(out_dir / "gap_spectrum.svg",
              [("numeric |g(k)|", ks[show], np.abs(numeric[show])),
               ("analytic |g(k)|", ks[show], np.abs(analytic[show]))],
              "Gap mode spectrum", "k", "|amplitude|")

    max_rel = float(np.max(rel_err[band]))
    status = "PASS" if max_rel < verify_mod.ORACLE_TOL else "FAIL"
    print(f"{status} oracle max rel err on [0.1,10]: {max_rel:.6e} "
          f"(target {verify_mod.ORACLE_TOL:.0e})")
    return 0


def cmd_channel(config, compose_n: int) -> int:
    out_dir = prepare_out(config)
    grid = config_grid(config)
    channel = config_channel(config, grid)
    if compose_n > 1:
        channel = self_compose(channel, compose_n)

    occupation = channel.beta**2
    with open(out_dir / "channel_modes.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "alpha", "beta", "eta", "occupation"])
        for k, a, b, e, occ in zip(grid.k, channel.alpha, channel.beta,
                                   channel.eta, occupation):
            w.writerow([repr(float(k)), repr(float(a)), repr(float(b)),
                        repr(float(e)), repr(float(occ))])
    (out_dir / "channel.txt").write_text(channel_descriptor(channel))
    print(f"commutator residual: {commutator_residual(channel):.12g}")
    return 0


def cmd_degrade(config) -> int:
    out_dir = prepare_out(config)
    grid = config_grid(config)
    channel = config_channel(config, grid)
    activation = reconstruct(channel)

    write_activation_csv(out_dir / "degraded_activation.csv", activation)
    (out_dir / "channel.txt").write_text(channel_descriptor(channel))

    zs = np.linspace(-10.0, 10.0, 801)
    curves = []
    if channel.profile == "uniform":
        for iota in parse_levels(config):
            act = reconstruct(uniform_channel(grid, iota))
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
    out_dir = prepare_out(config)
    grid = config_grid(config)
    levels = parse_levels(config)
    seeds = parse_seed_list(config["sweep.seeds"])
    task = config["task.name"].lower()
    if task not in ("xor", "moons"):
        raise ConfigError(f"unknown task: {task!r} (xor, moons)")

    reports = sweep(task, levels, seeds, grid)
    write_report_csv(out_dir / "train_reports.csv", reports)

    medians_g = verify_mod.grad_norm_medians(reports, levels)
    by_level = [[r for r in reports if r.iota == iota] for iota in levels]
    medians_a = [float(np.median([r.final_accuracy for r in cells])) for cells in by_level]
    line_plot(out_dir / "train_sweep.svg",
              [("median hidden grad norm", levels, medians_g),
               ("median final accuracy", levels, medians_a)],
              f"Trainability vs loss level ({task})", "iota", "median metric")

    monotone = verify_mod.non_increasing(medians_g)
    endpoint_ok, notes = True, []
    for level, converges in ((0.0, True), (1.0, False)):
        if level in levels:
            med = median_epochs(by_level[levels.index(level)])
            endpoint_ok &= np.isfinite(med) == converges
            notes.append(f"median_epochs@{level:g}="
                         + (f"{med:.0f}" if np.isfinite(med) else "never"))
    status = "PASS" if (monotone and endpoint_ok) else "FAIL"
    print(f"{status} monotone-degradation check: grad_medians="
          + ",".join(f"{m:.3e}" for m in medians_g)
          + (" " + " ".join(notes) if notes else ""))
    return 0


def cmd_verify(full: bool) -> int:
    results = verify_mod.run_criteria(full=full)
    failures = 0
    for name, passed, measured in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {measured}")
        failures += not passed
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
