"""Experiment runner: spectrum, channel, degrade, train-sweep, verify.

Options follow the subcommand.  A run's configuration is the defaults
overridden, a later assignment winning, by each ``key = value`` line of the
``--config`` file (``#`` comments), then each ``--set key=value``; an error
about an assignment names its source, ``path:line`` or the flag.  ``--out``
names the output directory (default ``out``; never empty) and is no key.
``verify`` takes only ``--full``.  ``resolve_config`` checks every key before
any command writes, each channel profile's parameter by that profile's maker
whether the run uses it or not.  A command reads only the parsed values of the
keys that shape its outputs (``READS``); ``config.resolved`` records them, each
in the text that parses back to it, so two spellings write one record, and
``channel.txt`` what no key says: ``compose``, ``max_iota``, ``max_squeeze``.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, a command out of memory, a failed worker, or an output it
cannot write (``config.resolved`` included).  A command computes before it
writes, so one that exits 2 on its configuration, or on a failure while it
computes, has written nothing; one that fails while it writes (a writer
worker, memory, an output it cannot write) leaves what it wrote.
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .activations import sigmoid
from .spectral import (Grid, continuum_gap_spectrum, gap_samples, write_columns,
                       write_spectrum_csv)
from .bogoliubov import (
    BogoliubovChannel,
    commutator_residual,
    degraded_values,
    loss_fraction,
    lowpass_channel,
    reconstruct,
    self_compose,
    thermal_channel,
    uniform_channel,
    write_activation_csv,
)
from .network import TASKS, sweep, write_report_csv
from .svgplot import line_plot
from .workers import WorkerError
from . import verify as verify_mod

DEFAULTS = {
    "grid.L": f"{verify_mod.DEFAULT_GRID.half_width:g}",
    "grid.N": str(verify_mod.DEFAULT_GRID.n_points),
    "channel.profile": "uniform",
    "channel.iota": "0.5",
    "channel.kc": "2",
    "channel.T": "1",
    "sweep.levels": ",".join(f"{v:g}" for v in verify_mod.SWEEP_LEVELS),
    "sweep.seeds": ",".join(map(str, verify_mod.SWEEP_SEEDS)),
    "task.name": "xor",
}
# The keys that shape each command's outputs, the only ones config.resolved records:
# {param} is the run's profile's own parameter, {family} the levels a uniform degrade plots.
READS = {"spectrum": "grid.L grid.N",
         "channel": "grid.L grid.N channel.profile {param}",
         "degrade": "grid.L grid.N channel.profile {param} {family}",
         "train-sweep": "grid.L grid.N sweep.levels sweep.seeds task.name"}
# What a command out of memory can use fewer of: each key it may read that counts one.
FEWER = {"sweep.seeds": "seeds", "sweep.levels": "levels", "grid.N": "grid points"}
CHECK_GRID = Grid(1.0, 8)  # the lattice on which the profiles a run does not use are built


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """A run, every key parsed and checked: ``values`` maps each key that shapes
    the command's outputs (``READS``), and no other, to its parsed value: all a
    command reads of its keys, and what ``config.resolved`` records.  ``compose``
    counts the channel's compositions; ``out`` is the output directory."""

    values: dict
    grid: Grid
    channel: BogoliubovChannel
    compose: int
    out: Path


def _real(text):
    """The float a text spells, -0 read as 0, so that both write one record."""
    return float(text) + 0.0


def _comma_list(values, key, convert):
    text = values[key]
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {key}: {text!r}") from exc


def resolve_config(args) -> RunConfig:
    """Apply the run's ``key=value`` assignments over the defaults, a later one
    winning: each non-comment line of ``--config`` (source ``path:line``), then
    each ``--set``.  Then parse every key into its value and check it, every
    comma-list entry included, and compose the run's channel ``--compose`` times
    (once for commands without the option); raises ``ConfigError`` on the first bad one."""
    pairs = []
    if args.config:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
        pairs += [(f"{args.config}:{n}", line) for n, line in enumerate(lines, 1) if line]
    pairs += [("--set", item) for item in args.set or []]

    values = dict(DEFAULTS)
    for source, text in pairs:
        key, sep, val = (part.strip() for part in text.partition("="))
        if not sep or key not in DEFAULTS:
            raise ConfigError(f"{source}: expected 'key = value' with a known key, got {text!r}")
        values[key] = val

    try:
        values["grid.L"], values["grid.N"] = float(values["grid.L"]), int(values["grid.N"])
        grid = Grid(values["grid.L"], values["grid.N"])
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc

    # Built per call, so that a maker rebound on this module (as the benchmark's
    # span tracer does) is the one called.  Each maker checks its own parameter,
    # on the run's grid for the run's profile and on CHECK_GRID for the others.
    makers = {"uniform": (uniform_channel, "channel.iota"),
              "lowpass": (lowpass_channel, "channel.kc"),
              "thermal": (thermal_channel, "channel.T")}
    profile = values["channel.profile"]
    if profile not in makers:
        raise ConfigError(f"unknown profile: {profile!r} (uniform, lowpass, thermal)")
    for name, (maker, key) in makers.items():
        try:
            values[key] = _real(values[key])
            built = maker(grid if name == profile else CHECK_GRID, values[key])
        except ValueError as exc:
            raise ConfigError(f"bad {key}: {exc}") from exc
        if name == profile:
            channel = built
    compose = getattr(args, "compose", 1)
    try:
        channel = self_compose(channel, compose)
    except ValueError as exc:
        raise ConfigError(f"bad channel: {exc}") from exc

    levels = _comma_list(values, "sweep.levels", _real)
    if levels != sorted(set(levels)) or not all(0.0 <= v <= 1.0 for v in levels):
        raise ConfigError("sweep.levels must be non-empty, strictly ascending and in [0, 1]: "
                          f"{values['sweep.levels']!r}")
    seeds = _comma_list(values, "sweep.seeds", int)
    if not all(0 <= s < 2**64 for s in seeds) or len(set(seeds)) < len(seeds):
        raise ConfigError("sweep.seeds must be distinct integers in [0, 2**64): "
                          f"{values['sweep.seeds']!r}")
    values["sweep.levels"], values["sweep.seeds"] = levels, seeds
    task = values["task.name"]
    if task not in TASKS:
        raise ConfigError(f"unknown task: {task!r} ({', '.join(TASKS)})")
    if not args.out:
        raise ConfigError("--out is empty; use --out . for the current directory")
    read = READS[args.command].format(param=makers[profile][1],
                                      family="sweep.levels" if profile == "uniform" else "")
    return RunConfig({k: values[k] for k in read.split()}, grid, channel, compose, Path(args.out))


def prepare_out(run: RunConfig) -> Path:
    """Make the output directory; record ``run.values`` in its ``config.resolved``,
    a sorted ``key = value`` line each, in the text that parses back to the value:
    a float's ``repr`` without a trailing ``.0``, a list joined by ``,``."""
    def text(v):  # no int or checked name ends in ".0"
        return ",".join(map(text, v)) if isinstance(v, list) else str(v).removesuffix(".0")
    lines = [f"{k} = {text(v)}" for k, v in sorted(run.values.items())]
    run.out.mkdir(parents=True, exist_ok=True)
    (run.out / "config.resolved").write_text("\n".join(lines) + "\n")
    return run.out


def write_channel_txt(out_dir: Path, run: RunConfig):
    """Write what no key says: ``compose = n`` if n >= 2, ``max_iota``, ``max_squeeze``."""
    lines = [f"compose = {run.compose}"] * (run.compose > 1) + [
        f"max_iota = {float(np.max(run.channel.iota))}",
        f"max_squeeze = {float(np.max(run.channel.squeeze))}"]
    (out_dir / "channel.txt").write_text("\n".join(lines) + "\n")


def print_checks(results) -> int:
    """Print a ``PASS|FAIL name: measured`` line per check; return the failures."""
    for name, passed, measured in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {measured}")
    return sum(not passed for _, passed, _ in results)


def cmd_spectrum(run: RunConfig) -> int:
    grid = run.grid
    spec = continuum_gap_spectrum(grid)
    try:
        (ks, numeric, analytic, rel_err), oracle = verify_mod.oracle_comparison(spec)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    out_dir = prepare_out(run)

    write_columns(out_dir / "gap_samples.csv", ["z", "g"], [grid.z, gap_samples(grid)])
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


def cmd_channel(run: RunConfig) -> int:
    channel = run.channel
    out_dir = prepare_out(run)

    beta = channel.beta
    write_columns(out_dir / "channel_modes.csv", ["k", "alpha", "beta", "eta", "occupation"],
                  [run.grid.k, channel.alpha, beta, channel.eta, beta**2])
    write_channel_txt(out_dir, run)
    print(f"commutator residual: {commutator_residual(channel):.12g}")
    return 0


def cmd_degrade(run: RunConfig) -> int:
    grid, profile = run.grid, run.values["channel.profile"]
    fraction = loss_fraction(run.channel)
    activation = reconstruct(run.channel)

    # A family level needs only its 801-point curve: its value table alone,
    # read as that level's own evaluate would read it (np.interp's bits).
    zs = np.linspace(-10.0, 10.0, 801)
    own = activation.evaluate(zs)
    if profile == "uniform":
        curves = [(f"iota={iota:g}", zs, own if iota == run.values["channel.iota"]
                   else np.interp(zs, grid.z, degraded_values(uniform_channel(grid, iota)),
                                  0.0, 1.0))
                  for iota in run.values["sweep.levels"]]
    else:
        curves = [(profile, zs, own)]

    out_dir = prepare_out(run)
    write_activation_csv(out_dir / "degraded_activation.csv", activation)
    write_channel_txt(out_dir, run)
    line_plot(out_dir / "degraded_activation.svg", curves,
              "Degraded activations", "z", "f(z)")

    sigma_dev = float(np.max(np.abs(activation.samples - sigmoid(grid.z))))
    print(f"loss_fraction: {fraction:.12g}")
    print(f"max deviation from sigmoid: {sigma_dev:.6e}")
    return 0


def cmd_train_sweep(run: RunConfig) -> int:
    task, levels = run.values["task.name"], run.values["sweep.levels"]
    report = sweep(task, levels, run.values["sweep.seeds"], run.grid)
    out_dir = prepare_out(run)
    write_report_csv(out_dir / "train_reports.csv", report)

    line_plot(out_dir / "train_sweep.svg",
              [("median hidden grad norm", levels, verify_mod.grad_norm_medians(report)),
               ("median final accuracy", levels, np.median(report.final_accuracy, axis=-1))],
              f"Trainability vs loss level ({task})", "iota", "median metric")

    print_checks(verify_mod.sweep_checks(task, report))
    return 0


def cmd_verify(full: bool) -> int:
    results = verify_mod.run_criteria(full=full)
    failures = print_checks(results)
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 1 if failures else 0


def build_parser():
    """Each command is declared once, with its handler as ``run``, and each
    option once, on the subcommands that read it: ``--config``, ``--out``
    and ``--set`` on every command but ``verify``, ``--compose`` on ``channel``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")

    parser = argparse.ArgumentParser(
        prog="modegap", description="Mode-spectrum degradation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text):  # a subcommand with the common options
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(run=run)
        return p

    command("spectrum", cmd_spectrum, "gap samples, spectrum, and oracle comparison")
    p_channel = command("channel", cmd_channel, "per-mode channel coefficients")
    p_channel.add_argument("--compose", type=int, default=1, metavar="N",
                           help="apply the channel N times in sequence")
    command("degrade", cmd_degrade, "reconstruct the degraded activation")
    command("train-sweep", cmd_train_sweep, "trainability sweep over loss levels")
    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--full", action="store_true",
                          help="include the moons sweep")
    return parser


def out_of_memory_hint(read) -> str:
    """"; use fewer ..." naming the keys of ``FEWER`` among ``read``; "" if none."""
    names = [name for key, name in FEWER.items() if key in read]
    if not names:
        return ""
    *rest, last = names
    return f"; use fewer {', '.join(rest)} or {last}" if rest else f"; use fewer {last}"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    run = None
    try:
        if args.command == "verify":
            return cmd_verify(args.full)
        run = resolve_config(args)
        return args.run(run)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # The keys the run reads; before they are known, those the command may read.
        read = run.values if run else READS.get(args.command, "").format(
            param="", family="sweep.levels").split()
        print(f"error: {args.command} ran out of memory{out_of_memory_hint(read)}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {args.command} cannot write its output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
