"""Experiment runner: spectrum, channel, degrade, train-sweep, verify.

Options follow the subcommand.  A run's configuration is the defaults
overridden, a later assignment winning, by each ``key = value`` line of the
``--config`` file (``#`` comments), then each ``--set key=value``; an error
about an assignment names its source, ``path:line`` or the flag.  ``--out``
names the output directory (default ``out``; never empty) and is no key.
``verify`` takes only ``--full``.  ``resolve_config`` checks every key before
any command computes, each channel profile's parameter by that profile's maker
whether the run uses it or not.  A command reads only the parsed values of the
keys that shape its outputs (``READS``); ``config.resolved`` records them, each
in the text that parses back to it, so two spellings write one record, and
``channel.txt`` what no key says: ``compose``, ``max_iota``, ``max_squeeze``.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, a command out of memory, a failed worker, or an output it
cannot write.  Each command but ``verify`` computes its files and its lines
and opens no path; ``write_run`` alone writes, and the lines are printed
once every file is in place.  So a run reaches ``--out`` whole, or, on any
exit 2, ``--out`` is left as it was.
"""

import argparse
import errno
import shutil
import sys
import tempfile
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
STAGE_PREFIX = ".modegap-stage-"  # write_run's staging directory inside --out


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


def write_run(run: RunConfig, files):
    """Write ``config.resolved`` (``run.values``, a sorted ``key = value`` line
    each, in the text that parses back to the value) and ``files``, (name,
    writer) pairs, into ``run.out`` whole: each by ``writer(path)`` into a
    staging directory inside ``run.out``, beside a writer worker's part file,
    then, once no name there is a directory, moved into place, each old file
    moved aside into the staging directory first.  On any error every move
    is undone, and the staging directory and the outermost directory this
    call made go."""
    def text(v):  # a float's repr without a trailing ".0", which no int or checked name has
        return ",".join(map(text, v)) if isinstance(v, list) else str(v).removesuffix(".0")
    record = "".join(f"{k} = {text(v)}\n" for k, v in sorted(run.values.items()))
    files = [("config.resolved", lambda path: path.write_text(record)), *files]
    out = run.out
    made = next((p for p in (*reversed(out.parents), out) if not p.exists()), None)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=STAGE_PREFIX, dir=out) as stage:
            try:
                for name, writer in files:
                    writer(Path(stage, name))
            except WorkerError as exc:  # name the table at its place in --out
                raise WorkerError(str(exc).replace(stage, str(out))) from None
            for name in (name for name, _ in files if (out / name).is_dir()):
                raise IsADirectoryError(errno.EISDIR, "Is a directory", str(out / name))
            aside, moved = Path(stage, ".old"), []  # (name, its old file aside or None)
            aside.mkdir()
            try:
                for name, _ in files:
                    old = aside / name if (out / name).exists() else None
                    if old is not None:
                        (out / name).replace(old)
                    moved.append((name, old))
                    Path(stage, name).replace(out / name)
            except BaseException:
                for name, old in reversed(moved):
                    if old is None:
                        (out / name).unlink(missing_ok=True)
                    else:
                        old.replace(out / name)
                raise
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


def channel_txt(run: RunConfig):
    """channel.txt, what no key says: ``compose = n`` if n >= 2, ``max_iota``, ``max_squeeze``."""
    lines = [f"compose = {run.compose}"] * (run.compose > 1) + [
        f"max_iota = {float(np.max(run.channel.iota))}",
        f"max_squeeze = {float(np.max(run.channel.squeeze))}"]
    return "channel.txt", lambda path: path.write_text("\n".join(lines) + "\n")


def check_lines(results):
    """A ``PASS|FAIL name: measured`` line per check."""
    return [f"{'PASS' if passed else 'FAIL'} {name}: {measured}"
            for name, passed, measured in results]


def cmd_spectrum(run: RunConfig):
    grid = run.grid
    spec = continuum_gap_spectrum(grid)
    try:
        (ks, numeric, analytic, rel_err), oracle = verify_mod.oracle_comparison(spec)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    samples, show = gap_samples(grid), ks <= 20.0
    curves = [("numeric |g(k)|", ks[show], np.abs(numeric[show])),
              ("analytic |g(k)|", ks[show], np.abs(analytic[show]))]
    files = [("gap_samples.csv", lambda path: write_columns(path, ["z", "g"], [grid.z, samples])),
             ("gap_spectrum.csv", lambda path: write_spectrum_csv(path, spec)),
             ("oracle_comparison.csv", lambda path: write_columns(
                 path, ["k", "numeric", "analytic", "rel_err"],
                 [ks, numeric.imag, analytic.imag, rel_err])),
             ("gap_spectrum.svg", lambda path: line_plot(
                 path, curves, "Gap mode spectrum", "k", "|amplitude|"))]
    return files, check_lines([("grid-oracle-agreement", *oracle)])


def cmd_channel(run: RunConfig):
    channel = run.channel
    columns = [run.grid.k, channel.alpha, channel.beta, channel.eta, channel.beta**2]
    files = [("channel_modes.csv", lambda path: write_columns(
                 path, ["k", "alpha", "beta", "eta", "occupation"], columns)), channel_txt(run)]
    return files, [f"commutator residual: {commutator_residual(channel):.12g}"]


def cmd_degrade(run: RunConfig):
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

    sigma_dev = float(np.max(np.abs(activation.samples - sigmoid(grid.z))))
    files = [("degraded_activation.csv", lambda path: write_activation_csv(path, activation)),
             channel_txt(run),
             ("degraded_activation.svg", lambda path: line_plot(
                 path, curves, "Degraded activations", "z", "f(z)"))]
    return files, [f"loss_fraction: {fraction:.12g}",
                   f"max deviation from sigmoid: {sigma_dev:.6e}"]


def cmd_train_sweep(run: RunConfig):
    task, levels = run.values["task.name"], run.values["sweep.levels"]
    report = sweep(task, levels, run.values["sweep.seeds"], run.grid)
    curves = [("median hidden grad norm", levels, verify_mod.grad_norm_medians(report)),
              ("median final accuracy", levels, np.median(report.final_accuracy, axis=-1))]
    files = [("train_reports.csv", lambda path: write_report_csv(path, report)),
             ("train_sweep.svg", lambda path: line_plot(
                 path, curves, f"Trainability vs loss level ({task})", "iota", "median metric"))]
    return files, check_lines(verify_mod.sweep_checks(task, report))


def cmd_verify(full: bool) -> int:
    results = verify_mod.run_criteria(full=full)
    passed = sum(ok for _, ok, _ in results)
    print(*check_lines(results), f"{passed}/{len(results)} criteria passed", sep="\n")
    return 1 if passed < len(results) else 0


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
        files, lines = args.run(run)
        write_run(run, files)
        print(*lines, sep="\n")
        return 0
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
