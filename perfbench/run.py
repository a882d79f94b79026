"""modegap benchmark: trainability sweeps and a fine-grid spectral pipeline.

    python3 perfbench/run.py --workload xor-sweep --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each round runs the workload's commands, one after the other
(closed loop), through ``modegap.cli.main`` in a fresh interpreter with one
BLAS thread, writing into a scratch directory under ``perfbench/.work``.
Rounds repeat until ``--seconds`` of rounds have passed.  The first round's
outputs are checked against computations made apart from the program
(``checks.py``); every later round, traced or not, must write byte-identical
files.  Every command of every round is one operation; it fails on an exit
code other than 0, an exception, a failed check or differing bytes.

``--trace 0`` prints the end-to-end metrics (medians over rounds; set-up
over every interpreter started).  ``--trace 1`` alternates untraced and
traced rounds and prints the per-layer metrics of the traced ones, with the
tracing overhead as the difference of their wall times.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 10         # set-up-only interpreters per run, beside the rounds
DEADLINE_S = 170.0         # a run ends within this, whatever --seconds says
FINE_GRID = (40.0, 262144)
FINE = ("--set", f"grid.N={FINE_GRID[1]}", "--set", f"grid.L={FINE_GRID[0]:g}")
LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
SWEEP_SEEDS = list(range(10))
TEMPERATURE = 1.0


class Op:
    """One CLI command of a round and the check of its first outputs."""

    def __init__(self, name, argv, check):
        self.name, self.argv, self.check = name, list(argv), check


def reference_cells(seed, levels, seeds):
    """The cells the reference trainer re-trains: two seeds per level, drawn by the seed."""
    rng = np.random.default_rng(seed)
    return [(level, int(s)) for level in levels
            for s in sorted(rng.choice(seeds, 2, replace=False))]


def sweep_ops(task, levels, seed):
    """One train-sweep on the documented cells, seeds 0-9.

    The checked trainability properties (8 of 10 cells reach the threshold
    at iota = 0) are measured on these seeds, and some other seeds never
    reach it on moons, so the benchmark seed only picks the re-trained cells.
    """
    seeds = SWEEP_SEEDS
    argv = ["train-sweep", "--set", f"task.name={task}",
            "--set", "sweep.levels=" + ",".join(f"{v:g}" for v in levels),
            "--set", "sweep.seeds=" + ",".join(map(str, seeds))]
    cells = reference_cells(seed, levels, seeds)
    return [Op("train-sweep", argv,
               lambda out: checks.check_sweep(out, task, list(levels), seeds, cells))]


def fine_grid_ops(seed):
    """spectrum, thermal channel composed 4 times, degrade for three profiles.

    The seed draws the uniform loss (one of the sweep levels, so the family
    plot repeats it on every seed) and the lowpass cutoff; neither changes
    the amount of work.  The temperature stays 1, because how many modes
    underflow, and so how much of each CSV is short, depends on it.
    """
    rng = np.random.default_rng(seed)
    iota = float(rng.choice([0.25, 0.5, 0.75]))
    k_cut = float(rng.choice([1.5, 2.0, 2.5]))
    return [
        Op("spectrum", ["spectrum", *FINE],
           lambda out: checks.check_spectrum(out, *FINE_GRID)),
        Op("channel", ["channel", "--set", "channel.profile=thermal",
                       "--set", f"channel.T={TEMPERATURE:g}", "--compose", "4", *FINE],
           lambda out: checks.check_channel(out, *FINE_GRID, TEMPERATURE, 4)),
        Op("degrade-uniform", ["degrade", "--set", f"channel.iota={iota:g}", *FINE],
           lambda out: checks.check_degrade_uniform(out, *FINE_GRID, iota, len(LEVELS))),
        Op("degrade-lowpass", ["degrade", "--set", "channel.profile=lowpass",
                               "--set", f"channel.kc={k_cut:g}", *FINE],
           lambda out: checks.check_degrade_spectral(
               out, *FINE_GRID, checks.lowpass_factor(k_cut), "lowpass")),
        Op("degrade-thermal", ["degrade", "--set", "channel.profile=thermal",
                               "--set", f"channel.T={TEMPERATURE:g}", *FINE],
           lambda out: checks.check_degrade_spectral(
               out, *FINE_GRID, checks.thermal_factor(TEMPERATURE), "thermal")),
    ]


def sweep_figures(cells):
    def figures(rounds):
        return {"cells_per_s": ("1/s", statistics.median(
            cells / r["commands"][0]["s"] for r in rounds))}
    return figures


def fine_grid_figures(rounds):
    def median_of(prefix):
        return statistics.median(
            sum(c["s"] for c in r["commands"] if c["name"].startswith(prefix))
            for r in rounds)
    return {"spectrum_s": ("s", median_of("spectrum")),
            "channel_s": ("s", median_of("channel")),
            "degrade_s": ("s", median_of("degrade"))}


# name -> (operations of a round for a seed, workload-specific figures).  The
# figures are printed, not gated: cells_per_s is cells / wall_s, and the
# command times add up to wall_s, so wall_s carries their bound.
WORKLOADS = {
    "xor-sweep": (lambda seed: sweep_ops("xor", LEVELS, seed), sweep_figures(50)),
    "moons-sweep": (lambda seed: sweep_ops("moons", (0.0, 1.0), seed), sweep_figures(20)),
    "fine-grid": (fine_grid_ops, fine_grid_figures),
}


def digest(directory):
    """sha256 of every output file but the echoed configuration."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(directory).iterdir()) if p.name != "config.resolved"}


class Runner:
    def __init__(self, work, deadline):
        self.work, self.deadline = work, deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.max_threads = len(os.sched_getaffinity(0))
        self.count = 0

    def child(self, setup_argv, ops, out_dir, trace=False):
        """Run one interpreter; (result dict or None, error text, seconds)."""
        self.count += 1
        result_file = self.work / f"result-{self.count}.json"
        spec = {"setup_argv": setup_argv, "trace": trace, "result": str(result_file),
                "commands": [{"name": op.name, "argv": op.argv, "out": str(out_dir / op.name)}
                             for op in ops]}
        started = time.monotonic()
        spec["spawned"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, "-s", str(BENCH / "child.py"), json.dumps(spec)],
                env=self.env, cwd=self.work, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return None, "round did not finish before the run's deadline", \
                time.monotonic() - started
        seconds = time.monotonic() - started
        if proc.returncode != 0 or not result_file.exists():
            return None, proc.stderr[-2000:], seconds
        result = json.loads(result_file.read_text())
        result_file.unlink()
        if result["threads"] is not None and result["threads"] > self.max_threads:
            return None, f"{result['threads']} threads for {self.max_threads} cores", seconds
        return result, "", seconds


def run_workload(name, seed, seconds, trace):
    make_ops, workload_figures = WORKLOADS[name]
    ops = make_ops(seed)
    work = BENCH / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + DEADLINE_S)
    attempted = failed = 0
    consistent = True
    rounds, traced, setups = [], [], []
    first_digests = None
    try:
        # Fills the bytecode and page caches; its set-up is not counted.
        runner.child(ops[0].argv, [], work)
        elapsed = 0.0
        index = 0
        while index == 0 or elapsed < seconds:
            for traced_round in ([False, True] if trace else [False]):
                out_dir = work / f"round-{index}{'-traced' if traced_round else ''}"
                result, error, took = runner.child(ops[0].argv, ops, out_dir, traced_round)
                elapsed += took
                attempted += len(ops)
                if result is None:
                    print(f"{name}: round {index} failed: {error}", file=sys.stderr)
                    failed += len(ops)
                    consistent = False
                    continue
                for op, command in zip(ops, result["commands"]):
                    problems = []
                    if command["code"] != 0:
                        problems.append(f"exit {command['code']} {command['error'] or ''}")
                    elif first_digests is None:
                        problems = op.check(out_dir / op.name)
                    elif digest(out_dir / op.name) != first_digests[op.name]:
                        problems.append("outputs differ from the first round's bytes")
                    if problems:
                        failed += 1
                        print(f"{name}: {op.name} (round {index}"
                              f"{', traced' if traced_round else ''}): " + "; ".join(problems),
                              file=sys.stderr)
                if first_digests is None:
                    first_digests = {op.name: digest(out_dir / op.name) for op in ops}
                else:
                    shutil.rmtree(out_dir)
                (traced if traced_round else rounds).append(result)
                if not traced_round:
                    setups.append(result["setup_s"])
            index += 1
            if time.monotonic() > runner.deadline:
                break
        for _ in range(SETUP_SAMPLES):
            result, error, _ = runner.child(ops[0].argv, [], work)
            if result is None:
                print(f"{name}: set-up failed: {error}", file=sys.stderr)
                consistent = False
                break
            setups.append(result["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:         # another run still has its directory there
            pass

    metrics, figures = {}, {}
    if not rounds or (trace and not traced):
        consistent = False
    elif trace:
        wall = statistics.median(sum(c["s"] for c in r["commands"]) for r in rounds)
        traced_wall = statistics.median(sum(c["s"] for c in r["commands"]) for r in traced)
        for key in traced[0]["per_layer"]:
            values = [r["per_layer"][key] for r in traced]
            metrics[key] = (per_layer_unit(key), statistics.median(values))
        metrics["tracing.overhead_s"] = ("s", traced_wall - wall)
        print_spans(traced[-1]["spans"])
    else:
        metrics["setup_s"] = ("s", statistics.median(setups))
        metrics["wall_s"] = ("s", statistics.median(
            sum(c["s"] for c in r["commands"]) for r in rounds))
        metrics["peak_rss_mb"] = ("MB", statistics.median(r["peak_rss_mb"] for r in rounds))
        figures = workload_figures(rounds)
    return {"correct": consistent and failed == 0, "attempted": attempted,
            "failed": failed, "rounds": len(rounds), "metrics": metrics, "figures": figures}


def per_layer_unit(key):
    if key.endswith(".s"):
        return "s"
    if key.endswith("bytes_written"):
        return "bytes"
    return "count"


def print_spans(spans):
    print(f"{'span':40s} {'calls':>9s} {'incl s':>9s} {'self s':>9s}")
    busiest = sorted(spans.items(), key=lambda item: -item[1]["self_s"])[:12]
    for span, row in busiest:
        print(f"{span:40s} {row['calls']:9d} {row['s']:9.4f} {row['self_s']:9.4f}")


def report(name, outcome):
    print(f"{name}: {outcome['rounds']} rounds, {outcome['attempted']} operations "
          f"attempted, {outcome['failed']} failed")
    for metric, (unit, value) in {**outcome["metrics"], **outcome["figures"]}.items():
        print(f"  {metric} = {value:.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "modegap" / "cli.py").is_file():
        print(f"error: no modegap sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in names:
        outcomes[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, outcomes[name])
    if len(names) == 1:
        metrics = outcomes[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": value for name in names
                   for metric, value in outcomes[name]["metrics"].items()}
    print(json.dumps({
        "correct": all(o["correct"] for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (unit, value) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
