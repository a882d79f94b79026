"""One benchmark round in a fresh interpreter: set up, run the commands, report.

Started by ``run.py`` with a JSON spec as its only argument.  It measures
set-up (interpreter start, ``modegap`` imported, the first command's
configuration parsed), then runs each command through ``modegap.cli.main``
and writes a JSON result file.  With tracing on, the spans of the program's
public functions are summarised into the per-layer metrics.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def thread_count():
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def bytes_under(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def per_layer_metrics(tracer, command_bytes):
    spans = tracer.summary()

    def calls(name):
        return spans[name]["calls"]

    def seconds(name):
        return spans[name]["s"]

    metrics = {}
    for name in ("network.train", "network.loss_gradients", "network.forward",
                 "activations.sigmoid", "bogoliubov.evaluate",
                 "bogoliubov.evaluate_derivative", "bogoliubov.reconstruct",
                 "spectral.transform_samples", "spectral.inverse_transform"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = seconds(name)
    for name in ("spectral.continuum_gap_spectrum", "spectral.write_spectrum_csv",
                 "bogoliubov.write_activation_csv", "network.write_report_csv",
                 "svgplot.line_plot", "bogoliubov.thermal_channel",
                 "bogoliubov.self_compose", "cli.cmd_train_sweep", "cli.cmd_spectrum",
                 "cli.cmd_channel", "cli.cmd_degrade"):
        metrics[f"{name}.s"] = seconds(name)
    for (name, count), value in tracer.sizes.items():
        metrics[f"{name}.{count}"] = value
    metrics["spectral.gap_samples.calls"] = calls("spectral.gap_samples")
    cells = calls("network.train")
    metrics["network.loss_gradients.calls_per_cell"] = (
        calls("network.loss_gradients") / cells if cells else 0.0)
    reconstructs = calls("bogoliubov.reconstruct")
    inside = tracer.calls_inside(
        ["spectral.transform_samples", "spectral.inverse_transform"],
        "bogoliubov.reconstruct")
    metrics["bogoliubov.transforms_per_reconstruct"] = (
        inside / reconstructs if reconstructs else 0.0)
    metrics["cli.bytes_written"] = sum(command_bytes)
    return metrics, spans


def main(spec):
    import modegap.cli as cli

    cli.resolve_config(cli.build_parser().parse_args(spec["setup_argv"]))
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["spawned"]
    result = {"setup_s": setup_s, "commands": []}

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    command_bytes = []
    for command in spec["commands"]:
        out = Path(command["out"])
        started = time.perf_counter()
        try:
            code, error = cli.main(command["argv"] + ["--out", str(out)]), None
        except Exception:
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - started
        written = bytes_under(out) if out.exists() else 0
        command_bytes.append(written)
        result["commands"].append({"name": command["name"], "code": code,
                                   "error": error, "s": seconds})

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["threads"] = thread_count()
    if tracer is not None:
        result["per_layer"], result["spans"] = per_layer_metrics(tracer, command_bytes)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
