"""The repo benchmark: one command, three workloads, at ``default`` scale.

Run from the root of a checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` records spans around the benchmark's calls into each layer
(and attaches ``repro.obs.profile.Profiler`` to the model) and reports
the per-layer metrics instead.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every output check passed.  Spans of a traced run are written
to ``.perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from common import (Checks, Metric, NullTracer, Tracer, attribute,
                    highest_supported, host_info, layer_table, overdrawn,
                    peak_rss_mb, percentile, supports)

WORKLOADS = ("explore", "train", "serve")

#: Span name -> the per-layer metric that takes the span's self time.
OWNERS = {
    "fpga.placer": "fpga.placer.self_s",
    "fpga.router": "fpga.router.busy_s",
    "viz.render.placement": "viz.render.placement.busy_s",
    "viz.render.connectivity": "viz.render.connectivity.busy_s",
    "viz.render.routing": "viz.render.routing.busy_s",
    "gan.input_stack": "gan.input_stack.busy_s",
    "gan.rank": "gan.rank.busy_s",
    "gan.forecast.b1": "gan.forecast.unattributed_s",
    "gan.forecast.b16": "gan.forecast.unattributed_s",
    "gan.train_step": "gan.train_step.unattributed_s",
    "data.loader.next": "data.loader.wait_s",
    "train.runner": "train.runner.overhead_s",
    "serve.http.request": "serve.http.busy_s",
    "loadgen.step": "loadgen.idle_s",
}
#: Spans counted as calls, with their total duration as busy time.
COUNTED = ("fpga.placer", "fpga.router", "viz.render.placement",
           "viz.render.connectivity", "viz.render.routing",
           "gan.forecast.b1", "gan.forecast.b16", "gan.train_step",
           "train.runner")


class Context:
    """What a workload gets: its seed and budget, checks, tracer, scratch."""

    def __init__(self, root: Path, seed: int, seconds: float, trace: bool):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.checks = Checks()
        self.tracer = Tracer() if trace else NullTracer()
        self.work = root / ".perfbench" / "work"
        self.out = root / ".perfbench" / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _end_to_end(result: dict, checks: Checks) -> dict[str, Metric]:
    """Every end-to-end number of an untraced run, gated or not."""
    latency_name, latency = result["latency"]
    if not supports(len(latency), 90):
        checks.record(False, f"{latency_name}: {len(latency)} samples "
                             f"cannot support p90; lengthen the run")
    top = highest_supported(len(latency)) or 50.0
    throughput_name, throughput = result["throughput"]
    return {
        "setup_s": Metric(statistics.median(result["setup_s"]), "s",
                          len(result["setup_s"])),
        "peak_rss_mb": Metric(peak_rss_mb(), "MB"),
        "latency_ms_p50": Metric(percentile(latency, 50), "ms",
                                 len(latency), f"{latency_name}_p50"),
        # Reported, not gated: see perfbench/README.md.
        f"latency_ms_p{top:g}": Metric(percentile(latency, top), "ms",
                                       len(latency),
                                       f"{latency_name}_p{top:g}"),
        "latency_ms_p90": Metric(percentile(latency, 90), "ms",
                                 len(latency), f"{latency_name}_p90"),
        "throughput_per_s": Metric(throughput.value, throughput.unit,
                                   throughput.samples, throughput_name),
    }


def _per_layer(result: dict, ctx: Context) -> dict[str, float]:
    spans = ctx.tracer.spans
    table = layer_table(spans)
    moved = result.get("moved", {})
    values, unattributed, concurrent = attribute(spans, OWNERS, moved)
    root = result["root"]
    residual = (sum(values.values()) + sum(moved.values()) + unattributed
                - concurrent - root.duration)
    if abs(residual) > 1e-6 * max(1, len(spans)):
        ctx.checks.record(False, f"trace accounting off by "
                                 f"{residual:.6f}s: spans do not nest")
    # The identity above holds whatever was moved; what can go wrong is a
    # finer layer reporting more seconds than the spans it was moved from.
    for metric in overdrawn(values, moved):
        ctx.checks.record(False, f"{metric} is {values[metric]:.6f}s: more "
                                 f"time moved out than its spans hold")
    layers = dict(values)
    for name in COUNTED:
        row = table.get(name, {"calls": 0, "busy_s": 0.0})
        layers[f"{name}.calls"] = row["calls"]
        layers[f"{name}.busy_s"] = row["busy_s"]
    layers.update(result.get("layers", {}))
    layers.update({name: metric.value
                   for name, metric in result.get("stages", {}).items()})
    layers.update({
        "fail_ratio": ctx.checks.fail_ratio,
        "trace.overhead_ratio": result["overhead_ratio"],
        "trace.wall_s": root.duration,
        "trace.unattributed_s": unattributed,
        "trace.concurrent_s": concurrent,
    })
    return layers


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {root} is not a checkout of the repo (no "
              f"src/repro); run from the repo root", file=sys.stderr)
        return 2
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))

    ctx = Context(root, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(ctx.work, ignore_errors=True)
    ctx.work.mkdir(parents=True)
    ctx.out.mkdir(parents=True, exist_ok=True)
    module = __import__(args.workload)
    started = time.perf_counter()
    try:
        result = module.run(ctx)
    except Exception:       # noqa: BLE001 - reported, then exit non-zero
        traceback.print_exc()
        print(f"error: workload {args.workload} raised", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    if ctx.trace:
        numbers = _per_layer(result, ctx)
        wanted = benchmark["per_layer"]
        reported = {entry["name"]: Metric(float(numbers.get(entry["name"],
                                                            0.0)),
                                          entry["unit"])
                    for entry in wanted}
        tag = f"spans written to {_write_spans(ctx, args)}"
    else:
        e2e = _end_to_end(result, ctx.checks)
        reported = {entry["name"]: e2e.pop(entry["name"])
                    for entry in benchmark["end_to_end"]}
        result.setdefault("extra", {}).update(e2e)
        tag = ""
    checks = ctx.checks
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"wall={time.perf_counter() - started:.1f}s {tag}")
    for name, metric in reported.items():
        _print_metric(name, metric)
    if not ctx.trace:
        for name, metric in result.get("stages", {}).items():
            _print_metric(name, metric)
        _print_metric("fail_ratio", Metric(checks.fail_ratio, "ratio",
                                           checks.attempted))
        for name, metric in result.get("extra", {}).items():
            _print_metric(name, metric)
    for reason in checks.reasons:
        print(f"  check failed: {reason}")
    print("host " + json.dumps(host_info("default", args.seed)))
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in reported.items()},
    }))
    return 0 if correct else 1


def _print_metric(name: str, metric: Metric) -> None:
    alias = f"  ({metric.note})" if metric.note else ""
    print(f"  {name:<34} {metric.value:>14.6g} {metric.unit:<6} "
          f"n={metric.samples}{alias}")


def _write_spans(ctx: Context, args) -> Path:
    path = ctx.out / f"{args.workload}-seed{args.seed}-spans.jsonl"
    ctx.tracer.write(path)
    return path.relative_to(ctx.root)


if __name__ == "__main__":
    sys.exit(main())
