"""``train``: the paper's batch-1 recipe through ``repro.train.Runner``.

Closed loop.  Set-up builds a ``ShardedStore`` with ``repro.data`` from
one scaled-suite design the seed picks.  The run then repeats one
``TrainSpec`` (stream order over the store, eval hook every epoch,
epoch-end checkpoints, export on completion) until the time is up, each
repetition a fresh run directory, as ``repro train run`` would make it.

nn forward and backward, Adam, loader reads and run-directory writes
dominate; every repetition must export bitwise the same weights.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import time

import numpy as np

from common import Checks, Metric, NullTracer, Tracer
from explore import DESIGNS
from nnlayers import TRAIN_PASSES, attach, group_seconds
from opcount import count_for

PLACEMENTS = 12
SHARD_SIZE = 4
EPOCHS = 2
SETUP_REPEATS = 3
LOSS_KEYS = ("g_total", "g_gan", "g_l1", "d_total", "d_real", "d_fake")


def _build_store(ctx, index: int):
    from repro.config import get_scale
    from repro.data.parallel import build_design_store
    from repro.fpga.generators import scaled_suite

    scale = get_scale("default")
    design = DESIGNS[ctx.seed % len(DESIGNS)]
    spec = next(s for s in scaled_suite(scale) if s.name == design)
    return build_design_store(spec, scale, ctx.work / f"store{index}",
                              num_placements=PLACEMENTS, seed=ctx.seed,
                              shard_size=SHARD_SIZE)


def _spec(name: str, store, seed: int):
    from repro.train import TrainSpec
    from repro.train.spec import EvalSpec

    return TrainSpec(name=name, data=f"store:{store.root}", scale="default",
                     seed=seed, epochs=EPOCHS, eval=EvalSpec())


class _TracedLoader:
    """Times every batch the run pulls from the loader (its wait)."""

    def __init__(self, loader, tracer, counts):
        self._loader, self._tracer, self._counts = loader, tracer, counts

    def epoch(self, index, skip_batches=0):
        batches = self._loader.epoch(index, skip_batches=skip_batches)
        while True:
            with self._tracer.span("data.loader.next"):
                batch = next(batches, None)
            if batch is None:
                return
            self._counts["batches"] += 1
            yield batch


class Trainer:
    """Repeated runs of one spec, with what each left in its run dir."""

    def __init__(self, ctx, store, tracer):
        self.ctx, self.store, self.tracer = ctx, store, tracer
        self.runs = 0
        self.rates: list[float] = []
        self.step_ms: list[float] = []
        self.reference: dict | None = None
        self.counts = {"batches": 0, "checkpoints": 0, "eval_s": 0.0,
                       "checkpoint_bytes": []}
        self.nn_seconds: dict[str, float] = {}

    def one_run(self, checks) -> float:
        """Train once; returns the Runner.run wall seconds."""
        from repro.train import Runner

        self.runs += 1
        name = f"run{self.runs}"
        runner = Runner.create(_spec(name, self.store, self.ctx.seed),
                               self.ctx.work / "runs")
        tracer = self.tracer
        profiler = None
        if tracer.enabled:
            from repro.obs.profile import Profiler

            profiler = Profiler()
            groups = attach(profiler, runner.model, discriminator=True)
            step = runner.model.train_step

            def train_step(x, y):
                with tracer.span("gan.train_step"):
                    return step(x, y)

            runner.model.train_step = train_step
            for phase in runner.phases:
                phase.source.loader = _TracedLoader(phase.source.loader,
                                                    tracer, self.counts)
        start = time.perf_counter()
        with tracer.span("train.runner", group=self.runs):
            result = runner.run()
        wall = time.perf_counter() - start
        if profiler is not None:
            seconds = group_seconds(profiler.snapshot(), groups,
                                    TRAIN_PASSES)
            profiler.detach()
            for group, value in seconds.items():
                self.nn_seconds[group] = (self.nn_seconds.get(group, 0.0)
                                          + value)
        self._check(runner, result, checks)
        self.rates.append(result.global_step / wall)
        return wall

    def _check(self, runner, result, checks) -> None:
        from repro.serve import load_checkpoint

        run_dir = runner.run_dir
        checks.record(result.status == "completed",
                      f"run ended {result.status}")
        losses = [json.loads(line) for line in
                  (run_dir / "losses.jsonl").read_text().splitlines()]
        finite = all(math.isfinite(entry[key]) for entry in losses
                     for key in LOSS_KEYS if key in entry)
        checks.record(finite and len(losses) > 0, "non-finite loss logged")
        export = run_dir / "export" / f"{runner.spec.name}.npz"
        try:
            load_checkpoint(export)
            reason = ""
        except (OSError, ValueError) as error:
            reason = f"export does not load: {error}"
        if not checks.record(not reason, reason):
            return
        with np.load(export) as archive:
            weights = {key: archive[key] for key in archive.files
                       if key != "config_json"}
        if self.reference is None:
            self.reference = weights
        else:
            same = (weights.keys() == self.reference.keys() and all(
                np.array_equal(weights[key], self.reference[key])
                for key in weights))
            checks.record(same, "same seed exported different weights")
        for line in (run_dir / "telemetry.jsonl").read_text().splitlines():
            event = json.loads(line)
            if event.get("event") == "step":
                self.step_ms.append(event["ms"])
            elif event.get("event") == "eval":
                self.counts["eval_s"] += event["ms"] / 1e3
            elif event.get("event") == "checkpoint":
                self.counts["checkpoints"] += 1
        self.counts["checkpoint_bytes"].extend(
            path.stat().st_size
            for path in (run_dir / "checkpoints").glob("step_*.npz"))
        shutil.rmtree(run_dir)


def run(ctx) -> dict:
    setup_s = []
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        store = _build_store(ctx, index)
        setup_s.append(time.perf_counter() - start)
    result = {"setup_s": setup_s}
    tracer = ctx.tracer
    if tracer.enabled:
        result["overhead_ratio"] = _trace_overhead(ctx, store)

    trainer = Trainer(ctx, store, tracer)
    start = time.perf_counter()
    with tracer.span("bench.train") as root:
        while not trainer.rates or time.perf_counter() - start < ctx.seconds:
            try:
                trainer.one_run(ctx.checks)
            except Exception as error:          # noqa: BLE001 - counted
                ctx.checks.record(False, f"training run raised: {error!r}")
                if not trainer.rates:
                    raise
    result.update(
        latency=("train_step_ms", trainer.step_ms),
        throughput=("train_samples_per_s",
                    Metric(statistics.median(trainer.rates), "1/s",
                           len(trainer.rates))))
    if not tracer.enabled:
        return result
    counts = trainer.counts
    sizes = counts["checkpoint_bytes"]
    result.update(
        root=root,
        moved={"gan.train_step.unattributed_s":
               sum(trainer.nn_seconds.values()),
               "train.runner.overhead_s": counts["eval_s"]},
        layers={
            "data.loader.batches": counts["batches"],
            "train.eval.busy_s": counts["eval_s"],
            "train.checkpoint.count": counts["checkpoints"],
            "train.checkpoint.bytes": sum(sizes) / max(1, len(sizes)),
            **{f"nn.{group}.self_s": seconds
               for group, seconds in trainer.nn_seconds.items()},
            **count_for(int(store.image_size), ctx.seed),
        })
    return result


def _trace_overhead(ctx, store) -> float:
    """Traced over untraced wall of one training run, median of 3 pairs."""
    trainers = {False: Trainer(ctx, store, NullTracer()),
                True: Trainer(ctx, store, Tracer())}
    walls = {False: [], True: []}
    for _ in range(3):
        for traced, trainer in trainers.items():
            walls[traced].append(trainer.one_run(Checks()))
    return statistics.median(walls[True]) / statistics.median(walls[False])
