"""``explore``: forecasting inside the placement loop, one in-process caller.

Closed loop.  For each candidate from the datagen placer sweep, anneal it
with a live forecast at every snapshot (render, input stack, batch-1
``Pix2Pix.forecast``), then route the final placement and render its
truth image.  After the loop the whole candidate pool is forecast in
batches of 16 and ranked by ``regional_congestion_score``.

The placer, router and renderer do most of the work; nothing in serve,
data or train runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from common import Checks, Metric, NullTracer, Tracer, percentile
from nnlayers import EVAL_PASSES, attach, group_seconds
from opcount import count_for

#: The scaled-suite designs that ``default`` floors to 48-56 LUTs: every
#: candidate costs about the same, so a time-limited run keeps a steady
#: mix whatever the seed.
DESIGNS = ("diffeq1", "diffeq2", "raygentop", "SHA", "OR1200")
#: Netlists come from the datagen default generation seed; the run's
#: seed varies the placements, not the designs.
DESIGN_SEED = 0
POOL_BATCH = 16
#: The pool keeps the first candidates only, so its memory does not grow
#: with how many passes a faster host fits into the run.
POOL = 4 * POOL_BATCH
REGIONS = ("overall", "upper", "lower", "right")
SETUP_REPEATS = 3
#: Share of the run spent annealing; the rest repeats the pool pass.
LOOP_SHARE = 0.85
#: Length of the datagen sweep's option cycle (alpha_t x inner_num x
#: algorithm); a pass takes its first option of each inner_num.
SWEEP = 60


def _setup(seed: int):
    """Design contexts and a warm model: what an exploring tool builds."""
    from repro.config import get_scale
    from repro.flows.datagen import make_design_context, suite_image_size
    from repro.fpga.generators import scaled_suite
    from repro.gan import Pix2Pix, Pix2PixConfig

    scale = get_scale("default")
    specs = [spec for spec in scaled_suite(scale) if spec.name in DESIGNS]
    image_size = suite_image_size(scale, specs, seed=DESIGN_SEED)
    contexts = [make_design_context(spec, scale, seed=DESIGN_SEED,
                                    image_size=image_size)
                for spec in specs]
    model = Pix2Pix(Pix2PixConfig.from_scale(scale, image_size=image_size,
                                             seed=seed))
    warm = np.zeros((POOL_BATCH, 4, image_size, image_size), np.float32)
    model.forecast(warm[0])
    model.forecast(warm)
    return contexts, model


def _image_ok(image, side: int) -> bool:
    return (image.shape == (side, side, 3) and bool(np.isfinite(image).all())
            and float(image.min()) >= 0.0 and float(image.max()) <= 1.0)


class Explorer:
    """One run's candidates, their measurements and the forecast pool."""

    def __init__(self, contexts, model, seed: int, checks, tracer):
        self.contexts = contexts
        self.model = model
        self.checks = checks
        self.tracer = tracer
        # The seed sets the visiting order and the placer seeds.
        order = np.random.default_rng(seed).permutation(len(contexts))
        self.order = [int(i) for i in order]
        self.seed = seed
        self.forecast_ms: list[float] = []
        self.route_ms: list[float] = []
        self.pool: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.counts = dict.fromkeys(
            ("moves", "accepted", "iterations", "converged"), 0)

    def pass_options(self, index: int) -> list:
        """Pass ``index``'s options: one per inner_num, the same mix always.

        inner_num scales the annealer's moves fifty-fold, so every pass
        visits each value once (with the alpha_t and algorithm the sweep
        pairs it with first) and only the placer seeds change.  Then
        candidates per second measures the program, not which options a
        run happened to reach.
        """
        from repro.flows.datagen import sweep_placer_options

        first = {}
        base_seed = self.seed * 1000 + index * SWEEP
        for option in sweep_placer_options(SWEEP, base_seed=base_seed):
            first.setdefault(option.inner_num, option)
        return [first[key] for key in sorted(first)]

    def one_pass(self, index: int) -> None:
        """Every design with every option of pass ``index``."""
        for option in self.pass_options(index):
            for design in self.order:
                try:
                    self.candidate(design, option)
                except Exception as error:      # noqa: BLE001 - counted
                    self.checks.record(False,
                                       f"candidate raised: {error!r}")

    def candidate(self, design: int, option) -> None:
        """Anneal with live forecasts, then route: one candidate."""
        from repro.fpga import (PathFinderRouter, Placement,
                                SimulatedAnnealingPlacer)
        from repro.gan.dataset import make_input_stack
        from repro.viz import (render_connectivity, render_placement,
                               render_routing)

        context = self.contexts[design]
        layout, model, span = context.layout, self.model, self.tracer.span
        side = layout.image_size
        last = {}

        def snapshot(index, temperature, placement):
            start = time.perf_counter()
            with span("viz.render.placement"):
                place = render_placement(placement, layout,
                                         base=context.floor_image)
            with span("viz.render.connectivity"):
                connect = render_connectivity(context.netlist, placement,
                                              layout)
            with span("gan.input_stack"):
                x = make_input_stack(place, connect, context.connect_weight)
            with span("gan.forecast.b1"):
                image = model.forecast(x)
            self.forecast_ms.append((time.perf_counter() - start) * 1e3)
            self.checks.record(_image_ok(image, side),
                               "snapshot forecast out of contract")
            last.update(x=x, image=image, place=place)

        with span("explore.candidate", group=len(self.route_ms) + 1):
            with span("fpga.placer"):
                placed = SimulatedAnnealingPlacer(
                    context.netlist, context.probe_arch, option).place(
                        snapshot_callback=snapshot)
            placement = Placement(context.netlist, context.arch,
                                  list(placed.placement.site_of))
            start = time.perf_counter()
            with span("fpga.router"):
                routing = PathFinderRouter(context.netlist, context.arch,
                                           placement).route()
            with span("viz.render.routing"):
                truth = render_routing(placement, routing, layout,
                                       place_image=last["place"])
            self.route_ms.append((time.perf_counter() - start) * 1e3)
        self.counts["moves"] += placed.num_moves
        self.counts["accepted"] += placed.num_accepted
        self.counts["iterations"] += routing.iterations
        self.counts["converged"] += int(routing.converged)
        nets = {net.id for net in context.netlist.nets}
        self.checks.record(set(routing.net_trees) == nets,
                           f"{context.design}: routing misses nets")
        self.checks.record(_image_ok(truth, side), "truth image out of range")
        # The last snapshot is the final placement: the annealer moves
        # nothing after its last temperature's callback.
        if len(self.pool) < POOL:
            self.pool.append((design, last["x"], last["image"]))

    def pool_pass(self) -> float:
        """Forecast the pool in batches of 16 and rank it; returns seconds."""
        from repro.flows.exploration import region_mask
        from repro.gan.metrics import regional_congestion_score

        span = self.tracer.span
        xs = np.stack([x for _, x, _ in self.pool])
        start = time.perf_counter()
        batches = []
        for first in range(0, len(xs), POOL_BATCH):
            with span("gan.forecast.b16"):
                batches.append(self.model.forecast(
                    xs[first:first + POOL_BATCH]))
        with span("gan.rank"):
            images = np.concatenate(batches)
            masks = [region_mask(images.shape[1], region)
                     for region in REGIONS]
            for design, context in enumerate(self.contexts):
                members = [i for i, (owner, _, _) in enumerate(self.pool)
                           if owner == design]
                channel = context.layout.channel_pixel_mask()
                for mask in masks:
                    scores = [regional_congestion_score(images[i], channel,
                                                        mask)
                              for i in members]
                    np.argsort(scores, kind="stable")
        seconds = time.perf_counter() - start
        for (_, _, single), batched in zip(self.pool, images):
            self.checks.record(np.array_equal(single, batched),
                               "batch-16 forecast differs from batch-1")
        return seconds


def run(ctx) -> dict:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        contexts, model = _setup(ctx.seed)
        setup_s.append(time.perf_counter() - start)
    result = {"setup_s": setup_s}
    tracer = ctx.tracer
    if tracer.enabled:
        result["overhead_ratio"] = _trace_overhead(contexts, model, ctx.seed)
        from repro.obs.profile import Profiler

        profiler = Profiler()
        groups = attach(profiler, model)

    explorer = Explorer(contexts, model, ctx.seed, ctx.checks, tracer)
    start = time.perf_counter()
    with tracer.span("bench.explore") as root:
        # Whole passes only, each with the same designs and options; a
        # pass starts only if one more (at the mean pass time) fits.
        passes = 0
        while True:
            explorer.one_pass(passes)
            passes += 1
            loop_s = time.perf_counter() - start
            if loop_s * (passes + 1) / passes > LOOP_SHARE * ctx.seconds:
                break
        pool_s = []
        while not pool_s or time.perf_counter() - start < ctx.seconds:
            pool_s.append(explorer.pool_pass())

    candidates = len(explorer.route_ms)
    route_p50 = percentile(explorer.route_ms, 50)
    result.update(
        latency=("forecast_ms", explorer.forecast_ms),
        throughput=("candidates_per_s",
                    Metric(candidates / loop_s, "1/s", candidates)),
        stages={
            "route_ms_p50": Metric(route_p50, "ms", candidates),
            "speedup_over_route": Metric(
                route_p50 / percentile(explorer.forecast_ms, 50), "ratio",
                candidates),
            "pool_forecasts_per_s": Metric(
                len(explorer.pool) / statistics.median(pool_s), "1/s",
                len(pool_s)),
        })
    if not tracer.enabled:
        return result

    snapshot = profiler.snapshot()
    profiler.detach()
    nn_seconds = group_seconds(snapshot, groups, EVAL_PASSES)
    counts = explorer.counts
    result.update(
        root=root,
        moved={"gan.forecast.unattributed_s": sum(nn_seconds.values())},
        layers={
            "fpga.placer.moves": counts["moves"],
            "fpga.placer.accept_ratio": counts["accepted"] / counts["moves"],
            "fpga.router.iterations": counts["iterations"],
            "fpga.router.converged_ratio": counts["converged"] / candidates,
            "gan.forecast.b1.samples": len(explorer.forecast_ms),
            "gan.forecast.b16.samples": len(pool_s) * len(explorer.pool),
            **{f"nn.{group}.self_s": seconds
               for group, seconds in nn_seconds.items()},
            **count_for(contexts[0].layout.image_size, ctx.seed),
        })
    return result


def _trace_overhead(contexts, model, seed: int) -> float:
    """Traced over untraced wall of one fixed candidate, median of 3 pairs."""
    from repro.obs.profile import Profiler

    walls = {False: [], True: []}
    for _ in range(3):
        for traced in (False, True):
            profiler = Profiler() if traced else None
            if traced:
                attach(profiler, model)
            explorer = Explorer(contexts, model, seed, Checks(),
                                Tracer() if traced else NullTracer())
            start = time.perf_counter()
            with explorer.tracer.span("bench.calibrate"):
                explorer.candidate(explorer.order[0],
                                   explorer.pass_options(0)[0])
            walls[traced].append(time.perf_counter() - start)
            if traced:
                profiler.detach()
    return statistics.median(walls[True]) / statistics.median(walls[False])
