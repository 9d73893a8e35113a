"""``serve``: HTTP load against ``repro serve``, closed loop then open.

Each of the three set-ups writes a checkpoint and starts ``python -m
repro serve`` on it as its own process, with the CLI defaults, then
measures a closed loop on it: one caller sending requests back to back
over one keep-alive connection, as an annealer calling the service
would (``http_rtt_ms`` per request, ``http_caller_rps`` per block).
Taking both over many blocks on three server processes keeps them
steady.  The last server then takes an open-loop ladder: pre-encoded
bodies on a seeded Poisson schedule, over at most ``nproc`` keep-alive
connections (2 on a 2-core host), at rising rates until one misses the
latency limit (``http_p50_ms``, ``http_p90_ms``, ``http_max_rps``,
latency timed from each request's due time).  One request in four
repeats an input sent within the last 64 (well inside the server's
256-entry cache), standing in for annealer snapshots that barely move;
the rest are fresh.

The HTTP layer's JSON parse and encode dominate, while engine batching,
the forecast cache and batched nn eval all run; no fpga or train work.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from common import (Metric, NullTracer, Outcome, RequestPlan, StepResult,
                    Tracer, max_rate, percentile, poisson_schedule,
                    process_peak_rss_mb, usable_cores)
from explore import DESIGN_SEED, DESIGNS
from nnlayers import group_seconds
from opcount import count_for

MODEL = "bench"
#: Closed loop on each server: ``BLOCKS`` blocks of ``BLOCK`` requests
#: back to back over one connection.  ``http_rtt_ms`` pools every round
#: trip; ``http_caller_rps`` is the median rate over all blocks.
BLOCK = 30
BLOCKS = 5
CLOSED = BLOCK * BLOCKS
#: Ladder of (offered rate in requests/s, requests): about 26 s of
#: schedule.  The lowest rate's 100 requests give its reported p90 ten
#: samples beyond it; the steps above only decide pass or miss.  The
#: climb stops at the first miss.
LADDER = ((6.0, 100), (10.0, 40), (15.0, 40), (22.0, 40), (33.0, 40))
LIMIT_MS = 100.0
#: One request in every ``REPEAT_EVERY`` (at a seeded position) repeats
#: an input sent within the last ``REPEAT_WINDOW``.
REPEAT_EVERY = 4
REPEAT_WINDOW = 64
WARMUP = 8
CALIBRATION = 20
SETUP_REPEATS = 3
START_TIMEOUT = 60.0


class Server:
    """One ``repro serve`` process and a way to talk to it."""

    def __init__(self, ctx, checkpoints, profile_out=None):
        if profile_out is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, "perfbench/serve_profiled.py",
                       "--profile-out", str(profile_out)]
        command += ["--checkpoints", str(checkpoints), "--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ctx.root / "src"), env.get("PYTHONPATH")]))
        self.process = subprocess.Popen(
            command, cwd=ctx.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        found = {}

        def read():
            for line in self.process.stdout:
                if line.startswith("serving "):
                    found["port"] = int(line.split("http://")[1]
                                        .split()[0].rsplit(":", 1)[1])
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(START_TIMEOUT)
        if "port" not in found:
            self.stop()
            raise RuntimeError("repro serve did not report ready")
        return found["port"]

    def connect(self) -> http.client.HTTPConnection:
        """A keep-alive connection with Nagle off on the client's side,
        as urllib3 (behind ``requests``) opens its sockets."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def post(self, conn, body: bytes) -> tuple[int, bytes]:
        conn.request("POST", "/v1/forecast", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()

    def engine_stats(self) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", "/metrics",
                         headers={"Accept": "application/json"})
            return json.loads(conn.getresponse().read())["engine"]
        finally:
            conn.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def _inputs(seed: int, count: int) -> list[np.ndarray]:
    """Distinct annealer-snapshot input stacks and their dihedral images."""
    from repro.config import get_scale
    from repro.flows.datagen import make_design_context, sweep_placer_options
    from repro.fpga import SimulatedAnnealingPlacer
    from repro.fpga.generators import scaled_suite
    from repro.gan.dataset import make_input_stack
    from repro.viz import render_connectivity, render_placement

    scale = get_scale("default")
    specs = [spec for spec in scaled_suite(scale) if spec.name in DESIGNS]
    inputs, seen = [], set()
    for index, option in enumerate(sweep_placer_options(
            64, base_seed=seed * 1000)):
        context = make_design_context(specs[index % len(specs)], scale,
                                      seed=DESIGN_SEED)
        snapshots = []

        def grab(_, __, placement):
            snapshots.append(make_input_stack(
                render_placement(placement, context.layout,
                                 base=context.floor_image),
                render_connectivity(context.netlist, placement,
                                    context.layout),
                context.connect_weight))

        SimulatedAnnealingPlacer(context.netlist, context.probe_arch,
                                 option).place(snapshot_callback=grab)
        for x in snapshots:
            for turn in range(8):
                image = np.rot90(x, turn % 4, axes=(1, 2))
                if turn >= 4:
                    image = image[:, :, ::-1]
                image = np.ascontiguousarray(image)
                key = image.tobytes()
                if key not in seen:
                    seen.add(key)
                    inputs.append(image)
        if len(inputs) >= count:
            return inputs[:count]
    raise RuntimeError("annealer produced too few distinct inputs")


def _body(x: np.ndarray) -> bytes:
    return json.dumps({"model": MODEL, "input": x.tolist()}).encode()


def _setup(ctx, index: int, profile_out):
    from repro.config import get_scale
    from repro.gan import Pix2Pix, Pix2PixConfig

    model = Pix2Pix(Pix2PixConfig.from_scale(get_scale("default"),
                                             image_size=64, seed=ctx.seed))
    checkpoints = ctx.work / f"checkpoints{index}"
    model.save(checkpoints / f"{MODEL}.npz")
    server = Server(ctx, checkpoints, profile_out)
    return model, server


class LoadGenerator:
    """Closed-loop phases and the open-loop ladder, over keep-alive
    connections to ``self.server``."""

    def __init__(self, bodies, seed, tracer):
        self.server = None                # set to the server under load
        self.bodies = bodies
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.connections = max(1, min(2, usable_cores()))
        self.plan = RequestPlan(self.rng, REPEAT_EVERY, REPEAT_WINDOW).next
        self.records: list[dict] = []

    def step(self, rate: float, count: int) -> StepResult:
        """One open-loop ladder step: ``count`` requests at ``rate``."""
        plan = self.plan(count)
        records = self._send(plan, poisson_schedule(rate, count, self.rng))
        return StepResult(rate, [Outcome(r["due"], r["sent"], r["done"], True)
                                 for r in records])

    def closed(self, count: int) -> tuple[float, list]:
        """Closed loop over one connection: each request is sent as soon
        as the last one is answered.  Returns (requests per second,
        records)."""
        plan = self.plan(count)
        start = time.perf_counter()
        records = self._send(plan, None, 1)
        return count / (time.perf_counter() - start), records

    def _send(self, plan, due, connections=None) -> list[dict]:
        """Send ``plan`` over the connections, at ``due`` offsets if given.

        A closed-loop request (``due`` None) is due when it is sent.
        """
        count = len(plan)
        records = [None] * count
        cursor = iter(range(count))
        lock = threading.Lock()
        first = len(self.records)
        with self.tracer.span("loadgen.step") as step_span:
            start = time.perf_counter() + 0.01

            def worker():
                conn = self.server.connect()
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        break
                    if due is not None:
                        delay = start + due[i] - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                    sent = time.perf_counter()
                    try:
                        with self.tracer.span("serve.http.request",
                                              group=first + i,
                                              parent=step_span):
                            status, data = self.server.post(
                                conn, self.bodies[plan[i][0]])
                    except (OSError, http.client.HTTPException) as error:
                        status, data = 0, repr(error).encode()
                        conn.close()
                        conn = self.server.connect()
                    records[i] = {
                        "due": sent if due is None else start + due[i],
                        "sent": sent, "done": time.perf_counter(),
                        "status": status, "data": data,
                        "input": plan[i][0], "repeat": plan[i][1]}
                conn.close()

            threads = [threading.Thread(target=worker)
                       for _ in range(connections or self.connections)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        self.records.extend(records)
        return records


def _check(records, inputs, model, checks, tracer, references) -> None:
    """Decode every response of a step and compare it to the model."""
    with tracer.span("bench.check"):
        for record in records:
            ok, reason = False, f"HTTP {record['status']}"
            record["response_bytes"] = len(record["data"])
            if record["status"] == 200:
                reply = json.loads(record.pop("data"))
                record["latency_ms"] = reply["latency_ms"]
                record["cached"] = reply["cached"]
                expected = references.get(record["input"])
                if expected is None:
                    expected = references[record["input"]] = model.forecast(
                        inputs[record["input"]])
                image = np.asarray(reply["forecast"], dtype=np.float32)
                ok = np.array_equal(image, expected) and (
                    record["repeat"] or not reply["cached"])
                reason = ("forecast differs from Pix2Pix.forecast"
                          if not np.array_equal(image, expected)
                          else "fresh input served from cache")
            record["ok"] = checks.record(ok, reason)


def _warm(server, bodies) -> None:
    conn = server.connect()
    for body in bodies:
        server.post(conn, body)
    conn.close()


def run(ctx) -> dict:
    tracer = ctx.tracer
    profile_out = ctx.work / "server-profile.json" if tracer.enabled else None
    requests = (CLOSED * SETUP_REPEATS
                + sum(count for _, count in LADDER))
    # Only fresh requests take a new input: all but one in REPEAT_EVERY
    # (the first run of REPEAT_EVERY may have no repeat).
    fresh = requests - requests // REPEAT_EVERY + 1
    inputs = _inputs(ctx.seed, WARMUP + CALIBRATION + fresh)
    warmup = [_body(x) for x in inputs[:WARMUP]]
    calibration = inputs[WARMUP:WARMUP + CALIBRATION]
    load_inputs = inputs[WARMUP + CALIBRATION:]
    bodies = [_body(x) for x in load_inputs]

    generator = LoadGenerator(bodies, ctx.seed, tracer)
    result = {"setup_s": []}
    sequential, rates, steps, references = [], [], [], {}
    server = None
    try:
        with tracer.span("bench.serve") as root:
            # Each set-up starts a fresh server and measures the closed
            # loop on it, so both gated figures are taken over several
            # server processes; the last one then climbs the ladder.
            for index in range(SETUP_REPEATS):
                last = index == SETUP_REPEATS - 1
                with tracer.span("bench.setup"):
                    start = time.perf_counter()
                    model, server = _setup(ctx, index, profile_out)
                    _warm(server, warmup)
                    result["setup_s"].append(time.perf_counter() - start)
                    if last and tracer.enabled:
                        result["overhead_ratio"] = _trace_overhead(
                            ctx, server, calibration, warmup)
                    before = server.engine_stats()
                generator.server = server
                for _ in range(BLOCKS):
                    rate, block = generator.closed(BLOCK)
                    sequential += block
                    rates.append(rate)
                    _check(block, load_inputs, model, ctx.checks, tracer,
                           references)
                if not last:
                    server.stop()
            for rate, count in LADDER:
                step = generator.step(rate, count)
                records = generator.records[-count:]
                _check(records, load_inputs, model, ctx.checks, tracer,
                       references)
                for outcome, record in zip(step.outcomes, records):
                    outcome.ok = record["ok"]
                steps.append(step)
                if not step.passed(LIMIT_MS):
                    break
            after = server.engine_stats()
            server_peak = process_peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            server.stop()

    lowest = [o.latency_ms for o in steps[0].outcomes]
    result.update(
        latency=("http_rtt_ms", [(r["done"] - r["sent"]) * 1e3
                                 for r in sequential]),
        throughput=("http_caller_rps",
                    Metric(statistics.median(rates), "1/s", len(rates))),
        extra={
            "http_p50_ms": Metric(percentile(lowest, 50), "ms",
                                  len(lowest)),
            "http_p90_ms": Metric(percentile(lowest, 90), "ms",
                                  len(lowest)),
            "http_max_rps": Metric(max_rate(steps, LIMIT_MS), "1/s",
                                   len(steps)),
            "server_peak_rss_mb": Metric(server_peak or 0.0, "MB"),
            **{f"step_{step.rate:g}rps_p90_ms": Metric(
                step.p90_ms(), "ms", len(step.outcomes),
                "pass" if step.passed(LIMIT_MS) else "miss")
               for step in steps},
        })
    if not tracer.enabled:
        return result

    records = generator.records
    ok = [r for r in records if r.get("ok")]
    rtt = [(r["done"] - r["sent"]) * 1e3 for r in ok]
    profile = json.loads(profile_out.read_text())
    nn_seconds = group_seconds(profile["snapshot"], profile["groups"],
                               ("forward_eval", "forward_eval_folded"))
    lookups = ((after["cache_hits"] - before["cache_hits"])
               + (after["cache_misses"] - before["cache_misses"]))
    batches = after["batches"] - before["batches"]
    result.update(root=root, layers={
        "serve.http.rtt_ms_p50": percentile(rtt, 50),
        "serve.http.self_ms_p50": percentile(
            [(r["done"] - r["sent"]) * 1e3 - r["latency_ms"] for r in ok],
            50),
        "serve.http.request_bytes": statistics.mean(
            len(bodies[r["input"]]) for r in records),
        "serve.http.response_bytes": statistics.mean(
            r["response_bytes"] for r in ok),
        "serve.engine.latency_ms_p50": percentile(
            [r["latency_ms"] for r in ok], 50),
        "serve.engine.batches": batches,
        "serve.engine.batch_occupancy": (
            (after["batched_requests"] - before["batched_requests"])
            / max(1, batches)),
        "serve.engine.expired": after["expired"] - before["expired"],
        "serve.cache.hit_ratio": (
            (after["cache_hits"] - before["cache_hits"]) / max(1, lookups)),
        "serve.server.peak_rss_mb": server_peak or 0.0,
        "loadgen.sent": len(records),
        "loadgen.ok": len(ok),
        "loadgen.failed": len(records) - len(ok),
        # The closed-loop phases have no schedule to lag behind.
        "loadgen.lag_ms_p90": percentile(
            [(r["sent"] - r["due"]) * 1e3
             for r in records[CLOSED * SETUP_REPEATS:]], 90),
        **{f"nn.{group}.self_s": seconds
           for group, seconds in nn_seconds.items()},
        **count_for(64, ctx.seed),
    })
    return result


def _trace_overhead(ctx, traced_server, inputs, warmup) -> float:
    """Mean round trip, traced over untraced, on the same fresh inputs.

    The untraced side is a plain ``repro serve`` started for the
    purpose; the traced side is the profiled server the run measures.
    """
    bodies = [_body(x) for x in inputs]

    def burst(server, tracer, bodies) -> float:
        conn = server.connect()
        start = time.perf_counter()
        for body in bodies:
            with tracer.span("serve.http.request"):
                server.post(conn, body)
        conn.close()
        return time.perf_counter() - start

    _, plain = _setup(ctx, SETUP_REPEATS, None)
    try:
        burst(plain, NullTracer(), warmup)
        untraced = burst(plain, NullTracer(), bodies)
    finally:
        plain.stop()
    return burst(traced_server, Tracer(), bodies) / untraced
