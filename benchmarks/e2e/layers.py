"""Layer measurement from outside: spans, recorded-stream drives, A/B diffs.

Nothing here edits the program.  Three techniques, all timing calls into
public functions:

- **span** (:class:`Tracer`): an in-memory record around a call the
  benchmark itself makes; a span's self time is its duration minus the
  part its direct children cover.
- **drive** (the ``probe_*`` functions): a layer's public API fed
  standalone with a seeded stream.  Controller drives replay the
  ``AckSample``/``LossSample``/``IntervalReport`` stream captured by
  :func:`record_controller` from a real run of the same controller.
- **diff**: the same job with one thing toggled, runs interleaved.

:func:`probe_all` runs the whole battery; it yields *unit costs*.  A
workload turns them into shares with its own counts (see
``Workload.attribute`` in ``workloads.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import pickle
import shutil
import statistics
import tempfile
import time

import numpy as np

_clock = time.perf_counter


# -- spans -------------------------------------------------------------------

class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload, "start": _clock(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield
        finally:
            span["end"] = _clock()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
    return out


# -- recording wrapper and replay ----------------------------------------------

_FEEDBACK = {"ack": "on_ack", "loss": "on_loss", "interval": "on_interval"}


def record_controller(controller, log: list) -> type:
    """Make ``controller`` append every feedback call to ``log``.

    Returns the controller's own class; assign it back to ``__class__``
    after the run so the result pickles.

    The instance's class is swapped for a slot-less subclass, so the
    senders' attribute fast paths and ``isinstance`` checks see the same
    object.  Samples are copied: the batched sender reuses one
    ``AckSample`` for every ACK.
    """
    cls = type(controller)

    def start(self, now, mss):
        log.append(("start", (now, mss)))
        cls.start(self, now, mss)

    def feedback(kind, method):
        inner = getattr(cls, method)

        def call(self, sample):
            log.append((kind, dataclasses.replace(sample)))
            inner(self, sample)
        return call

    body = {"__slots__": (), "start": start}
    body.update({m: feedback(k, m) for k, m in _FEEDBACK.items()})
    controller.__class__ = type("Recorded" + cls.__name__, (cls,), body)
    return cls


def replay(controller, log: list) -> dict[str, tuple[float, int]]:
    """Feed ``log`` to a fresh controller; kind -> (seconds, calls).

    Consecutive calls of one kind are timed as one block, so the clock
    is read twice per block, not per call.
    """
    spent = {kind: [0.0, 0] for kind in _FEEDBACK}
    i, n = 0, len(log)
    while i < n:
        kind = log[i][0]
        j = i
        while j < n and log[j][0] == kind:
            j += 1
        if kind == "start":
            controller.start(*log[i][1])
        else:
            call = getattr(controller, _FEEDBACK[kind])
            block = [item for _, item in log[i:j]]
            t0 = _clock()
            for sample in block:
                call(sample)
            spent[kind][0] += _clock() - t0
            spent[kind][1] += len(block)
        i = j
    return {kind: (t, c) for kind, (t, c) in spent.items()}


# -- helpers -------------------------------------------------------------------

def _median_of(fn, reps: int = 3) -> float:
    return statistics.median(fn() for _ in range(reps))


def _timed(fn) -> float:
    t0 = _clock()
    fn()
    return _clock() - t0


def _ab(a, b, reps: int = 3) -> tuple[float, float]:
    """Median wall of ``a`` and of ``b``, runs interleaved A B A B ..."""
    ta, tb = [], []
    for _ in range(reps):
        ta.append(_timed(a))
        tb.append(_timed(b))
    return statistics.median(ta), statistics.median(tb)


# -- simnet ----------------------------------------------------------------------

def probe_engine(seed: int, depth: int = 256, events: int = 120_000) -> dict:
    """``EventLoop.call_at`` + ``run_until`` with no-op callbacks."""
    from repro.simnet.engine import EventLoop

    offsets = np.random.default_rng(seed).random(events).tolist()

    def noop():
        pass

    def run() -> float:
        loop = EventLoop()
        t0 = _clock()
        for base in range(0, events, depth):
            start = float(base // depth)
            for off in offsets[base:base + depth]:
                loop.call_at(start + off, noop)
            loop.run_until(start + 1.0)
        return (_clock() - t0) / events * 1e6

    return {"simnet.engine.event_us": _median_of(run)}


def probe_link(seed: int, packets: int = 40_000) -> dict:
    """``BottleneckLink.send`` into a sink at line rate.

    The figure is the link's whole per-packet cost: the enqueue plus the
    service-finish and delivery events it schedules for itself.
    """
    from repro.simnet.engine import EventLoop
    from repro.simnet.link import BottleneckLink
    from repro.simnet.packet import Packet
    from repro.simnet.trace import wired_trace

    mss, rate = 1500, 48e6
    gap = mss * 8.0 / rate

    def run() -> float:
        loop = EventLoop()
        link = BottleneckLink(loop, wired_trace(48.0), 150_000.0, 0.015,
                              deliver=lambda packet: None, seed=seed)
        t0 = _clock()
        for seq in range(packets):
            now = seq * gap
            loop.run_until(now)
            link.send(Packet(0, seq, mss, now))
        loop.run_until(packets * gap + 1.0)
        if link.served_packets != packets:
            raise RuntimeError("link drive lost packets at line rate")
        return (_clock() - t0) / packets * 1e6

    return {"simnet.link.send_us": _median_of(run)}


def probe_build(seed: int, flows: int = 256) -> dict:
    """``Scenario.build`` + ``add_flow`` + the attach work ``run`` does.

    ``add_flow`` only files a spec; senders, receivers and their timers
    are made when ``run`` starts, so the drive runs the network for an
    instant (only flow 0 has started by then).
    """
    from repro.registry import make_controller
    from repro.scenarios.presets import named_presets

    scenario = named_presets()["scale-96"]

    def run() -> float:
        t0 = _clock()
        net = scenario.build(seed=seed)
        for i in range(flows):
            net.add_flow(make_controller("cubic", seed=seed + i),
                         start=i * 0.005)
        net.run(1e-9)
        return (_clock() - t0) / flows * 1e6

    return {"simnet.build_us_per_flow": _median_of(run)}


def engines() -> list[str]:
    """Engine names the shipped presets use, found without naming any."""
    from repro.scenarios.presets import named_presets

    return sorted({getattr(s, "engine", "") for s in named_presets().values()}
                  - {""})


def probe_engine_ratio(seed: int) -> dict:
    """The scale-96 job on every engine the presets know; 1.0 with one."""
    from repro.parallel import FlowSpec, Job
    from repro.scenarios.presets import named_presets

    scenario = named_presets()["scale-96"]
    others = [e for e in engines() if e != scenario.engine] \
        if hasattr(scenario, "engine") else []
    if not others:
        return {"simnet.engine_ratio": 1.0}
    flows = tuple(FlowSpec.make("cubic", seed=seed + i, start=i * 0.01)
                  for i in range(64))
    shipped = Job(scenario=scenario, flows=flows, seed=seed, duration=2.0)
    other = dataclasses.replace(
        shipped, scenario=scenario.with_(engine=others[0]))
    t_shipped, t_other = _ab(shipped.run, other.run)
    return {"simnet.engine_ratio": t_other / t_shipped}


# -- controllers -------------------------------------------------------------------

#: controller -> metric stem of its per-ACK drive
ON_ACK = {"cubic": "cca.cubic.on_ack_us", "bbr": "cca.bbr.on_ack_us",
          "copa": "cca.copa.on_ack_us", "c-libra": "core.libra.on_ack_us.c",
          "b-libra": "core.libra.on_ack_us.b"}
PROBE_CCAS = ("cubic", "bbr", "copa", "orca", "c-libra", "b-libra")


def record_jobs(seed: int, duration: float = 2.0) -> dict:
    """Run one job per probe CCA on wired-48 with a recording controller.

    Returns cca -> (job, JobResult, log).  The job is the plain public
    ``single_flow_job``; the recorded run rebuilds it from the same
    public pieces ``Job.run`` uses so the controller can be wrapped.
    """
    from repro.parallel import JobResult, single_flow_job
    from repro.scenarios.presets import named_presets

    scenario = named_presets()["wired-48"]
    out = {}
    for cca in PROBE_CCAS:
        job = single_flow_job(cca, scenario, seed=seed, duration=duration)
        log: list = []
        t0 = _clock()
        net = job.scenario.build(seed=job.seed)
        controller = job.flows[0].build(job.seed)
        own_class = record_controller(controller, log)
        net.add_flow(controller)
        result = net.run(job.effective_duration)
        controller.__class__ = own_class
        out[cca] = (job, JobResult(result=result, elapsed=_clock() - t0), log)
    return out


def probe_controllers(seed: int, recorded: dict) -> dict:
    from repro.registry import make_controller

    metrics: dict[str, float] = {}
    acks = packets = 0
    for cca, (job, jr, log) in recorded.items():
        runs = [replay(make_controller(cca, seed=job.seed), log)
                for _ in range(3)]

        def per_call(kind):
            seconds = statistics.median(run[kind][0] for run in runs)
            return seconds / runs[0][kind][1] * 1e6

        if cca in ON_ACK:
            metrics[ON_ACK[cca]] = per_call("ack")
        if cca == "c-libra":
            metrics["core.libra.on_interval_us"] = per_call("interval")
            controller = jr.result.controllers[0]
            counts = controller.meter.counts
            rl_calls = counts["nn_forward"] \
                / controller.policy.actor.flops_per_forward
            metrics["core.libra.rl_calls_per_mi"] = \
                rl_calls / max(counts["per_mi"], 1.0)
        if cca == "orca":
            metrics["learning.orca.on_interval_us"] = per_call("interval")
        acks += runs[0]["ack"][1]
        packets += jr.result.flows[0].sent_packets
    metrics["cca.acks_per_pkt"] = acks / max(packets, 1)
    return metrics


def probe_policy(seed: int, calls: int = 3000) -> dict:
    """``GaussianActorCritic.act`` at the shipped asset size (2x64)."""
    from repro.assets import load_policy

    policy = load_policy("libra")
    rng = np.random.default_rng(seed)
    obs = rng.standard_normal((calls, policy.obs_dim))

    def run() -> float:
        t0 = _clock()
        for row in obs:
            policy.act(row, rng)
        return (_clock() - t0) / calls * 1e6

    return {"rl.policy.act_us": _median_of(run)}


# -- parallel, harness, telemetry, sanitize ---------------------------------------------

def probe_parallel(seed: int, recorded: dict, workers: int, tmp: str) -> dict:
    from repro.experiments.harness import run_job_grid, summarize
    from repro.parallel import ResultCache, code_salt, job_key

    jobs = [job for job, _, _ in recorded.values()]
    results = [jr for _, jr, _ in recorded.values()]
    metrics = {
        "simnet.result_pickle_kb": statistics.median(
            len(pickle.dumps(jr.result)) for jr in results) / 1024.0,
        "parallel.cache.code_salt_ms": _median_of(
            lambda: _timed(lambda: code_salt(fresh=True))) * 1e3,
    }

    salt = code_salt()
    reps = 100
    t0 = _clock()
    for _ in range(reps):
        for job in jobs:
            job_key(job, salt=salt)
    metrics["parallel.jobs.key_us"] = (_clock() - t0) / (reps * len(jobs)) * 1e6

    root = tempfile.mkdtemp(prefix="probe-cache-", dir=tmp)
    try:
        cache = ResultCache(root)
        puts, gets = [], []
        for _ in range(3):
            for job, jr in zip(jobs, results):
                puts.append(_timed(lambda: cache.put(job, jr)))
            for job in jobs:
                gets.append(_timed(lambda: cache.get(job)))
        if cache.hits != 3 * len(jobs):
            raise RuntimeError("cache drive missed an entry it just stored")
        sizes = [os.path.getsize(os.path.join(d, f))
                 for d, _, files in os.walk(root) for f in files]
        metrics["parallel.cache.put_ms"] = statistics.median(puts) * 1e3
        metrics["parallel.cache.get_ms"] = statistics.median(gets) * 1e3
        metrics["parallel.cache.entry_kb"] = statistics.median(sizes) / 1024.0
    finally:
        shutil.rmtree(root, ignore_errors=True)

    reps = 50
    t0 = _clock()
    for _ in range(reps):
        for job, jr in zip(jobs, results):
            summarize(job.flows[0].cca, job.scenario.name, jr.result)
    metrics["experiments.harness.summarize_us"] = \
        (_clock() - t0) / (reps * len(jobs)) * 1e6

    # Pool: the probe jobs serially and on the pool, interleaved.  Two
    # copies of the grid so the pool has twelve jobs to balance.
    grid = jobs + jobs
    pooled: list = []

    def on_pool():
        pooled[:] = run_job_grid(grid, workers=workers, cache=False)

    t_serial, t_pool = _ab(
        lambda: run_job_grid(grid, workers=1, cache=False), on_pool, reps=2)
    busy = sum(jr.elapsed for jr in pooled)
    metrics["parallel.speedup_2w"] = t_serial / t_pool
    metrics["parallel.pool.ms_per_job"] = \
        max(t_pool - busy / workers, 0.0) / len(grid) * 1e3
    return metrics


def probe_hooks(seed: int) -> dict:
    """Telemetry and sanitizer cost: one c-libra lte-driving job, toggled."""
    from repro.parallel import single_flow_job
    from repro.scenarios.presets import named_presets

    scenario = named_presets()["lte-driving"]
    plain = single_flow_job("c-libra", scenario, seed=seed, duration=2.0)
    traced = plain.with_telemetry()
    kept: list = []
    t_plain, t_traced = _ab(plain.run, lambda: kept.append(traced.run()))
    t_plain2, t_sanitized = _ab(plain.run, plain.with_sanitize().run)
    return {
        "telemetry.overhead_ratio": t_traced / t_plain,
        "telemetry.artifact_kb":
            len(pickle.dumps(kept[-1].telemetry)) / 1024.0,
        "sanitize.overhead_ratio": t_sanitized / t_plain2,
    }


def probe_inputs(seed: int) -> dict:
    from repro.assets import load_policy
    from repro.scale import churn_job, churn_preset
    from repro.scenarios.presets import named_presets

    scenario = named_presets()["scale-96"]
    spec = churn_preset("churn-512")
    return {
        "scale.churn.expand_ms": _median_of(lambda: _timed(
            lambda: churn_job(spec, "cubic", scenario, seed=seed)), 5) * 1e3,
        "assets.load_policy_ms": _median_of(lambda: _timed(
            lambda: load_policy("libra", fresh=True)), 5) * 1e3,
    }


# -- train, env ----------------------------------------------------------------------

def probe_train(seed: int, workers: int) -> dict:
    """One iteration of the runner's own public pieces, then fork vs serial."""
    from repro.env.fluidenv import FluidLinkEnv
    from repro.rl.ppo import PPOUpdater
    from repro.train import (TrainRunConfig, build_rollout_tasks,
                             merge_rollouts, train_run)

    config = TrainRunConfig(kind="libra", iterations=1, workers=1,
                            backend="serial", seed=seed)
    policy = train_run(config).policy
    metrics: dict[str, float] = {}
    collect, merge, update, util = [], [], [], []
    updater = PPOUpdater(policy, config.ppo_config(),
                         rng=np.random.default_rng(seed))
    for iteration in (2, 3, 4):
        t0 = _clock()
        tasks = build_rollout_tasks(
            config.kind, policy.get_weights(), config.hidden, config.seed,
            iteration, config.workers, config.steps_per_iteration,
            config.episode_steps, config.episode_steps, config.gamma,
            config.lam)
        results = [task.run() for task in tasks]
        t1 = _clock()
        data, _, stats = merge_rollouts(results)
        t2 = _clock()
        updater.update(data)
        t3 = _clock()
        collect.append(stats["steps"] / (t1 - t0))
        util.append(stats["worker_elapsed"] / (t1 - t0))
        merge.append(t2 - t1)
        update.append(t3 - t2)
    metrics["train.collect_steps_per_s"] = statistics.median(collect)
    metrics["train.worker_util"] = statistics.median(util)
    metrics["train.merge_ms"] = statistics.median(merge) * 1e3
    metrics["rl.ppo.update_s_per_iter"] = statistics.median(update)

    serial = dataclasses.replace(config, iterations=2)
    forked = dataclasses.replace(serial, workers=max(workers, 2),
                                 backend="fork")
    t_serial, t_fork = _ab(lambda: train_run(serial),
                           lambda: train_run(forked), reps=2)
    metrics["train.fork_ratio"] = t_fork / t_serial

    env = FluidLinkEnv()
    env.reset()
    steps = 6000

    def run() -> float:
        t0 = _clock()
        for _ in range(steps):
            if env.step(0.1)[2]:
                env.reset()
        return (_clock() - t0) / steps * 1e6

    metrics["env.fluidenv.step_us"] = _median_of(run)
    return metrics


# -- netio ---------------------------------------------------------------------------

def _clock_cost() -> float:
    n = 20_000
    t0 = _clock()
    for _ in range(n):
        _clock()
    return (_clock() - t0) / n


def _arq_drive(seed: int, loss: float, packets: int, mss: int) -> tuple:
    """In-memory sender -> receiver -> sender loop; (arq_us, rxbuf_us).

    Every datagram that survives the seeded loss draw is delivered and
    acknowledged at once; SACK-detected losses are retransmitted as the
    transport does.  The two sides are timed call by call and the clock's
    own cost is taken off.
    """
    from repro.netio import SRReceiver, SRSender
    from repro.netio.framing import AckPacket, DataPacket

    draws = np.random.default_rng(seed).random(packets * 2).tolist()
    payload = bytes(mss)
    sender, receiver = SRSender(), SRReceiver()
    t_tx = t_rx = 0.0
    n_tx = n_rx = draw = 0
    now = 0.0

    def deliver(seq, retransmit):
        nonlocal t_tx, t_rx, n_tx, n_rx
        t0 = _clock()
        rx = receiver.on_data(DataPacket(seq, payload, retransmit))
        t1 = _clock()
        outcome = sender.on_ack(
            AckPacket(rx.cum_ack, seq, int(rx.delivered_bytes),
                      rx.sack_blocks), now)
        t2 = _clock()
        t_rx += t1 - t0
        t_tx += t2 - t1
        n_rx += 1
        n_tx += 1
        return outcome

    for _ in range(packets):
        now += 1e-4
        while not sender.can_send_new():     # window full of holes: repair
            record = sender.next_retransmit(now)
            if record is None:
                raise RuntimeError("ARQ drive stalled with a full window")
            deliver(record.seq, True)
        t0 = _clock()
        seq = sender.register_send(payload, now)
        t_tx += _clock() - t0
        n_tx += 1
        lost = draws[draw] < loss
        draw += 1
        if lost:
            continue
        outcome = deliver(seq, False)
        while outcome.newly_lost or sender.has_retransmits:
            t0 = _clock()
            record = sender.next_retransmit(now)
            t_tx += _clock() - t0
            if record is None:
                break
            outcome = deliver(record.seq, True)
    tick = _clock_cost()
    return (max(t_tx / n_tx - tick, 0.0) * 1e6 * n_tx / packets,
            max(t_rx / n_rx - tick, 0.0) * 1e6)


def probe_netio(seed: int, mss: int = 1200) -> dict:
    import asyncio

    from repro.netio import NetioServer, send_payload
    from repro.netio.framing import decode, encode_ack, encode_data
    from repro.registry import make_controller

    payload = np.random.default_rng(seed).bytes(mss)
    n = 30_000

    def encode() -> float:
        t0 = _clock()
        for seq in range(n):
            encode_data(seq, payload)
            encode_ack(seq, seq, seq * mss)
        return (_clock() - t0) / (2 * n) * 1e6

    frames = [encode_data(7, payload), encode_ack(7, 7, 7 * mss)]

    def decode_both() -> float:
        t0 = _clock()
        for _ in range(n):
            decode(frames[0])
            decode(frames[1])
        return (_clock() - t0) / (2 * n) * 1e6

    metrics = {"netio.framing.encode_us": _median_of(encode),
               "netio.framing.decode_us": _median_of(decode_both)}
    clean = [_arq_drive(seed, 0.0, 20_000, mss) for _ in range(3)]
    lossy = [_arq_drive(seed, 0.02, 20_000, mss) for _ in range(3)]
    metrics["netio.arq.pkt_us"] = statistics.median(r[0] for r in clean)
    metrics["netio.rxbuf.on_data_us"] = statistics.median(r[1] for r in clean)
    metrics["netio.arq.pkt_us.lossy"] = statistics.median(r[0] for r in lossy)
    metrics["netio.rxbuf.on_data_us.lossy"] = \
        statistics.median(r[1] for r in lossy)

    async def sessions() -> float:
        server = NetioServer()
        host, port = await server.start()
        try:
            setups = []
            for i in range(5):
                t0 = _clock()
                result = await send_payload(
                    host, port, make_controller("cubic", seed=seed),
                    bytes(64 * mss), mss=mss, seed=seed + i, timeout=30.0,
                    cca_name="cubic")
                wall = _clock() - t0
                await server.serve_one(timeout=5.0)
                setups.append(wall - result.duration)
            return statistics.median(setups) * 1e3
        finally:
            await server.close()

    metrics["netio.session_setup_ms"] = max(asyncio.run(sessions()), 0.0)
    return metrics


# -- the battery -------------------------------------------------------------------------

def probe_all(seed: int, workers: int, tmp: str) -> dict:
    """Every unit-cost probe; same battery whatever workload asked."""
    recorded = record_jobs(seed)
    metrics: dict[str, float] = {}
    for part in (probe_engine(seed), probe_link(seed), probe_build(seed),
                 probe_engine_ratio(seed),
                 probe_controllers(seed, recorded), probe_policy(seed),
                 probe_parallel(seed, recorded, workers, tmp),
                 probe_hooks(seed), probe_inputs(seed),
                 probe_train(seed, workers), probe_netio(seed)):
        metrics.update(part)
    return metrics
