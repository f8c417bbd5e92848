"""The five end-to-end workloads.

Each workload is what a user of the repo waits on, run through the same
public entry point the CLI uses, at a size frozen here so one pass takes
about two seconds on two cores.  Inputs derive from the seed alone;
sizes never do, so ``wall_s`` is comparable across seeds.

A workload is driven by ``run.py`` as: ``prepare`` (set-up, timed)
-> ``run_pass`` x N (timed) -> ``verify`` (output checks that
need more than one pass) -> ``close``.  ``attribute`` turns the layer
battery's unit costs into shares of one pass, using the pass's own
counts.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import shutil
import statistics
import tempfile
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from layers import ON_ACK, Tracer, self_time_by_name

#: grid shape: one figure's worth of single-flow jobs
GRID_CCAS = ("cubic", "bbr", "copa", "orca", "c-libra", "b-libra")
GRID_SCENARIOS = ("wired-48", "lte-driving", "stress-burst-loss", "step")
GRID_SIM_SECONDS = 2.0
GRID_WARMUP_SIM_SECONDS = 0.25
#: rereads of the populated cache per ``grid-warm`` pass
WARM_REREADS = 32

MANYFLOW_FLOWS = 256
MANYFLOW_STAGGER = 0.005
MANYFLOW_SIM_SECONDS = 12.0
MANYFLOW_WARMUP_SIM_SECONDS = 1.0

TRAIN_ITERATIONS = 8
TRAIN_WARMUP_ITERATIONS = 1

NETIO_MSS = 1200
NETIO_CLEAN_BYTES = 32 * 1024 * 1024
NETIO_LOSSY_BYTES = 8 * 1024 * 1024
NETIO_LOSSY_SESSIONS = 2
NETIO_LOSS = 0.02
NETIO_WARMUP_BYTES = 1024 * 1024


@dataclass
class PassResult:
    """What one timed pass did."""

    ops: int                      # the workload's unit of work
    attempted: int                # operations whose outcome was checked
    failed: int
    fingerprint: str              # digest of the outputs; repeats across passes
    #: layer counts for attribution; must repeat exactly between passes
    counts: dict = field(default_factory=dict)
    #: measured, so not repeatable: elapsed sums, retransmission counts
    info: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _flow_stats(result) -> list[tuple]:
    """Per-flow (sent, acked, lost, throughput, avg RTT) of one run."""
    return [(f.sent_packets, f.acked_packets, f.lost_packets,
             f.throughput_bps, f.avg_rtt) for f in result.flows]


class Workload:
    name = ""
    why = ""
    op = ""                       # what one op is, for the report
    #: wall of one pass on the two-core reference box; sets the pass count
    nominal_pass_s = 2.0

    def __init__(self, seed: int, workers: int, tmp: str):
        self.seed = seed
        self.workers = workers
        self.tmp = tmp

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Tracer) -> PassResult:
        raise NotImplementedError

    def verify(self, passes: list[PassResult]) -> list[str]:
        """Checks across passes; returns one line per failed check."""
        errors = []
        if len({p.fingerprint for p in passes}) > 1:
            errors.append("outputs differ between passes")
        if any(p.counts != passes[0].counts for p in passes):
            errors.append("layer counts differ between passes")
        return errors

    def attribute(self, unit: dict, result: PassResult, cpu_s: float,
                  wall_s: float, spans: list[dict]) -> dict:
        """Per-layer-group shares of one pass's CPU (``share.*`` keys)
        plus the counts only this workload can supply."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def _share(total_us: float, cpu_s: float) -> float:
    """``total_us`` of attributed work as a share of a pass's CPU."""
    return total_us / (cpu_s * 1e6)


def _fell_back(job, run) -> bool:
    """Whether the run used another engine than its scenario asked for;
    never, once results and scenarios stop naming an engine."""
    used = getattr(run, "engine_used", None)
    return used is not None and used != getattr(job.scenario, "engine", used)


# -- grid-cold / grid-warm ---------------------------------------------------------

def grid_jobs(seed: int, duration: float) -> list:
    """The 24-job figure-shaped grid.

    Every job gets its own seed: with one seed for the whole grid the
    six LTE jobs would share a trace and the pass size would swing with
    it from seed to seed.
    """
    from repro.parallel import single_flow_job
    from repro.scenarios.presets import named_presets

    presets = named_presets()
    jobs = []
    for scenario in GRID_SCENARIOS:
        for cca in GRID_CCAS:
            jobs.append(single_flow_job(
                cca, presets[scenario], seed=seed * 100 + len(jobs),
                duration=duration, telemetry=(cca == "c-libra")))
    return jobs


def _load_grid_assets() -> None:
    from repro.assets import load_policy
    from repro.parallel import code_salt

    for kind in ("libra", "orca"):
        load_policy(kind, fresh=True)
    code_salt(fresh=True)


def _grid_counts(jobs, results) -> dict:
    """Packets, events and per-controller feedback counts of a grid."""
    counts = {"packets": 0, "events": 0, "acks": {}, "intervals": {},
              "rl_calls": 0.0, "fallbacks": 0, "jobs": len(jobs)}
    for job, jr in zip(jobs, results):
        if jr.result is None:
            continue
        run, cca = jr.result, job.flows[0].cca
        counts["packets"] += sum(f.sent_packets for f in run.flows)
        counts["events"] += run.events_processed
        counts["acks"][cca] = counts["acks"].get(cca, 0) \
            + sum(f.acked_packets for f in run.flows)
        for controller in run.controllers:
            meter = controller.meter.counts
            counts["intervals"][cca] = \
                counts["intervals"].get(cca, 0) + int(meter["per_mi"])
            policy = getattr(controller, "policy", None)
            if policy is not None:
                counts["rl_calls"] += \
                    meter["nn_forward"] / policy.actor.flops_per_forward
        counts["fallbacks"] += _fell_back(job, run)
    return counts


def _controller_shares(unit: dict, counts: dict, cpu_s: float) -> dict:
    """Controller-side shares of a grid pass from unit costs x counts.

    A Libra flow's ACKs are counted under ``core_libra`` whole, the
    calls it makes into its classic arm included (it makes them only in
    two of its five stages, so the arm's standalone cost does not
    apply).  Policy inference is taken out of the per-MI drives and
    counted once, under ``rl``.
    """
    acks, intervals = counts["acks"], counts["intervals"]
    act = unit["rl.policy.act_us"]
    cca = (unit["cca.cubic.on_ack_us"]
           * (acks.get("cubic", 0) + acks.get("orca", 0))
           + unit["cca.bbr.on_ack_us"] * acks.get("bbr", 0)
           + unit["cca.copa.on_ack_us"] * acks.get("copa", 0))
    libra_mis = intervals.get("c-libra", 0) + intervals.get("b-libra", 0)
    libra = (unit[ON_ACK["c-libra"]] * acks.get("c-libra", 0)
             + unit[ON_ACK["b-libra"]] * acks.get("b-libra", 0)
             + max(unit["core.libra.on_interval_us"]
                   - act * unit["core.libra.rl_calls_per_mi"], 0.0)
             * libra_mis)
    orca = max(unit["learning.orca.on_interval_us"] - act, 0.0) \
        * intervals.get("orca", 0)
    return {"share.cca": _share(cca, cpu_s),
            "share.core_libra": _share(libra, cpu_s),
            "share.learning": _share(orca, cpu_s),
            "share.rl": _share(act * counts["rl_calls"], cpu_s)}


class GridCold(Workload):
    name = "grid-cold"
    why = ("what `repro experiment figN` costs the first time: 24 jobs, six "
           "controllers x four presets, through the fork pool into an empty "
           "result cache")
    op = "simulated packet sent"
    nominal_pass_s = 2.2

    def __init__(self, seed, workers, tmp, jobs=None):
        super().__init__(seed, workers, tmp)
        self.jobs = jobs

    def prepare(self) -> None:
        from repro.experiments.harness import run_job_grid
        from repro.parallel import ResultCache

        _load_grid_assets()
        if self.jobs is None:
            self.jobs = grid_jobs(self.seed, GRID_SIM_SECONDS)
        warm = grid_jobs(self.seed, GRID_WARMUP_SIM_SECONDS)
        root = tempfile.mkdtemp(prefix="warmup-cache-", dir=self.tmp)
        run_job_grid(warm, workers=self.workers, cache=ResultCache(root))
        shutil.rmtree(root, ignore_errors=True)

    def run_pass(self, tracer: Tracer) -> PassResult:
        from repro.experiments.harness import run_job_grid
        from repro.parallel import ResultCache

        root = tempfile.mkdtemp(prefix="cold-cache-", dir=self.tmp)
        cache = ResultCache(root)
        cpu0 = time.process_time()
        with tracer.span("experiments.harness.run_job_grid"):
            results = run_job_grid(self.jobs, workers=self.workers,
                                   cache=cache, on_error="collect")
        parent_cpu_s = time.process_time() - cpu0
        with tracer.span("check"):
            errors = []
            failed = sum(1 for jr in results if jr.failure is not None)
            if failed:
                errors.append(f"{failed} job(s) failed: "
                              f"{next(jr.failure for jr in results if jr.failure)}")
            if len(results) != len(self.jobs):
                errors.append(f"{len(results)} results for "
                              f"{len(self.jobs)} jobs")
            if cache.misses != len(self.jobs) or cache.hits:
                errors.append(f"cold cache saw {cache.hits} hits, "
                              f"{cache.misses} misses")
            counts = _grid_counts(self.jobs, results)
            stats = [_flow_stats(jr.result) if jr.result is not None else None
                     for jr in results]
        shutil.rmtree(root, ignore_errors=True)
        return PassResult(
            ops=counts["packets"], attempted=len(self.jobs), failed=failed,
            fingerprint=_digest(stats), counts=counts, errors=errors,
            info={"busy_s": sum(jr.elapsed for jr in results),
                  "parent_cpu_s": parent_cpu_s, "stats": stats})

    def verify(self, passes):
        errors = super().verify(passes)
        # Three sampled jobs, run serially in this process, must match
        # what the pool's children produced.
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(self.jobs), size=min(3, len(self.jobs)),
                           replace=False)
        for index in picks:
            pooled = passes[0].info["stats"][int(index)]
            if pooled is None:
                continue
            if _flow_stats(self.jobs[int(index)].run()) != pooled:
                errors.append(f"job {int(index)} differs between the pool "
                              f"and a serial in-process run")
        return errors

    def attribute(self, unit, result, cpu_s, wall_s, spans):
        counts, info = result.counts, result.info
        shares = _controller_shares(unit, counts, cpu_s)
        # The link drive includes the two events the link schedules per
        # packet; the heap drive covers the rest.
        shares["share.simnet"] = _share(
            unit["simnet.link.send_us"] * counts["packets"]
            + unit["simnet.engine.event_us"]
            * max(counts["events"] - 2 * counts["packets"], 0), cpu_s)
        # Telemetry: its measured overhead on the traced jobs' part of
        # the children's time.
        traced = sum(sum(flow[0] for flow in stats)
                     for job, stats in zip(self.jobs, info["stats"])
                     if stats is not None and job.telemetry)
        overhead = max(unit["telemetry.overhead_ratio"] - 1.0, 0.0)
        shares["share.telemetry"] = overhead / (1.0 + overhead) \
            * traced / counts["packets"] * info["busy_s"] / cpu_s
        # The parent runs nothing but the pool, the cache and the keys
        # while the children simulate, so its own CPU is their cost.
        shares["share.parallel"] = info["parent_cpu_s"] / cpu_s
        shares["parallel.pool.efficiency"] = \
            info["busy_s"] / (wall_s * self.workers)
        shares["simnet.events_per_pkt"] = counts["events"] / counts["packets"]
        shares["simnet.fallback_share"] = counts["fallbacks"] / counts["jobs"]
        return shares


class GridWarm(Workload):
    name = "grid-warm"
    why = ("rerunning a figure once the cache is populated: the same 24 jobs "
           "served from disk, so key, read and unpickle cost show and the "
           "simulator must do nothing")
    op = "job served from cache"
    nominal_pass_s = 1.3

    def prepare(self) -> None:
        from repro.experiments.harness import run_job_grid
        from repro.parallel import ResultCache

        _load_grid_assets()
        self.jobs = grid_jobs(self.seed, GRID_SIM_SECONDS)
        self.root = tempfile.mkdtemp(prefix="warm-cache-", dir=self.tmp)
        populated = run_job_grid(self.jobs, workers=self.workers,
                                 cache=ResultCache(self.root))
        self.expected = [_flow_stats(jr.result) for jr in populated]
        self.entry_bytes = sum(os.path.getsize(os.path.join(d, f))
                               for d, _, files in os.walk(self.root)
                               for f in files)

    def run_pass(self, tracer: Tracer) -> PassResult:
        from repro.experiments.harness import run_job_grid
        from repro.parallel import ResultCache

        errors = []
        served = failed = 0
        for _ in range(WARM_REREADS):
            # A rerun starts with nothing loaded: holding the last
            # reread's 24 results while unpickling the next doubles the
            # live heap and makes the pass page-fault- and cache-bound.
            results = None
            cache = ResultCache(self.root)
            with tracer.span("experiments.harness.run_job_grid"):
                results = run_job_grid(self.jobs, workers=self.workers,
                                       cache=cache)
            with tracer.span("check"):
                bad = sum(1 for jr, want in zip(results, self.expected)
                          if not jr.cached or _flow_stats(jr.result) != want)
                if bad or cache.hits != len(self.jobs) or cache.misses:
                    errors.append(f"reread served {cache.hits} hits, "
                                  f"{cache.misses} misses, {bad} wrong")
                failed += bad
                served += len(results)
        counts = {"lookups": served, "packets": 0, "events": 0}
        return PassResult(ops=served, attempted=served, failed=failed,
                          fingerprint=_digest(self.expected), counts=counts,
                          errors=errors)

    def attribute(self, unit, result, cpu_s, wall_s, spans):
        from repro.parallel import ResultCache

        # The battery's get_ms is for its own probe entries; this pass
        # read these 24, so drive ``get`` on them.
        rounds = []
        for _ in range(5):
            cache = ResultCache(self.root)
            t0 = time.perf_counter()
            for job in self.jobs:
                cache.get(job)
            rounds.append(time.perf_counter() - t0)
        get_ms = statistics.median(rounds) / len(self.jobs) * 1e3
        return {
            "parallel.cache.get_ms": get_ms,
            "parallel.cache.entry_kb":
                self.entry_bytes / len(self.jobs) / 1024.0,
            "share.parallel": _share(
                get_ms * 1e3 * result.counts["lookups"], cpu_s),
            "parallel.cache.hit_ratio":
                (result.attempted - result.failed) / result.attempted,
        }


# -- sim-manyflow --------------------------------------------------------------------

class SimManyflow(Workload):
    name = "sim-manyflow"
    why = ("the packet-count-bound datapath: 256 staggered cubic flows, then "
           "512 churning finite flows, on scale-96 in-process - cheap "
           "controller, no pool, no cache")
    op = "simulated packet sent"
    nominal_pass_s = 2.0

    def _jobs(self, duration: float) -> list:
        from repro.parallel import FlowSpec, Job
        from repro.scale import churn_job, churn_preset
        from repro.scenarios.presets import named_presets

        scenario = named_presets()["scale-96"]
        steady = Job(
            scenario=scenario,
            flows=tuple(FlowSpec.make("cubic", seed=self.seed * 1000 + i,
                                      start=i * MANYFLOW_STAGGER)
                        for i in range(MANYFLOW_FLOWS)),
            seed=self.seed, duration=duration)
        churn = churn_job(churn_preset("churn-512"), "cubic", scenario,
                          seed=self.seed, duration=duration)
        return [("steady", steady), ("churn", churn)]

    def prepare(self) -> None:
        self.jobs = self._jobs(MANYFLOW_SIM_SECONDS)
        for _, job in self._jobs(MANYFLOW_WARMUP_SIM_SECONDS):
            job.run()

    @staticmethod
    def _run_traced(job, tracer: Tracer):
        """``Job.run`` taken apart at its public seams, for spans."""
        with tracer.span("simnet.build"):
            net = job.scenario.build(seed=job.seed)
            for flow in job.flows:
                net.add_flow(flow.build(job.seed), start=flow.start,
                             stop=flow.stop, extra_rtt=flow.extra_rtt,
                             flow_bytes=flow.bytes, traced=bool(flow.traced))
        with tracer.span("simnet.run"):
            return net.run(job.effective_duration)

    def run_pass(self, tracer: Tracer) -> PassResult:
        errors, stats = [], []
        counts = {"packets": 0, "events": 0, "acks": 0, "flows": 0,
                  "fallbacks": 0}
        failed = 0
        for label, job in self.jobs:
            with tracer.span(f"job.{label}"):
                run = self._run_traced(job, tracer) if tracer.enabled \
                    else job.run()
            with tracer.span("check"):
                counts["packets"] += sum(f.sent_packets for f in run.flows)
                counts["acks"] += sum(f.acked_packets for f in run.flows)
                counts["events"] += run.events_processed
                counts["flows"] += len(run.flows)
                counts["fallbacks"] += _fell_back(job, run)
                stats.append((_flow_stats(run), run.events_processed))
                if label == "steady" and not 0.85 < run.utilization <= 1.0:
                    errors.append(f"steady utilization {run.utilization:.3f}")
                    failed += 1
                done = [f for f in run.flows if f.fin_time is not None]
                if label == "churn" and (
                        not done or any(not f.fct > 0 for f in done)):
                    errors.append("churn flows finished without a "
                                  "positive completion time")
                    failed += 1
        return PassResult(ops=counts["packets"], attempted=len(self.jobs),
                          failed=failed, fingerprint=_digest(stats),
                          counts=counts, errors=errors)

    def attribute(self, unit, result, cpu_s, wall_s, spans):
        counts = result.counts
        own = self_time_by_name(spans)
        passes = max(sum(1 for s in spans if s["name"] == "job.steady"), 1)
        run_s = own.get("simnet.run", 0.0) / passes
        build_s = own.get("simnet.build", 0.0) / passes
        cca = _share(unit["cca.cubic.on_ack_us"] * counts["acks"], cpu_s)
        return {
            "share.cca": cca,
            "share.simnet": max((run_s + build_s) / cpu_s - cca, 0.0),
            "simnet.run_share": run_s / wall_s,
            "simnet.events_per_pkt": counts["events"] / counts["packets"],
            "simnet.fallback_share": counts["fallbacks"] / len(self.jobs),
        }


# -- train-ppo -----------------------------------------------------------------------

class TrainPpo(Workload):
    name = "train-ppo"
    why = ("`repro train`: PPO on the fluid environment, serial backend, "
           "default 2x64 net - environment steps, policy inference and the "
           "update, with no simulator, cache or sockets")
    op = "environment step"
    nominal_pass_s = 2.1

    def _config(self, iterations: int):
        from repro.train import TrainRunConfig

        return TrainRunConfig(kind="libra", iterations=iterations, workers=1,
                              backend="serial", seed=self.seed)

    def prepare(self) -> None:
        from repro.train import train_run

        self.config = self._config(TRAIN_ITERATIONS)
        train_run(self._config(TRAIN_WARMUP_ITERATIONS))

    def run_pass(self, tracer: Tracer) -> PassResult:
        from repro.train import train_run

        with tracer.span("train.runner.train_run"):
            out = train_run(self.config)
        with tracer.span("check"):
            errors = []
            config = self.config
            steps = config.iterations * config.steps_per_iteration
            weights = out.policy.get_weights()
            finite = all(np.all(np.isfinite(w)) for w in weights.values()) \
                and all(math.isfinite(out.last_stats[k])
                        for k in ("pi_loss", "v_loss", "approx_kl"))
            if out.iterations_run != config.iterations or \
                    out.last_stats["steps"] != config.steps_per_iteration:
                errors.append(f"ran {out.iterations_run} iterations of "
                              f"{out.last_stats.get('steps')} steps")
            if not finite:
                errors.append("non-finite loss or weight")
            digest = hashlib.sha256()
            for key in sorted(weights):
                digest.update(key.encode())
                digest.update(np.ascontiguousarray(weights[key]).tobytes())
        return PassResult(
            ops=steps, attempted=config.iterations,
            failed=0 if finite and not errors else config.iterations,
            fingerprint=digest.hexdigest(), errors=errors,
            counts={"steps": steps, "iterations": config.iterations})

    def attribute(self, unit, result, cpu_s, wall_s, spans):
        steps = result.counts["steps"]
        iterations = result.counts["iterations"]
        env = _share(unit["env.fluidenv.step_us"] * steps, cpu_s)
        act = _share(unit["rl.policy.act_us"] * steps, cpu_s)
        collect = steps / unit["train.collect_steps_per_s"] / cpu_s
        update = unit["rl.ppo.update_s_per_iter"] * iterations / cpu_s
        merge = unit["train.merge_ms"] * 1e-3 * iterations / cpu_s
        return {"share.env": env, "share.rl": act + update,
                "share.train": max(collect - env - act, 0.0) + merge}


# -- netio-bulk ----------------------------------------------------------------------

class NetioBulk(Workload):
    name = "netio-bulk"
    why = ("a CPU-bound reliable-UDP transfer over the host's loopback "
           "interface (no real link): one clean 32 MiB session on the fast "
           "path, then lossy sessions that exercise SACK repair")
    op = "datagram sent"
    nominal_pass_s = 2.0

    def prepare(self) -> None:
        from repro.netio import NetioServer

        rng = np.random.default_rng(self.seed)
        self.clean = rng.bytes(NETIO_CLEAN_BYTES)
        self.lossy = [rng.bytes(NETIO_LOSSY_BYTES)
                      for _ in range(NETIO_LOSSY_SESSIONS)]
        self.payload_crc = [zlib.crc32(data)
                            for data in (self.clean, *self.lossy)]
        self.loop = asyncio.new_event_loop()
        self.server = NetioServer()
        self.address = self.loop.run_until_complete(self.server.start())
        warm = rng.bytes(NETIO_WARMUP_BYTES)
        self.loop.run_until_complete(self._pass(
            [(warm, None), (warm, self._profile(0))], Tracer(self.name, False)))

    def _profile(self, index: int):
        from repro.netio import ImpairmentProfile

        return ImpairmentProfile(loss=NETIO_LOSS,
                                 seed=self.seed * 10 + index)

    async def _pass(self, sessions, tracer: Tracer) -> PassResult:
        from repro.netio import TransferAbort, TransferTimeout, send_payload
        from repro.registry import make_controller
        from repro.telemetry import Recorder

        host, port = self.address
        errors = []
        sent = retransmitted = rtos = failed = 0
        acked = []
        for index, (data, profile) in enumerate(sessions):
            # NetioResult does not count RTO firings; the recorder's
            # events do, so traced passes record the lossy sessions.
            recorder = Recorder() if tracer.enabled and profile else None
            with tracer.span("netio.transport.send_payload"):
                try:
                    out = await send_payload(
                        host, port, make_controller("cubic", seed=self.seed),
                        data, mss=NETIO_MSS, impairment=profile,
                        seed=self.seed + index, recorder=recorder,
                        timeout=60.0, cca_name="cubic")
                    await self.server.serve_one(timeout=5.0)
                except (TransferAbort, TransferTimeout,
                        asyncio.TimeoutError) as exc:
                    errors.append(f"session {index}: {exc!r}")
                    failed += 1
                    continue
            with tracer.span("check"):
                problems = []
                if out.bytes_acked != len(data):
                    problems.append(f"acked {out.bytes_acked} of {len(data)}")
                if out.sock_errors:
                    problems.append(f"{out.sock_errors} socket errors")
                if profile is not None and out.retransmissions < 1:
                    problems.append("lossy session never retransmitted")
                if problems:
                    errors.append(f"session {index}: " + ", ".join(problems))
                    failed += 1
                sent += out.sent_packets + out.retransmissions
                retransmitted += out.retransmissions
                if recorder is not None:
                    rtos += len(out.telemetry.events_of("netio.rto"))
                acked.append(int(out.bytes_acked))
        return PassResult(
            ops=sent, attempted=len(sessions), failed=failed,
            fingerprint=_digest(acked + self.payload_crc), errors=errors,
            counts={"sessions": len(sessions), "bytes": sum(acked)},
            info={"sent": sent, "retransmitted": retransmitted,
                  "rtos": rtos})

    def run_pass(self, tracer: Tracer) -> PassResult:
        sessions = [(self.clean, None)] + [
            (data, self._profile(i)) for i, data in enumerate(self.lossy)]
        return self.loop.run_until_complete(self._pass(sessions, tracer))

    def attribute(self, unit, result, cpu_s, wall_s, spans):
        sent = result.info["sent"]
        lossy_share = NETIO_LOSSY_SESSIONS * NETIO_LOSSY_BYTES \
            / result.counts["bytes"]
        arq = unit["netio.arq.pkt_us"] * (1 - lossy_share) \
            + unit["netio.arq.pkt_us.lossy"] * lossy_share
        rxbuf = unit["netio.rxbuf.on_data_us"] * (1 - lossy_share) \
            + unit["netio.rxbuf.on_data_us.lossy"] * lossy_share
        # Per datagram: encode data + decode data (server) + encode ack
        # (server) + decode ack = two encodes and two decodes.
        framing = 2 * unit["netio.framing.encode_us"] \
            + 2 * unit["netio.framing.decode_us"]
        netio = _share((arq + rxbuf + framing) * sent, cpu_s)
        cca = _share(unit["cca.cubic.on_ack_us"] * sent, cpu_s)
        return {
            "share.netio": netio, "share.cca": cca,
            "netio.transport.residual_share": max(1.0 - netio - cca, 0.0),
            "netio.retx_ratio": result.info["retransmitted"] / sent,
            "netio.rto_count": float(result.info["rtos"]),
        }

    def close(self) -> None:
        self.loop.run_until_complete(self.server.close())
        self.loop.close()


WORKLOADS = {w.name: w for w in
             (GridCold, GridWarm, SimManyflow, TrainPpo, NetioBulk)}
