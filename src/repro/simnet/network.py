"""Dumbbell topology: N senders share one trace-driven bottleneck.

This mirrors the paper's Mahimahi/Pantheon setup — every experiment in the
evaluation runs flows through a single emulated bottleneck with a droptail
buffer, a minimum RTT, and optional stochastic loss.  Per-flow extra delay
allows RTT heterogeneity; ACKs travel back over a lossless delay path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..units import DEFAULT_MSS

if TYPE_CHECKING:  # break the runtime import cycle with repro.cca
    from ..cca.base import Controller
    from ..telemetry import FlowTelemetry, Recorder
from ..sanitize import invariants as _sanitize
from .batched import (BatchedBottleneckLink, BatchedSender, FlowPipe,
                      batch_safe)
from .endpoint import FlowStats, Receiver, Sender
from .engine import EventLoop
from .faults import FaultInjector, FaultSchedule
from .link import BottleneckLink, _cumulative_at
from .packet import Ack
from .trace import Trace


@dataclass
class RunResult:
    """Results of one simulation run."""

    duration: float
    flows: list[FlowStats]
    link_served_bytes: float
    link_capacity_bytes: float
    link_dropped_packets: int
    link_random_drops: int
    queue_samples: list = field(default_factory=list)  # (time, queue_bytes)
    controllers: list = field(default_factory=list)
    #: (service time, cumulative served bytes) per packet — windowed metrics
    service_log: list = field(default_factory=list)
    #: structured trace of the run (``None`` unless telemetry was enabled);
    #: picklable, so it crosses the fork-pool boundary and the result cache
    telemetry: "FlowTelemetry | None" = None
    #: events the loop fired — the numerator of the e2e benchmark's
    #: ``simnet.events_per_pkt``; engine-dependent by design, so never
    #: part of a metric fingerprint
    events_processed: int = 0
    #: which engine actually ran ("batched" may fall back to "reference"
    #: when the scenario's AQM or fault schedule needs per-event structure)
    engine_used: str = "reference"

    @property
    def utilization(self) -> float:
        """Aggregate link utilization (delivered bits / capacity bits)."""
        if self.link_capacity_bytes <= 0:
            return 0.0
        return min(1.0, self.link_served_bytes / self.link_capacity_bytes)

    def served_bytes_between(self, t0: float, t1: float) -> float:
        """Bytes the bottleneck served inside ``[t0, t1]``."""
        return _cumulative_at(self.service_log, t1) - \
            _cumulative_at(self.service_log, t0)

    @property
    def total_throughput_mbps(self) -> float:
        return sum(f.throughput_mbps for f in self.flows)

    @property
    def avg_rtt_ms(self) -> float:
        counts = sum(f.rtt_count for f in self.flows)
        if counts == 0:
            return 0.0
        return sum(f.rtt_sum for f in self.flows) / counts * 1e3

    @property
    def avg_loss_rate(self) -> float:
        sent = sum(f.sent_packets for f in self.flows)
        if sent == 0:
            return 0.0
        return sum(f.lost_packets for f in self.flows) / sent

    def flow(self, index: int) -> FlowStats:
        return self.flows[index]


@dataclass
class _FlowSpec:
    controller: Controller
    start: float
    stop: float | None
    extra_rtt: float
    #: byte budget for a finite flow (``None`` = runs until stop/horizon)
    flow_bytes: float | None = None
    #: whether this flow gets dense per-flow telemetry channels when the
    #: run is traced — churn runs cap the traced set reservoir-style so
    #: artifacts stay bounded at hundreds of concurrent flows
    traced: bool = True


class Dumbbell:
    """Single-bottleneck network builder.

    >>> from repro.simnet.trace import wired_trace
    >>> from repro.cca.cubic import Cubic
    >>> net = Dumbbell(wired_trace(12), buffer_bytes=150_000, rtt=0.03)
    >>> net.add_flow(Cubic())
    0
    >>> result = net.run(2.0)
    >>> result.flows[0].throughput_mbps > 1.0
    True
    """

    def __init__(self, trace: Trace, buffer_bytes: float, rtt: float,
                 loss_rate: float = 0.0, seed: int = 0, mss: int = DEFAULT_MSS,
                 aqm: str = "droptail", faults: FaultSchedule | None = None,
                 recorder: "Recorder | None" = None,
                 sanitizer: "_sanitize.SimSanitizer | None" = None,
                 service_log_horizon: float | None = None,
                 engine: str = "reference"):
        if rtt <= 0:
            raise ValueError("rtt must be positive")
        if engine not in ("reference", "batched"):
            raise ValueError(f"unknown engine {engine!r}; "
                             f"use 'reference' or 'batched'")
        self.loop = EventLoop()
        self.recorder = recorder
        # Invariant layer: explicit argument wins, else the process-wide
        # active sanitizer (installed by ``repro.sanitize.activate``).
        # ``None`` keeps every guarded site at one attribute check.
        self.sanitizer = sanitizer if sanitizer is not None \
            else _sanitize.ACTIVE
        self.loop.sanitizer = self.sanitizer
        self.injector = FaultInjector(faults, seed=seed) \
            if faults is not None and faults.active else None
        if self.injector is not None:
            # Blackouts live in the trace so service and capacity metrics
            # both see them; the injector handles the stochastic faults.
            trace = self.injector.wrap_trace(trace)
            self.injector.telemetry = recorder
        self.trace = trace
        self.rtt = rtt
        self.mss = mss
        self._specs: list[_FlowSpec] = []
        self._senders: list[Sender] = []
        self._receivers: list[Receiver] = []
        self._pipes: list[FlowPipe] = []
        # The batched fast path is only exact for droptail + batch-safe
        # faults; anything else silently runs the reference components
        # (``engine_used`` records the outcome, ``repro diff --mode
        # engine`` verifies the equivalence either way).
        self._batched = (engine == "batched" and aqm == "droptail"
                         and batch_safe(faults))
        self.engine = engine
        self.engine_used = "batched" if self._batched else "reference"
        if self._batched:
            self.link = BatchedBottleneckLink(
                self.loop, trace, buffer_bytes,
                propagation_delay=rtt / 2.0,
                loss_rate=loss_rate, seed=seed,
                injector=self.injector, recorder=recorder,
                service_log_horizon=service_log_horizon)
        else:
            self.link = BottleneckLink(
                self.loop, trace, buffer_bytes,
                propagation_delay=rtt / 2.0,
                deliver=self._deliver,
                loss_rate=loss_rate, seed=seed, aqm=aqm,
                injector=self.injector, recorder=recorder,
                service_log_horizon=service_log_horizon)
        self.queue_samples: list[tuple[float, int]] = []
        self._queue_sample_interval = 0.05
        # Scheduling time of the pending queue-sampling tick: the first
        # one is pushed during run() setup at loop time 0.0, each later
        # one during the preceding tick.
        self._sample_sched = 0.0
        if recorder is not None:
            self._tel_link = (recorder.series("link.queue_bytes"),
                              recorder.series("link.served_bytes"),
                              recorder.series("link.dropped_packets"),
                              recorder.series("link.active_flows"))
        else:
            self._tel_link = None

    # -- construction ------------------------------------------------------

    def add_flow(self, controller: Controller, start: float = 0.0,
                 stop: float | None = None, extra_rtt: float = 0.0,
                 flow_bytes: float | None = None, traced: bool = True) -> int:
        """Register a flow; returns its flow id.

        ``flow_bytes`` makes the flow finite: it stops injecting new
        data once the budget is delivered-or-inflight and FINs when the
        last budgeted byte is acknowledged (``FlowStats.fin_time`` /
        ``.fct``).  ``start`` schedules a mid-run attach; together they
        are the churn workload primitive.  ``traced=False`` keeps a flow
        out of the dense per-flow telemetry set on recorded runs.
        """
        if start < 0:
            raise ValueError("start must be non-negative")
        if flow_bytes is not None and flow_bytes <= 0:
            raise ValueError("flow_bytes must be positive (or None)")
        self._specs.append(_FlowSpec(controller, start, stop, extra_rtt,
                                     flow_bytes, traced))
        return len(self._specs) - 1

    # -- wiring ----------------------------------------------------------

    def _deliver(self, packet) -> None:
        self._receivers[packet.flow_id].on_packet(packet)

    def _ack_path(self, flow_id: int, extra_rtt: float) -> Callable[[Ack], None]:
        delay = self.rtt / 2.0 + extra_rtt
        sender_list = self._senders
        injector = self.injector

        def route(ack: Ack) -> None:
            d = delay
            if injector is not None:
                if injector.drop_ack(self.loop.now):
                    return
                arrival = self.loop.now + delay
                d = injector.ack_release_time(arrival) - self.loop.now
            self.loop.schedule(d, lambda: sender_list[flow_id].on_ack_packet(ack))

        return route

    def _sample_queue(self) -> None:
        now = self.loop.now
        if self._batched:
            # Settle lazily-realized link state so the sample (and the
            # audit below) observes exactly what the reference engine
            # would have at this instant.  The tick's own scheduling
            # time orders it against completions landing exactly on it.
            self.link.sync(now, self._sample_sched)
        self._sample_sched = now
        self.queue_samples.append((now, self.link.queue.bytes))
        if self.sanitizer is not None:
            # Conservation sweep piggybacks on the sampling tick so the
            # audit cadence is bounded (not per-packet).
            self.sanitizer.audit_network(self)
        if self._tel_link is not None:
            queue_ch, served_ch, dropped_ch, active_ch = self._tel_link
            queue_ch.add(now, self.link.queue.bytes)
            served_ch.add(now, self.link.served_bytes)
            dropped_ch.add(now, self.link.queue.dropped_packets
                           + self.link.random_drops + self.link.fault_drops)
            active_ch.add(now, sum(1 for s in self._senders if s._running))
        self.loop.schedule(self._queue_sample_interval, self._sample_queue)

    # -- execution -----------------------------------------------------------

    def run(self, duration: float) -> RunResult:
        """Simulate ``duration`` seconds and return aggregated results."""
        if not self._specs:
            raise ValueError("no flows registered")
        recorder = self.recorder
        if recorder is not None and self.injector is not None:
            # Blackout windows are static schedule facts; emit them as
            # events up front so traces are self-describing.
            for blackout in self.injector.schedule.blackouts:
                recorder.event("fault.blackout", blackout.start,
                               duration=blackout.duration, end=blackout.end)
        for flow_id, spec in enumerate(self._specs):
            stats = FlowStats(flow_id=flow_id, start_time=spec.start,
                              end_time=duration, flow_bytes=spec.flow_bytes)
            # Sampled telemetry: flows outside the traced set see no
            # recorder at all, so neither the per-MI channels nor the
            # controller's telemetry hooks materialize for them.  The
            # run-level recorder (link channels, events, meta) is
            # unaffected.
            flow_recorder = recorder if spec.traced else None
            if self._batched:
                receiver = Receiver(self.loop, flow_id, None, stats)
                sender = BatchedSender(self.loop, flow_id, spec.controller,
                                       self.link.send, mss=self.mss,
                                       stats=stats, recorder=flow_recorder,
                                       sanitizer=self.sanitizer,
                                       flow_bytes=spec.flow_bytes)
                self._pipes.append(FlowPipe(
                    receiver, sender, self.rtt / 2.0 + spec.extra_rtt))
            else:
                receiver = Receiver(self.loop, flow_id,
                                    self._ack_path(flow_id, spec.extra_rtt),
                                    stats)
                sender = Sender(self.loop, flow_id, spec.controller,
                                self.link.send, mss=self.mss, stats=stats,
                                recorder=flow_recorder,
                                sanitizer=self.sanitizer,
                                flow_bytes=spec.flow_bytes)
            if flow_recorder is not None:
                spec.controller.attach_telemetry(flow_recorder,
                                                 flow_id=flow_id)
            self._receivers.append(receiver)
            self._senders.append(sender)
            self.loop.schedule_at(spec.start, sender.start)
            stop = spec.stop if spec.stop is not None else duration
            self.loop.schedule_at(min(stop, duration), sender.stop)
        if self._batched:
            self.link.connect(self._pipes)
            # Every batched sender gets its link and pipe handles (the
            # tie-break plumbing and MI two-stage flag need them in
            # both modes); only ``_fast_link`` switches on scalar mode.
            for sender, pipe in zip(self._senders, self._pipes):
                sender._blink = self.link
                sender._pipe = pipe
            if recorder is None and self.sanitizer is None:
                # Nothing can look inside the queue or at drop events,
                # so the datapath runs scalar: sizes in the queue, seqs
                # in the pipes, zero Packet constructions per run.
                self.link._scalar = True
                for sender in self._senders:
                    sender._fast_link = self.link
        self.loop.schedule(0.0, self._sample_queue)
        self.loop.run_until(duration)
        if self._batched:
            # Settle the lazy link state, then apply the end-of-run cut
            # the reference engine gets for free: deliveries due by the
            # horizon count, ACKs beyond it never fire.
            self.link.sync(duration)
            for pipe in self._pipes:
                pipe.flush(duration)
        if self.sanitizer is not None:
            # Final sweep: the whole run must balance, not just the
            # sampled instants.
            self.sanitizer.audit_network(self)
        for sender in self._senders:
            if sender.stats.end_time == 0.0 or sender.stats.end_time > duration:
                sender.stats.end_time = duration
        telemetry = None
        if recorder is not None:
            meta = {
                "duration": duration,
                "flows": len(self._senders),
                "flows_traced": sum(1 for spec in self._specs if spec.traced),
                "flows_completed": sum(
                    1 for s in self._senders if s.stats.fin_time is not None),
                "mss": self.mss,
                "events_processed": self.loop.processed,
                "engine": self.engine_used,
                "link_served_bytes": float(self.link.served_bytes),
                "link_dropped_packets": self.link.queue.dropped_packets,
                "link_random_drops": self.link.random_drops,
                "link_fault_drops": self.link.fault_drops,
            }
            if self.injector is not None:
                meta.update(fault_data_drops=self.injector.data_drops,
                            fault_ack_drops=self.injector.ack_drops,
                            fault_reordered=self.injector.reordered)
            telemetry = recorder.finish(meta=meta)
        return RunResult(
            duration=duration,
            flows=[s.stats for s in self._senders],
            link_served_bytes=self.link.served_bytes,
            link_capacity_bytes=self.trace.capacity_bytes(0.0, duration),
            link_dropped_packets=self.link.queue.dropped_packets,
            link_random_drops=self.link.random_drops,
            queue_samples=self.queue_samples,
            controllers=[spec.controller for spec in self._specs],
            service_log=self.link._service_log,
            telemetry=telemetry,
            events_processed=self.loop.processed,
            engine_used=self.engine_used)
