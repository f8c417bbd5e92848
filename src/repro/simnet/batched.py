"""Batched fast path for the simulation core.

The reference engine spends four heap events on every packet: the paced
send, the link service completion, the delivery, and the ACK arrival.
For the common case — droptail buffer, no faults that perturb the data
path mid-flight — the last three are *arithmetically determined the
moment the packet is accepted by the link*:

- service finish follows the FIFO recurrence
  ``finish = max(arrival, previous_finish) + time_to_send(start, size)``;
- delivery is ``finish + propagation_delay``;
- the ACK arrives one reverse-path delay after delivery.

So the batched engine commits the whole forward trajectory at ingress
and schedules exactly one fused delivery+ACK event per packet (via the
Timer-less :meth:`EventLoop.call_at`), halving the event count and
skipping the per-packet ``Timer``/closure/``Ack`` allocations.  Link
statistics are realized lazily — packets stay in the real
:class:`DropTailQueue` until their logical finish time has passed, and
:meth:`BatchedBottleneckLink.sync` settles them at every observation
point (arrivals, queue-sampling ticks, end of run) — so queue depths,
drop decisions, conservation audits and the service log are identical
to the reference engine at every instant anyone looks.

Exactness conditions (checked by :func:`batch_safe`): the AQM must be
droptail (CoDel re-decides drops at dequeue time), and the fault
schedule may only contain blackouts (folded into the trace, so the
finish recurrence sees them) and Gilbert–Elliott burst loss (drawn at
arrival time, same RNG order as the reference).  Delay spikes,
reordering and ACK faults perturb packets *after* commit, so scenarios
using them fall back to the reference components.  ``repro diff --mode
engine`` is the oracle that keeps all of this honest.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING

from .endpoint import MIN_PACING_RATE, PACING_JITTER, Receiver, Sender
from .link import BottleneckLink
from .packet import AckSample, Packet
from .trace import ConstantTrace

if TYPE_CHECKING:
    from .faults import FaultSchedule

#: jitter variates are drawn from the per-flow RNG in blocks of this many
#: — ``Generator.random(n)`` yields the identical sequence to n scalar
#: ``random()`` calls, so pacing delays stay bit-identical
JITTER_BLOCK = 512

_EMPTY_BLOCK: tuple = ()


def batch_safe(faults: "FaultSchedule | None") -> bool:
    """Whether a fault schedule preserves the batched engine's exactness.

    Blackouts live in the (deterministic) trace and burst loss draws its
    RNG at arrival time, so both survive batching bit-for-bit.  Delay
    spikes, reordering and ACK faults act on packets after the commit
    point and need the reference event structure.
    """
    if faults is None or not faults.active:
        return True
    return (not faults.delay_spikes and faults.reorder is None
            and faults.ack is None)


class BatchedBottleneckLink(BottleneckLink):
    """Droptail bottleneck that commits service schedules at ingress.

    Accepts the :class:`BottleneckLink` parameters (droptail only) minus
    the ``deliver`` callback: instead of a per-delivery event, the link
    pushes the fused delivery+ACK event straight onto the loop's heap at
    commit time, addressed to the :class:`FlowPipe` wired up by
    :meth:`connect`.
    """

    __slots__ = ("_finish_times", "_start_times", "_tail_finish", "_pipes",
                 "_const_rate", "_scalar", "_arrival_sched")

    def __init__(self, loop, trace, buffer_bytes: float,
                 propagation_delay: float,
                 loss_rate: float = 0.0, seed: int = 0,
                 injector=None, recorder=None,
                 service_log_horizon: float | None = None):
        super().__init__(loop, trace, buffer_bytes, propagation_delay,
                         deliver=_reference_only, loss_rate=loss_rate,
                         seed=seed, aqm="droptail", injector=injector,
                         recorder=recorder,
                         service_log_horizon=service_log_horizon)
        #: committed-but-unrealized service finish times, FIFO order;
        #: parallels the packets sitting in ``self.queue``
        self._finish_times: deque[float] = deque()
        #: matching service *start* times.  In the reference engine the
        #: completion event for a service is scheduled at the instant the
        #: service starts, and same-time events fire in scheduling order
        #: — so when a committed finish lands bit-exactly on an observer's
        #: instant (phase-locked quanta make this routine, not rare), the
        #: start time decides whether the phantom completion precedes the
        #: observer.  See the realize loops below.
        self._start_times: deque[float] = deque()
        self._tail_finish = 0.0
        #: scheduling time of the arrival event currently entering
        #: :meth:`send` — packet mode's channel for the tie-break above
        #: (scalar mode passes it as an argument instead)
        self._arrival_sched = 0.0
        self._pipes: "list[FlowPipe]" = []
        # Constant-rate traces (the wired presets) get their service time
        # computed inline — the exact expression ConstantTrace.time_to_send
        # evaluates, minus the method call per packet.
        self._const_rate = (self.trace.rate_bps
                            if self.trace.__class__ is ConstantTrace else None)
        # Scalar mode (flipped on by the dumbbell for untraced,
        # unsanitized runs): the queue holds packet *sizes* instead of
        # Packet objects, so the hot path never constructs one.  Only
        # the sanitizer (audit_queue iterates packets) and the drop
        # recorder (link.drop events carry flow/seq) ever look inside
        # the queue, and both force packet mode.
        self._scalar = False

    def connect(self, pipes: "list[FlowPipe]") -> None:
        """Wire up the per-flow pipes (indexed by flow id) before a run."""
        self._pipes = pipes

    # -- ingress -------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Accept a packet and commit its full forward trajectory."""
        self.arrived_packets += 1
        loop = self.loop
        now = loop.now
        if self._first_arrival is None:
            self._first_arrival = now
        finish_times = self._finish_times
        queue = self.queue
        if finish_times and finish_times[0] <= now:
            # _realize, inlined — the steady state settles one committed
            # service per arrival, so the call overhead is per packet.
            start_times = self._start_times
            sched = self._arrival_sched
            q = queue._q
            log = self._service_log
            horizon = self.service_log_horizon
            while finish_times:
                finish = finish_times[0]
                # Realize iff the phantom completion precedes this arrival
                # in the reference event order: strictly earlier fire
                # time, or the same fire time with an earlier scheduling
                # time (service start vs. this arrival's push time).
                if finish > now or (finish == now
                                    and start_times[0] >= sched):
                    break
                finish_times.popleft()
                start_times.popleft()
                served = q.popleft()
                queue.bytes -= served.size
                self.served_bytes += served.size
                self.served_packets += 1
                self._last_service = finish
                log.append((finish, float(self.served_bytes)))
                if horizon is not None:
                    self._log_appends += 1
                    if self._log_appends >= self.LOG_COMPACT_EVERY:
                        self._log_appends = 0
                        self._compact_service_log()
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.random_drops += 1
            return
        if self.injector is not None and self.injector.drop_data(now):
            self.fault_drops += 1
            return
        # DropTailQueue.push, inlined (same fields, same drop callback).
        size = packet.size
        if queue.bytes + size > queue.capacity_bytes:
            queue.dropped_packets += 1
            queue.dropped_bytes += size
            if queue.on_drop is not None:
                queue.on_drop(packet)
            return
        queue._q.append(packet)
        queue.bytes += size
        queue.enqueued_packets += 1
        if queue.bytes > queue.max_bytes_seen:
            queue.max_bytes_seen = queue.bytes
        # FIFO service recurrence — the same floats the reference engine
        # produces through its _finish_service/_start_service event chain.
        start = self._tail_finish if finish_times else now
        rate = self._const_rate
        if rate is not None:
            finish = start + size * 8.0 / rate
        else:
            finish = start + self.trace.time_to_send(start, size)
        finish_times.append(finish)
        self._start_times.append(start)
        self._tail_finish = finish
        # Commit the fused delivery+ACK event directly onto the heap —
        # a Timer-less entry with the loop's own seq counter, exactly
        # what EventLoop.call_at would push.  ``loop._heap`` must be
        # fetched per call: _compact() replaces the list object.
        pipe = self._pipes[packet.flow_id]
        delivery_time = finish + self.propagation_delay
        pipe.pending_t.append(delivery_time)
        pipe.pending_s.append(packet.seq)
        seq_no = loop._seq
        loop._seq = seq_no + 1
        if pipe.two_stage:
            pipe.deliver_t.append(delivery_time)
            heappush(loop._heap, (delivery_time, seq_no, pipe.deliver_cb))
        else:
            heappush(loop._heap, (delivery_time + pipe.ack_delay,
                                  seq_no, pipe.arrive_cb))

    def send_scalar(self, pipe: "FlowPipe", seq: int, size: int,
                    now: float, sched: float) -> None:
        """Scalar-mode ingress: :meth:`send` minus the Packet object.

        Only wired up when nothing can ever look inside the queue (no
        sanitizer, no recorder), so the queue carries bare sizes and the
        commit carries bare sequence numbers.  Byte counters, drop
        decisions and the service recurrence are the identical floats —
        drop events need no packet because ``on_drop`` is ``None`` in
        this mode by construction.  ``now`` is passed by the sender (it
        already holds ``loop.now``); ``sched`` is the scheduling time of
        the event that triggered this send, used to order same-instant
        phantom completions the way the reference engine would.
        """
        self.arrived_packets += 1
        loop = self.loop
        if self._first_arrival is None:
            self._first_arrival = now
        finish_times = self._finish_times
        queue = self.queue
        if finish_times and finish_times[0] <= now:
            start_times = self._start_times
            q = queue._q
            log = self._service_log
            horizon = self.service_log_horizon
            while finish_times:
                finish = finish_times[0]
                if finish > now or (finish == now
                                    and start_times[0] >= sched):
                    break
                finish_times.popleft()
                start_times.popleft()
                served_size = q.popleft()
                queue.bytes -= served_size
                self.served_bytes += served_size
                self.served_packets += 1
                self._last_service = finish
                log.append((finish, float(self.served_bytes)))
                if horizon is not None:
                    self._log_appends += 1
                    if self._log_appends >= self.LOG_COMPACT_EVERY:
                        self._log_appends = 0
                        self._compact_service_log()
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.random_drops += 1
            return
        if self.injector is not None and self.injector.drop_data(now):
            self.fault_drops += 1
            return
        if queue.bytes + size > queue.capacity_bytes:
            queue.dropped_packets += 1
            queue.dropped_bytes += size
            return
        queue._q.append(size)
        queue.bytes += size
        queue.enqueued_packets += 1
        if queue.bytes > queue.max_bytes_seen:
            queue.max_bytes_seen = queue.bytes
        start = self._tail_finish if finish_times else now
        rate = self._const_rate
        if rate is not None:
            finish = start + size * 8.0 / rate
        else:
            finish = start + self.trace.time_to_send(start, size)
        finish_times.append(finish)
        self._start_times.append(start)
        self._tail_finish = finish
        delivery_time = finish + self.propagation_delay
        pipe.pending_t.append(delivery_time)
        pipe.pending_s.append(seq)
        seq_no = loop._seq
        loop._seq = seq_no + 1
        if pipe.two_stage:
            pipe.deliver_t.append(delivery_time)
            heappush(loop._heap, (delivery_time, seq_no, pipe.deliver_cb))
        else:
            heappush(loop._heap, (delivery_time + pipe.ack_delay,
                                  seq_no, pipe.arrive_cb))

    # -- lazy realization ----------------------------------------------------

    def _realize(self, now: float, sched: float) -> None:
        """Settle every committed service due by an observer at ``now``.

        ``sched`` is the scheduling time of the observer's own event; a
        service finishing bit-exactly at ``now`` is realized only when
        its start (the phantom completion's scheduling time) is strictly
        earlier — the reference engine's same-instant ordering.
        """
        finish_times = self._finish_times
        start_times = self._start_times
        queue = self.queue
        q = queue._q  # DropTailQueue.pop, inlined below
        log = self._service_log
        scalar = self._scalar  # queue entries: sizes (scalar) or Packets
        while finish_times:
            finish = finish_times[0]
            if finish > now or (finish == now and start_times[0] >= sched):
                break
            finish_times.popleft()
            start_times.popleft()
            entry = q.popleft()
            size = entry if scalar else entry.size
            queue.bytes -= size
            self.served_bytes += size
            self.served_packets += 1
            self._last_service = finish
            log.append((finish, float(self.served_bytes)))
            if self.service_log_horizon is not None:
                self._log_appends += 1
                if self._log_appends >= self.LOG_COMPACT_EVERY:
                    self._log_appends = 0
                    self._compact_service_log()

    def sync(self, now: float, sched: float = float("inf")) -> None:
        """Bring link statistics up to date for an observer at ``now``.

        Called on queue-sampling ticks (which pass their own event's
        scheduling time as ``sched``, so a completion landing exactly on
        a tick realizes only if the reference would have fired it first)
        and at end of run (default ``sched`` — the horizon cut is
        inclusive regardless of scheduling order).
        """
        if self._finish_times and self._finish_times[0] <= now:
            self._realize(now, sched)


def _reference_only(packet) -> None:  # pragma: no cover
    raise AssertionError("batched link delivers via deliver_at, "
                         "not the per-event deliver callback")


class BatchedSender(Sender):
    """Sender with allocation-lean hot paths for the batched engine.

    Behaviour is bit-identical to :class:`Sender`: the same floats in
    the same order, the same controller callbacks.  What changes is the
    cost per packet — pacing events are scheduled through the
    Timer-less ``call_at`` (stale wakeups after ``stop()`` no-op on the
    ``_running`` guard instead of being cancelled), jitter variates are
    drawn in blocks, and the pre-bound callback avoids a bound-method
    allocation per send.
    """

    __slots__ = ("_jitter_block", "_jitter_i", "_send_cb",
                 "_cwnd_simple", "_pace_simple", "_fast_link", "_pipe",
                 "_blink", "_userspace", "_track_window")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._jitter_block = _EMPTY_BLOCK
        self._jitter_i = JITTER_BLOCK  # forces a refill on first use
        self._send_cb = self._send_loop
        # Scalar-mode binding (dumbbell sets both for untraced,
        # unsanitized runs): transmit via link.send_scalar with no
        # Packet construction.  None means packet mode.
        self._fast_link = None
        self._pipe = None
        # Batched-link handle, set for every batched run (both modes) —
        # packet mode posts the trigger's scheduling time through it
        # before transmitting (scalar mode passes it as an argument).
        self._blink = None
        # Devirtualization flags: when the controller inherits the stock
        # decision methods, the hot paths evaluate the same expressions
        # inline instead of paying a dynamic call per packet.  Subclasses
        # that override cwnd()/pacing_rate() (BBR, Libra, rate CCAs) take
        # the generic path, and so do wrappers that forward attribute
        # lookups (no class-level method to compare).  Imported lazily —
        # a module-level import would cycle through repro.cca's package
        # init.
        from ..cca.base import Controller, WindowController
        cls = type(self.controller)
        self._cwnd_simple = getattr(cls, "cwnd", None) is WindowController.cwnd
        self._pace_simple = \
            getattr(cls, "pacing_rate", None) is Controller.pacing_rate
        # ``userspace`` is a class constant on every controller in the
        # tree (never assigned per instance), so cache the flag here.
        self._userspace = self.controller.userspace
        self._track_window = True

    def start(self) -> None:
        super().start()
        # Monitor-interval window stats are consumed only by the MI/
        # telemetry timers.  In scalar mode (untraced, unsanitized) with
        # a controller that requests no MI, ``start()`` scheduled no
        # such timer, so the per-packet window writes are dead — skip
        # them.  Evaluated after controller.start() so a controller that
        # decides its interval there is still honoured.
        if self._fast_link is not None and self.recorder is None and \
                self.controller.interval() is None:
            self._track_window = False
        # MI controllers get the two-stage pipe: their interval timer is
        # the one same-instant rival that snapshots sender state, so ACK
        # events must draw their heap seq at the delivery instant the
        # way the reference engine does (see FlowPipe).
        pipe = self._pipe
        if pipe is not None and self.controller.interval() is not None:
            pipe.two_stage = True

    def _send_loop(self, sched: float = 0.0) -> None:
        # ``sched`` is the scheduling time of the event driving this
        # send, consumed by the link's same-instant tie-break.  The
        # ACK-unblock path in FlowPipe.arrive passes the acked packet's
        # delivery time (when the reference pushed the ACK event).  The
        # 0.0 default — "never realize an exact tie" — covers the other
        # callers: flow-start events are pushed at setup before any
        # completion exists, interval-timer unblocks are pushed a full
        # MI before any in-flight service started, and pacing events
        # carry jittered offsets that cannot phase-lock onto a service
        # finish time.
        if not self._running:
            return
        limit = self.flow_bytes
        if limit is not None and \
                self.delivered_bytes + self.inflight_bytes >= limit:
            # Budget gate, same position as the reference _send_loop:
            # before the cwnd check and before any jitter draw, so the
            # pacing RNG streams stay aligned.
            self._blocked = True
            self._arm_fin_watchdog()
            return
        controller = self.controller
        mss = self.mss
        if self._cwnd_simple:
            # WindowController.cwnd, inlined (max() as a branch)
            cwnd = controller.cwnd_bytes
            floor = controller.min_cwnd_bytes
            if floor > cwnd:
                cwnd = floor
        else:
            cwnd = controller.cwnd()
        if cwnd is not None and self.inflight_bytes + mss > cwnd:
            self._blocked = True
            if limit is not None:
                # Same cwnd-block watchdog as the reference _send_loop:
                # a finite flow's tail losses must still time out.
                self._arm_fin_watchdog()
            return
        self._blocked = False
        loop = self.loop
        now = loop.now
        seq = self.next_seq
        self.next_seq = seq + 1
        marker = controller.marker
        self.outstanding[seq] = (now, mss, self.delivered_bytes, marker)
        self.send_order.append(seq)
        self.inflight_bytes += mss
        self.sent_bytes += mss
        self.stats.sent_packets += 1
        if self._track_window:
            window = self._window
            window.sent_packets += 1
            window.sent_bytes += mss
        if self._userspace:
            controller.meter.count("userspace_packet")
        link = self._fast_link
        if link is not None:
            link.send_scalar(self._pipe, seq, mss, now, sched)
        else:
            blink = self._blink
            if blink is not None:
                blink._arrival_sched = sched
            self.transmit(Packet(self.flow_id, seq, mss, now, marker))
        # _effective_rate, inlined to reuse the cwnd already fetched
        # above (the floats are the reference engine's, op for op).
        if self._pace_simple:
            rate = None  # Controller.pacing_rate returns None unconditionally
        else:
            rate = controller.pacing_rate()
        if rate is None:
            srtt = self.srtt
            if srtt <= 0:
                srtt = 0.1
            rate = (cwnd or mss * 10) * 8.0 / srtt
        if rate < MIN_PACING_RATE:
            rate = MIN_PACING_RATE
        delay = mss * 8.0 / rate
        i = self._jitter_i
        if i == JITTER_BLOCK:
            # tolist() up front: indexing a Python list yields a float
            # directly, where ndarray indexing allocates a numpy scalar
            # per packet.  The doubles are bit-identical either way.
            block = self._jitter_block = \
                self._jitter_rng.random(JITTER_BLOCK).tolist()
            i = 0
        else:
            block = self._jitter_block
        self._jitter_i = i + 1
        delay *= 1.0 + PACING_JITTER * (block[i] - 0.5)
        # loop.call_at, inlined: delay > 0, so the not-in-the-past guard
        # can never trip.  Fetch loop._heap per call (_compact replaces
        # the list object).
        seq_no = loop._seq
        loop._seq = seq_no + 1
        heappush(loop._heap, (now + delay, seq_no, self._send_cb))

class FlowPipe:
    """Per-flow fused delivery+ACK pipeline.

    The dumbbell appends the delivery time and sequence number at commit
    time and schedules :meth:`arrive` at the ACK arrival time.  Commits
    are FIFO per flow (the link serves in order), so one deque popleft
    pairs each event with its packet; the payload size is always the
    flow's MSS (senders emit nothing else), cached here so the pipe
    never needs the Packet object itself.  Receiver bookkeeping is
    stamped with the delivery time — the instant the reference engine's
    separate delivery event would have used — while the sender sees
    ``loop.now`` (the ACK arrival), exactly as it does in the reference
    engine.
    """

    __slots__ = ("pending_t", "pending_s", "receiver", "stats", "sender",
                 "mss", "ack_delay", "arrive_cb", "_nbins",
                 "two_stage", "deliver_t", "deliver_cb")

    def __init__(self, receiver: Receiver, sender: Sender, ack_delay: float):
        # Parallel columns (delivery time, seq), FIFO — two compact
        # deque appends per commit instead of a tuple allocation.
        self.pending_t: deque[float] = deque()
        self.pending_s: deque[int] = deque()
        self.receiver = receiver
        self.stats = receiver.stats
        self.sender = sender
        self.mss = sender.mss
        self.ack_delay = ack_delay
        self.arrive_cb = self.arrive
        # Two-stage mode, flipped on by BatchedSender.start() for
        # monitor-interval controllers: the fused event's heap seq is
        # assigned at *commit* time, but the reference assigns the ACK
        # event's seq at *delivery* time — so when an ACK lands
        # bit-exactly on an MI-timer tick (phase-locked quanta make
        # this real), the fused event can fire on the wrong side of the
        # MI report.  MI flows therefore commit a featherweight deliver
        # event instead, whose only job is to push the real ACK event
        # with a seq drawn at the delivery instant, restoring the
        # reference's tie order.  Flows without MI timers have no
        # same-instant rival that observes sender state, so they keep
        # the cheaper single fused event.
        self.two_stage = False
        self.deliver_t: deque[float] = deque()
        self.deliver_cb = self.deliver
        # Cached len(stats.delivered_bins).  Valid because in a batched
        # run every delivered-bin extension goes through this pipe
        # (arrive/flush) — Receiver.take is never on the delivery path.
        self._nbins = len(receiver.stats.delivered_bins)

    def deliver(self) -> None:
        """Two-stage first leg: schedule the ACK at the delivery instant.

        Runs at the packet's delivery time and does nothing but push
        :meth:`arrive` one reverse-path delay out — with a sequence
        number drawn *now*, exactly when the reference engine's ACK
        route would have drawn it.  All bookkeeping (receiver delivery
        stamping included) stays in :meth:`arrive`/:meth:`flush`, which
        read ``pending_t``/``pending_s`` untouched by this leg.
        """
        t = self.deliver_t.popleft()
        loop = self.sender.loop
        seq_no = loop._seq
        loop._seq = seq_no + 1
        heappush(loop._heap, (t + self.ack_delay, seq_no, self.arrive_cb))

    def arrive(self) -> None:
        """The fused delivery+ACK event — the hottest callback in a run.

        First half is :meth:`Receiver.take` inlined (delivery
        bookkeeping at delivery time); second half is
        :meth:`Sender.process_ack` flattened into straight-line code —
        the same floats in the same order, with ``min``/``max`` calls as
        branches and a positionally built :class:`AckSample` (a fresh
        one per ACK: controllers may keep what they receive).  The
        sender clocks off ``loop.now`` — this event's fire time IS the
        ACK arrival instant, so no clock read is needed.
        """
        delivery_time = self.pending_t.popleft()
        seq = self.pending_s.popleft()
        # -- Receiver.take, inlined -------------------------------------
        size = self.mss
        self.receiver.delivered_bytes += size
        stats = self.stats
        stats.delivered_bytes += size
        idx = int((delivery_time - stats.start_time) / stats.bin_width)
        if idx < 0:
            idx = 0
        bins = stats.delivered_bins
        if idx >= self._nbins:
            bins.extend([0.0] * (idx - self._nbins + 1))
            self._nbins = idx + 1
        bins[idx] += size
        # -- Sender.process_ack, flattened ------------------------------
        s = self.sender
        if not s._running:
            return
        record = s.outstanding.pop(seq, None)
        if record is None:
            return  # already declared lost
        # This event fired at delivery_time + ack_delay — the exact
        # float pushed at commit, which run_until assigned to loop.now.
        now = delivery_time + self.ack_delay
        sent_time = record[0]
        rtt = now - sent_time
        # _update_rtt, inlined
        s.latest_rtt = rtt
        if rtt < s.min_rtt:
            s.min_rtt = rtt
        srtt = s.srtt
        if srtt == 0.0:
            s.srtt = srtt = rtt
            s.rttvar = rtt / 2
        else:
            dev = srtt - rtt  # abs() as a branch: sign flip is exact
            if dev < 0.0:
                dev = -dev
            s.rttvar = 0.75 * s.rttvar + 0.25 * dev
            s.srtt = srtt = 0.875 * srtt + 0.125 * rtt
        inflight = s.inflight_bytes - size
        if inflight < 0.0:
            inflight = 0.0
        s.inflight_bytes = inflight
        delivered = s.delivered_bytes = s.delivered_bytes + size
        s.last_ack_time = now
        # elapsed == now - sent_time == rtt, the exact same float
        delivery_rate = 0.0
        if rtt > 0:
            delivery_rate = (delivered - record[2]) * 8.0 / rtt

        stats.acked_packets += 1
        stats.rtt_sum += rtt
        stats.rtt_count += 1
        if rtt < stats.min_rtt:
            stats.min_rtt = rtt
        if rtt > stats.max_rtt:
            stats.max_rtt = rtt
        # rtt_count was just incremented, and every append in a batched
        # run happens here, so len(rtt_samples) == min(rtt_count - 1,
        # cap): the length test and this count test are equivalent.
        if stats.rtt_count <= 200_000:
            stats.rtt_samples.append((now, rtt))

        if s._track_window:
            window = s._window
            window.acked_packets += 1
            window.delivered_bytes += size
            window.rtt_t.append(now)
            window.rtt_r.append(rtt)

        if s.sanitizer is not None:
            s.sanitizer.check_ack_sample(s.flow_id, rtt, srtt,
                                         inflight, delivery_rate, now)
        controller = s.controller
        controller.on_ack(AckSample(now, seq, rtt, s.min_rtt, srtt, size,
                                    delivery_rate, inflight, sent_time,
                                    record[3]))
        if s._userspace:
            controller.meter.count("userspace_packet")

        # _detect_reorder_losses fast path: the in-order case pops the
        # head and the next head (> seq) ends the reference loop at once.
        order = s.send_order
        if order and order[0] == seq:
            order.popleft()
        else:
            s._detect_reorder_losses(seq)

        if s._blocked:
            # Re-read inflight: _detect_reorder_losses may have shrunk it.
            if s._cwnd_simple:
                cwnd = controller.cwnd_bytes
                floor = controller.min_cwnd_bytes
                if floor > cwnd:
                    cwnd = floor
            else:
                cwnd = controller.cwnd()
            if cwnd is None or s.inflight_bytes + s.mss <= cwnd:
                # The unblocked send happens inside this ACK event, which
                # the reference pushed at the acked packet's delivery
                # time — the link's tie-break needs exactly that instant.
                s._send_loop(delivery_time)
        if s.flow_bytes is not None and not s._finished and \
                s.delivered_bytes >= s.flow_bytes:
            s._finish(now)

    def flush(self, until: float) -> None:
        """Settle deliveries due by ``until`` whose ACKs never arrived.

        At end of run the reference engine has processed delivery events
        up to the horizon but not the ACK events beyond it; this applies
        the same cut to the fused pipeline (receiver bookkeeping only).
        """
        times = self.pending_t
        seqs = self.pending_s
        receiver = self.receiver
        stats = self.stats
        size = self.mss
        while times and times[0] <= until:
            seqs.popleft()
            now = times.popleft()
            # Receiver.take, inlined (the pipe carries no Packet).
            receiver.delivered_bytes += size
            stats.delivered_bytes += size
            idx = int((now - stats.start_time) / stats.bin_width)
            if idx < 0:
                idx = 0
            bins = stats.delivered_bins
            if idx >= self._nbins:
                bins.extend([0.0] * (idx - self._nbins + 1))
                self._nbins = idx + 1
            bins[idx] += size
