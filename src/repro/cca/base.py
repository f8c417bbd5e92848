"""Congestion controller interface used by the simulator's sender.

Every CCA — classic, learning-based, or the Libra framework itself —
implements :class:`Controller`.  The sender drives it with three kinds of
feedback:

- :meth:`on_ack` for every acknowledgement (classic CCAs react here),
- :meth:`on_loss` for every detected loss,
- :meth:`on_interval` once per monitor interval (MI) with aggregated
  statistics (learning-based CCAs and Libra's stage machinery react here).

The controller exposes its current decision through :meth:`pacing_rate`
(bits/second) and/or :meth:`cwnd` (bytes).  A window-only CCA may return
``None`` from :meth:`pacing_rate`, in which case the sender paces at
``cwnd / srtt``; a rate-only CCA may return ``None`` from :meth:`cwnd`.
"""

from __future__ import annotations

from ..overhead.meter import CostMeter
from ..simnet.packet import AckSample, IntervalReport, LossSample
from ..units import DEFAULT_MSS


class Controller:
    """Base congestion controller (no-op; sends at a fixed rate)."""

    # Slotted: controller attribute reads sit on the per-ACK hot path of
    # both simulator engines.  Subclasses that declare no __slots__ of
    # their own still get a __dict__ for their private state — only the
    # base attributes here are descriptor-backed.
    __slots__ = ("mss", "meter", "marker", "telemetry", "telemetry_flow")

    #: whether the paper's implementation of this CCA runs in userspace
    #: (kernel CCAs are far cheaper per packet — see Fig. 2(c))
    userspace = False

    #: human-readable identifier, overridden by subclasses
    name = "base"

    def __init__(self) -> None:
        self.mss = DEFAULT_MSS
        self.meter = CostMeter()
        self.marker = 0
        #: run-wide telemetry recorder, or ``None`` (the default) when the
        #: run is untraced — feedback hot paths guard on this attribute
        self.telemetry = None
        #: flow id assigned by :meth:`attach_telemetry` (channel prefix)
        self.telemetry_flow = 0

    # -- lifecycle -------------------------------------------------------

    def start(self, now: float, mss: int) -> None:
        """Called once when the flow starts sending."""
        self.mss = mss

    def attach_telemetry(self, recorder, flow_id: int = 0) -> None:
        """Point the controller at a run-wide telemetry recorder.

        Called by :class:`~repro.simnet.network.Dumbbell` before the
        flow starts when the run is traced.  Subclasses that keep their
        own private recorder (Libra's decision log) override this to
        redirect it into the shared one.
        """
        self.telemetry = recorder
        self.telemetry_flow = flow_id

    # -- feedback --------------------------------------------------------

    def on_ack(self, ack: AckSample) -> None:
        """Per-ACK feedback; classic CCAs update their window here."""

    def on_loss(self, loss: LossSample) -> None:
        """Per-loss feedback."""

    def on_interval(self, report: IntervalReport) -> None:
        """Per-monitor-interval feedback with aggregated statistics."""

    def interval(self) -> float | None:
        """Requested MI duration in seconds (``None`` = no MI callbacks)."""
        return None

    # -- decisions ---------------------------------------------------------

    def pacing_rate(self) -> float | None:
        """Current pacing rate in bits/second, or ``None`` to derive from cwnd."""
        return None

    def cwnd(self) -> float | None:
        """Current congestion window in bytes, or ``None`` for rate-only CCAs."""
        return None

    # -- Libra integration hooks -------------------------------------------

    def adopt_rate(self, rate_bps: float, srtt: float) -> None:
        """Seed the CCA's state so it explores from ``rate_bps``.

        Libra calls this at the start of each exploration stage when the
        previous cycle's winner was not the classic CCA's own rate.
        Subclasses translate the rate into their internal state (e.g. a
        congestion window); the default is a no-op.
        """

    def rate_estimate(self, srtt: float) -> float:
        """The CCA's current rate decision in bits/second."""
        rate = self.pacing_rate()
        if rate is not None:
            return rate
        cwnd = self.cwnd()
        if cwnd is None:
            raise NotImplementedError(
                f"{type(self).__name__} exposes neither a pacing rate nor a cwnd")
        return cwnd * 8.0 / max(srtt, 1e-3)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


class FixedRateController(Controller):
    """Sends at a constant rate forever — useful for tests and cross traffic."""

    __slots__ = ("_rate",)

    name = "fixed"

    def __init__(self, rate_bps: float):
        super().__init__()
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self._rate = rate_bps

    def pacing_rate(self) -> float:
        return self._rate


class CrashTestController(FixedRateController):
    """Deliberately raises after ``crash_after`` ACKs.

    Exists to exercise the sweep executor's failure path
    (``on_error="collect"`` → :class:`~repro.parallel.FailedRun`) in CI
    and tests without planting bugs in real controllers.
    """

    __slots__ = ("crash_after", "_acks")

    name = "crash-test"

    def __init__(self, rate_bps: float = 5_000_000.0, crash_after: int = 10):
        super().__init__(rate_bps)
        self.crash_after = int(crash_after)
        self._acks = 0

    def on_ack(self, ack: AckSample) -> None:
        self._acks += 1
        if self._acks >= self.crash_after:
            raise RuntimeError(
                f"crash-test controller raised after {self._acks} ACKs")


class WindowController(Controller):
    """Helper base for window-based classic CCAs.

    Maintains ``cwnd`` in bytes, a slow-start threshold, and the common
    loss-validity bookkeeping (one window reduction per RTT).
    """

    __slots__ = ("_initial_cwnd_packets", "cwnd_bytes", "ssthresh",
                 "min_cwnd_bytes", "_last_reduction_time", "_srtt")

    def __init__(self, initial_cwnd_packets: int = 10):
        super().__init__()
        self._initial_cwnd_packets = initial_cwnd_packets
        self.cwnd_bytes = float(initial_cwnd_packets * DEFAULT_MSS)
        self.ssthresh = float("inf")
        self.min_cwnd_bytes = 2.0 * DEFAULT_MSS
        self._last_reduction_time = -1e9
        self._srtt = 0.1

    def start(self, now: float, mss: int) -> None:
        super().start(now, mss)
        self.cwnd_bytes = float(self._initial_cwnd_packets * mss)
        self.min_cwnd_bytes = 2.0 * mss

    def on_ack(self, ack: AckSample) -> None:
        self.meter.count("per_ack")
        self._srtt = ack.srtt

    def in_slow_start(self) -> bool:
        return self.cwnd_bytes < self.ssthresh

    def reduction_allowed(self, now: float) -> bool:
        """At most one multiplicative decrease per RTT (loss burst filter)."""
        return now - self._last_reduction_time > self._srtt

    def mark_reduction(self, now: float) -> None:
        self._last_reduction_time = now

    def cwnd(self) -> float:
        return max(self.cwnd_bytes, self.min_cwnd_bytes)

    def adopt_rate(self, rate_bps: float, srtt: float) -> None:
        """Seed the window with ``rate_bps`` worth of data per ``srtt``.

        The inverse of :meth:`Controller.rate_estimate`, which a window
        CCA inherits unchanged (``cwnd * 8 / srtt``).
        """
        self.cwnd_bytes = max(rate_bps * srtt / 8.0, self.min_cwnd_bytes)


class RateController(Controller):
    """Helper base for rate-based CCAs; keeps a bounded pacing rate."""

    __slots__ = ("rate_bps",)

    #: absolute floor so flows never stall completely
    MIN_RATE = 64_000.0  # 64 kbps
    MAX_RATE = 2e9       # 2 Gbps

    def __init__(self, initial_rate_bps: float = 1_000_000.0):
        super().__init__()
        self.rate_bps = float(initial_rate_bps)

    def set_rate(self, rate_bps: float) -> None:
        self.rate_bps = float(min(max(rate_bps, self.MIN_RATE), self.MAX_RATE))

    def pacing_rate(self) -> float:
        return self.rate_bps

    def cwnd(self) -> float | None:
        # Rate-only: no window cap, the sender paces at rate_bps.
        return None
