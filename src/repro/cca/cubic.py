"""CUBIC congestion control (Ha, Rhee, Xu 2008).

The paper's default underlying classic CCA for C-Libra.  Implements the
cubic window growth function with fast convergence and the TCP-friendly
region, operating in packet (MSS) units internally like the kernel module.
"""

from __future__ import annotations



from ..simnet.packet import AckSample, LossSample
from .base import WindowController

CUBE_C = 0.4
BETA = 0.7


class Cubic(WindowController):
    """CUBIC: W(t) = C*(t-K)^3 + W_max."""

    # Fully slotted (the whole base chain declares __slots__): CUBIC is
    # the default classic CCA, so its per-ACK attribute traffic is hot in
    # both engines.
    __slots__ = ("fast_convergence", "tcp_friendly", "w_max", "epoch_start",
                 "k", "origin_point", "w_tcp", "ack_count")

    name = "cubic"

    def __init__(self, initial_cwnd_packets: int = 10,
                 fast_convergence: bool = True, tcp_friendly: bool = True):
        super().__init__(initial_cwnd_packets)
        self.fast_convergence = fast_convergence
        self.tcp_friendly = tcp_friendly
        self._reset_epoch()

    def _reset_epoch(self) -> None:
        self.w_max = 0.0          # packets
        self.epoch_start: float | None = None
        self.k = 0.0
        self.origin_point = 0.0
        self.w_tcp = 0.0
        self.ack_count = 0

    # -- window in packets -------------------------------------------------

    @property
    def cwnd_packets(self) -> float:
        return self.cwnd_bytes / self.mss

    @cwnd_packets.setter
    def cwnd_packets(self, value: float) -> None:
        self.cwnd_bytes = max(value, 2.0) * self.mss

    # -- feedback ----------------------------------------------------------

    def on_ack(self, ack: AckSample) -> None:
        # WindowController.on_ack and in_slow_start(), inlined — this is
        # the hottest per-ACK path in the simulator (CUBIC is the default
        # classic CCA), worth flattening the two helper calls.
        self.meter.counts["per_ack"] += 1.0
        self._srtt = ack.srtt
        if self.cwnd_bytes < self.ssthresh:
            self.cwnd_bytes += ack.acked_bytes
            return
        self._cubic_update(ack.now, ack.srtt)

    def _cubic_update(self, now: float, rtt: float) -> None:
        mss = self.mss
        cwnd = self.cwnd_bytes / mss  # cwnd_packets, inlined
        epoch = self.epoch_start
        if epoch is None:
            self.epoch_start = epoch = now
            self.ack_count = 1
            self.w_tcp = cwnd
            w_max = self.w_max
            if cwnd < w_max:
                self.k = ((w_max - cwnd) / CUBE_C) ** (1.0 / 3.0)
                self.origin_point = w_max
            else:
                self.k = 0.0
                self.origin_point = cwnd
        t = now - epoch + rtt
        target = self.origin_point + CUBE_C * (t - self.k) ** 3
        if target > cwnd:
            increment = (target - cwnd) / cwnd
        else:
            increment = 0.01 / cwnd  # minimal probing in the concave plateau
        if self.tcp_friendly:
            # Standard TCP-friendly region: emulate AIMD(1, beta).
            self.w_tcp += 3.0 * (1.0 - BETA) / (1.0 + BETA) / cwnd
            if self.w_tcp > cwnd + increment:
                increment = self.w_tcp - cwnd
        # cwnd_packets setter, inlined (max() as a branch: same float)
        value = cwnd + increment
        self.cwnd_bytes = (value if value > 2.0 else 2.0) * mss

    def on_loss(self, loss: LossSample) -> None:
        if not self.reduction_allowed(loss.now):
            return
        self.mark_reduction(loss.now)
        cwnd = self.cwnd_packets
        self.epoch_start = None
        if self.fast_convergence and cwnd < self.w_max:
            self.w_max = cwnd * (1.0 + BETA) / 2.0
        else:
            self.w_max = cwnd
        self.cwnd_packets = max(cwnd * BETA, 2.0)
        self.ssthresh = self.cwnd_bytes

    # -- Libra integration -----------------------------------------------

    def adopt_rate(self, rate_bps: float, srtt: float) -> None:
        """Seed the window, then restart the cubic epoch from it."""
        super().adopt_rate(rate_bps, srtt)
        self.epoch_start = None
        self.w_max = max(self.w_max, self.cwnd_packets)
