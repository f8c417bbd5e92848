"""TCP Vegas (Brakmo & Peterson 1995): delay-based congestion avoidance."""

from __future__ import annotations

from ..simnet.packet import AckSample, LossSample
from .base import WindowController

ALPHA = 2.0   # packets of self-inflicted queue tolerated (lower bound)
BETA = 4.0    # upper bound
GAMMA = 1.0   # slow-start exit threshold


class Vegas(WindowController):
    """Vegas: keep ``diff = (expected - actual) * base_rtt`` within [α, β]."""

    name = "vegas"

    def __init__(self, initial_cwnd_packets: int = 10):
        super().__init__(initial_cwnd_packets)
        self.base_rtt = float("inf")
        self._last_adjust = 0.0

    def on_ack(self, ack: AckSample) -> None:
        super().on_ack(ack)
        self.base_rtt = min(self.base_rtt, ack.rtt)
        if ack.now - self._last_adjust < ack.srtt:
            return  # Vegas adjusts once per RTT
        self._last_adjust = ack.now
        cwnd_pkts = self.cwnd_bytes / self.mss
        expected = cwnd_pkts / self.base_rtt
        actual = cwnd_pkts / max(ack.srtt, 1e-6)
        diff = (expected - actual) * self.base_rtt
        if self.in_slow_start():
            if diff > GAMMA:
                self.ssthresh = self.cwnd_bytes
            else:
                self.cwnd_bytes += self.mss
            return
        if diff < ALPHA:
            self.cwnd_bytes += self.mss
        elif diff > BETA:
            self.cwnd_bytes = max(self.cwnd_bytes - self.mss, self.min_cwnd_bytes)

    def on_loss(self, loss: LossSample) -> None:
        if not self.reduction_allowed(loss.now):
            return
        self.mark_reduction(loss.now)
        self.cwnd_bytes = max(self.cwnd_bytes * 0.75, self.min_cwnd_bytes)
        self.ssthresh = self.cwnd_bytes
