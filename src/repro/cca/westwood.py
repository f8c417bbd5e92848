"""TCP Westwood+ — bandwidth-estimate-based loss recovery."""

from __future__ import annotations

from ..simnet.packet import AckSample, LossSample
from .base import WindowController


class Westwood(WindowController):
    """AIMD growth with ssthresh = BWE * RTT_min on loss."""

    name = "westwood"

    def __init__(self, initial_cwnd_packets: int = 10):
        super().__init__(initial_cwnd_packets)
        self.bw_est = 0.0
        self._min_rtt = float("inf")

    def on_ack(self, ack: AckSample) -> None:
        super().on_ack(ack)
        self._min_rtt = min(self._min_rtt, ack.rtt)
        if ack.delivery_rate > 0:
            if self.bw_est == 0.0:
                self.bw_est = ack.delivery_rate
            else:
                self.bw_est = 0.9 * self.bw_est + 0.1 * ack.delivery_rate
        if self.in_slow_start():
            self.cwnd_bytes += ack.acked_bytes
        else:
            self.cwnd_bytes += self.mss * ack.acked_bytes / self.cwnd_bytes

    def on_loss(self, loss: LossSample) -> None:
        if not self.reduction_allowed(loss.now):
            return
        self.mark_reduction(loss.now)
        if self.bw_est > 0 and self._min_rtt < float("inf"):
            self.ssthresh = max(self.bw_est * self._min_rtt / 8.0,
                                self.min_cwnd_bytes)
        else:
            self.ssthresh = max(self.cwnd_bytes / 2.0, self.min_cwnd_bytes)
        self.cwnd_bytes = self.ssthresh
