"""TCP NewReno (RFC 2582-style AIMD) — the canonical classic baseline."""

from __future__ import annotations

from ..simnet.packet import AckSample, LossSample
from .base import WindowController


class NewReno(WindowController):
    """AIMD: +1 MSS per RTT in congestion avoidance, halve on loss."""

    name = "reno"

    def on_ack(self, ack: AckSample) -> None:
        super().on_ack(ack)
        if self.in_slow_start():
            self.cwnd_bytes += ack.acked_bytes
        else:
            self.cwnd_bytes += self.mss * ack.acked_bytes / self.cwnd_bytes

    def on_loss(self, loss: LossSample) -> None:
        if not self.reduction_allowed(loss.now):
            return
        self.mark_reduction(loss.now)
        self.cwnd_bytes = max(self.cwnd_bytes / 2.0, self.min_cwnd_bytes)
        self.ssthresh = self.cwnd_bytes
