"""Copa (Arun & Balakrishnan, NSDI 2018), simplified.

Targets a sending rate of ``1 / (delta * d_q)`` packets per second where
``d_q`` is the measured queueing delay, moving the window towards the
target with a velocity parameter that doubles while the direction of
change is consistent.  Runs in userspace in Pantheon, hence the elevated
per-packet overhead in Fig. 2(c)/Fig. 12.
"""

from __future__ import annotations

from ..simnet.packet import AckSample, LossSample
from .base import WindowController

DEFAULT_DELTA = 0.5


class Copa(WindowController):
    """Copa: delay-targeting window control with velocity doubling."""

    name = "copa"
    userspace = True

    def __init__(self, initial_cwnd_packets: int = 10, delta: float = DEFAULT_DELTA):
        super().__init__(initial_cwnd_packets)
        self.delta = delta
        self.velocity = 1.0
        self.direction = 0          # +1 increasing, -1 decreasing
        self._direction_rtts = 0
        self._last_direction_check = 0.0
        self._min_rtt = float("inf")
        # RTT_standing: min RTT over the last srtt/2 window
        self._standing_samples: list[tuple[float, float]] = []

    def _rtt_standing(self, now: float, srtt: float) -> float:
        horizon = now - srtt / 2.0
        self._standing_samples = [(t, r) for t, r in self._standing_samples
                                  if t >= horizon]
        if not self._standing_samples:
            return self._min_rtt
        return min(r for _, r in self._standing_samples)

    def on_ack(self, ack: AckSample) -> None:
        super().on_ack(ack)
        now = ack.now
        self._min_rtt = min(self._min_rtt, ack.rtt)
        self._standing_samples.append((now, ack.rtt))
        standing = self._rtt_standing(now, max(ack.srtt, 1e-3))
        queueing_delay = max(standing - self._min_rtt, 0.0)

        cwnd_pkts = self.cwnd_bytes / self.mss
        if queueing_delay <= 1e-6:
            target_rate = float("inf")
        else:
            target_rate = 1.0 / (self.delta * queueing_delay)  # packets/s
        current_rate = cwnd_pkts / max(ack.srtt, 1e-6)

        if current_rate <= target_rate:
            self._set_direction(now, +1, ack.srtt)
            self.cwnd_bytes += self.velocity * self.mss / (self.delta * cwnd_pkts)
        else:
            self._set_direction(now, -1, ack.srtt)
            self.cwnd_bytes -= self.velocity * self.mss / (self.delta * cwnd_pkts)
            self.cwnd_bytes = max(self.cwnd_bytes, self.min_cwnd_bytes)

    def _set_direction(self, now: float, direction: int, srtt: float) -> None:
        if direction == self.direction:
            if now - self._last_direction_check >= srtt:
                self._direction_rtts += 1
                self._last_direction_check = now
                if self._direction_rtts >= 3:
                    self.velocity = min(self.velocity * 2.0, 1024.0)
        else:
            self.direction = direction
            self.velocity = 1.0
            self._direction_rtts = 0
            self._last_direction_check = now

    def on_loss(self, loss: LossSample) -> None:
        if not self.reduction_allowed(loss.now):
            return
        self.mark_reduction(loss.now)
        self.cwnd_bytes = max(self.cwnd_bytes / 2.0, self.min_cwnd_bytes)
        self.velocity = 1.0
