"""TCP Illinois — delay-modulated AIMD (concave increase).

Additive increase α and multiplicative decrease β are functions of the
average queueing delay: near-empty queues get aggressive growth
(α up to 10), deep queues get gentle growth and larger backoff.
"""

from __future__ import annotations

from ..simnet.packet import AckSample, LossSample
from .base import WindowController

ALPHA_MAX = 10.0
ALPHA_MIN = 0.3
BETA_MIN = 0.125
BETA_MAX = 0.5
D1_FRACTION = 0.01   # delay below d1*max_delay → alpha_max


class Illinois(WindowController):
    """C-AIMD with delay-dependent alpha/beta."""

    name = "illinois"

    def __init__(self, initial_cwnd_packets: int = 10):
        super().__init__(initial_cwnd_packets)
        self.base_rtt = float("inf")
        self.max_rtt = 0.0
        self._alpha = 1.0
        self._beta = BETA_MAX
        self._last_param_update = 0.0

    def _update_params(self, ack: AckSample) -> None:
        self.base_rtt = min(self.base_rtt, ack.rtt)
        self.max_rtt = max(self.max_rtt, ack.rtt)
        if ack.now - self._last_param_update < ack.srtt:
            return
        self._last_param_update = ack.now
        dm = max(self.max_rtt - self.base_rtt, 1e-6)
        da = max(ack.srtt - self.base_rtt, 0.0)
        d1 = D1_FRACTION * dm
        if da <= d1:
            self._alpha = ALPHA_MAX
        else:
            # alpha decreases in delay: alpha_max at d1 down to alpha_min at dm
            frac = min((da - d1) / (dm - d1 + 1e-12), 1.0)
            self._alpha = ALPHA_MAX + frac * (ALPHA_MIN - ALPHA_MAX)
        self._beta = BETA_MIN + min(da / dm, 1.0) * (BETA_MAX - BETA_MIN)

    def on_ack(self, ack: AckSample) -> None:
        super().on_ack(ack)
        self._update_params(ack)
        if self.in_slow_start():
            self.cwnd_bytes += ack.acked_bytes
        else:
            self.cwnd_bytes += self._alpha * self.mss * ack.acked_bytes / self.cwnd_bytes

    def on_loss(self, loss: LossSample) -> None:
        if not self.reduction_allowed(loss.now):
            return
        self.mark_reduction(loss.now)
        self.cwnd_bytes = max(self.cwnd_bytes * (1.0 - self._beta),
                              self.min_cwnd_bytes)
        self.ssthresh = self.cwnd_bytes
