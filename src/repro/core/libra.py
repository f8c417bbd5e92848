"""Libra: the three-stage combined congestion control framework (Alg. 1).

Each control cycle:

1. **Exploration** — the classic CCA drives the sending rate per-ACK,
   starting from the base rate ``x_prev`` decided last cycle, while the
   DRL agent (Alg. 2) updates its backup proposal ``x_rl`` once per
   monitor interval.  The stage ends after ``k`` estimated RTTs, or early
   when ``|x_cl - x_rl| >= th1`` (both conditions of Fig. 3).
2. **Evaluation** — the two candidate rates are each applied for one
   evaluation interval, *lower rate first* (Sec. 4.1's side-effect
   analysis, Fig. 4).  The DRL agent is not invoked here, which is where
   Libra's overhead savings come from (Remark 5).
3. **Exploitation** — ``x_prev`` is replayed while the candidates'
   feedback arrives.  At the cycle boundary the rate with the highest
   utility (Eq. 1) among ``{x_prev, x_cl, x_rl}`` becomes the new base
   rate.

No-ACK handling follows Sec. 3: an exploration stage without feedback
keeps ``x_rl`` unchanged; a candidate window without feedback cannot be
evaluated, so the cycle falls back to ``x_prev``.

Two graceful-degradation mechanisms extend that baseline for the
pathological conditions of the stress experiments:

- **Policy-fault guard** — DRL inference is wrapped; a raised exception
  or a non-finite state/action disables the RL arm (logged once) and
  re-enables it with exponential backoff
  (``rl_backoff_initial`` … ``rl_backoff_max``).  While disabled, Libra
  degrades to the classic-vs-``x_prev`` contest, i.e. behaviour stays
  near the classic CCA exactly as Remark 7 promises.
- **No-ACK watchdog** — an RTO-style outage detector: when no ACK
  arrives for ``watchdog_rtts`` estimated RTTs the controller freezes
  the stage machine, remembers ``x_prev`` and drops to a conservative
  probe rate; the first ACK after the outage restores ``x_prev`` and
  restarts a fresh cycle, so recovery is immediate once capacity
  returns.
"""

from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)

from ..cca.base import Controller
from ..env.features import StateBuilder
from ..env.bridge import measurement_from_report
from ..simnet.packet import AckSample, IntervalReport, LossSample
from ..simnet.windows import AckWindow
from ..telemetry import Recorder
from .config import LibraConfig
from .utility import utility

MIN_RATE = 64_000.0
MAX_RATE = 2e9
#: per-cycle clamp on how far x_rl may drift from the base rate
RL_DRIFT_LIMIT = 8.0

STARTUP, EXPLORE, EVAL_LOW, EVAL_HIGH, EXPLOIT = range(5)
STAGE_NAMES = {STARTUP: "startup", EXPLORE: "explore", EVAL_LOW: "eval-low",
               EVAL_HIGH: "eval-high", EXPLOIT: "exploit"}


class LibraController(Controller):
    """The combined framework: classic CCA + DRL agent + utility arbiter.

    Parameters
    ----------
    classic:
        The underlying classic CCA (must provide ``adopt_rate`` and
        ``rate_estimate`` — CUBIC for C-Libra, BBR for B-Libra).
    policy:
        A trained :class:`~repro.rl.policy.GaussianActorCritic`, or
        ``None`` to run without an RL component (the classic CCA then
        competes only against ``x_prev``).
    config:
        Stage durations, threshold, utility preferences.
    """

    name = "libra"

    def __init__(self, classic: Controller, policy=None,
                 config: LibraConfig | None = None, seed: int = 0):
        super().__init__()
        self.classic = classic
        self.policy = policy
        self.config = config or LibraConfig()
        self.rng = np.random.default_rng(seed)
        # Share one meter so classic per-ACK work is attributed to Libra.
        self.classic.meter = self.meter

        self.stage = STARTUP
        self.stage_start = 0.0
        self.x_prev = MIN_RATE
        self.x_rl = MIN_RATE
        self.x_cl = MIN_RATE
        self._eval_lo = MIN_RATE
        self._eval_hi = MIN_RATE
        self._ei_duration = 0.05
        self._lo_is_cl = True

        self.srtt = 0.0
        self.min_rtt = float("inf")
        self._start_time = 0.0
        self._windows: dict[str, AckWindow] = {}

        self.builder = StateBuilder(self.config.rl_feature_set,
                                    self.config.rl_history)
        #: Fig. 17 bookkeeping — how often each candidate wins a cycle
        self.applied_counts = {"prev": 0, "rl": 0, "cl": 0}
        self.cycles = 0
        self._rl_updated = False
        self._last_winner = "cl"
        #: decision recorder: stage transitions, per-cycle utility
        #: verdicts, watchdog and RL-arm events.  Always on (events fire
        #: at cycle frequency, not per packet); its caps come from the
        #: ``config.telemetry`` knob.  When the run is traced the
        #: Dumbbell redirects it into the run-wide recorder via
        #: :meth:`attach_telemetry`, so the events land in the
        #: :class:`~repro.telemetry.FlowTelemetry` artifact.
        self._recorder = Recorder(self.config.telemetry)
        # -- graceful degradation state ---------------------------------
        self._last_ack_time = 0.0
        self._outage = False
        self._saved_x_prev = MIN_RATE
        #: number of no-ACK outages the watchdog declared
        self.outage_count = 0
        self._rl_consecutive_faults = 0
        self._rl_disabled_until = 0.0
        self._rl_fault_logged = False
        #: number of RL inference faults absorbed (exceptions/non-finite)
        self.rl_fault_count = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self, now: float, mss: int) -> None:
        super().start(now, mss)
        self.classic.start(now, mss)
        self._start_time = now
        self._last_ack_time = now
        self.stage = STARTUP
        self.stage_start = now

    def attach_telemetry(self, recorder, flow_id: int = 0) -> None:
        """Redirect the decision recorder into the run-wide one."""
        super().attach_telemetry(recorder, flow_id)
        self.classic.attach_telemetry(recorder, flow_id)
        if recorder is not self._recorder:
            recorder.adopt(self._recorder)
            self._recorder = recorder

    # -- helpers -----------------------------------------------------------

    def _srtt(self) -> float:
        return self.srtt if self.srtt > 0 else 0.1

    def _stage_duration(self) -> float:
        cfg = self.config
        srtt = self._srtt()
        if self.stage == STARTUP:
            return cfg.startup_rtts * srtt
        if self.stage == EXPLORE:
            return cfg.explore_rtts * srtt
        if self.stage in (EVAL_LOW, EVAL_HIGH):
            return self._ei_duration
        return cfg.exploit_rtts * srtt

    def _ei_length(self, rate: float) -> float:
        """EI duration: 0.5 est. RTT (Sec. 7), stretched at low rates so
        the window carries enough packets (>= 4) for a utility sample."""
        base = self.config.ei_rtts * self._srtt()
        packet_time = self.mss * 8.0 / max(rate, MIN_RATE)
        return max(base, 4.0 * packet_time)

    def _clamp(self, rate: float) -> float:
        lo = max(MIN_RATE, self.x_prev / RL_DRIFT_LIMIT)
        hi = min(MAX_RATE, self.x_prev * RL_DRIFT_LIMIT)
        return float(min(max(rate, lo), hi))

    # -- stage machine -----------------------------------------------------

    def _advance(self, now: float) -> None:
        """Run stage transitions due at time ``now``."""
        if self._outage:
            return  # stage machine is frozen until feedback returns
        while now - self.stage_start >= self._stage_duration():
            boundary = self.stage_start + self._stage_duration()
            if self.stage == STARTUP:
                self._finish_startup(boundary)
            elif self.stage == EXPLORE:
                self._enter_evaluation(boundary)
            elif self.stage == EVAL_LOW:
                self._enter_eval_high(boundary)
            elif self.stage == EVAL_HIGH:
                self._enter_exploitation(boundary)
            else:
                self._finish_cycle(boundary)

    def _log(self, now: float) -> None:
        self._recorder.event("libra.stage", now,
                             stage=STAGE_NAMES[self.stage],
                             rate=self.pacing_rate(), base=self.x_prev,
                             cycle=self.cycles)

    def _finish_startup(self, now: float) -> None:
        self.x_prev = self._rate_floor(self.classic.rate_estimate(self._srtt()))
        self.x_rl = self.x_prev
        self._begin_cycle(now)

    def _begin_cycle(self, now: float) -> None:
        self.stage = EXPLORE
        self.stage_start = now
        self.cycles += 1
        self._windows = {"prev": AckWindow(now)}
        if self._last_winner != "cl":
            self.classic.adopt_rate(self.x_prev, self._srtt())
        self.x_cl = self._rate_floor(self.classic.rate_estimate(self._srtt()))
        # Re-anchor the RL proposal to the base rate unless the RL rate
        # just won: Alg. 2's agent proposes *adjustments* from the
        # current operating point, so a losing proposal must not persist
        # across cycles (it would freeze if exploration exits early).
        if self._last_winner != "rl":
            self.x_rl = self.x_prev
        self._rl_updated = False
        self._log(now)

    def _enter_evaluation(self, now: float) -> None:
        self._windows["prev"].end = now
        lo, hi = sorted((self.x_cl, self.x_rl))
        if self.config.eval_order == "higher-first":
            # Ablation of Sec. 4.1: evaluating the higher rate first lets
            # its queue pollute the lower candidate's measurement (Fig. 4).
            lo, hi = hi, lo
        self._eval_lo, self._eval_hi = lo, hi
        self._lo_is_cl = (self.x_cl == lo)
        self.stage = EVAL_LOW
        self.stage_start = now
        self._ei_duration = self._ei_length(self._eval_lo)
        window = AckWindow(now)
        window.end = now + self._ei_duration
        self._windows["lo"] = window
        self._log(now)

    def _enter_eval_high(self, now: float) -> None:
        self.stage = EVAL_HIGH
        self.stage_start = now
        self._ei_duration = self._ei_length(self._eval_hi)
        window = AckWindow(now)
        window.end = now + self._ei_duration
        self._windows["hi"] = window
        self._log(now)

    def _enter_exploitation(self, now: float) -> None:
        self.stage = EXPLOIT
        self.stage_start = now
        self._log(now)

    def _finish_cycle(self, now: float) -> None:
        utilities = {
            "prev": self._window_utility("prev"),
            "cl": self._window_utility("lo" if self._lo_is_cl else "hi"),
            "rl": self._window_utility("hi" if self._lo_is_cl else "lo"),
        }
        rates = {"prev": self.x_prev, "cl": self.x_cl, "rl": self.x_rl}
        scored = {k: u for k, u in utilities.items() if u is not None}
        if scored:
            winner = max(scored, key=scored.get)
        else:
            winner = "prev"  # no feedback at all: repeat the base rate
        self.x_prev = self._rate_floor(rates[winner])
        self._recorder.event("libra.verdict", now, cycle=self.cycles,
                             winner=winner, rates=dict(rates),
                             utilities=dict(utilities),
                             new_base=self.x_prev)
        self.applied_counts[winner] += 1
        self._last_winner = winner
        self._begin_cycle(now)

    def _window_utility(self, key: str) -> float | None:
        window = self._windows.get(key)
        if window is None or window.end is None:
            return None
        if window.acked < 3:
            return None  # too few samples for a meaningful utility
        if window.end - window.start < 0.2 * self._srtt():
            return None  # window too short (early-exit exploration)
        measured = window.measure()
        if measured is None:
            return None
        throughput, gradient, loss_rate = measured
        return utility(throughput / 1e6, gradient, loss_rate,
                       self.config.utility)

    @staticmethod
    def _rate_floor(rate: float) -> float:
        return float(min(max(rate, MIN_RATE), MAX_RATE))

    # -- feedback ---------------------------------------------------------

    def on_ack(self, ack: AckSample) -> None:
        self.srtt = ack.srtt
        self.min_rtt = min(self.min_rtt, ack.min_rtt)
        self._last_ack_time = ack.now
        if self._outage:
            self._recover_from_outage(ack.now)
        self._advance(ack.now)
        for window in self._windows.values():
            if window.contains(ack.sent_time):
                window.add_ack(ack)
        if self.stage in (STARTUP, EXPLORE):
            self.classic.on_ack(ack)
            if self.stage == EXPLORE:
                self.x_cl = self._rate_floor(
                    self.classic.rate_estimate(self._srtt()))
                self._maybe_exit_explore(ack.now)

    def on_loss(self, loss: LossSample) -> None:
        self._advance(loss.now)
        for window in self._windows.values():
            if window.contains(loss.sent_time):
                window.add_loss(loss)
        if self.stage in (STARTUP, EXPLORE):
            self.classic.on_loss(loss)

    def _maybe_exit_explore(self, now: float) -> None:
        if self.policy is not None and not self._rl_updated:
            return  # wait for at least one fresh RL proposal this cycle
        threshold = self.config.th1_fraction * self.x_prev
        if abs(self.x_cl - self.x_rl) >= threshold:
            self._enter_evaluation(now)

    # -- RL component (Alg. 2) ------------------------------------------------

    def interval(self) -> float:
        return max(self.config.rl_interval_rtts * self._srtt(), 0.005)

    def on_interval(self, report: IntervalReport) -> None:
        self._check_watchdog(report.now)
        self._advance(report.now)
        min_rtt = self.min_rtt if self.min_rtt < float("inf") else self._srtt()
        measurement = measurement_from_report(report, self.x_rl, min_rtt)
        self.builder.push(measurement)
        if self.stage != EXPLORE or self.policy is None:
            return
        if not report.has_feedback:
            return  # Sec. 3: no ACKs in exploration -> keep x_rl unchanged
        if report.now < self._rl_disabled_until:
            return  # RL arm disabled after a fault; backoff still running
        try:
            state = self.builder.state()
            if not np.all(np.isfinite(state)):
                raise FloatingPointError("non-finite policy input")
            action, _, _ = self.policy.act(
                state, self.rng, deterministic=self.config.rl_deterministic)
            a = float(action[0])
            if not np.isfinite(a):
                raise FloatingPointError(f"non-finite policy action {a!r}")
        except Exception as exc:  # noqa: BLE001 — any policy fault degrades
            self._disable_rl_arm(report.now, exc)
            return
        if self._rl_consecutive_faults:
            # First successful inference after a fault bench: recovered.
            self._recorder.event("libra.rl_unbench", report.now,
                                 faults_absorbed=self._rl_consecutive_faults)
        self._rl_consecutive_faults = 0
        self.meter.count("nn_forward", self.policy.actor.flops_per_forward)
        a = float(np.clip(a, -self.config.rl_action_scale,
                          self.config.rl_action_scale))
        self.x_rl = self._clamp(self.x_rl * 2.0 ** a)
        self._rl_updated = True
        self._maybe_exit_explore(report.now)

    # -- graceful degradation ---------------------------------------------

    def rl_arm_disabled(self, now: float) -> bool:
        """Whether the RL arm is currently benched by the fault backoff."""
        return now < self._rl_disabled_until

    def _disable_rl_arm(self, now: float, exc: Exception) -> None:
        """Bench the RL arm; re-enable with exponential backoff."""
        self.rl_fault_count += 1
        self._rl_consecutive_faults += 1
        backoff = min(
            self.config.rl_backoff_initial
            * 2.0 ** (self._rl_consecutive_faults - 1),
            self.config.rl_backoff_max)
        self._rl_disabled_until = now + backoff
        self._recorder.event("libra.rl_bench", now,
                             fault=repr(exc), backoff=backoff,
                             until=self._rl_disabled_until,
                             consecutive=self._rl_consecutive_faults)
        if not self._rl_fault_logged:
            self._rl_fault_logged = True
            log.warning(
                "libra: RL inference failed (%s); disabling the RL arm for "
                "%.2fs (exponential backoff; further faults logged at DEBUG)",
                exc, backoff)
        else:
            log.debug("libra: RL fault #%d (%s); arm disabled for %.2fs",
                      self.rl_fault_count, exc, backoff)

    def _watchdog_timeout(self) -> float:
        """RTO-style no-ACK bound: generous multiples of srtt, floored so
        low-rate flows (one MSS can take >100 ms at the probe floor) do
        not self-trigger."""
        packet_time = self.mss * 8.0 / max(self.pacing_rate(), MIN_RATE)
        return max(self.config.watchdog_rtts * self._srtt(),
                   self.config.watchdog_min, 4.0 * packet_time)

    def _check_watchdog(self, now: float) -> None:
        if self._outage or self.stage == STARTUP:
            return
        if now - self._last_ack_time < self._watchdog_timeout():
            return
        self._outage = True
        self.outage_count += 1
        self._saved_x_prev = self.x_prev
        self._recorder.event("libra.watchdog", now, phase="freeze",
                             last_ack=self._last_ack_time,
                             saved_base=self._saved_x_prev)
        self._log(now)
        log.debug("libra: no-ACK watchdog fired at t=%.3f (last ACK %.3f); "
                  "probing conservatively", now, self._last_ack_time)

    def _recover_from_outage(self, now: float) -> None:
        """First ACK after an outage: restore the pre-outage base rate."""
        self._outage = False
        self.x_prev = self._rate_floor(self._saved_x_prev)
        self._recorder.event("libra.watchdog", now, phase="recover",
                             restored_base=self.x_prev)
        # Seed the classic CCA back at the restored rate (regardless of
        # which candidate won last) and start a fresh cycle.
        self._last_winner = "prev"
        self._begin_cycle(now)

    # -- decisions ---------------------------------------------------------

    def pacing_rate(self) -> float:
        if self._outage:
            # Conservative probe during a detected outage: keep a trickle
            # flowing so the first post-blackout ACK arrives promptly.
            return MIN_RATE
        if self.stage in (STARTUP, EXPLORE):
            return self._rate_floor(self.classic.rate_estimate(self._srtt()))
        if self.stage == EVAL_LOW:
            return self._eval_lo
        if self.stage == EVAL_HIGH:
            return self._eval_hi
        return self.x_prev

    def cwnd(self) -> float:
        if self.stage in (STARTUP, EXPLORE) and not self._outage:
            classic_cwnd = self.classic.cwnd()
            if classic_cwnd is not None:
                return classic_cwnd
        # Safety cap: at most two rate*RTT worth of inflight data.
        return max(2.0 * self.pacing_rate() * self._srtt() / 8.0,
                   4.0 * self.mss)

    def applied_fractions(self) -> dict[str, float]:
        """Fig. 17: the fraction of cycles each candidate rate won."""
        total = max(sum(self.applied_counts.values()), 1)
        return {k: v / total for k, v in self.applied_counts.items()}
