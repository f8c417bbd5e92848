"""Tests for the Libra three-stage controller (Alg. 1)."""

import numpy as np
import pytest

from repro.cca.cubic import Cubic
from repro.core.config import LibraConfig, bbr_config, cubic_config
from repro.core.libra import (EVAL_HIGH, EVAL_LOW, EXPLOIT, EXPLORE,
                              MIN_RATE, LibraController, STARTUP)
from repro.simnet.network import Dumbbell
from repro.simnet.packet import AckSample, IntervalReport, LossSample
from repro.simnet.trace import wired_trace
from repro.units import mbps


def _ack(now, rtt=0.05, sent_time=None, acked=1500):
    return AckSample(now=now, seq=0, rtt=rtt, min_rtt=rtt, srtt=rtt,
                     acked_bytes=acked, delivery_rate=0.0, inflight_bytes=0.0,
                     sent_time=sent_time if sent_time is not None else now - rtt)


def _report(now, duration=0.05, throughput=10e6, acked=10):
    return IntervalReport(now=now, duration=duration, throughput=throughput,
                          send_rate=throughput, avg_rtt=0.05, min_rtt=0.05,
                          rtt_gradient=0.0, loss_rate=0.0,
                          acked_packets=acked, lost_packets=0,
                          sent_packets=acked)


def _libra(config=None, policy=None):
    controller = LibraController(Cubic(), policy=policy,
                                 config=config or LibraConfig())
    controller.start(0.0, 1500)
    return controller


class _StubActor:
    flops_per_forward = 100


class _FaultyPolicy:
    """Raises on the first ``fail_times`` calls, then acts normally."""

    def __init__(self, fail_times=10**9, action=0.1):
        self.fail_times = fail_times
        self.calls = 0
        self.action = action
        self.actor = _StubActor()

    def act(self, state, rng, deterministic=False):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise RuntimeError("policy exploded")
        return np.array([self.action]), None, None


class _NanPolicy:
    def __init__(self):
        self.actor = _StubActor()

    def act(self, state, rng, deterministic=False):
        return np.array([float("nan")]), None, None


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LibraConfig(explore_rtts=0.0)
        with pytest.raises(ValueError):
            LibraConfig(rl_history=0)

    def test_bbr_defaults_longer_stages(self):
        cfg = bbr_config()
        assert cfg.explore_rtts == 3.0
        assert cfg.exploit_rtts == 3.0
        assert cubic_config().explore_rtts == 1.0


class TestStageMachine:
    def test_starts_in_startup(self):
        libra = _libra()
        assert libra.stage == STARTUP

    def test_startup_passes_through_to_classic(self):
        libra = _libra()
        before = libra.classic.cwnd()
        libra.on_ack(_ack(0.05))
        assert libra.classic.cwnd() > before

    def test_full_cycle_progression(self):
        cfg = LibraConfig(startup_rtts=2.0)
        libra = _libra(cfg)
        seen = []
        t = 0.0
        for _ in range(400):
            t += 0.01
            libra.on_ack(_ack(t))
            seen.append(libra.stage)
        for stage in (EXPLORE, EVAL_LOW, EVAL_HIGH, EXPLOIT):
            assert stage in seen
        assert libra.cycles >= 2

    def test_pacing_rate_per_stage(self):
        cfg = LibraConfig(startup_rtts=1.0)
        libra = _libra(cfg)
        t = 0.0
        checked = set()
        for _ in range(400):
            t += 0.01
            libra.on_ack(_ack(t))
            if libra.stage == EVAL_LOW:
                assert libra.pacing_rate() == pytest.approx(libra._eval_lo)
            elif libra.stage == EVAL_HIGH:
                assert libra.pacing_rate() == pytest.approx(libra._eval_hi)
            elif libra.stage == EXPLOIT:
                assert libra.pacing_rate() == pytest.approx(libra.x_prev)
            checked.add(libra.stage)
        assert {EVAL_LOW, EVAL_HIGH, EXPLOIT} <= checked


class TestEvaluationOrder:
    def test_lower_rate_first(self):
        """Sec. 4.1: the lower candidate is always evaluated first."""
        libra = _libra(LibraConfig(startup_rtts=1.0))
        t = 0.0
        for _ in range(600):
            t += 0.01
            libra.on_ack(_ack(t))
            if libra.stage in (EVAL_LOW, EVAL_HIGH):
                assert libra._eval_lo <= libra._eval_hi


class TestWinnerSelection:
    def test_winner_has_max_utility(self):
        libra = _libra(LibraConfig(startup_rtts=1.0))
        t = 0.0
        for _ in range(800):
            t += 0.01
            libra.on_ack(_ack(t))
        counts = libra.applied_counts
        assert sum(counts.values()) == libra.cycles - 1 or \
               sum(counts.values()) == libra.cycles

    def test_fractions_sum_to_one(self):
        libra = _libra(LibraConfig(startup_rtts=1.0))
        t = 0.0
        for _ in range(800):
            t += 0.01
            libra.on_ack(_ack(t))
        fractions = libra.applied_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)


class TestNoAckHandling:
    def test_silent_cycle_falls_back_to_x_prev(self):
        """Sec. 3: without feedback the base rate repeats."""
        libra = _libra(LibraConfig(startup_rtts=1.0))
        t = 0.0
        for _ in range(50):
            t += 0.01
            libra.on_ack(_ack(t))
        base = libra.x_prev
        # Drive stage transitions with empty interval reports only.
        from repro.simnet.packet import IntervalReport
        for i in range(40):
            t += 0.05
            report = IntervalReport(now=t, duration=0.05, throughput=0.0,
                                    send_rate=0.0, avg_rtt=0.0, min_rtt=0.05,
                                    rtt_gradient=0.0, loss_rate=0.0,
                                    acked_packets=0, lost_packets=0,
                                    sent_packets=0)
            libra.on_interval(report)
        assert libra.x_prev == pytest.approx(base)


class TestNoAckRlHandling:
    def test_silent_interval_keeps_x_rl_and_skips_policy(self):
        """Sec. 3: an exploration MI without ACKs must not move x_rl."""
        policy = _FaultyPolicy(fail_times=0, action=0.5)
        libra = _libra(LibraConfig(startup_rtts=1.0, explore_rtts=1000.0,
                                   watchdog_min=1000.0), policy=policy)
        t = 0.0
        while libra.stage != EXPLORE:
            t += 0.01
            libra.on_ack(_ack(t))
        before = libra.x_rl
        libra.on_interval(_report(t + 0.01, acked=0, throughput=0.0))
        assert libra.x_rl == before
        assert policy.calls == 0
        # a fed interval does move it
        libra.on_interval(_report(t + 0.02))
        assert policy.calls == 1
        assert libra.x_rl != before


def _rl_config(**overrides):
    base = dict(startup_rtts=1.0, explore_rtts=1000.0, watchdog_min=1000.0,
                rl_backoff_initial=1.0, rl_backoff_max=4.0)
    base.update(overrides)
    return LibraConfig(**base)


def _drive_to_explore(libra):
    t = 0.0
    while libra.stage != EXPLORE:
        t += 0.01
        libra.on_ack(_ack(t))
    return t


class TestPolicyFaultGuard:
    def test_exception_disables_rl_arm(self, caplog):
        policy = _FaultyPolicy()
        libra = _libra(_rl_config(), policy=policy)
        t = _drive_to_explore(libra)
        with caplog.at_level("WARNING", logger="repro.core.libra"):
            libra.on_interval(_report(t + 0.01))
        assert libra.rl_fault_count == 1
        assert libra.rl_arm_disabled(t + 0.02)
        assert not libra.rl_arm_disabled(t + 5.0)
        assert any("disabling the RL arm" in r.getMessage()
                   for r in caplog.records)

    def test_disabled_arm_skips_inference(self):
        policy = _FaultyPolicy()
        libra = _libra(_rl_config(), policy=policy)
        t = _drive_to_explore(libra)
        libra.on_interval(_report(t + 0.01))
        for dt in (0.1, 0.3, 0.5):   # all inside the 1 s backoff
            libra.on_interval(_report(t + 0.01 + dt))
        assert policy.calls == 1
        assert libra.rl_fault_count == 1

    def test_backoff_doubles_then_caps(self):
        policy = _FaultyPolicy()
        libra = _libra(_rl_config(), policy=policy)
        t = _drive_to_explore(libra)
        expected = [1.0, 2.0, 4.0, 4.0]   # initial=1, max=4
        now = t
        for backoff in expected:
            now = max(now + 0.01, libra._rl_disabled_until + 0.01)
            libra.on_interval(_report(now))
            assert libra._rl_disabled_until == pytest.approx(now + backoff)
        assert libra.rl_fault_count == len(expected)

    def test_nan_action_treated_as_fault(self):
        libra = _libra(_rl_config(), policy=_NanPolicy())
        t = _drive_to_explore(libra)
        before = libra.x_rl
        libra.on_interval(_report(t + 0.01))
        assert libra.rl_fault_count == 1
        assert libra.x_rl == before

    def test_transient_fault_recovers_after_backoff(self):
        policy = _FaultyPolicy(fail_times=1, action=0.5)
        libra = _libra(_rl_config(), policy=policy)
        t = _drive_to_explore(libra)
        before = libra.x_rl
        libra.on_interval(_report(t + 0.01))
        assert libra.rl_fault_count == 1
        # past the backoff the arm re-enables and inference succeeds
        t2 = libra._rl_disabled_until + 0.01
        libra.on_interval(_report(t2))
        assert policy.calls == 2
        assert libra.x_rl != before
        assert libra._rl_consecutive_faults == 0
        assert libra.meter.counts["nn_forward"] > 0

    def test_without_faults_policy_runs_normally(self):
        policy = _FaultyPolicy(fail_times=0, action=0.25)
        libra = _libra(_rl_config(), policy=policy)
        t = _drive_to_explore(libra)
        libra.on_interval(_report(t + 0.01))
        assert libra.rl_fault_count == 0
        assert not libra.rl_arm_disabled(t + 0.02)


class TestNoAckWatchdog:
    def test_outage_detected_and_recovered(self):
        libra = _libra(LibraConfig(startup_rtts=1.0))
        t = 0.0
        for _ in range(100):
            t += 0.01
            libra.on_ack(_ack(t))
        base = libra.x_prev
        assert not libra._outage
        # a long silence (>> watchdog timeout) hits the watchdog
        t_out = t + 2.0
        libra.on_interval(_report(t_out, acked=0, throughput=0.0))
        assert libra._outage
        assert libra.outage_count == 1
        assert libra.pacing_rate() == MIN_RATE
        # more silent intervals neither re-fire nor advance the stages
        stage = libra.stage
        libra.on_interval(_report(t_out + 1.0, acked=0, throughput=0.0))
        assert libra.outage_count == 1 and libra.stage == stage
        # the first ACK after restoration recovers the saved base rate
        libra.on_ack(_ack(t_out + 2.0))
        assert not libra._outage
        assert libra.x_prev == pytest.approx(base)
        assert libra.stage == EXPLORE

    def test_watchdog_quiet_during_startup(self):
        libra = _libra()
        libra.on_interval(_report(5.0, acked=0, throughput=0.0))
        assert not libra._outage
        assert libra.outage_count == 0

    def test_watchdog_respects_min_timeout(self):
        libra = _libra(LibraConfig(startup_rtts=1.0, watchdog_min=10.0))
        t = 0.0
        for _ in range(100):
            t += 0.01
            libra.on_ack(_ack(t))
        libra.on_interval(_report(t + 2.0, acked=0, throughput=0.0))
        assert not libra._outage


class TestLossForwarding:
    def test_losses_reach_classic_in_explore(self):
        libra = _libra(LibraConfig(startup_rtts=1.0))
        t = 0.0
        for _ in range(60):
            t += 0.01
            libra.on_ack(_ack(t))
        libra.classic.cwnd_bytes = 100 * 1500
        libra.classic.ssthresh = 1.0
        while libra.stage != EXPLORE:
            t += 0.01
            libra.on_ack(_ack(t))
        before = libra.classic.cwnd_bytes
        libra.on_loss(LossSample(now=t, seq=1, lost_bytes=1500,
                                 sent_time=t - 0.05, inflight_bytes=0.0))
        assert libra.classic.cwnd_bytes < before


class TestIntegration:
    def test_beats_cubic_delay_on_shallow_buffer(self):
        from repro.core.factory import make_c_libra

        def run(controller):
            net = Dumbbell(wired_trace(24), buffer_bytes=150_000, rtt=0.03,
                           seed=1)
            net.add_flow(controller)
            return net.run(10.0)

        libra_run = run(make_c_libra(seed=1))
        cubic_run = run(Cubic())
        assert libra_run.flows[0].avg_rtt_ms < cubic_run.flows[0].avg_rtt_ms
        assert libra_run.utilization > 0.8

    def test_without_policy_still_works(self):
        net = Dumbbell(wired_trace(24), buffer_bytes=150_000, rtt=0.03, seed=1)
        net.add_flow(LibraController(Cubic(), policy=None))
        result = net.run(8.0)
        assert result.utilization > 0.7

    def test_nn_metered_only_with_policy(self):
        from repro.core.factory import make_c_libra
        net = Dumbbell(wired_trace(24), buffer_bytes=150_000, rtt=0.03, seed=1)
        controller = make_c_libra(seed=1)
        net.add_flow(controller)
        net.run(6.0)
        assert controller.meter.counts["nn_forward"] > 0

    def test_stage_events_populate(self):
        from repro.core.factory import make_c_libra
        from repro.telemetry import Recorder
        recorder = Recorder()
        net = Dumbbell(wired_trace(24), buffer_bytes=150_000, rtt=0.03, seed=1,
                       recorder=recorder)
        net.add_flow(make_c_libra(seed=1))
        net.run(4.0)
        stages = {e.fields["stage"] for e in recorder.events("libra.stage")}
        assert "explore" in stages and "exploit" in stages
