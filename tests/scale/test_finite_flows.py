"""Finite-size flows: budget gates, FIN semantics, loss completion."""

import dataclasses

import pytest

from repro.parallel.jobs import FlowSpec, Job, single_flow_job
from repro.sanitize.diff import diff_results, metric_fingerprint
from repro.scenarios.presets import named_presets

PRESETS = named_presets()
WIRED = PRESETS["wired-12"]


def run_finite(nbytes, cca="cubic", scenario=WIRED, duration=20.0,
               sanitize=True, **extra_flows):
    job = Job(scenario=scenario,
              flows=(FlowSpec.make(cca, bytes=nbytes),),
              seed=3, duration=duration, sanitize=1 if sanitize else 0)
    return job.run()


class TestFinSemantics:
    def test_flow_fins_at_budget(self):
        result = run_finite(600_000.0)
        stats = result.flows[0]
        assert stats.completed
        assert stats.fin_time is not None
        assert 0.0 < stats.fin_time < 20.0
        # FIN == all budgeted bytes acknowledged; receiver-side delivery
        # is at least the budget (the last packet may straddle it).
        assert stats.delivered_bytes >= 600_000.0
        assert stats.acked_packets * 1500 >= 600_000.0

    def test_fct_is_fin_minus_start(self):
        result = run_finite(600_000.0)
        stats = result.flows[0]
        assert stats.fct == pytest.approx(stats.fin_time - stats.start_time)
        # end_time freezes at the FIN, not the horizon
        assert stats.end_time == stats.fin_time

    def test_unbounded_flow_never_fins(self):
        result = run_finite(None)
        stats = result.flows[0]
        assert not stats.completed
        assert stats.fct is None
        assert stats.end_time == pytest.approx(20.0)

    def test_budget_never_overshoots_one_packet(self):
        result = run_finite(90_000.0)
        stats = result.flows[0]
        # zero loss on the clean link: sent == budget packets exactly
        assert stats.sent_packets == 60
        assert stats.lost_packets == 0

    def test_horizon_truncates_without_fin(self):
        result = run_finite(50_000_000.0, duration=2.0)
        stats = result.flows[0]
        assert not stats.completed
        assert stats.flow_bytes == 50_000_000.0

    def test_scheduled_stop_does_not_overwrite_fin(self):
        job = Job(scenario=WIRED,
                  flows=(FlowSpec.make("cubic", bytes=300_000.0, stop=10.0),),
                  seed=3, duration=20.0, sanitize=1)
        stats = job.run().flows[0]
        assert stats.completed
        assert stats.end_time == stats.fin_time < 10.0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            run_finite(-1.0)
        with pytest.raises(ValueError):
            run_finite(0.0)


class TestLossCompletion:
    """Lost packets free budget for replacement sends (retransmission
    emulation), so finite flows complete under loss — on both engines."""

    @pytest.mark.parametrize("cca", ["cubic", "reno", "vivace", "bbr"])
    def test_completes_under_heavy_loss(self, cca):
        lossy = WIRED.with_(loss_rate=0.15, name="lossy")
        job = Job(scenario=lossy,
                  flows=(FlowSpec.make(cca, bytes=400_000.0),),
                  seed=7, duration=120.0, sanitize=1)
        stats = job.run().flows[0]
        assert stats.completed, (stats.sent_packets, stats.acked_packets,
                                 stats.lost_packets)
        assert stats.lost_packets > 0
        # every lost packet was replaced: acked bytes cover the budget
        assert stats.acked_packets * 1500 >= 400_000.0

    def test_engines_identical_under_loss(self):
        lossy = WIRED.with_(loss_rate=0.1, name="lossy")
        flows = (FlowSpec.make("cubic", bytes=500_000.0),
                 FlowSpec.make("reno", seed=5, start=0.5, bytes=300_000.0))
        job = Job(scenario=lossy, flows=flows, seed=9, duration=90.0)
        ref = job.run(reference=True)
        bat = job.run()
        assert ref.engine_used == "reference"
        assert bat.engine_used == "batched"
        diff_results(ref, bat, mode="engine", label_a="ref",
                     label_b="bat").raise_if_unequal()


class TestFingerprint:
    def test_fin_time_in_fingerprint(self):
        result = run_finite(600_000.0)
        fp = metric_fingerprint(result)
        assert fp["flow0.fin_time"] == result.flows[0].fin_time

    def test_unbounded_fin_is_nan_and_compares_equal(self):
        import math

        result = run_finite(None, duration=4.0)
        fp = metric_fingerprint(result)
        assert math.isnan(fp["flow0.fin_time"])
        result2 = run_finite(None, duration=4.0)
        diff_results(result, result2, mode="custom", label_a="a",
                     label_b="b").raise_if_unequal()


class TestSanitizerBudget:
    def test_sanitizer_passes_on_finite_flows(self):
        from repro.sanitize.invariants import SimSanitizer, activate

        with activate(SimSanitizer()) as sanitizer:
            job = Job(scenario=WIRED,
                      flows=(FlowSpec.make("cubic", bytes=400_000.0),
                             FlowSpec.make("bbr", seed=4, start=0.5,
                                           bytes=200_000.0)),
                      seed=5, duration=20.0)
            job.run()
        assert sanitizer.audits > 0
        assert sanitizer.violations == 0

    def test_sanitizer_catches_budget_breach(self):
        from repro.sanitize.errors import InvariantViolation
        from repro.sanitize.invariants import SimSanitizer

        class FakeLoop:
            now = 1.0

        class FakeStats:
            sent_packets = 2
            acked_packets = 1
            lost_packets = 0
            delivered_bytes = 1500.0

        class FakeSender:
            flow_id = 0
            loop = FakeLoop()
            stats = FakeStats()
            outstanding = {7: (0.5, 1500, 0.0, 0)}
            inflight_bytes = 1500.0
            delivered_bytes = 100_000.0   # acked way past the budget
            flow_bytes = 3_000.0
            mss = 1500
            _finished = False
            _running = True

        with pytest.raises(InvariantViolation, match="flow_budget"):
            SimSanitizer().audit_flow(FakeSender())

    def test_sanitizer_catches_premature_fin(self):
        from repro.sanitize.errors import InvariantViolation
        from repro.sanitize.invariants import SimSanitizer

        class FakeLoop:
            now = 1.0

        class FakeStats:
            sent_packets = 1
            acked_packets = 1
            lost_packets = 0
            delivered_bytes = 1500.0

        class FakeSender:
            flow_id = 0
            loop = FakeLoop()
            stats = FakeStats()
            outstanding = {}
            inflight_bytes = 0.0
            delivered_bytes = 1500.0
            flow_bytes = 30_000.0
            mss = 1500
            _finished = True              # claims FIN with bytes missing
            _running = False

        with pytest.raises(InvariantViolation, match="flow_fin"):
            SimSanitizer().audit_flow(FakeSender())


class TestJobPlumbing:
    def test_flowspec_carries_bytes_and_traced(self):
        spec = FlowSpec.make("cubic", bytes=1000.0, traced=False)
        assert spec.bytes == 1000.0
        assert spec.traced == 0
        default = FlowSpec.make("cubic")
        assert default.bytes is None
        assert default.traced == 1

    def test_untraced_flows_skip_dense_telemetry(self):
        flows = (FlowSpec.make("cubic", bytes=400_000.0, traced=True),
                 FlowSpec.make("cubic", seed=4, bytes=400_000.0,
                               traced=False))
        job = Job(scenario=WIRED, flows=flows, seed=5,
                  duration=10.0).with_telemetry()
        result = job.run()
        tel = result.telemetry
        assert tel is not None
        names = tel.series_names()
        assert any(n.startswith("flow0.") for n in names)
        assert not any(n.startswith("flow1.") for n in names)
        assert "link.active_flows" in names
        assert tel.meta["flows_traced"] == 1

    def test_telemetry_meta_counts_completions(self):
        job = single_flow_job("cubic", WIRED, seed=3, duration=20.0,
                              telemetry=True)
        job = dataclasses.replace(
            job, flows=(FlowSpec.make("cubic", bytes=300_000.0),))
        result = job.run()
        assert result.telemetry.meta["flows_completed"] == 1
