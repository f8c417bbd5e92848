"""End-to-end telemetry through the simulator, Libra, pool and cache.

Carries the PR's acceptance assertions: a traced C-Libra LTE run emits
at least one stage-transition event per control cycle, and every
per-cycle utility verdict's winning rate (after the rate floor) equals
the base rate the next cycle starts from.
"""

import pickle

import pytest

from repro.core.libra import LibraController
from repro.parallel import (ResultCache, has_fork, job_key, run_jobs,
                            single_flow_job)
from repro.scenarios.presets import LTE, WIRED, stress_scenario
from repro.telemetry import SCHEMA_VERSION

needs_fork = pytest.mark.skipif(not has_fork(),
                                reason="platform lacks fork start method")


@pytest.fixture(scope="module")
def libra_trace():
    """One traced C-Libra run on the stationary LTE scenario."""
    job = single_flow_job("c-libra", LTE["lte-stationary"], seed=1,
                          duration=8.0, telemetry=True)
    result = job.run()
    assert result.telemetry is not None
    return result.telemetry


class TestTracedRun:
    def test_series_and_link_channels(self):
        job = single_flow_job("cubic", WIRED["wired-24"], seed=1,
                              duration=3.0, telemetry=True)
        tel = job.run().telemetry
        names = tel.series_names()
        for expected in ("flow0.rate", "flow0.srtt", "flow0.cwnd",
                         "flow0.inflight", "flow0.throughput",
                         "flow0.loss_rate", "link.queue_bytes",
                         "link.served_bytes", "link.dropped_packets"):
            assert expected in names
            assert len(tel.samples(expected)[0]) > 0
        # a 150 KB droptail buffer on 24 Mbps sees drops in 3 s of cubic
        assert tel.events_of("link.drop")
        assert tel.meta["duration"] == 3.0
        assert tel.meta["events_processed"] > 0

    def test_untraced_run_has_no_telemetry(self):
        job = single_flow_job("cubic", WIRED["wired-24"], seed=1,
                              duration=2.0)
        assert job.run().telemetry is None


class TestLibraAcceptance:
    def test_stage_event_per_cycle(self, libra_trace):
        stages = libra_trace.events_of("libra.stage")
        assert stages
        cycles = {e.fields["cycle"] for e in stages}
        last = max(cycles)
        assert last >= 5  # an 8 s LTE run spans many control cycles
        # every cycle between the first and last logged one has >= 1 event
        assert cycles.issuperset(range(min(cycles), last + 1))

    def test_verdict_winner_becomes_next_base(self, libra_trace):
        verdicts = libra_trace.events_of("libra.verdict")
        assert verdicts
        explores = {e.fields["cycle"]: e
                    for e in libra_trace.events_of("libra.stage")
                    if e.fields["stage"] == "explore"}
        chained = 0
        for v in verdicts:
            fields = v.fields
            assert fields["winner"] in fields["rates"]
            assert set(fields["rates"]) == set(fields["utilities"])
            floored = LibraController._rate_floor(
                fields["rates"][fields["winner"]])
            assert fields["new_base"] == pytest.approx(floored)
            nxt = explores.get(fields["cycle"] + 1)
            if nxt is not None:
                assert nxt.fields["base"] == pytest.approx(fields["new_base"])
                chained += 1
        assert chained >= 5


class TestFaultEvents:
    def test_blackout_and_ge_transitions_recorded(self):
        job = single_flow_job("cubic", stress_scenario("pathological"),
                              seed=3, telemetry=True)
        tel = job.run().telemetry
        blackouts = tel.events_of("fault.blackout")
        assert len(blackouts) == 1
        assert blackouts[0].fields["duration"] == pytest.approx(1.5)
        # the Gilbert-Elliott chain enters its bad state at least once
        ge = tel.events_of("fault.ge_state")
        assert any(e.fields["bad"] for e in ge)


class TestPoolAndCache:
    def test_job_key_is_schema_versioned(self):
        plain = single_flow_job("cubic", WIRED["wired-24"], seed=1,
                                duration=2.0)
        traced = plain.with_telemetry()
        assert traced.telemetry == SCHEMA_VERSION
        assert job_key(plain) != job_key(traced)
        assert traced.with_telemetry(False) == plain

    def test_cache_roundtrip_preserves_telemetry(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        job = single_flow_job("cubic", WIRED["wired-24"], seed=1,
                              duration=2.0, telemetry=True)
        [first] = run_jobs([job], workers=1, cache=cache)
        assert not first.cached and first.result.telemetry.sample_count > 0
        [second] = run_jobs([job], workers=1, cache=cache)
        assert second.cached
        assert second.result.telemetry.summary() == \
            first.result.telemetry.summary()

    @needs_fork
    def test_telemetry_crosses_fork_pool(self):
        jobs = [single_flow_job("cubic", WIRED["wired-24"], seed=s,
                                duration=2.0, telemetry=True)
                for s in (1, 2)]
        results = run_jobs(jobs, workers=2)
        for jr in results:
            tel = jr.result.telemetry
            assert tel is not None and tel.sample_count > 0
            pickle.loads(pickle.dumps(tel))
