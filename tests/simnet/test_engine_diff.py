"""Differential oracle for the batched engine, and its selection.

Every run takes the batched engine wherever it is exact, so a speedup
from it is only meaningful if it computes the *same run* as the
reference engine.  These tests drive ``repro diff --mode engine``
(exact tolerance) across the tier-1 preset families: plain wired, a
trace-driven cellular preset, and the two in-envelope fault profiles.
A preset outside the batched envelope must fall back to the reference
engine and still match.  They also pin which presets run batched, and
that traced runs and controllers that keep their feedback see the same
stream on both engines.
"""

import dataclasses

import numpy as np
import pytest

from repro.cca.cubic import Cubic
from repro.parallel import single_flow_job
from repro.sanitize.diff import run_diff
from repro.scenarios.presets import named_presets


def _job(scenario, cca="cubic", seed=11, duration=5.0):
    return single_flow_job(cca, named_presets()[scenario], seed=seed,
                           duration=duration)


class TestEngineDiffExact:
    @pytest.mark.parametrize("scenario", ["wired-12", "wired-48"])
    def test_wired_presets_match_exactly(self, scenario):
        report = run_diff(_job(scenario), mode="engine")
        assert report.equal, report.discrepancies
        assert any("engine=batched" in n for n in report.notes)

    def test_faulted_blackout_matches_exactly(self):
        report = run_diff(_job("stress-blackout", duration=6.0),
                          mode="engine")
        assert report.equal, report.discrepancies
        assert any("engine=batched" in n for n in report.notes)

    def test_faulted_burst_loss_matches_exactly(self):
        report = run_diff(_job("stress-burst-loss", duration=6.0),
                          mode="engine")
        assert report.equal, report.discrepancies
        assert any("engine=batched" in n for n in report.notes)

    def test_mi_controller_under_burst_loss_matches_exactly(self):
        # c-libra drives a monitor-interval timer whose ticks can land
        # bit-exactly on an ACK's arrival time; the reference resolves
        # that tie by event push order (MI timer first), which the fused
        # delivery+ACK commit used to invert.  Pins the two-stage pipe.
        report = run_diff(_job("stress-burst-loss", cca="c-libra",
                               duration=6.0), mode="engine")
        assert report.equal, report.discrepancies
        assert any("engine=batched" in n for n in report.notes)

    def test_trace_driven_preset_matches_exactly(self):
        report = run_diff(_job("lte-stationary", duration=4.0),
                          mode="engine")
        assert report.equal, report.discrepancies

    def test_multiple_ccas_match_on_wired(self):
        for cca in ("reno", "bbr"):
            report = run_diff(_job("wired-24", cca=cca, duration=4.0),
                              mode="engine")
            assert report.equal, (cca, report.discrepancies)


class TestEngineFallback:
    def test_out_of_envelope_fault_falls_back_and_matches(self):
        # Reordering faults are outside the batched envelope: the run
        # must silently use the reference engine and still be identical.
        report = run_diff(_job("stress-reorder", duration=4.0),
                          mode="engine")
        assert report.equal, report.discrepancies
        assert any("engine=reference" in n for n in report.notes)
        assert any("outside the batched envelope" in n
                   for n in report.notes)


#: presets whose fault schedules act on packets after the batched
#: link's commit point (ACK faults, delay spikes, reordering), and a
#: CoDel bottleneck, whose drops depend on sojourn at dequeue
OUTSIDE_ENVELOPE = {"stress-ack-storm", "stress-delay-spike",
                    "stress-pathological", "stress-reorder", "codel"}
SELECTION_CASES = {
    **named_presets(),
    "codel": dataclasses.replace(named_presets()["wired-12"], aqm="codel"),
}


class TestEngineSelection:
    @pytest.mark.parametrize("name", sorted(SELECTION_CASES))
    def test_presets_run_batched_inside_the_envelope(self, name):
        job = single_flow_job("cubic", SELECTION_CASES[name], seed=11,
                              duration=0.3)
        expected = "reference" if name in OUTSIDE_ENVELOPE else "batched"
        assert job.run().engine_used == expected


class TestEngineStreams:
    def test_traced_libra_telemetry_matches(self):
        """Traced runs take the batched engine by default: every series
        and event must be what the reference records."""
        job = _job("lte-driving", cca="c-libra", duration=4.0)
        job = job.with_telemetry()
        ref = job.run(reference=True)
        bat = job.run()
        assert bat.engine_used == "batched"
        tel_ref, tel_bat = ref.telemetry, bat.telemetry
        assert tel_ref.series_names() == tel_bat.series_names()
        for name in tel_ref.series_names():
            t_ref, v_ref = tel_ref.samples(name)
            t_bat, v_bat = tel_bat.samples(name)
            assert np.array_equal(t_ref, t_bat), name
            assert np.array_equal(v_ref, v_bat, equal_nan=True), name
        assert tel_ref.event_kinds() == tel_bat.event_kinds()
        assert tel_ref.events_of("libra.stage"), "no stage events"
        for kind in tel_ref.event_kinds():
            assert tel_ref.events_of(kind) == tel_bat.events_of(kind), kind

    def test_kept_ack_samples_match(self):
        """A controller that keeps every AckSample it is handed sees the
        same sequence on both engines, one distinct sample per ACK."""

        class KeepingCubic(Cubic):
            def __init__(self):
                super().__init__()
                self.kept = []

            def on_ack(self, ack):
                self.kept.append(ack)
                super().on_ack(ack)

        streams = []
        for reference in (True, False):
            net = named_presets()["wired-24"].build(seed=2,
                                                    reference=reference)
            controller = KeepingCubic()
            net.add_flow(controller)
            assert net.run(2.0).engine_used == \
                ("reference" if reference else "batched")
            streams.append([dataclasses.astuple(a) for a in controller.kept])
        ref, bat = streams
        assert len(ref) > 100
        assert len({a[1] for a in bat}) == len(bat)  # one entry per seq
        assert ref == bat
