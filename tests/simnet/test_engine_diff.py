"""Differential oracle for the batched engine.

A speedup from the batched engine is only meaningful if it computes the
*same run* as the reference engine.  These tests drive ``repro diff
--mode engine`` (exact tolerance) across the tier-1 preset families:
plain wired, a trace-driven cellular preset, and the two in-envelope
fault profiles.  A preset outside the batched envelope must fall back
to the reference engine and still match.
"""

import pytest

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
