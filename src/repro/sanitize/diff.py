"""Differential oracle: one job, two configurations, identical metrics.

The repo's execution guarantees are strong — fork-pool results are
byte-identical to serial ones, and telemetry must never perturb the run
it observes.  This module makes those guarantees *checkable*: it runs
the same :class:`~repro.parallel.jobs.Job` under two configurations,
reduces each :class:`~repro.simnet.network.RunResult` to a metric
fingerprint, and asserts the fingerprints agree within a tolerance
(default ``0.0`` — exact, because the guarantees are exact).

Built-in modes (``repro diff --mode ...``):

- ``fork`` — in-process serial execution vs. one fork-pool child;
- ``telemetry`` — telemetry off vs. on (same seeds, recorder attached);
- ``sanitize`` — sanitizers off vs. on (checks must observe, not perturb);
- ``engine`` — reference event-per-hop core vs. the batched fast path
  (:mod:`repro.simnet.batched`), at exact tolerance: the batched engine
  claims bit-identical results, and this is the oracle that holds it to
  that claim.

:func:`diff_jobs` compares two arbitrary jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: fingerprint fields whose disagreement we report per flow
_FLOW_FIELDS = ("delivered_bytes", "sent_packets", "acked_packets",
                "lost_packets", "rtt_sum", "rtt_count", "min_rtt", "max_rtt")

#: run-level fingerprint fields
_RUN_FIELDS = ("duration", "link_served_bytes", "link_capacity_bytes",
               "link_dropped_packets", "link_random_drops")


def metric_fingerprint(result) -> dict:
    """Reduce a :class:`RunResult` to a flat {metric: number} dict.

    Only run-semantics metrics participate — telemetry artifacts,
    controller objects and service logs are observability payloads, not
    results, so the ``telemetry`` mode compares what must be invariant.
    """
    fp = {}
    for name in _RUN_FIELDS:
        fp[name] = float(getattr(result, name))
    for stats in result.flows:
        prefix = f"flow{stats.flow_id}."
        for name in _FLOW_FIELDS:
            fp[prefix + name] = float(getattr(stats, name))
        # Finite flows: the FIN stamp is run semantics (it is the FCT).
        # None maps to nan, which compare_fingerprints treats as equal
        # to nan — long-lived flows agree trivially.
        fin = stats.fin_time
        fp[prefix + "fin_time"] = float("nan") if fin is None else float(fin)
    fp["queue_samples"] = float(len(result.queue_samples))
    if result.queue_samples:
        fp["queue_bytes_sum"] = float(sum(b for _, b in result.queue_samples))
    return fp


@dataclass
class Discrepancy:
    """One fingerprint metric on which the two runs disagree."""

    metric: str
    value_a: float
    value_b: float

    def __str__(self) -> str:
        return f"{self.metric}: {self.value_a!r} != {self.value_b!r}"


@dataclass
class DiffReport:
    """Outcome of one differential comparison."""

    mode: str
    label_a: str
    label_b: str
    tolerance: float
    discrepancies: list = field(default_factory=list)
    fingerprint_a: dict = field(default_factory=dict)
    fingerprint_b: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def equal(self) -> bool:
        return not self.discrepancies

    def to_json(self) -> dict:
        return {"mode": self.mode, "a": self.label_a, "b": self.label_b,
                "tolerance": self.tolerance, "equal": self.equal,
                "metrics_compared": len(self.fingerprint_a),
                "discrepancies": [{"metric": d.metric, "a": d.value_a,
                                   "b": d.value_b}
                                  for d in self.discrepancies],
                "notes": self.notes}

    def raise_if_unequal(self) -> "DiffReport":
        if not self.equal:
            head = ", ".join(str(d) for d in self.discrepancies[:4])
            raise DifferentialMismatch(
                f"{self.label_a} vs {self.label_b} diverged on "
                f"{len(self.discrepancies)} metric(s) "
                f"(tolerance {self.tolerance}): {head}", report=self)
        return self


class DifferentialMismatch(AssertionError):
    """Two configurations of the same job produced different metrics."""

    def __init__(self, message: str, report: DiffReport | None = None):
        super().__init__(message)
        self.report = report


def compare_fingerprints(fp_a: dict, fp_b: dict,
                         tolerance: float = 0.0) -> list:
    """All metrics where the fingerprints disagree beyond ``tolerance``.

    ``tolerance`` is relative (``|a-b| <= tol * max(|a|, |b|, 1)``);
    ``0.0`` demands exact equality, which is the contract for both
    built-in modes.  A metric present in only one fingerprint is always
    a discrepancy.
    """
    discrepancies = []
    for metric in sorted(set(fp_a) | set(fp_b)):
        if metric not in fp_a or metric not in fp_b:
            discrepancies.append(Discrepancy(
                metric, fp_a.get(metric, float("nan")),
                fp_b.get(metric, float("nan"))))
            continue
        a, b = fp_a[metric], fp_b[metric]
        if a == b:  # covers inf == inf; NaN falls through to the check
            continue
        if math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                discrepancies.append(Discrepancy(metric, a, b))
            continue
        if abs(a - b) > tolerance * max(abs(a), abs(b), 1.0):
            discrepancies.append(Discrepancy(metric, a, b))
    return discrepancies


def diff_results(result_a, result_b, mode: str, label_a: str, label_b: str,
                 tolerance: float = 0.0) -> DiffReport:
    """Compare two already-executed runs."""
    fp_a = metric_fingerprint(result_a)
    fp_b = metric_fingerprint(result_b)
    return DiffReport(mode=mode, label_a=label_a, label_b=label_b,
                      tolerance=tolerance,
                      discrepancies=compare_fingerprints(fp_a, fp_b,
                                                         tolerance),
                      fingerprint_a=fp_a, fingerprint_b=fp_b)


def diff_jobs(job_a, job_b, mode: str = "custom", label_a: str = "A",
              label_b: str = "B", tolerance: float = 0.0) -> DiffReport:
    """Run two jobs in-process and compare their fingerprints."""
    return diff_results(job_a.run(), job_b.run(), mode=mode,
                        label_a=label_a, label_b=label_b,
                        tolerance=tolerance)


def run_diff(job, mode: str = "fork", tolerance: float = 0.0) -> DiffReport:
    """Execute ``job`` under two configurations selected by ``mode``."""
    if mode == "fork":
        return _diff_fork(job, tolerance)
    if mode == "telemetry":
        return _diff_telemetry(job, tolerance)
    if mode == "sanitize":
        return _diff_sanitize(job, tolerance)
    if mode == "engine":
        return _diff_engine(job, tolerance)
    raise ValueError(f"unknown diff mode {mode!r}; "
                     f"use 'fork', 'telemetry', 'sanitize' or 'engine'")


def _diff_fork(job, tolerance: float) -> DiffReport:
    """Serial in-process execution vs. one fork-pool child."""
    from ..parallel.jobs import execute
    from ..parallel.pool import has_fork, run_jobs

    serial = execute(job).result
    forked = run_jobs([job], workers=2)[0].result
    report = diff_results(serial, forked, mode="fork",
                          label_a="serial", label_b="fork",
                          tolerance=tolerance)
    if not has_fork():
        report.notes.append("fork unavailable on this platform — the "
                            "'fork' leg ran serially too")
    return report


def _diff_telemetry(job, tolerance: float) -> DiffReport:
    """Telemetry must observe the run, never perturb it."""
    from ..parallel.jobs import execute

    plain = execute(job.with_telemetry(False)).result
    traced = execute(job.with_telemetry(True)).result
    if traced.telemetry is None:
        raise RuntimeError("traced leg produced no telemetry artifact")
    return diff_results(plain, traced, mode="telemetry",
                        label_a="telemetry-off", label_b="telemetry-on",
                        tolerance=tolerance)


def _diff_sanitize(job, tolerance: float) -> DiffReport:
    """The invariant layer must observe the run, never perturb it."""
    from ..parallel.jobs import execute

    plain = execute(job.with_sanitize(False)).result
    checked = execute(job.with_sanitize(True)).result
    return diff_results(plain, checked, mode="sanitize",
                        label_a="sanitize-off", label_b="sanitize-on",
                        tolerance=tolerance)


def _diff_engine(job, tolerance: float) -> DiffReport:
    """Reference core vs. the engine a run picks by default, exact.

    Both legs run in-process from the same job: one with
    ``reference=True``, one as every other run executes — batched
    wherever that datapath is exact.  Scenarios outside its envelope
    (CoDel, reorder/delay-spike/ACK faults) still compare — the default
    leg must then behave exactly like the reference — and the report
    notes which engine actually ran.
    """
    result_ref = job.run(reference=True)
    result_bat = job.run()
    report = diff_results(result_ref, result_bat, mode="engine",
                          label_a="reference", label_b="batched",
                          tolerance=tolerance)
    report.notes.append(f"batched leg ran engine={result_bat.engine_used}")
    if result_bat.engine_used != "batched":
        report.notes.append("scenario is outside the batched envelope "
                            "(AQM or fault schedule); the fallback must "
                            "still match the reference exactly")
    return report
