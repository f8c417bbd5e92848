"""Picklable descriptions of one simulation run.

A :class:`Job` bundles everything needed to execute one dumbbell
simulation — the scenario, the flows (CCA name + constructor kwargs,
each with its own seed), the network seed and the duration — in a form
that (a) pickles across process boundaries (the worker pool forks and
ships jobs to children) and (b) canonicalizes to a stable JSON document
(the content-addressed result cache hashes it; see
:func:`canonical_spec`).

``Job.run()`` is the single execution path used by the serial fallback,
the worker pool, and the cache-miss path, so parallel results are
byte-identical to serial ones by construction.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from ..scenarios.presets import Scenario
from ..simnet.network import RunResult


@dataclass(frozen=True)
class FlowSpec:
    """One flow of a job: a registry CCA name plus constructor kwargs.

    ``seed=None`` inherits the job's network seed — the common
    single-flow case.  ``kwargs`` is stored as a sorted item tuple so
    the spec stays hashable and canonicalizes deterministically.

    ``bytes`` makes the flow finite (FIN once that many bytes are
    acknowledged; ``None`` = long-lived) and ``traced`` gates the dense
    per-flow telemetry channels on recorded runs — both are regular
    fields, so churn workloads (generated flow lists with sizes and
    sampled tracing) land under their own cache keys automatically.
    """

    cca: str
    seed: int | None = None
    start: float = 0.0
    stop: float | None = None
    extra_rtt: float = 0.0
    kwargs: tuple = ()
    bytes: float | None = None
    traced: int = 1

    @classmethod
    def make(cls, cca: str, seed: int | None = None, start: float = 0.0,
             stop: float | None = None, extra_rtt: float = 0.0,
             bytes: float | None = None, traced: bool = True,
             **kwargs) -> "FlowSpec":
        return cls(cca=cca, seed=seed, start=start, stop=stop,
                   extra_rtt=extra_rtt, kwargs=tuple(sorted(kwargs.items())),
                   bytes=bytes, traced=1 if traced else 0)

    def build(self, default_seed: int):
        from ..registry import make_controller

        seed = self.seed if self.seed is not None else default_seed
        return make_controller(self.cca, seed=seed, **dict(self.kwargs))


@dataclass(frozen=True)
class Job:
    """One simulation run: flows through a scenario at a seed.

    ``telemetry`` is 0 for a plain run or the telemetry *schema version*
    for a traced one.  Because it is a regular job field it participates
    in :func:`canonical_spec`, so telemetry-bearing results live under a
    schema-versioned cache key — enabling tracing (or bumping the
    schema) can never serve a stale scalar-only cache hit.

    ``sanitize`` switches the :mod:`repro.sanitize` invariant layer on
    for the run (1) or leaves it off (0, the default).  Like telemetry
    it is a regular field, so sanitized results live under their own
    cache key.  The ``REPRO_SANITIZE`` environment variable forces the
    layer on regardless of the field — it is read inside :meth:`run`,
    so fork-pool children inherit the override.
    """

    scenario: Scenario
    flows: tuple[FlowSpec, ...]
    seed: int = 0
    duration: float | None = None
    telemetry: int = 0
    sanitize: int = 0

    def __post_init__(self) -> None:
        if not self.flows:
            raise ValueError("a job needs at least one flow")
        if self.telemetry < 0:
            raise ValueError("telemetry must be 0 (off) or a schema version")
        if self.sanitize not in (0, 1):
            raise ValueError("sanitize must be 0 (off) or 1 (on)")

    @property
    def effective_duration(self) -> float:
        return self.duration if self.duration is not None \
            else self.scenario.default_duration

    def with_telemetry(self, enabled: bool = True) -> "Job":
        """A copy of this job with tracing switched on (or off)."""
        from ..telemetry import SCHEMA_VERSION

        return dataclasses.replace(
            self, telemetry=SCHEMA_VERSION if enabled else 0)

    def with_sanitize(self, enabled: bool = True) -> "Job":
        """A copy of this job with the invariant layer on (or off)."""
        return dataclasses.replace(self, sanitize=1 if enabled else 0)

    def run(self, reference: bool = False) -> RunResult:
        """Execute the simulation in-process and return its result.

        ``reference`` forces the reference datapath (see
        :meth:`Scenario.build`); it is not part of the job spec, so it
        never enters a cache key.
        """
        from ..sanitize import invariants as _sanitize

        if self.sanitize or _sanitize.env_forced():
            with _sanitize.activate(_sanitize.SimSanitizer()):
                return self._run(reference)
        return self._run(reference)

    def _run(self, reference: bool) -> RunResult:
        recorder = None
        if self.telemetry:
            from ..telemetry import Recorder

            recorder = Recorder()
        net = self.scenario.build(seed=self.seed, recorder=recorder,
                                  reference=reference)
        for flow in self.flows:
            net.add_flow(flow.build(self.seed), start=flow.start,
                         stop=flow.stop, extra_rtt=flow.extra_rtt,
                         flow_bytes=flow.bytes, traced=bool(flow.traced))
        return net.run(self.effective_duration)


def single_flow_job(cca: str, scenario: Scenario, seed: int = 0,
                    duration: float | None = None, telemetry: bool = False,
                    sanitize: bool = False, **cca_kwargs) -> Job:
    """The ``run_single``-shaped job: one flow, flow seed = network seed."""
    job = Job(scenario=scenario, flows=(FlowSpec.make(cca, **cca_kwargs),),
              seed=seed, duration=duration, sanitize=1 if sanitize else 0)
    return job.with_telemetry() if telemetry else job


@dataclass
class FailedRun:
    """Structured summary of a job that raised instead of finishing.

    Under ``on_error="collect"`` (the stress experiment's mode) a
    controller or simulator exception becomes one of these in the result
    list instead of killing the whole sweep; ``cca``/``scenario``/``seed``
    identify the run, ``error`` holds ``repr(exc)`` and ``traceback`` the
    formatted stack from the process that ran it.
    """

    cca: str
    scenario: str
    seed: int
    error: str
    traceback: str = ""
    #: path of the on-disk repro bundle (``repro replay <bundle>``);
    #: empty when ``$REPRO_FAILURES_DIR`` capture is off
    bundle: str = ""

    #: sentinel mirrored by FlowSummary so tables can branch uniformly
    failed = True

    @classmethod
    def from_job(cls, job, exc: BaseException,
                 tb: str = "") -> "FailedRun":
        # Generic tasks (pool.run_tasks) lack flows/scenario; identify
        # them by label/class so error collection still works for them.
        flows = getattr(job, "flows", None)
        scenario = getattr(job, "scenario", None)
        if flows is None or scenario is None:
            name = getattr(job, "label", None) or type(job).__qualname__
            return cls(cca=name, scenario="task",
                       seed=getattr(job, "seed", 0) or 0,
                       error=repr(exc), traceback=tb)
        return cls(cca="+".join(flow.cca for flow in flows),
                   scenario=scenario.name, seed=job.seed,
                   error=repr(exc), traceback=tb)

    def __str__(self) -> str:
        text = (f"FAILED {self.cca} @ {self.scenario} seed={self.seed}: "
                f"{self.error}")
        if self.bundle:
            text += f"\n  repro bundle: {self.bundle}"
        return text


@dataclass
class JobResult:
    """What comes back for one job: the run plus execution metadata.

    Exactly one of ``result`` and ``failure`` is set: a job that raised
    under error collection carries a :class:`FailedRun` instead of a
    :class:`RunResult`.
    """

    result: RunResult | None
    elapsed: float = 0.0          # simulation wall-time in the worker
    cached: bool = False          # served from the result cache
    retries: int = 0              # crashed/timed-out attempts before success
    failure: FailedRun | None = None


def execute(job: Job, capture_errors: bool = False) -> JobResult:
    """Run a job and wrap the result with its timing.

    With ``capture_errors`` a raising job yields a :class:`JobResult`
    whose ``failure`` holds the structured :class:`FailedRun` instead of
    propagating — sweeps keep going past one bad run.
    """
    t0 = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:
        import traceback as _traceback

        from ..sanitize.replay import maybe_write_bundle

        tb = _traceback.format_exc()
        # Capture the repro bundle on both paths: a raising sweep should
        # still leave its evidence behind when $REPRO_FAILURES_DIR is set.
        bundle = maybe_write_bundle(job, exc, tb)
        if not capture_errors:
            raise
        failure = FailedRun.from_job(job, exc, tb)
        failure.bundle = bundle
        return JobResult(result=None, elapsed=time.perf_counter() - t0,
                         failure=failure)
    return JobResult(result=result, elapsed=time.perf_counter() - t0)


# -- canonicalization -------------------------------------------------------

def canonical_spec(obj):
    """Reduce a job (or any of its parts) to a JSON-stable structure.

    Dataclasses become ``[qualified-name, {field: value}]`` so renaming a
    class or field naturally invalidates old cache entries; floats are
    kept exact via ``repr``; plain objects fall back to their sorted
    ``__dict__``.  The output feeds ``json.dumps(..., sort_keys=True)``
    in :mod:`repro.parallel.cache`.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return [canonical_spec(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canonical_spec(v) for k, v in sorted(obj.items())}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: canonical_spec(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return [_qualname(obj), fields]
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):  # numpy scalar
        return canonical_spec(obj.item())
    if callable(obj) and hasattr(obj, "__qualname__"):  # plain function
        return f"{obj.__module__}.{obj.__qualname__}"
    if hasattr(obj, "__dict__"):
        fields = {k: canonical_spec(v) for k, v in sorted(vars(obj).items())}
        return [_qualname(obj), fields]
    return repr(obj)


def _qualname(obj) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"
