"""Seeded flow-churn workload generator.

A :class:`ChurnSpec` describes a dynamic flow population; -
:func:`churn_flows` realizes it into a tuple of
:class:`~repro.parallel.jobs.FlowSpec` — plain data, so a churn job is a
regular :class:`~repro.parallel.jobs.Job` and inherits the fork pool,
the content-addressed cache (the spec's parameters land in the key via
the flow tuple), the sanitizer and the differential oracle for free.

Determinism contract: all randomness comes from one
:func:`~repro.simnet.distributions.churn_rng` stream keyed on
``(CHURN_STREAM_TAG, spec.seed, run_seed)``, consumed in a fixed,
documented order:

1. **arrivals** — one uniform block of ``n_flows`` draws
   (:func:`~repro.simnet.distributions.poisson_arrivals`);
2. **sizes** — one block of ``n_flows`` draws (uniform for
   bounded-Pareto, standard-normal for lognormal);
3. **on/off gate** — one uniform block of ``n_flows`` draws, *only*
   when ``onoff_fraction > 0``;
4. **off gaps** — one exponential block of
   ``n_onoff * (onoff_phases - 1)`` draws, only when some flow gated
   on/off;
5. **RTT classes** — one uniform block of ``n_flows`` draws
   (:func:`~repro.simnet.distributions.weighted_classes`), *only* when
   the spec has more than one RTT class;
6. **trace reservoir** — one uniform draw per emitted flow past
   ``trace_cap`` (:func:`~repro.simnet.distributions.reservoir_indices`).

Identical ``(spec, run_seed)`` therefore yields a bit-identical flow
tuple on any platform, serially or inside a fork-pool child.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..parallel.jobs import FlowSpec, Job
from ..simnet.distributions import (bounded_pareto, churn_rng,
                                    lognormal_sizes, poisson_arrivals,
                                    reservoir_indices, weighted_classes)

KB = 1000.0


@dataclass(frozen=True)
class ChurnSpec:
    """One dynamic-workload description (frozen: hashable, cache-stable).

    ``n_flows`` application sessions arrive as a Poisson process over
    ``[0, arrival_window)``.  Each draws a flow size from the configured
    heavy-tailed distribution; a fraction of sessions are *on/off
    applications* whose size is split evenly across ``onoff_phases``
    finite flows launched open-loop — phase ``k`` starts an exponential
    think-gap after phase ``k-1``'s start, independent of completion,
    the standard open-loop session model.  RTT heterogeneity comes from
    weighted ``(extra_rtt_s, weight)`` classes.  ``trace_cap`` bounds
    how many emitted flows carry dense telemetry on traced runs
    (reservoir-sampled, so the traced subset is unbiased).
    """

    name: str
    n_flows: int
    arrival_window: float
    duration: float
    size_dist: str = "pareto"         # "pareto" | "lognormal"
    pareto_alpha: float = 1.2
    min_kb: float = 30.0
    max_kb: float = 10_000.0
    lognormal_median_kb: float = 200.0
    lognormal_sigma: float = 1.5
    onoff_fraction: float = 0.0
    onoff_phases: int = 3
    off_mean_s: float = 0.5
    #: weighted (extra one-way-ish delay in seconds, weight) classes
    rtt_classes: tuple = ((0.0, 1.0),)
    trace_cap: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_flows <= 0:
            raise ValueError("n_flows must be positive")
        if self.arrival_window <= 0 or self.duration <= 0:
            raise ValueError("arrival_window and duration must be positive")
        if self.size_dist not in ("pareto", "lognormal"):
            raise ValueError(f"unknown size_dist {self.size_dist!r}")
        if not 0.0 <= self.onoff_fraction <= 1.0:
            raise ValueError("onoff_fraction must be a fraction")
        if self.onoff_phases < 2 and self.onoff_fraction > 0:
            raise ValueError("on/off sessions need at least two phases")
        if self.trace_cap < 0:
            raise ValueError("trace_cap must be non-negative")

    def with_(self, **changes) -> "ChurnSpec":
        return replace(self, **changes)

    def offered_load(self, capacity_bps: float) -> float:
        """Mean offered load as a fraction of ``capacity_bps``.

        Expected total bytes (distribution mean × ``n_flows``) turned
        into a rate over the arrival window — the normalized load knob
        the scale experiment sweeps.
        """
        if self.size_dist == "pareto":
            a, lo, hi = self.pareto_alpha, self.min_kb * KB, self.max_kb * KB
            if a == 1.0:
                import math

                mean = math.log(hi / lo) / (1.0 / lo - 1.0 / hi)
            else:
                mean = (a * lo ** a) / (a - 1.0) \
                    * (lo ** (1.0 - a) - hi ** (1.0 - a)) \
                    / (1.0 - (lo / hi) ** a)
        else:
            import math

            mean = self.lognormal_median_kb * KB \
                * math.exp(self.lognormal_sigma ** 2 / 2.0)
        return self.n_flows * mean * 8.0 / self.arrival_window / capacity_bps


def churn_flows(spec: ChurnSpec, cca: str,
                run_seed: int = 0) -> tuple[FlowSpec, ...]:
    """Realize ``spec`` into a deterministic tuple of flow specs.

    Flow seeds are sequential over emitted flows, so every sender gets
    an independent controller stream; ``run_seed`` varies the workload
    realization without touching the spec (see module docstring for the
    exact draw order).
    """
    rng = churn_rng(spec.seed, run_seed)
    n = spec.n_flows
    arrivals = poisson_arrivals(rng, n, spec.arrival_window)
    if spec.size_dist == "pareto":
        sizes = bounded_pareto(rng, n, spec.pareto_alpha,
                               spec.min_kb * KB, spec.max_kb * KB)
    else:
        sizes = lognormal_sizes(rng, n, spec.lognormal_median_kb * KB,
                                spec.lognormal_sigma)
    if spec.onoff_fraction > 0.0:
        onoff = rng.random(n) < spec.onoff_fraction
        gaps = rng.exponential(spec.off_mean_s,
                               size=int(onoff.sum()) * (spec.onoff_phases - 1))
    else:
        onoff = None
        gaps = None
    if len(spec.rtt_classes) > 1:
        class_idx = weighted_classes(rng, n,
                                     [w for _, w in spec.rtt_classes])
    else:
        class_idx = None

    flows = []
    gap_i = 0
    for i in range(n):
        start = float(arrivals[i])
        size = max(float(sizes[i]), 1500.0)
        extra_rtt = 0.0 if class_idx is None \
            else float(spec.rtt_classes[int(class_idx[i])][0])
        if onoff is not None and onoff[i]:
            phase_bytes = size / spec.onoff_phases
            when = start
            for k in range(spec.onoff_phases):
                if k > 0:
                    when += float(gaps[gap_i])
                    gap_i += 1
                flows.append((when, phase_bytes, extra_rtt))
        else:
            flows.append((start, size, extra_rtt))

    traced = set(reservoir_indices(rng, len(flows), spec.trace_cap))
    return tuple(
        FlowSpec.make(cca, seed=idx, start=start, bytes=size,
                      extra_rtt=extra_rtt, traced=idx in traced)
        for idx, (start, size, extra_rtt) in enumerate(flows))


def churn_job(spec: ChurnSpec, cca: str, scenario, seed: int = 0,
              duration: float | None = None, telemetry: bool = False,
              sanitize: bool = False) -> Job:
    """A regular :class:`Job` running ``spec``'s flow population.

    The churn parameters reach the parallel cache key through the flow
    tuple (sizes, starts, traced flags are all FlowSpec fields), so two
    different specs can never collide on a cached result.
    """
    job = Job(scenario=scenario, flows=churn_flows(spec, cca, seed),
              seed=seed, duration=duration if duration is not None
              else spec.duration, sanitize=1 if sanitize else 0)
    return job.with_telemetry() if telemetry else job


#: the named workloads the scale experiment, benchmark and CI address
CHURN_PRESETS: dict[str, ChurnSpec] = {
    "churn-smoke": ChurnSpec(
        name="churn-smoke", n_flows=32, arrival_window=4.0, duration=10.0,
        min_kb=30.0, max_kb=2_000.0, trace_cap=8, seed=101),
    "churn-128": ChurnSpec(
        name="churn-128", n_flows=128, arrival_window=8.0, duration=20.0,
        min_kb=30.0, max_kb=5_000.0, onoff_fraction=0.25,
        rtt_classes=((0.0, 0.5), (0.02, 0.3), (0.05, 0.2)),
        trace_cap=16, seed=102),
    "churn-256": ChurnSpec(
        name="churn-256", n_flows=256, arrival_window=10.0, duration=25.0,
        min_kb=30.0, max_kb=5_000.0, onoff_fraction=0.25,
        rtt_classes=((0.0, 0.5), (0.02, 0.3), (0.05, 0.2)),
        trace_cap=16, seed=103),
    # 512 sessions arriving inside 2 s with sizes far above the
    # per-flow fair share — concurrency peaks near the full population
    # (the acceptance target for `repro experiment scale`).
    "churn-512": ChurnSpec(
        name="churn-512", n_flows=512, arrival_window=2.0, duration=30.0,
        pareto_alpha=1.1, min_kb=200.0, max_kb=5_000.0,
        rtt_classes=((0.0, 0.5), (0.02, 0.3), (0.05, 0.2)),
        trace_cap=16, seed=104),
}


def churn_preset(name: str) -> ChurnSpec:
    """Look up a named churn workload (KeyError lists the options)."""
    try:
        return CHURN_PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown churn preset {name!r}; choose from "
                       f"{sorted(CHURN_PRESETS)}") from None
