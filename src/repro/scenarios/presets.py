"""Scenario library mirroring the paper's evaluation setups.

Each :class:`Scenario` bundles a trace factory with the bottleneck
parameters (minimum RTT, droptail buffer, stochastic loss) so experiment
modules can build reproducible :class:`~repro.simnet.network.Dumbbell`
instances.  Scenario parameters follow the paper:

- Fig. 1:  wired 24/48/96 Mbps + three LTE traces, 30 ms RTT, 150 KB buffer
- Fig. 2a: step scenario (capacity changes every 10 s), 80 ms RTT, 1 BDP
- Fig. 7:  four wired traces (12/24/48/96 Mbps) + four LTE traces
- Fig. 9:  60 Mbps / 100 ms, buffer 10 KB - 1 MB
- Fig. 13-15: 48 Mbps / 100 ms / 1 BDP
- Fig. 16: emulated inter-/intra-continental WAN paths (DESIGN.md)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from ..simnet.faults import FAULT_PROFILES, FaultSchedule
from ..simnet.network import Dumbbell
from ..simnet.trace import (ConstantTrace, PiecewiseTrace, Trace, lte_trace,
                            step_trace, wired_trace)
from ..units import KB, mbps, ms


@dataclass(frozen=True)
class Scenario:
    """A reproducible bottleneck setup.

    Trace factories are dataclass callables (below) rather than lambdas
    so a Scenario pickles across process boundaries and canonicalizes to
    a stable cache key (see :mod:`repro.parallel`).  ``faults`` attaches
    a deterministic :class:`~repro.simnet.faults.FaultSchedule`; being a
    Scenario field, it is part of that cache key, so changing the fault
    profile invalidates cached results automatically.
    """

    name: str
    trace_factory: Callable[[int], Trace]
    rtt: float
    buffer_bytes: float
    loss_rate: float = 0.0
    default_duration: float = 20.0
    mss: int = 1500
    aqm: str = "droptail"
    faults: FaultSchedule | None = None

    def trace(self, seed: int = 0) -> Trace:
        return self.trace_factory(seed)

    def build(self, seed: int = 0, recorder=None,
              reference: bool = False) -> Dumbbell:
        """Construct the dumbbell network for this scenario.

        ``recorder`` optionally attaches a
        :class:`~repro.telemetry.Recorder` so the run produces a
        :class:`~repro.telemetry.FlowTelemetry` artifact.
        ``reference`` forces the reference datapath (the engine-diff
        oracle); by default the network picks the batched one wherever
        it is exact.
        """
        return Dumbbell(self.trace(seed), buffer_bytes=self.buffer_bytes,
                        rtt=self.rtt, loss_rate=self.loss_rate, seed=seed,
                        mss=self.mss, aqm=self.aqm, faults=self.faults,
                        recorder=recorder, reference=reference)

    def with_(self, **changes) -> "Scenario":
        return replace(self, **changes)


# -- picklable trace factories --------------------------------------------

@dataclass(frozen=True)
class ConstTraceFactory:
    """Fixed-rate wired bottleneck."""

    bw_mbps: float

    def __call__(self, seed: int) -> Trace:
        return wired_trace(self.bw_mbps)


@dataclass(frozen=True)
class LteTraceFactory:
    """Seeded cellular trace of one mobility kind."""

    kind: str

    def __call__(self, seed: int) -> Trace:
        return lte_trace(self.kind, seed=seed + 1)


@dataclass(frozen=True)
class StepTraceFactory:
    """Capacity stepping through ``levels`` every ``step_duration`` s."""

    levels: tuple
    step_duration: float

    def __call__(self, seed: int) -> Trace:
        return step_trace(self.levels, self.step_duration)


@dataclass(frozen=True)
class WanTraceFactory:
    """Mildly varying WAN path capacity (cross-traffic induced)."""

    mean_mbps: float
    jitter: float

    def __call__(self, seed: int) -> Trace:
        import numpy as np

        rng = np.random.default_rng(seed + 17)
        n = 120
        rates = self.mean_mbps * (
            1.0 + self.jitter * rng.standard_normal(n)).clip(0.3, 1.7)
        times = [i * 0.5 for i in range(n)]
        return PiecewiseTrace(times, [mbps(r) for r in rates], loop=True)


def _const(bw_mbps: float) -> Callable[[int], Trace]:
    return ConstTraceFactory(bw_mbps)


def _lte(kind: str) -> Callable[[int], Trace]:
    return LteTraceFactory(kind)


# -- Fig. 1 / Fig. 7: wired and cellular ----------------------------------

WIRED_BANDWIDTHS = (12.0, 24.0, 48.0, 96.0)

WIRED: dict[str, Scenario] = {
    f"wired-{int(bw)}": Scenario(
        name=f"wired-{int(bw)}", trace_factory=_const(bw),
        rtt=ms(30), buffer_bytes=150 * KB)
    for bw in WIRED_BANDWIDTHS
}

LTE_KINDS = ("stationary", "walking", "driving", "moving")

LTE: dict[str, Scenario] = {
    f"lte-{kind}": Scenario(
        name=f"lte-{kind}", trace_factory=_lte(kind),
        rtt=ms(30), buffer_bytes=150 * KB)
    for kind in LTE_KINDS
}

#: Fig. 1 uses wired 24/48/96 and the first three LTE traces
FIG1_SCENARIOS = [WIRED["wired-24"], WIRED["wired-48"], WIRED["wired-96"],
                  LTE["lte-stationary"], LTE["lte-walking"], LTE["lte-driving"]]

#: Fig. 7 aggregates over four wired and four cellular traces
FIG7_WIRED = list(WIRED.values())
FIG7_CELLULAR = list(LTE.values())


# -- Fig. 2(a): step scenario --------------------------------------------

STEP_LEVELS_MBPS = (20.0, 5.0, 15.0, 10.0, 25.0)


def step_scenario(rtt: float = ms(80), levels=STEP_LEVELS_MBPS,
                  step_duration: float = 10.0) -> Scenario:
    """Available capacity changes every ``step_duration`` seconds."""
    mean_rate = mbps(sum(levels) / len(levels))
    bdp = mean_rate * rtt / 8.0
    return Scenario(
        name="step",
        trace_factory=StepTraceFactory(tuple(levels), step_duration),
        rtt=rtt, buffer_bytes=bdp, default_duration=len(levels) * step_duration)


# -- Fig. 9 / Fig. 10: sweeps -----------------------------------------------

def buffer_scenario(buffer_bytes: float) -> Scenario:
    """60 Mbps / 100 ms link with the given droptail buffer (Fig. 9)."""
    return Scenario(name=f"buffer-{int(buffer_bytes / KB)}kb",
                    trace_factory=_const(60.0), rtt=ms(100),
                    buffer_bytes=buffer_bytes)


BUFFER_SWEEP_BYTES = (10 * KB, 30 * KB, 100 * KB, 300 * KB, 600 * KB, 1000 * KB)


def loss_scenario(loss_rate: float) -> Scenario:
    """48 Mbps / 100 ms / 1 BDP link with stochastic loss (Fig. 10)."""
    bdp = mbps(48.0) * ms(100) / 8.0
    return Scenario(name=f"loss-{loss_rate:.2f}", trace_factory=_const(48.0),
                    rtt=ms(100), buffer_bytes=bdp, loss_rate=loss_rate)


LOSS_SWEEP = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10)


# -- Fig. 13-15: fairness / convergence link ---------------------------------

def fairness_scenario() -> Scenario:
    """48 Mbps / 100 ms minimum RTT / 1 BDP buffer (Sec. 5.3)."""
    bdp = mbps(48.0) * ms(100) / 8.0
    return Scenario(name="fairness", trace_factory=_const(48.0),
                    rtt=ms(100), buffer_bytes=bdp, default_duration=50.0)


# -- Fig. 16: live-Internet surrogates ------------------------------------

def _wan_trace(mean_mbps: float, jitter: float) -> Callable[[int], Trace]:
    """Mildly varying WAN path capacity (cross-traffic induced)."""
    return WanTraceFactory(mean_mbps, jitter)


INTERNET: dict[str, Scenario] = {
    # inter-continental: long RTT, noticeable stochastic loss, shaped paths
    "inter-continental": Scenario(
        name="inter-continental", trace_factory=_wan_trace(40.0, 0.25),
        rtt=ms(180), buffer_bytes=mbps(40.0) * ms(180) / 8.0,
        loss_rate=0.01, default_duration=30.0),
    # intra-continental: short RTT, clean paths
    "intra-continental": Scenario(
        name="intra-continental", trace_factory=_wan_trace(80.0, 0.10),
        rtt=ms(40), buffer_bytes=mbps(80.0) * ms(40) / 8.0,
        loss_rate=0.001, default_duration=30.0),
}


# -- stress / fault injection ----------------------------------------------

#: base link for the stress experiment: enough headroom that fault effects
#: dominate, shallow enough that recovery behaviour is visible
STRESS_BW_MBPS = 40.0
STRESS_RTT = ms(60)
STRESS_DURATION = 14.0


def stress_scenario(profile: str | FaultSchedule | None) -> Scenario:
    """A 40 Mbps / 60 ms / 1.5 BDP link under one fault profile.

    ``profile`` is a name from
    :data:`repro.simnet.faults.FAULT_PROFILES`, an explicit
    :class:`~repro.simnet.faults.FaultSchedule`, or ``None``/"clean" for
    the unimpaired baseline.
    """
    if isinstance(profile, FaultSchedule):
        schedule = profile
    elif profile is None or profile == "clean":
        schedule = None
    else:
        if profile not in FAULT_PROFILES:
            raise KeyError(f"unknown fault profile {profile!r}; choose from "
                           f"{sorted(FAULT_PROFILES)} or 'clean'")
        schedule = FAULT_PROFILES[profile]
    name = schedule.name if schedule is not None else "clean"
    bdp = mbps(STRESS_BW_MBPS) * STRESS_RTT / 8.0
    return Scenario(name=f"stress-{name}",
                    trace_factory=_const(STRESS_BW_MBPS),
                    rtt=STRESS_RTT, buffer_bytes=1.5 * bdp,
                    default_duration=STRESS_DURATION, faults=schedule)


# -- scale / flow churn ------------------------------------------------------

SCALE_BW_MBPS = 96.0
SCALE_RTT = ms(40)


def scale_scenario() -> Scenario:
    """The flow-churn bottleneck: 96 Mbps / 40 ms / 1.5 BDP.

    Sized so hundreds of finite flows genuinely contend (per-flow fair
    share well under slow-start rates) while a full churn sweep still
    runs in CI.
    """
    bdp = mbps(SCALE_BW_MBPS) * SCALE_RTT / 8.0
    return Scenario(name="scale-96", trace_factory=_const(SCALE_BW_MBPS),
                    rtt=SCALE_RTT, buffer_bytes=1.5 * bdp,
                    default_duration=30.0)


def rl_default_scenario() -> Scenario:
    """The RL ablation setup: 100 Mbps, 100 ms RTT, 1 BDP (Sec. 4.2)."""
    bdp = mbps(100.0) * ms(100) / 8.0
    return Scenario(name="rl-default", trace_factory=_const(100.0),
                    rtt=ms(100), buffer_bytes=bdp)


def named_presets() -> dict[str, Scenario]:
    """Every scenario addressable by name — the CLI lookup table.

    Covers the wired/LTE/Internet preset dicts plus the parameterless
    factory scenarios (step, fairness, rl-default, stress-<profile>).
    """
    presets: dict[str, Scenario] = {}
    presets.update(WIRED)
    presets.update(LTE)
    presets.update(INTERNET)
    presets["step"] = step_scenario()
    presets["fairness"] = fairness_scenario()
    presets["rl-default"] = rl_default_scenario()
    presets["scale-96"] = scale_scenario()
    presets["stress-clean"] = stress_scenario("clean")
    for profile in sorted(FAULT_PROFILES):
        presets[f"stress-{profile}"] = stress_scenario(profile)
    return presets
