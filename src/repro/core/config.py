"""Libra framework configuration (Sec. 4.3, Sec. 7, Appendix B)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..env.features import FeatureSet, STATE_SETS
from ..telemetry import TelemetryConfig
from .utility import DEFAULT_PARAMS, UtilityParams


@dataclass
class LibraConfig:
    """Tunable parameters of the three-stage control cycle.

    Defaults follow the paper: for CUBIC-like classic CCAs the
    exploration and exploitation stages last 1 estimated RTT each; for
    BBR they last 3 RTTs (covering the 1.25x / 0.75x / 1x probing
    phases).  Each evaluation interval (EI) lasts 0.5 estimated RTT, and
    the early-exit threshold th1 is 0.3x the base sending rate.
    """

    utility: UtilityParams = DEFAULT_PARAMS
    explore_rtts: float = 1.0
    exploit_rtts: float = 1.0
    ei_rtts: float = 0.5
    th1_fraction: float = 0.3
    #: RL decision-making interval, in estimated RTTs
    rl_interval_rtts: float = 1.0
    rl_history: int = 8
    rl_feature_set: FeatureSet = field(default_factory=lambda: STATE_SETS["libra"])
    #: clip for the RL MIMD exponent (x_rl multiplied by 2^a per MI)
    rl_action_scale: float = 1.0
    #: sample the policy stochastically (Orca-style) or act on the mean
    rl_deterministic: bool = True
    #: initial slow-start passthrough before the first control cycle, in RTTs
    startup_rtts: float = 8.0
    #: evaluation order: "lower-first" (the paper's side-effect-minimizing
    #: choice, Sec. 4.1/Fig. 4) or "higher-first" (the ablation)
    eval_order: str = "lower-first"
    # -- graceful degradation (extends the Sec. 3 no-ACK handling) --------
    #: no-ACK watchdog: declare an outage after this many estimated RTTs
    #: without any acknowledgement (RTO-style, floored at watchdog_min)
    watchdog_rtts: float = 8.0
    #: absolute floor of the watchdog timeout, seconds
    watchdog_min: float = 0.5
    #: first RL-arm disable period after a policy fault, seconds
    #: (doubles per consecutive fault up to rl_backoff_max)
    rl_backoff_initial: float = 1.0
    rl_backoff_max: float = 30.0
    #: limits of the controller's decision recorder — the stage/verdict/
    #: watchdog event channels.  ``max_events_per_kind`` (default 100 000)
    #: replaces the old hard-coded ``_log`` cap; events past it are
    #: counted, not stored.
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    def __post_init__(self) -> None:
        if self.explore_rtts <= 0 or self.exploit_rtts <= 0 or self.ei_rtts <= 0:
            raise ValueError("stage durations must be positive")
        if not 0.0 < self.th1_fraction < 10.0:
            raise ValueError("th1_fraction out of range")
        if self.rl_history < 1:
            raise ValueError("rl_history must be >= 1")
        if self.eval_order not in ("lower-first", "higher-first"):
            raise ValueError("eval_order must be 'lower-first' or 'higher-first'")
        if self.watchdog_rtts <= 0 or self.watchdog_min <= 0:
            raise ValueError("watchdog parameters must be positive")
        if self.rl_backoff_initial <= 0 or \
                self.rl_backoff_max < self.rl_backoff_initial:
            raise ValueError("invalid RL backoff range")


def cubic_config(**overrides) -> LibraConfig:
    """C-Libra defaults: [1 RTT, 0.5 RTT EIs, 1 RTT] stages."""
    return LibraConfig(**overrides)


def bbr_config(**overrides) -> LibraConfig:
    """B-Libra defaults: [3 RTT, 0.5 RTT EIs, 3 RTT] stages (Sec. 5 Setup)."""
    params = {"explore_rtts": 3.0, "exploit_rtts": 3.0}
    params.update(overrides)
    return LibraConfig(**params)
