"""Executable form of the paper's convergence/fairness analysis (Appendix A).

Under a droptail queue with ``n`` senders sharing capacity ``C``
(all rates in Mbps), when the total sending rate S >= C:

- loss rate         L = 1 - C/S,
- RTT gradient      dRTT/dt = (S - C)/C,

so sender ``i``'s utility becomes a closed-form function of the rate
vector.  These helpers evaluate that game, verify concavity /
social-concavity numerically, and locate the symmetric Nash equilibrium
— the quantities Theorem 4.1 and Lemmas A.1-A.4 reason about.  The
property-based tests in ``tests/core/test_equilibrium.py`` check the
lemmas on sampled instances under ``DEFAULT_PARAMS`` — the deployed
Eq. 1, ``gradient_scale`` = 1/300 included.
"""

from __future__ import annotations

import numpy as np

from .utility import DEFAULT_PARAMS, UtilityParams, utility


def droptail_loss(total_rate: float, capacity: float) -> float:
    """L = max(0, 1 - C/S) under a droptail queue (Appendix A.1)."""
    if total_rate <= 0:
        return 0.0
    return max(0.0, 1.0 - capacity / total_rate)


def droptail_gradient(total_rate: float, capacity: float) -> float:
    """dRTT/dt = max(0, (S - C)/C) under a droptail queue (Appendix A.1)."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    return max(0.0, (total_rate - capacity) / capacity)


def game_utility(rates_mbps, index: int, capacity_mbps: float,
                 params: UtilityParams = DEFAULT_PARAMS) -> float:
    """Sender ``index``'s Eq. 1 utility given everyone's rates (Appendix A.1).

    Evaluated by :func:`~repro.core.utility.utility` itself, so the
    analysis sees exactly the utility Libra runs — ``gradient_scale``
    included.
    """
    rates = np.asarray(rates_mbps, dtype=float)
    if np.any(rates < 0):
        raise ValueError("rates must be non-negative")
    total = float(rates.sum())
    return utility(float(rates[index]),
                   droptail_gradient(total, capacity_mbps),
                   droptail_loss(total, capacity_mbps), params)


#: relative bracket width both bisections stop at, as a fraction of
#: their search range
_TOL = 1e-9


def _bisect(rising, hi: float) -> float:
    """The point in ``[0, hi]`` where the monotone test ``rising`` turns
    false, bracketed down to ``_TOL * hi``."""
    lo, width = 0.0, _TOL * hi
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if rising(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def best_response(rates_mbps, index: int, capacity_mbps: float,
                  params: UtilityParams = DEFAULT_PARAMS) -> float:
    """Maximize sender ``index``'s utility over its own rate.

    The utility is concave in the own rate (Lemma A.2), so whether a
    step of ``h`` still raises it changes sign once: bisect on that
    sign over ``[0, 3 * capacity]`` down to ``h = _TOL * 3 * capacity``.
    """
    rates = np.array(rates_mbps, dtype=float)
    hi = 3.0 * capacity_mbps
    h = _TOL * hi

    def own(x: float) -> float:
        rates[index] = x
        return game_utility(rates, index, capacity_mbps, params)

    return _bisect(lambda x: own(x + 0.5 * h) > own(x), hi)


def symmetric_equilibrium(n: int, capacity_mbps: float,
                          params: UtilityParams = DEFAULT_PARAMS) -> float:
    """The symmetric fixed point x* = br((n-1) x*), by bisection.

    More traffic from the others never raises a sender's best response,
    so ``br((n-1) x) - x`` is strictly decreasing in ``x`` and has one
    root, which bisection brackets inside best_response's own search
    range ``[0, 3 * capacity]``.  Lemma A.2/A.3: the game has a unique
    equilibrium and it is the fair share — every sender sends x* with
    n*x* >= C.
    """
    if n < 1:
        raise ValueError("need at least one sender")
    return _bisect(lambda x: best_response(np.full(n, x), 0, capacity_mbps,
                                           params) > x,
                   3.0 * capacity_mbps)


def is_concave_in_own_rate(capacity_mbps: float, others_total: float,
                           params: UtilityParams = DEFAULT_PARAMS,
                           grid: int = 300) -> bool:
    """Numerical check of Lemma A.2 part (1): u_i concave in x_i."""
    xs = np.linspace(0.5, 2.0 * capacity_mbps, grid)
    us = []
    for x in xs:
        rates = np.array([x, others_total])
        us.append(game_utility(rates, 0, capacity_mbps, params))
    us = np.asarray(us)
    second_diff = us[2:] - 2.0 * us[1:-1] + us[:-2]
    return bool(np.all(second_diff <= 1e-6 * max(1.0, np.abs(us).max())))
