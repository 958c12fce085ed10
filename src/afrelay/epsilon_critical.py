"""Critical SNDR thresholds and the distortion-limited phase transition.

When the noise-to-distortion ratio eps_star is small, the outage probability
jumps between a small value and one across a critical protection threshold.
This module reports those thresholds, the gap between them (both from
link_budget) and the leading-order ordinate of the drop. Inside the gap variable
gain is in sure outage, so fixed gain's edge there is 1 - exact_outage("fg", ...),
or 1 - outage_floor("fg", ...) in the distortion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, RegimeError
from .link_budget import LinkBudget, normalize_protocol, threshold, threshold_gap
from .outage import _series, exact_outage

# "Just below" the critical threshold, where ordinate and report's
# exact_outage_below are both taken.
BELOW_THRESHOLD = 0.95


@dataclass(frozen=True)
class PhaseTransitionReport:
    protocol: str
    gamma_crit: float
    gamma_crit_db: float
    ordinate: float | None
    eps_star: float
    threshold_gap: float | None
    no_phase_transition: bool
    exact_outage_below: float | None = None


def _to_db(x: float) -> float:
    return 10.0 * math.log10(x) if 0.0 < x < math.inf else math.inf


def ordinate(protocol: str, budget: LinkBudget) -> float:
    """Leading-order outage just below the critical threshold.

    This is the first-order high-power expansion of outage_asymptotic taken
    at BELOW_THRESHOLD times the critical threshold. So it falls like
    eps_star for variable gain (diversity 1) and tends to the floor for
    fixed gain (diversity 0). At zero noise power it is that floor, equal to
    exact_outage there. To study the scaling law in eps_star, build the
    budget at the noise power that gives it (eps_star is linear in n0).
    Outside the series' region of validity a RegimeError is raised.
    """
    protocol = normalize_protocol(protocol)
    th = threshold(protocol, budget)
    if th == math.inf:  # a linear network, or fixed gain with a linear source
        raise DomainError(f"{protocol} has no phase transition, so no ordinate")
    return _series(protocol, BELOW_THRESHOLD * th, budget, budget.n0)


def report(budget: LinkBudget, include_exact_outage: bool = False) -> dict:
    """Phase-transition summary for both protocols.

    Quantities that do not exist for a configuration (a linear node, an out of
    regime ordinate) come back as None rather than raising. When asked, the
    exact outage at BELOW_THRESHOLD times each finite threshold, the point
    the ordinate is taken at, is attached for direct comparison with it.
    """
    out = {}
    try:
        gap = threshold_gap(budget)
    except DomainError:
        gap = None
    for proto in ("fg", "vg"):
        th = threshold(proto, budget)
        try:
            o = ordinate(proto, budget)
        except (DomainError, RegimeError):
            o = None
        exact_below = None
        if include_exact_outage and th < math.inf:
            exact_below = exact_outage(proto, BELOW_THRESHOLD * th, budget)
        out[proto] = PhaseTransitionReport(
            protocol=proto,
            gamma_crit=th,
            gamma_crit_db=_to_db(th),
            ordinate=o,
            eps_star=budget.eps_star,
            threshold_gap=gap,
            no_phase_transition=not (th < math.inf),
            exact_outage_below=exact_below,
        )
    return out
