"""Distortion-limited amplify-and-forward relay analysis.

Analytic outage machinery for two-hop OFDM relay links whose source and relay
amplifiers clip, cross-validated against a time-domain Monte Carlo simulator.
"""

from .bussgang import SelParams, sel_apply, sel_params, sigma_for_target_power
from .epsilon_critical import (
    PhaseTransitionReport,
    ordinate,
    report,
    threshold,
    threshold_gap,
)
from .errors import ConfigError, ConvergenceError, DomainError, RegimeError
from .link_budget import (
    LinkBudget,
    NetworkConfig,
    build_budget,
    gain_fg,
    gain_vg,
    sndr,
)
from .outage import (
    DiversityFit,
    OutagePoint,
    diversity_fit,
    exact_outage,
    outage_asymptotic,
    outage_fg,
    outage_fg_floor,
    outage_floor,
    outage_vg,
    outage_vg_quadrature,
    small_gamma_expansion,
)
from .simulator import (
    ChannelRealization,
    Rng,
    SimStats,
    estimate_bussgang,
    fg_stationarity_check,
    gen_channel,
    mc_outage_sweep,
    measure_sndr,
    model_sndr,
    waveform_outage,
)
from .special_math import (
    QuadratureResult,
    bessel_k1,
    integrate_semi_infinite,
    unitary_dft,
    unitary_idft,
)

__version__ = "0.1.0"
