"""UAV mechanical (climb + hover) and communication energy over a service
period.

Climb energy is a one-shot cost; hover power accrues for the whole period T,
as does the data-communication power (sum transmit power plus circuit power).
Every function broadcasts over an altitude array ``h`` and a communication
power of any shape (the GEE chain passes an (n, 1) threshold column or an
(n, m) block); the checks count with ``np.count_nonzero``, which is cheaper
than ``np.any`` on scalars.
"""

from __future__ import annotations

import numpy as np

from .params import SystemParams, UavEnergyParams


def _check_altitude(h, sys: SystemParams) -> None:
    outside = np.logical_not((sys.h_min_m <= h) & (h <= sys.h_max_m))
    if np.count_nonzero(outside):
        raise ValueError(
            f"altitude {np.extract(outside, h)[0]:g} m outside the permitted range "
            f"[{sys.h_min_m:g}, {sys.h_max_m:g}] m"
        )


def uav_only_energy(h, sys: SystemParams, uav: UavEnergyParams):
    """Vehicle energy (J): climb one-shot plus hover power times T."""
    _check_altitude(h, sys)
    climb = uav.alpha_climb_j_per_m * h + uav.beta_climb_j
    hover = (uav.alpha_hover_w_per_m * h + uav.beta_hover_w) * sys.service_time_s
    return climb + hover


def total_energy(h, mean_comm_power, sys: SystemParams, uav: UavEnergyParams):
    """Total energy (J): vehicle energy plus (P̄_t + P_C) * T.

    mean_comm_power is the expected sum UE transmit power P̄_t; the circuit
    power is added here.  Both may be arrays over altitude.
    """
    if np.count_nonzero(mean_comm_power < 0):
        raise ValueError("mean communication power must be non-negative")
    return (
        uav_only_energy(h, sys, uav)
        + (mean_comm_power + sys.circuit_power_w) * sys.service_time_s
    )
