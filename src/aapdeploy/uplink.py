"""Uplink power control, expected sum transmit power and data rates.

The closed-form sum power evaluates the mean excess loss at the cell-edge
elevation (the edge-UE approximation); the exact variant integrates the
r-dependent mean path loss numerically and is always <= the closed form.

The closed-form sum power, the sum rate and the power-translated altitude
ceiling take the edge elevation ``phi_deg`` as a scalar or as a 1-D column
(see ``channel``), and the first two broadcast it against an altitude ``h``
that may be a scalar, a row or a block, so a whole (threshold x altitude)
block is one call.  cot^2(phi) comes from ``channel.cot_squared``, one angle
at a time, and the same arithmetic serves a scalar and a column, so a column
call gives exactly the floats of the per-angle scalar calls.

Only the two quadratures need scipy.  ``quad`` is imported inside
``_sum_power_quadrature``, so ``scipy.integrate`` is loaded by the oracles
behind ``validate`` and by no other verb.
"""

from __future__ import annotations

import math

import numpy as np

from . import channel
from .errors import QuadratureError
from .params import EnvironmentParams, SystemParams

QUAD_REL_TOL = 1e-10


def cell_ue_count(r_a, sys: SystemParams):
    """Expected number of UEs in a cell of radius r_a (real-valued, or an array).

    r_a * r_a rather than r_a**2: numpy squares an array exactly, while
    Python's float ** calls pow, which differs in the last bit on ~0.1% of
    radii, so a scalar and an array radius would give different counts.
    """
    return sys.ue_density_rho * math.pi * (r_a * r_a)


def expected_sum_power_closed_form(
    h, phi_deg, sys: SystemParams, env: EnvironmentParams
):
    """Closed-form upper bound on the expected sum UE transmit power (W).

    2 pi rho P_a eta_m cot^2(phi) h^4 (cot^2(phi) + 2) / (4 g0), with eta_m
    frozen at the edge elevation.  Strictly increasing in h.
    """
    channel.require_coverage(h, phi_deg)
    cot2 = channel.cot_squared(phi_deg)
    eta_m = channel.mean_additional_path_loss(channel.phi_column(phi_deg), env)
    return (
        2.0
        * math.pi
        * sys.ue_density_rho
        * sys.p_target_pa
        * eta_m
        * cot2
        * h**4
        * (cot2 + 2.0)
        / (4.0 * env.g0)
    )


def _sum_power_quadrature(r_a: float, integrand) -> float:
    from scipy.integrate import quad

    value, abserr = quad(integrand, 0.0, r_a, epsabs=0.0, epsrel=QUAD_REL_TOL, limit=200)
    if value != 0.0 and abserr > 10.0 * QUAD_REL_TOL * abs(value):
        raise QuadratureError(
            f"sum-power quadrature achieved only {abserr / abs(value):.2e} relative"
        )
    return value


def expected_sum_power_exact(
    h: float,
    phi_deg: float,
    sys: SystemParams,
    env: EnvironmentParams,
) -> float:
    """Expected sum UE transmit power (W) with the r-dependent excess loss.

    Numerical quadrature of rho * 2 pi P_a L̄(r, h) r over the cell; always
    <= the closed-form bound, with equality when eta_los == eta_nlos.
    """
    r_a = channel.require_coverage(h, phi_deg)

    def integrand(r: float) -> float:
        return (
            sys.ue_density_rho
            * 2.0
            * math.pi
            * sys.p_target_pa
            * float(channel.mean_path_loss_rh(r, h, env))
            * r
        )

    return _sum_power_quadrature(r_a, integrand)


def expected_sum_power_edge_quadrature(
    h: float,
    phi_deg: float,
    sys: SystemParams,
    env: EnvironmentParams,
) -> float:
    """Quadrature of the sum-power integrand with the edge-frozen excess loss.

    Independent cross-check of the closed form: same integrand family but a
    constant eta_m, so the two must agree to quadrature tolerance.
    """
    r_a = channel.require_coverage(h, phi_deg)
    eta_m = float(channel.mean_additional_path_loss(phi_deg, env))

    def integrand(r: float) -> float:
        return (
            sys.ue_density_rho
            * 2.0
            * math.pi
            * sys.p_target_pa
            * eta_m
            * (r**2 + h**2)
            / env.g0
            * r
        )

    return _sum_power_quadrature(r_a, integrand)


def sinr(n_ue: float, sys: SystemParams) -> float:
    """Uplink SINR under worst-case co-channel interference."""
    signal = sys.p_target_pa * n_ue
    return signal / (
        sys.num_interferers_m * signal
        + sys.noise_psd_sigma0sq * sys.bandwidth_w
    )


def sum_rate(h, phi_deg, sys: SystemParams):
    """Cell sum uplink rate W log2(1 + SINR) (bit/s) for the expected UE
    count; saturates at W log2(1 + 1/M)."""
    r_a = channel.require_coverage(h, phi_deg)
    return sys.bandwidth_w * np.log2(1.0 + sinr(cell_ue_count(r_a, sys), sys))


def h_max_power_constraint(phi_deg, sys: SystemParams, env: EnvironmentParams):
    """Altitude above which the cell-edge UE would exceed its power cap.

    sqrt(P_max g0 / (P_a eta_m (1 + cot^2(phi)))); at this altitude the edge
    UE's power-controlled transmit power equals P_max exactly.  A 1-D
    ``phi_deg`` gives an (n, 1) column of ceilings.
    """
    cot2 = channel.cot_squared(phi_deg)
    eta_m = channel.mean_additional_path_loss(channel.phi_column(phi_deg), env)
    return np.sqrt(sys.p_max * env.g0 / (sys.p_target_pa * eta_m * (1.0 + cot2)))
