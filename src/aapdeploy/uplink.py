"""Uplink power control, expected sum transmit power and data rates.

The closed-form sum power evaluates the mean excess loss at the cell-edge
elevation (the edge-UE approximation); the exact variant integrates the
r-dependent mean path loss numerically and is always <= the closed form.

The closed-form sum power, the sum rate and the power-translated altitude
ceiling take the edge elevation ``phi_deg`` in any shape, and the first two
broadcast it against an altitude ``h`` by numpy's rules (see ``channel``):
an (n, 1) threshold column against a row or a block of altitudes makes a
whole (threshold x altitude) block one call.  cot^2(phi) comes from
``channel.cot_squared``, one angle at a time, and the same arithmetic serves
a scalar and an array, so an array call gives exactly the floats of the
per-angle scalar calls.

The two quadratures behind ``validate`` share one numpy rule: adaptive
composite Gauss-Legendre on [0, r_a] (``_sum_power_quadrature``).  Each round
integrates both halves of every open panel in one vectorised integrand call
and accepts a panel whose halves agree with the whole to its width's share
of ``QUAD_REL_TOL``; the rest are bisected, up to ``QUAD_MAX_PANELS`` panels.
The exact quadrature's first panels start where the LoS S-curve turns
(``los_break_radii``).  The Legendre nodes are built on first use, since
``numpy.polynomial`` is not loaded by ``import numpy``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import channel
from .errors import QuadratureError
from .params import EnvironmentParams, SystemParams

QUAD_REL_TOL = 1e-10
# Gauss-Legendre nodes per panel, and the most panels one quadrature may use.
QUAD_NODES = 16
QUAD_MAX_PANELS = 200
# Offsets from the LoS S-curve's middle, in units of its scale, that start a
# panel of the exact quadrature; 36 scales out the curve is within e^-36
# (2e-16) of its limits.
LOS_BREAKS = (-36.0, -12.0, -4.0, -1.0, 0.0, 1.0, 4.0, 12.0, 36.0)


def cell_ue_count(r_a, sys: SystemParams):
    """Expected number of UEs in a cell of radius r_a (real-valued, or an array).

    r_a * r_a rather than r_a**2: numpy squares an array exactly, while
    Python's float ** calls pow, which differs in the last bit on ~0.1% of
    radii, so a scalar and an array radius would give different counts.
    """
    return sys.ue_density_per_m2 * math.pi * (r_a * r_a)


def expected_sum_power_closed_form(
    h, phi_deg, sys: SystemParams, env: EnvironmentParams
):
    """Closed-form upper bound on the expected sum UE transmit power (W).

    2 pi rho P_a eta_m cot^2(phi) h^4 (cot^2(phi) + 2) / (4 g0), with eta_m
    frozen at the edge elevation.  Strictly increasing in h.  h^4 is
    (h h)(h h): Python's h**4 calls pow, which is not exact under a
    power-of-two change of unit.
    """
    channel.require_coverage(h, phi_deg)
    cot2 = channel.cot_squared(phi_deg)
    eta_m = channel.mean_additional_path_loss(phi_deg, env)
    return (
        2.0
        * math.pi
        * sys.ue_density_per_m2
        * sys.p_target_pa
        * eta_m
        * cot2
        * ((h * h) * (h * h))
        * (cot2 + 2.0)
        / (4.0 * env.g0)
    )


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """QUAD_NODES-point Gauss-Legendre nodes and weights on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(QUAD_NODES)


def _panel_integrals(integrand, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integral of ``integrand`` over each panel [lo, hi],
    from one call on every node of every panel."""
    nodes, weights = _legendre_rule()
    half = 0.5 * (hi - lo)
    r = (lo + half)[:, None] + half[:, None] * nodes
    return half * np.sum(integrand(r) * weights, axis=1)


def _sum_power_quadrature(r_a: float, integrand, breaks=()) -> float:
    """Integral of a positive, array-valued ``integrand`` over [0, r_a].

    Each of ``breaks`` inside (0, r_a) starts a panel.  A feature narrower
    than the gaps between a panel's nodes is seen by neither the panel nor
    its halves, so the first panels must be no wider than such a feature's
    surroundings.  A panel's error estimate is |left + right - whole|: its
    halves' sum against its own rule, which the round that made the panel
    computed as a half of its parent.  An accepted panel contributes its
    halves.  When bisecting would take the count past QUAD_MAX_PANELS,
    every open panel is kept as it is, and QuadratureError is raised if the
    summed estimate exceeds 10 QUAD_REL_TOL of the result.
    """
    edges = [0.0, *sorted(x for x in breaks if 0.0 < x < r_a), float(r_a)]
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    whole = _panel_integrals(integrand, lo, hi)
    parts: list[float] = []  # the halves of every accepted panel
    errors: list[float] = []
    panels = lo.size
    while lo.size:
        mid = lo + 0.5 * (hi - lo)
        halves = _panel_integrals(
            integrand, np.concatenate([lo, mid]), np.concatenate([mid, hi])
        )
        left, right = np.split(halves, 2)
        err = np.abs(left + right - whole)
        estimate = math.fsum(parts) + math.fsum(halves.tolist())
        bisect = err > QUAD_REL_TOL * abs(estimate) * ((hi - lo) / r_a)
        if panels + np.count_nonzero(bisect) > QUAD_MAX_PANELS:
            bisect[:] = False
        keep = ~bisect
        parts += left[keep].tolist() + right[keep].tolist()
        errors += err[keep].tolist()
        panels += int(np.count_nonzero(bisect))
        lo, mid, hi = lo[bisect], mid[bisect], hi[bisect]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        whole = np.concatenate([left[bisect], right[bisect]])
    value = math.fsum(parts)
    abserr = math.fsum(errors)
    if value != 0.0 and abserr > 10.0 * QUAD_REL_TOL * abs(value):
        raise QuadratureError(
            f"sum-power quadrature achieved only {abserr / abs(value):.2e} relative"
        )
    return value


def los_break_radii(h: float, env: EnvironmentParams) -> list[float]:
    """Horizontal distances, seen from altitude h, that split the LoS
    S-curve's turn into panels no wider than the curve there.

    The S-curve is a logistic in the elevation: 1/2 at a + ln(a) / b, with
    scale 1/b deg.  The elevations LOS_BREAKS scales from its middle map to
    r = h cot(phi); those outside (0, 90) deg are left out."""
    middle = env.a + math.log(env.a) / env.b
    elevations = (middle + k / env.b for k in LOS_BREAKS)
    return [h / math.tan(math.radians(phi)) for phi in elevations if 0.0 < phi < 90.0]


def _sum_power_integral(
    h: float,
    phi_deg: float,
    sys: SystemParams,
    env: EnvironmentParams,
    eta_m,
    breaks=(),
) -> float:
    """Quadrature of rho 2 pi P_a eta_m(r) (r^2 + h^2) / g0 r over the cell,
    where ``eta_m`` maps an array of distances to their mean excess loss."""
    r_a = channel.require_coverage(h, phi_deg)
    scale = sys.ue_density_per_m2 * 2.0 * math.pi * sys.p_target_pa
    return _sum_power_quadrature(
        r_a, lambda r: scale * eta_m(r) * (r * r + h * h) / env.g0 * r, breaks
    )


def expected_sum_power_exact(
    h: float,
    phi_deg: float,
    sys: SystemParams,
    env: EnvironmentParams,
) -> float:
    """Expected sum UE transmit power (W) with the r-dependent excess loss.

    Each distance's mean excess loss is taken at its own elevation; always
    <= the closed-form bound, with equality when eta_los == eta_nlos.  A
    steep S-curve turns within metres of a cell kilometres wide, so the
    first panels start at ``los_break_radii``.
    """

    def eta_m(r: np.ndarray) -> np.ndarray:
        return channel.mean_additional_path_loss(channel.elevation_deg(r, h), env)

    return _sum_power_integral(h, phi_deg, sys, env, eta_m, los_break_radii(h, env))


def expected_sum_power_edge_quadrature(
    h: float,
    phi_deg: float,
    sys: SystemParams,
    env: EnvironmentParams,
) -> float:
    """Quadrature of the sum-power integrand with the edge-frozen excess loss.

    Independent cross-check of the closed form: same integrand but a
    constant eta_m, so the two must agree to quadrature tolerance.
    """
    eta_m = float(channel.mean_additional_path_loss(phi_deg, env))
    return _sum_power_integral(h, phi_deg, sys, env, lambda r: eta_m)


def sinr(n_ue: float, sys: SystemParams) -> float:
    """Uplink SINR under worst-case co-channel interference."""
    signal = sys.p_target_pa * n_ue
    return signal / (
        sys.num_interferers * signal
        + sys.noise_psd_w_per_hz * sys.bandwidth_hz
    )


def sum_rate(h, phi_deg, sys: SystemParams):
    """Cell sum uplink rate W log2(1 + SINR) (bit/s) for the expected UE
    count; saturates at W log2(1 + 1/M)."""
    r_a = channel.require_coverage(h, phi_deg)
    return sys.bandwidth_hz * np.log2(1.0 + sinr(cell_ue_count(r_a, sys), sys))


def h_max_power_constraint(phi_deg, sys: SystemParams, env: EnvironmentParams):
    """Altitude above which the cell-edge UE would exceed its power cap.

    sqrt(P_max g0 / (P_a eta_m (1 + cot^2(phi)))); at this altitude the edge
    UE's power-controlled transmit power equals P_max exactly.
    """
    cot2 = channel.cot_squared(phi_deg)
    eta_m = channel.mean_additional_path_loss(phi_deg, env)
    return np.sqrt(sys.p_max_w * env.g0 / (sys.p_target_pa * eta_m * (1.0 + cot2)))
