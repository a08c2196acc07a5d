"""Air-to-ground channel: LoS probability, mean path loss and coverage radius.

The LoS-probability S-curve takes the elevation angle in degrees; everything
else works in radians/metres.  The degree conversion happens in exactly one
place (``elevation_deg``) to keep the classic unit bug out.  It hands
``np.arctan2`` the altitude filled out to the distances' shape, since a
scalar broadcast against an array keeps arctan2 off its vector loop (about
twice the time for the same floats), and multiplies by 180 / pi itself,
which is what ``np.degrees`` does at several times the cost.  Squares are
products (``r * r + h * h``): Python's float ``**`` calls libm ``pow``,
which is not exact under a power-of-two change of unit.  ``elevation_deg``,
``los_probability`` and ``mean_path_loss_rh`` run each step of the plain
expression, in its order, in place in buffers of their own, so they give
its floats and never write to an array they are given.  Only
``los_probability``, which the GEE chain calls with a scalar angle, runs
the plain expression on a scalar.

All functions accept numpy arrays for the geometric arguments and broadcast
them by numpy's rules: the Monte-Carlo oracle passes arrays of UE
distances, and the GEE chain passes an altitude ``h`` (a scalar, a row or a
block) with the edge elevation ``phi_deg`` in any shape that broadcasts
against it, so an (n, 1) column of thresholds covers a whole (threshold x
altitude) block in one call.  The per-angle trigonometry (tan and cot^2)
comes from ``math`` one angle at a time (``_per_angle``), never from
``np.tan``, whose SIMD loop differs from ``math.tan`` in the last bit on
about 0.5% of angles; a scalar ``phi_deg`` is the size-1 case of the same
code, so an array call gives exactly the floats of the per-angle scalar
calls.  A nadir-only edge (phi within ``NADIR_TOL_DEG`` of 90 deg) has an
infinite tangent, so its radius and cot^2 are exactly 0.

The cell edge is that elevation angle, R_a = h cot(phi); the LoS threshold
delta is the S-curve's value there, and ``phi_from_delta`` inverts it only
where a threshold enters as delta.  Range checks on arguments that may be
arrays use ``np.count_nonzero`` rather than ``np.any``: both accept scalars
and arrays, but on a scalar comparison ``np.any`` costs about ten times more.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateCoverageError
from .params import EnvironmentParams


def elevation_deg(r, h):
    """Elevation angle (degrees) of the AAP at altitude h as seen from a
    ground UE at horizontal distance r.

    The floats of ``np.degrees(np.arctan2(h, r))``, faster: h is filled out
    to r's shape, which puts arctan2 on its vector loop, and ``* (180 / pi)``
    is the multiply ``np.degrees`` performs.
    """
    r = np.asarray(r, dtype=float)
    angles = np.full_like(r, h)
    return np.multiply(np.arctan2(angles, r, out=angles), 180.0 / math.pi, out=angles)


def _check_phi(phi_deg) -> None:
    """Reject an angle outside (0, 90] degrees, NaN included."""
    if np.count_nonzero(np.logical_not((0.0 < phi_deg) & (phi_deg <= 90.0))):
        raise ValueError("elevation angle must lie in (0, 90] degrees")


def los_probability(phi_deg, env: EnvironmentParams):
    """LoS probability at elevation angle phi (degrees): the S-curve model."""
    _check_phi(phi_deg)
    phi_deg = np.asarray(phi_deg, dtype=float)
    # Far below a steep curve's knee exp, or a times it, overflows to inf,
    # and 1 / (1 + inf) is the LoS probability there to double precision: 0.
    with np.errstate(over="ignore"):
        if not phi_deg.ndim:
            return 1.0 / (1.0 + env.a * np.exp(-env.b * (phi_deg - env.a)))
        tail = phi_deg - env.a
        tail *= -env.b
        np.exp(tail, out=tail)
        tail *= env.a
    tail += 1.0
    return np.divide(1.0, tail, out=tail)


def delta_lower_bound(env: EnvironmentParams) -> float:
    """Infimum of LoS probabilities reachable at positive elevation,
    1 / (1 + a exp(a b)), written with exp(-a b) so a steep curve cannot
    overflow."""
    tail = math.exp(-env.a * env.b)
    return tail / (tail + env.a)


def phi_from_delta(delta: float, env: EnvironmentParams) -> float:
    """Elevation angle (degrees) at which the LoS probability equals delta.

    Closed-form inversion of the S-curve; rejects thresholds outside the
    curve's image over (0, 90] degrees.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie strictly between 0 and 1")
    if delta <= delta_lower_bound(env):
        raise ValueError(
            f"delta={delta:g} at or below the minimum reachable LoS probability "
            f"{delta_lower_bound(env):g}"
        )
    phi = env.a - math.log((1.0 - delta) / (env.a * delta)) / env.b
    if 90.0 < phi <= 90.0 + 1e-6:
        phi = 90.0  # rounding overshoot at the top of the S-curve
    if not (0.0 < phi <= 90.0):
        raise ValueError(
            f"delta={delta:g} maps to elevation {phi:g} deg outside (0, 90]"
        )
    return phi


def mean_additional_path_loss(phi_deg, env: EnvironmentParams):
    """LoS-probability-weighted mean excess path loss at elevation phi."""
    eta_m = los_probability(phi_deg, env)
    eta_m *= env.eta_los - env.eta_nlos
    eta_m += env.eta_nlos
    return eta_m


def mean_path_loss_rh(r, h, env: EnvironmentParams):
    """Probabilistic mean path loss for horizontal distance r and altitude h.

    Array-friendly: the Monte-Carlo oracle passes every UE's distance at once.
    Uses each UE's own elevation angle (no edge approximation).
    """
    r = np.asarray(r, dtype=float)
    angles = elevation_deg(r, h)
    eta_m = mean_additional_path_loss(angles, env)
    squares = np.multiply(r, r, out=angles)
    squares += h * h
    eta_m *= squares
    eta_m /= env.g0
    return eta_m


# Edge elevations this close to 90 deg leave a nadir-only cell.
NADIR_TOL_DEG = 1e-9


def _per_angle(fn, phi_deg):
    """``fn`` (plain float arithmetic) applied to each angle in turn, in the
    shape of ``phi_deg``: a Python float for a scalar."""
    if np.ndim(phi_deg) == 0:
        return fn(phi_deg)
    values = [fn(phi) for phi in np.ravel(phi_deg).tolist()]
    return np.reshape(values, np.shape(phi_deg))


def _tan(phi_deg: float) -> float:
    """tan(phi), or inf for a nadir-only edge, where h / tan and cot^2 are 0."""
    if phi_deg >= 90.0 - NADIR_TOL_DEG:
        return math.inf
    return math.tan(math.radians(phi_deg))


def cot_squared(phi_deg):
    """cot^2(phi) for an edge elevation phi (degrees); 0 for a nadir-only edge."""
    return _per_angle(lambda phi: 1.0 / _tan(phi) ** 2, phi_deg)


def coverage_radius(h, phi_deg):
    """Coverage radius h * cot(phi) for the edge elevation phi (degrees), in
    the broadcast shape of ``h`` and ``phi_deg``.

    A zero marks the nadir-only (degenerate) cell at phi = 90 deg; callers
    that cannot proceed with an empty cell raise DegenerateCoverageError.
    """
    if np.count_nonzero(np.logical_not(h > 0)):
        raise ValueError("altitude h must be strictly positive")
    _check_phi(phi_deg)
    return h / _per_angle(_tan, phi_deg)


def require_coverage(h, phi_deg):
    """Coverage radius, raising DegenerateCoverageError when any is zero."""
    r_a = coverage_radius(h, phi_deg)
    if np.count_nonzero(r_a <= 0.0):
        raise DegenerateCoverageError(
            f"coverage region degenerate at h={np.min(h):g} m, "
            f"phi={np.max(phi_deg):g} deg"
        )
    return r_a
