"""Air-to-ground channel: LoS probability, mean path loss and coverage radius.

The LoS-probability S-curve takes the elevation angle in degrees; everything
else works in radians/metres.  The degree conversion happens in exactly one
place (``elevation_deg``) to keep the classic unit bug out.

All functions accept numpy arrays for the geometric arguments and broadcast:
the Monte-Carlo oracle passes arrays of UE distances, and the GEE chain
passes an altitude ``h`` (a scalar, a row or a block) with the edge
elevation ``phi_deg`` a scalar or a 1-D array.  A 1-D ``phi_deg`` is a
column (``phi_column``): row i of every result belongs to threshold i, so one
call covers a whole (threshold x altitude) block.  The per-angle
trigonometry (tan and cot^2) comes from ``math`` one angle at a time
(``_per_angle``), never from ``np.tan``, whose SIMD loop differs from
``math.tan`` in the last bit on about 0.5% of angles; a scalar ``phi_deg``
is the size-1 case of the same code, so a column call gives exactly the
floats of the per-angle scalar calls.

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
    """Elevation angle (degrees) of the AAP as seen from a ground UE."""
    return np.degrees(np.arctan2(h, r))


def _check_phi(phi_deg) -> None:
    """Reject an angle outside (0, 90] degrees, NaN included."""
    if np.count_nonzero(np.logical_not((0.0 < phi_deg) & (phi_deg <= 90.0))):
        raise ValueError("elevation angle must lie in (0, 90] degrees")


def los_probability(phi_deg, env: EnvironmentParams):
    """LoS probability at elevation angle phi (degrees): the S-curve model."""
    _check_phi(phi_deg)
    return 1.0 / (1.0 + env.a * np.exp(-env.b * (np.asarray(phi_deg, dtype=float) - env.a)))


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
    p_los = los_probability(phi_deg, env)
    return env.eta_nlos + p_los * (env.eta_los - env.eta_nlos)


def mean_path_loss_rh(r, h, env: EnvironmentParams):
    """Probabilistic mean path loss for horizontal distance r and altitude h.

    Array-friendly: the Monte-Carlo oracle passes every UE's distance at once.
    Uses each UE's own elevation angle (no edge approximation).
    """
    eta_m = mean_additional_path_loss(elevation_deg(r, h), env)
    return eta_m * (np.asarray(r, dtype=float) ** 2 + h**2) / env.g0


# Edge elevations this close to 90 deg leave a nadir-only cell.
NADIR_TOL_DEG = 1e-9


def phi_column(phi_deg):
    """A 1-D ``phi_deg`` as an (n, 1) float column; a scalar unchanged."""
    if np.ndim(phi_deg) == 0:
        return phi_deg
    return np.asarray(phi_deg, dtype=float).reshape(-1, 1)


def _per_angle(fn, phi_deg):
    """``fn`` (plain float arithmetic) applied to each angle in turn: a float
    for a scalar ``phi_deg``, an (n, 1) column for a 1-D one."""
    if np.ndim(phi_deg) == 0:
        return fn(phi_deg)
    return np.array([fn(phi) for phi in np.ravel(phi_deg).tolist()]).reshape(-1, 1)


def _tan(phi_deg: float) -> float:
    return math.tan(math.radians(phi_deg))


def _cot_squared(phi_deg: float) -> float:
    if phi_deg >= 90.0 - NADIR_TOL_DEG:
        return 0.0
    return 1.0 / _tan(phi_deg) ** 2


def cot_squared(phi_deg):
    """cot^2(phi) for an edge elevation phi (degrees), 0 for a nadir-only
    edge; a 1-D ``phi_deg`` gives an (n, 1) column."""
    return _per_angle(_cot_squared, phi_deg)


def coverage_radius(h, phi_deg):
    """Coverage radius h * cot(phi) for the edge elevation phi (degrees); 0.0
    when the cell degenerates.

    ``h`` may be a scalar or an array, and ``phi_deg`` a scalar or a 1-D
    column (``phi_column``); the result has their broadcast shape.  A zero
    marks the nadir-only (degenerate) cell at phi = 90 deg; callers that
    cannot proceed with an empty cell raise DegenerateCoverageError.
    """
    if np.count_nonzero(h <= 0):
        raise ValueError("altitude h must be strictly positive")
    phi = phi_column(phi_deg)
    _check_phi(phi)
    r_a = h / _per_angle(_tan, phi)
    nadir = phi >= 90.0 - NADIR_TOL_DEG
    if np.count_nonzero(nadir):
        return np.where(nadir, 0.0, r_a)[()]
    return r_a


def require_coverage(h, phi_deg):
    """Coverage radius, raising DegenerateCoverageError when any is zero."""
    r_a = coverage_radius(h, phi_deg)
    if np.count_nonzero(r_a <= 0.0):
        raise DegenerateCoverageError(
            f"coverage region degenerate at h={np.min(h):g} m, "
            f"phi={np.max(phi_deg):g} deg"
        )
    return r_a
