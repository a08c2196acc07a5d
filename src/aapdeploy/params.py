"""Immutable parameter records for the propagation environment, the radio
system and the UAV energy model.

Each field is the scenario key of the same name, in the key's unit, so a
record and a refusal name a quantity as the file spells it.  The fields are
the only list of the physics keys: ``scenario`` reads each section's keys
from its record, so adding a field adds a required scenario key.
``EnvironmentParams.eta_los``/``eta_nlos`` derive the linear excess losses
from the dB keys, and ``SystemParams.p_target_pa`` the target power from gamma.

Each key's name ends in its unit (``_m``, ``_per_m2``, ``_w_per_hz``, ...), and
a name without one (``a``, ``gamma``, ``num_interferers``) is a pure number,
so the table below states no units.  The one exception is ``g0``: the gain
at a 1 m reference distance is in m².

    key                   symbol  quantity
    a, b                  a, b    LoS S-curve parameters (angle in deg)
    eta_los_db            η_LoS   mean excess path loss, LoS links
    eta_nlos_db           η_NLoS  mean excess path loss, N-LoS links
    g0                    g0      channel gain at the 1 m reference, m²
    bandwidth_hz          W       system bandwidth
    num_interferers       M       co-channel neighbour AAPs
    circuit_power_w       P_C     hardware circuit power
    service_time_s        T       service period
    p_max_w               P_max   per-UE transmit power cap
    gamma                 γ       target SNR P_a / (σ0² W)
    noise_psd_w_per_hz    σ0²     noise power spectral density
    ue_density_per_m2     ρ       UE density
    h_min_m, h_max_m      h       permitted altitude range
    area_radius_m         R       radius of the target area
    alpha_climb_j_per_m   α_cl    climb energy per metre of altitude
    beta_climb_j          β_cl    climb energy offset
    alpha_hover_w_per_m   α_ho    hover power per metre of altitude
    beta_hover_w          β_ho    hover power offset
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from .errors import ConfigError


def _require_finite(record) -> None:
    """Refuse a record with a NaN or infinite field."""
    for field in fields(record):
        value = getattr(record, field.name)
        if not math.isfinite(value):
            raise ConfigError(f"{field.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class EnvironmentParams:
    """Air-to-ground channel constants for one propagation environment:
    the ``[environment]`` keys (table above)."""

    a: float
    b: float
    eta_los_db: float
    eta_nlos_db: float
    g0: float

    def __post_init__(self) -> None:
        _require_finite(self)
        for key in ("eta_los_db", "eta_nlos_db"):
            try:
                getattr(self, key.removesuffix("_db"))
            except OverflowError:
                raise ConfigError(
                    f"{key} = {getattr(self, key):g} dB overflows the floating-point range"
                ) from None
        if not (self.a > 0 and self.b > 0):
            raise ConfigError("LoS-probability parameters a, b must be positive")
        if not (0.0 <= self.eta_los_db <= self.eta_nlos_db):
            raise ConfigError("excess losses must satisfy 0 <= eta_los_db <= eta_nlos_db")
        if not (0.0 < self.g0 < 1.0):
            raise ConfigError("reference gain g0 must lie in (0, 1)")

    @property
    def eta_los(self) -> float:
        """Mean excess path loss for LoS links, as a linear ratio."""
        return 10.0 ** (self.eta_los_db / 10.0)

    @property
    def eta_nlos(self) -> float:
        """Mean excess path loss for N-LoS links, as a linear ratio."""
        return 10.0 ** (self.eta_nlos_db / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Radio and network constants for one deployment scenario: the
    ``[system]`` keys (table above).

    Each UE is allocated one resource block and transmits P_a L(r, h) under
    full power control, as the closed forms and the Monte-Carlo oracle both
    assume.
    """

    bandwidth_hz: float
    num_interferers: int
    circuit_power_w: float
    service_time_s: float
    p_max_w: float
    gamma: float
    noise_psd_w_per_hz: float
    ue_density_per_m2: float
    h_min_m: float
    h_max_m: float
    area_radius_m: float

    def __post_init__(self) -> None:
        _require_finite(self)
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name != "num_interferers" and value <= 0:
                raise ConfigError(f"{field.name} must be strictly positive, got {value!r}")
        if self.h_min_m > self.h_max_m:
            raise ConfigError("h_min_m must not exceed h_max_m")
        if self.num_interferers < 0:
            raise ConfigError("num_interferers must be non-negative")
        noise = "noise_psd_w_per_hz * bandwidth_hz"
        _require_normal(noise, self.noise_psd_w_per_hz * self.bandwidth_hz)
        if not math.isfinite(self.p_target_pa):
            raise ConfigError(f"gamma * {noise} overflows the floating-point range")
        _require_normal(f"gamma * {noise}", self.p_target_pa)

    @property
    def p_target_pa(self) -> float:
        """Target arrived power P_a = gamma sigma0^2 W at the AAP, W."""
        return self.gamma * self.noise_psd_w_per_hz * self.bandwidth_hz


def _require_normal(name: str, power_w: float) -> None:
    """Refuse a power below the smallest normal float: a subnormal keeps
    fewer significant digits, so every figure computed from it loses them."""
    if power_w < sys.float_info.min:
        raise ConfigError(
            f"{name} = {power_w:g} W lies below the smallest normal float "
            f"{sys.float_info.min:g}"
        )


@dataclass(frozen=True)
class UavEnergyParams:
    """Climb and hover energy coefficients of the aerial vehicle: the
    ``[uav]`` keys (table above).

    Climb energy is a one-shot cost α_cl h + β_cl (J); hovering draws
    α_ho h + β_ho (W) for the whole service period.  Zeroed parameters
    are accepted so the vehicle-energy ablation can be expressed.
    """

    alpha_climb_j_per_m: float
    beta_climb_j: float
    alpha_hover_w_per_m: float
    beta_hover_w: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.alpha_climb_j_per_m >= 0 and self.alpha_hover_w_per_m >= 0):
            raise ConfigError(
                "energy slopes alpha_climb_j_per_m, alpha_hover_w_per_m must be non-negative"
            )

    @classmethod
    def zero(cls) -> "UavEnergyParams":
        """All-zero coefficients (vehicle-energy ablation)."""
        return cls(0.0, 0.0, 0.0, 0.0)

    def validate_range(self, h_min: float, h_max: float) -> None:
        """Reject coefficient sets with non-positive climb energy or negative
        hover power in range (both are linear in h, so the end points decide)."""
        if self == UavEnergyParams.zero():
            return
        for h in (h_min, h_max):
            if not self.alpha_climb_j_per_m * h + self.beta_climb_j > 0:
                raise ConfigError(
                    f"climb energy non-positive at h={h} m; "
                    "check alpha_climb_j_per_m/beta_climb_j"
                )
            if not self.alpha_hover_w_per_m * h + self.beta_hover_w >= 0:
                raise ConfigError(
                    f"hover power negative at h={h} m; "
                    "check alpha_hover_w_per_m/beta_hover_w"
                )
