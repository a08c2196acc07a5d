"""Immutable parameter records for the propagation environment, the radio
system and the UAV energy model.

All excess-loss figures are stored as linear power ratios; ``from_db``
accepts the usual dB inputs and converts once, at construction time.  The
reference gain is given as g0 only, and the target power only through the
target SNR gamma, from which ``SystemParams.p_target_pa`` is derived.
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


def db_to_linear(value_db: float) -> float:
    """Convert a dB power quantity to a linear ratio."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ConfigError(
            f"{value_db:g} dB overflows the floating-point range"
        ) from None


@dataclass(frozen=True)
class EnvironmentParams:
    """Air-to-ground channel constants for one propagation environment.

    a, b           S-curve parameters of the LoS-probability model
    eta_los        mean excess path loss for LoS links (linear ratio)
    eta_nlos       mean excess path loss for N-LoS links (linear ratio)
    g0             channel gain at the 1 m reference distance (linear ratio)
    """

    a: float
    b: float
    eta_los: float
    eta_nlos: float
    g0: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.a > 0 and self.b > 0):
            raise ConfigError("LoS-probability parameters a, b must be positive")
        if not (1.0 <= self.eta_los <= self.eta_nlos):
            raise ConfigError(
                "excess losses must satisfy 1 <= eta_los <= eta_nlos (linear scale)"
            )
        if not (0.0 < self.g0 < 1.0):
            raise ConfigError("reference gain g0 must lie in (0, 1)")

    @classmethod
    def from_db(
        cls, a: float, b: float, eta_los_db: float, eta_nlos_db: float, g0: float
    ) -> "EnvironmentParams":
        """Build from dB excess losses and the linear reference gain g0."""
        return cls(
            a=a,
            b=b,
            eta_los=db_to_linear(eta_los_db),
            eta_nlos=db_to_linear(eta_nlos_db),
            g0=g0,
        )


@dataclass(frozen=True)
class SystemParams:
    """Radio and network constants for one deployment scenario.

    bandwidth_w          total system bandwidth, Hz
    num_interferers_m    number of co-channel neighbour AAPs
    circuit_power_pc     hardware circuit power, W
    service_time_t       service period, s
    p_max                per-UE transmit power cap, W
    gamma                target SNR P_a / (sigma0^2 W) of the arrived power
    noise_psd_sigma0sq   noise power spectral density, W/Hz
    ue_density_rho       UE density, 1/m^2
    h_min, h_max         permitted altitude range, m
    area_radius_r        radius of the target area, m

    Each UE is allocated one resource block and transmits P_a L(r, h) under
    full power control, as the closed forms and the Monte-Carlo oracle both
    assume.
    """

    bandwidth_w: float
    num_interferers_m: int
    circuit_power_pc: float
    service_time_t: float
    p_max: float
    gamma: float
    noise_psd_sigma0sq: float
    ue_density_rho: float
    h_min: float
    h_max: float
    area_radius_r: float

    def __post_init__(self) -> None:
        _require_finite(self)
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name != "num_interferers_m" and value <= 0:
                raise ConfigError(f"{field.name} must be strictly positive, got {value!r}")
        if self.h_min > self.h_max:
            raise ConfigError("h_min must not exceed h_max")
        if self.num_interferers_m < 0:
            raise ConfigError("num_interferers_m must be non-negative")
        _require_normal("noise_psd * bandwidth", self.noise_psd_sigma0sq * self.bandwidth_w)
        if not math.isfinite(self.p_target_pa):
            raise ConfigError(
                "gamma * noise_psd * bandwidth overflows the floating-point range"
            )
        _require_normal("gamma * noise_psd * bandwidth", self.p_target_pa)

    @property
    def p_target_pa(self) -> float:
        """Target arrived power P_a = gamma sigma0^2 W at the AAP, W."""
        return self.gamma * self.noise_psd_sigma0sq * self.bandwidth_w


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
    """Climb and hover energy coefficients of the aerial vehicle.

    Climb energy is a one-shot cost alpha_cl*h + beta_cl (J); hovering draws
    alpha_ho*h + beta_ho (W) for the whole service period.  Zeroed parameters
    are accepted so the vehicle-energy ablation can be expressed.
    """

    alpha_cl: float
    beta_cl: float
    alpha_ho: float
    beta_ho: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.alpha_cl >= 0 and self.alpha_ho >= 0):
            raise ConfigError("energy slopes alpha_cl, alpha_ho must be non-negative")

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
            if not self.alpha_cl * h + self.beta_cl > 0:
                raise ConfigError(
                    f"climb energy non-positive at h={h} m; check alpha_cl/beta_cl"
                )
            if not self.alpha_ho * h + self.beta_ho >= 0:
                raise ConfigError(
                    f"hover power negative at h={h} m; check alpha_ho/beta_ho"
                )
