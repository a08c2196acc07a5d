"""Immutable parameter records for the propagation environment, the radio
system and the UAV energy model.

All excess-loss figures are stored as linear power ratios; helpers accept the
usual dB inputs and convert once, at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def db_to_linear(value_db: float) -> float:
    """Convert a dB power quantity to a linear ratio."""
    return 10.0 ** (value_db / 10.0)


def reference_gain_from_frequency(carrier_frequency_hz: float) -> float:
    """Free-space channel gain at 1 m for the given carrier frequency."""
    if carrier_frequency_hz <= 0:
        raise ConfigError("carrier frequency must be positive")
    return (SPEED_OF_LIGHT / (4.0 * math.pi * carrier_frequency_hz)) ** 2


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
        if self.a <= 0 or self.b <= 0:
            raise ConfigError("LoS-probability parameters a, b must be positive")
        if not (1.0 <= self.eta_los <= self.eta_nlos):
            raise ConfigError(
                "excess losses must satisfy 1 <= eta_los <= eta_nlos (linear scale)"
            )
        if not (0.0 < self.g0 < 1.0):
            raise ConfigError("reference gain g0 must lie in (0, 1)")

    @classmethod
    def from_db(
        cls,
        a: float,
        b: float,
        eta_los_db: float,
        eta_nlos_db: float,
        g0: float | None = None,
        carrier_frequency_hz: float | None = None,
    ) -> "EnvironmentParams":
        """Build from dB excess losses and either g0 or a carrier frequency.

        If both g0 and the frequency are supplied they must agree to 1%
        (catches unit mistakes in scenario files).
        """
        if g0 is None and carrier_frequency_hz is None:
            raise ConfigError("one of g0 or carrier frequency is required")
        derived = (
            reference_gain_from_frequency(carrier_frequency_hz)
            if carrier_frequency_hz is not None
            else None
        )
        if g0 is not None and derived is not None:
            if abs(g0 - derived) > 0.01 * g0:
                raise ConfigError(
                    f"g0={g0:g} inconsistent with carrier frequency "
                    f"(implies g0={derived:g})"
                )
        return cls(
            a=a,
            b=b,
            eta_los=db_to_linear(eta_los_db),
            eta_nlos=db_to_linear(eta_nlos_db),
            g0=g0 if g0 is not None else derived,
        )


@dataclass(frozen=True)
class SystemParams:
    """Radio and network constants for one deployment scenario.

    bandwidth_w          total system bandwidth, Hz
    num_interferers_m    number of co-channel neighbour AAPs
    circuit_power_pc     hardware circuit power, W
    service_time_t       service period, s
    p_max                per-UE transmit power cap, W
    p_target_pa          target arrived power at the AAP, W
    noise_psd_sigma0sq   noise power spectral density, W/Hz
    ue_density_rho       UE density, 1/m^2
    h_min, h_max         permitted altitude range, m
    area_radius_r        radius of the target area, m
    resource_blocks_b    allocated resource blocks (analysis assumes 1)
    tpc_beta             fractional power-control exponent (analysis assumes 1)
    """

    bandwidth_w: float
    num_interferers_m: int
    circuit_power_pc: float
    service_time_t: float
    p_max: float
    p_target_pa: float
    noise_psd_sigma0sq: float
    ue_density_rho: float
    h_min: float
    h_max: float
    area_radius_r: float
    resource_blocks_b: int = 1
    tpc_beta: float = 1.0

    def __post_init__(self) -> None:
        positives = {
            "bandwidth_w": self.bandwidth_w,
            "circuit_power_pc": self.circuit_power_pc,
            "p_max": self.p_max,
            "p_target_pa": self.p_target_pa,
            "noise_psd_sigma0sq": self.noise_psd_sigma0sq,
            "ue_density_rho": self.ue_density_rho,
            "h_min": self.h_min,
            "h_max": self.h_max,
            "area_radius_r": self.area_radius_r,
        }
        for name, value in positives.items():
            if value <= 0:
                raise ConfigError(f"{name} must be strictly positive, got {value!r}")
        if self.service_time_t < 0:
            raise ConfigError("service_time_t must be non-negative")
        if self.h_min > self.h_max:
            raise ConfigError("h_min must not exceed h_max")
        if self.num_interferers_m < 0:
            raise ConfigError("num_interferers_m must be non-negative")
        if not (0.0 < self.tpc_beta <= 1.0):
            raise ConfigError("tpc_beta must lie in (0, 1]")
        if self.resource_blocks_b < 1:
            raise ConfigError("resource_blocks_b must be at least 1")

    @property
    def gamma(self) -> float:
        """Target-arrived-power to noise ratio P_a / (sigma0^2 W)."""
        return self.p_target_pa / (self.noise_psd_sigma0sq * self.bandwidth_w)

    def with_gamma(self, gamma: float) -> "SystemParams":
        """Copy of these parameters with the target power set from gamma."""
        if gamma <= 0:
            raise ConfigError("gamma must be strictly positive")
        return replace(
            self, p_target_pa=gamma * self.noise_psd_sigma0sq * self.bandwidth_w
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
        if self.alpha_cl < 0 or self.alpha_ho < 0:
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
            if self.alpha_cl * h + self.beta_cl <= 0:
                raise ConfigError(
                    f"climb energy non-positive at h={h} m; check alpha_cl/beta_cl"
                )
            if self.alpha_ho * h + self.beta_ho < 0:
                raise ConfigError(
                    f"hover power negative at h={h} m; check alpha_ho/beta_ho"
                )
