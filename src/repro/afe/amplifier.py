"""Amplifier models: programmable-gain amplifier and charge amplifier.

The front end contains "amplifiers and voltage/current sources, which
are essential building blocks for automotive sensors conditioning", and
"programming main components parameters (such as amplifier gains and
bandwidth ...) through the digital part allows a more accurate
adaptation of the front end circuitry".  Both models therefore expose
register-programmable gain and keep the non-idealities that matter for
the rate output: offset, noise, finite bandwidth and rail clipping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..common.exceptions import ConfigurationError
from ..common.noise import BufferedGaussianNoise
from ..common.units import ROOM_TEMPERATURE_C


@dataclass
class AmplifierConfig:
    """Configuration of a programmable-gain amplifier channel.

    Attributes:
        gain_settings: selectable closed-loop gains (register-indexed).
        gain_index: currently selected gain setting.
        bandwidth_hz: single-pole closed-loop bandwidth; ``None`` = ideal.
        offset_v: input-referred offset at 25 °C.
        offset_tc_v_per_c: offset drift [V/°C].
        noise_density_v_rthz: input-referred white-noise density.
        rail_v: output saturation (±rail_v).
    """

    gain_settings: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    gain_index: int = 0
    bandwidth_hz: Optional[float] = 200_000.0
    offset_v: float = 0.0
    offset_tc_v_per_c: float = 0.0
    noise_density_v_rthz: float = 0.0
    rail_v: float = 2.5

    def __post_init__(self) -> None:
        if not self.gain_settings:
            raise ConfigurationError("at least one gain setting is required")
        if any(g <= 0 for g in self.gain_settings):
            raise ConfigurationError("gain settings must be > 0")
        if not 0 <= self.gain_index < len(self.gain_settings):
            raise ConfigurationError("gain_index out of range")
        if self.bandwidth_hz is not None and self.bandwidth_hz <= 0:
            raise ConfigurationError("bandwidth must be > 0 or None")
        if self.rail_v <= 0:
            raise ConfigurationError("rail voltage must be > 0")


class ProgrammableGainAmplifier:
    """Sample-domain PGA with selectable gain and a single-pole response."""

    def __init__(self, config: AmplifierConfig, sample_rate_hz: float,
                 seed: Optional[int] = 0):
        if sample_rate_hz <= 0:
            raise ConfigurationError("sample rate must be > 0")
        self.config = config
        self.sample_rate_hz = float(sample_rate_hz)
        self._noise_sigma = float(config.noise_density_v_rthz
                                  * np.sqrt(self.sample_rate_hz / 2.0))
        self._noise = BufferedGaussianNoise(self._noise_sigma, seed)
        self._state = 0.0
        self._update_pole()

    def _update_pole(self) -> None:
        bw = self.config.bandwidth_hz
        if bw is None or bw >= self.sample_rate_hz / 2.0:
            self._alpha = 1.0  # effectively instantaneous
        else:
            self._alpha = float(1.0 - np.exp(-2.0 * np.pi * bw
                                             / self.sample_rate_hz))

    @property
    def gain(self) -> float:
        """Currently selected gain."""
        return self.config.gain_settings[self.config.gain_index]

    def select_gain(self, index: int) -> float:
        """Select a gain setting by register index and return the new gain."""
        if not 0 <= index < len(self.config.gain_settings):
            raise ConfigurationError(
                f"gain index {index} out of range "
                f"(0..{len(self.config.gain_settings) - 1})")
        self.config.gain_index = index
        return self.gain

    def set_bandwidth(self, bandwidth_hz: Optional[float]) -> None:
        """Reprogram the closed-loop bandwidth."""
        if bandwidth_hz is not None and bandwidth_hz <= 0:
            raise ConfigurationError("bandwidth must be > 0 or None")
        self.config.bandwidth_hz = bandwidth_hz
        self._update_pole()

    def step(self, voltage: float,
             temperature_c: float = ROOM_TEMPERATURE_C) -> float:
        """Amplify one sample."""
        cfg = self.config
        dt_c = temperature_c - ROOM_TEMPERATURE_C
        offset = cfg.offset_v + cfg.offset_tc_v_per_c * dt_c
        noise = self._noise.next()
        ideal = (voltage + offset + noise) * self.gain
        # single-pole low-pass toward the ideal output
        self._state += self._alpha * (ideal - self._state)
        rail = cfg.rail_v
        out = self._state
        return -rail if out < -rail else (rail if out > rail else out)

    def reset(self) -> None:
        """Clear the filter state."""
        self._state = 0.0


@dataclass
class ChargeAmplifierConfig:
    """Configuration of the capacitive pick-off charge amplifier.

    Attributes:
        transimpedance_gain: output volts per input volt of pick-off signal
            (the pick-off capacitance-to-voltage conversion is folded into
            the sensor model, so this is a voltage gain here).
        offset_v: output offset at 25 °C.
        offset_tc_v_per_c: offset drift [V/°C].
        noise_density_v_rthz: output-referred noise density.
        rail_v: output saturation.
    """

    transimpedance_gain: float = 1.0
    offset_v: float = 0.0
    offset_tc_v_per_c: float = 0.0
    noise_density_v_rthz: float = 0.0
    rail_v: float = 2.5

    def __post_init__(self) -> None:
        if self.transimpedance_gain <= 0:
            raise ConfigurationError("gain must be > 0")
        if self.rail_v <= 0:
            raise ConfigurationError("rail voltage must be > 0")


class ChargeAmplifier:
    """Pick-off charge amplifier (capacitance-to-voltage interface)."""

    def __init__(self, config: ChargeAmplifierConfig, sample_rate_hz: float,
                 seed: Optional[int] = 0):
        if sample_rate_hz <= 0:
            raise ConfigurationError("sample rate must be > 0")
        self.config = config
        self.sample_rate_hz = float(sample_rate_hz)
        self._noise_sigma = float(config.noise_density_v_rthz
                                  * np.sqrt(self.sample_rate_hz / 2.0))
        self._noise = BufferedGaussianNoise(self._noise_sigma, seed)

    def step(self, pickoff_voltage: float,
             temperature_c: float = ROOM_TEMPERATURE_C) -> float:
        """Convert one pick-off sample to a buffered voltage."""
        cfg = self.config
        dt_c = temperature_c - ROOM_TEMPERATURE_C
        offset = cfg.offset_v + cfg.offset_tc_v_per_c * dt_c
        noise = self._noise.next()
        out = pickoff_voltage * cfg.transimpedance_gain + offset + noise
        rail = cfg.rail_v
        return -rail if out < -rail else (rail if out > rail else out)
