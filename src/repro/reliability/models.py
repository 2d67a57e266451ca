"""Reliability physics: acceleration models and life distributions.

Section 3: "The chip also went through reliability test including ESD
performance test, temperature cycle test, high/low temperature storage
test and humidity/temperature test."  Each stress maps to its
industry-standard acceleration model:

* ESD           -- HBM withstand voltage per pin (lognormal across units)
* Temp cycling  -- Coffin-Manson, ``N_f = A * dT^-n``
* HT storage    -- Arrhenius, ``t_f = A * exp(Ea / kT)``
* Humidity      -- Peck, ``t_f = A * RH^-n * exp(Ea / kT)``
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOLTZMANN_EV = 8.617e-5  # eV/K


@dataclass(frozen=True)
class LognormalLife:
    """A lognormal time/cycles-to-failure distribution."""

    median: float
    sigma: float = 0.5

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.lognormal(math.log(self.median), self.sigma, size=n)

    def fraction_failing_by(self, stress_amount: float) -> float:
        """CDF at a stress duration/count."""
        if stress_amount <= 0:
            return 0.0
        z = (math.log(stress_amount) - math.log(self.median)) / self.sigma
        return 0.5 * math.erfc(-z / math.sqrt(2))


@dataclass(frozen=True)
class EsdModel:
    """HBM ESD withstand, lognormal across pins/units."""

    median_withstand_v: float = 4200.0
    sigma: float = 0.22

    def survives(self, level_v: float, n: int, rng: np.random.Generator
                 ) -> np.ndarray:
        withstand = rng.lognormal(
            math.log(self.median_withstand_v), self.sigma, size=n
        )
        return withstand >= level_v


@dataclass(frozen=True)
class CoffinManson:
    """Thermal-cycling fatigue: cycles to failure vs temperature swing."""

    a_coefficient: float = 4.0e9
    exponent: float = 2.5
    sigma: float = 0.6

    def median_cycles(self, delta_t_c: float) -> float:
        if delta_t_c <= 0:
            raise ValueError("temperature swing must be positive")
        return self.a_coefficient * delta_t_c ** (-self.exponent)

    def life(self, delta_t_c: float) -> LognormalLife:
        return LognormalLife(self.median_cycles(delta_t_c), self.sigma)


@dataclass(frozen=True)
class Arrhenius:
    """Thermally-activated wearout (storage bake)."""

    a_coefficient_hours: float = 3.0e-3
    activation_energy_ev: float = 0.7
    sigma: float = 0.5

    def median_hours(self, temperature_c: float) -> float:
        t_kelvin = temperature_c + 273.15
        return self.a_coefficient_hours * math.exp(
            self.activation_energy_ev / (BOLTZMANN_EV * t_kelvin)
        )

    def life(self, temperature_c: float) -> LognormalLife:
        return LognormalLife(self.median_hours(temperature_c), self.sigma)


@dataclass(frozen=True)
class PeckHumidity:
    """Humidity/temperature wearout (85/85 THB)."""

    a_coefficient_hours: float = 9.0e-3
    humidity_exponent: float = 3.0
    activation_energy_ev: float = 0.79
    sigma: float = 0.5

    def median_hours(self, rh_percent: float, temperature_c: float) -> float:
        if not 0 < rh_percent <= 100:
            raise ValueError("relative humidity must be in (0, 100]")
        t_kelvin = temperature_c + 273.15
        return (
            self.a_coefficient_hours
            * (rh_percent / 100.0) ** (-self.humidity_exponent)
            * math.exp(self.activation_energy_ev / (BOLTZMANN_EV * t_kelvin))
        )

    def life(self, rh_percent: float, temperature_c: float) -> LognormalLife:
        return LognormalLife(
            self.median_hours(rh_percent, temperature_c), self.sigma
        )
