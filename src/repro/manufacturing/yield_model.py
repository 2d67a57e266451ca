"""Die yield models: defect-limited, parametric, and systematic.

Three loss mechanisms combine multiplicatively into the measured
yield, mirroring what the paper's team untangled during the ramp:

* **Defect yield** -- random particle defects, negative-binomial
  (clustered) model: ``Y = (1 + D0*A/alpha)^-alpha``.
* **Parametric yield** -- transistor parameters (Vth, Isat) drift from
  poly critical dimension (CD); dies outside the spec window fail at
  speed/current test.  The paper retargeted Isat/Vth "by optimizing
  poly CD in the foundry according to results from corner lot
  splitting".
* **Systematic/test losses** -- the weak output buffer (5% loss), plus
  probe-card overdrive and power-relay settling overkill, modelled in
  :mod:`repro.manufacturing.probe`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class DefectModel:
    """Negative-binomial defect-limited yield."""

    d0_per_cm2: float = 0.5     # defect density
    alpha: float = 2.0          # clustering parameter

    def yield_for_area(self, die_area_mm2: float) -> float:
        """Expected defect-limited yield for a die of given area."""
        if die_area_mm2 <= 0:
            raise ValueError("die area must be positive")
        area_cm2 = die_area_mm2 / 100.0
        return float(
            (1.0 + self.d0_per_cm2 * area_cm2 / self.alpha) ** (-self.alpha)
        )

    def sample_defect_counts(
        self, die_area_mm2: float, n_dies: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-die defect counts with gamma-mixed (clustered) Poisson."""
        area_cm2 = die_area_mm2 / 100.0
        lam = rng.gamma(
            shape=self.alpha,
            scale=self.d0_per_cm2 * area_cm2 / self.alpha,
            size=n_dies,
        )
        return rng.poisson(lam)


@dataclass(frozen=True)
class ParametricModel:
    """Poly-CD-driven parametric yield.

    CD error (um) shifts Vth and Isat linearly around their targets;
    a die passes when both parameters are inside their spec windows.
    """

    cd_offset_um: float = 0.0           # process miscentring
    cd_sigma_um: float = 0.008          # within-lot CD spread
    vth_target_v: float = 0.50
    vth_per_um: float = -2.0            # dVth/dCD
    vth_window_v: float = 0.065
    isat_target_ma: float = 5.6
    isat_per_um: float = 28.0           # dIsat/dCD
    isat_window_ma: float = 0.9
    vth_noise_v: float = 0.012          # die-level random variation
    isat_noise_ma: float = 0.16

    def parameters_for_cd(self, cd_error_um: float) -> tuple[float, float]:
        """(Vth, Isat) means at a given CD error."""
        vth = self.vth_target_v + self.vth_per_um * cd_error_um
        isat = self.isat_target_ma + self.isat_per_um * cd_error_um
        return vth, isat

    def yield_fraction(self) -> float:
        """Closed-form parametric yield at the current centring."""
        def window_pass(offset_scale, window, noise, cd_scale):
            total_sigma = math.hypot(noise, cd_scale * self.cd_sigma_um)
            z_high = (window - offset_scale) / total_sigma
            z_low = (-window - offset_scale) / total_sigma
            return 0.5 * (math.erfc(-z_high / math.sqrt(2))
                          - math.erfc(-z_low / math.sqrt(2)))

        vth_shift = self.vth_per_um * self.cd_offset_um
        isat_shift = self.isat_per_um * self.cd_offset_um
        vth_pass = window_pass(vth_shift, self.vth_window_v,
                               self.vth_noise_v, abs(self.vth_per_um))
        isat_pass = window_pass(isat_shift, self.isat_window_ma,
                                self.isat_noise_ma, abs(self.isat_per_um))
        # Vth and Isat are driven by the same CD: strongly correlated;
        # the binding constraint dominates.
        return float(min(vth_pass, isat_pass))

    def retargeted(self, new_offset_um: float) -> "ParametricModel":
        """The foundry's poly-CD retarget: move the centring."""
        return replace(self, cd_offset_um=new_offset_um)

    def sample_pass(self, n_dies: int, rng: np.random.Generator
                    ) -> np.ndarray:
        """Monte-Carlo pass/fail per die."""
        cd = rng.normal(self.cd_offset_um, self.cd_sigma_um, size=n_dies)
        vth = (self.vth_target_v + self.vth_per_um * cd
               + rng.normal(0, self.vth_noise_v, size=n_dies))
        isat = (self.isat_target_ma + self.isat_per_um * cd
                + rng.normal(0, self.isat_noise_ma, size=n_dies))
        vth_ok = np.abs(vth - self.vth_target_v) <= self.vth_window_v
        isat_ok = np.abs(isat - self.isat_target_ma) <= self.isat_window_ma
        return vth_ok & isat_ok


@dataclass(frozen=True)
class SystematicLoss:
    """A named deterministic loss mechanism (e.g. the weak output
    buffer that cost 5% of dies until the metal ECO)."""

    name: str
    loss_fraction: float
    active: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_fraction < 1.0:
            raise ValueError("loss fraction must be in [0, 1)")

    @property
    def yield_factor(self) -> float:
        return 1.0 - self.loss_fraction if self.active else 1.0


@dataclass(frozen=True)
class YieldStack:
    """The multiplicative composition of all yield mechanisms."""

    defect: DefectModel
    parametric: ParametricModel
    systematics: tuple[SystematicLoss, ...] = ()
    test_overkill_fraction: float = 0.0

    def expected_yield(self, die_area_mm2: float) -> float:
        """Expected measured yield for a die."""
        value = self.defect.yield_for_area(die_area_mm2)
        value *= self.parametric.yield_fraction()
        for systematic in self.systematics:
            value *= systematic.yield_factor
        value *= 1.0 - self.test_overkill_fraction
        return float(value)

    def breakdown(self, die_area_mm2: float) -> dict[str, float]:
        """Per-mechanism yield factors (multiply to the total)."""
        out = {
            "defect": self.defect.yield_for_area(die_area_mm2),
            "parametric": self.parametric.yield_fraction(),
        }
        for systematic in self.systematics:
            out[systematic.name] = systematic.yield_factor
        out["test_overkill"] = 1.0 - self.test_overkill_fraction
        return out

    def sample_dies(
        self, die_area_mm2: float, n_dies: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Monte-Carlo pass/fail for ``n_dies``."""
        defects = self.defect.sample_defect_counts(die_area_mm2, n_dies, rng)
        passing = defects == 0
        passing &= self.parametric.sample_pass(n_dies, rng)
        for systematic in self.systematics:
            if systematic.active and systematic.loss_fraction > 0:
                passing &= rng.random(n_dies) >= systematic.loss_fraction
        if self.test_overkill_fraction > 0:
            passing &= rng.random(n_dies) >= self.test_overkill_fraction
        return passing
