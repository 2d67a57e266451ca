"""Verification: testbenches, regression, cross-simulator checks."""

from .testbench import (
    Testbench,
    TestbenchResult,
    random_stimulus,
    toggle_coverage,
)
from .regression import (
    CrossSimReport,
    RegressionReport,
    cross_simulator_check,
    run_regression,
)
from .crossval import (
    DivergenceValidation,
    cross_validate_divergence,
)
from .emulation import (
    CampaignPlan,
    CampaignSpec,
    EMULATOR,
    SIMULATOR,
    VerificationPlatform,
    best_strategy,
    plan_emulator_only,
    plan_hybrid,
    plan_simulator_only,
)

__all__ = [
    "Testbench",
    "TestbenchResult",
    "random_stimulus",
    "toggle_coverage",
    "CrossSimReport",
    "RegressionReport",
    "cross_simulator_check",
    "run_regression",
    "DivergenceValidation",
    "cross_validate_divergence",
    "CampaignPlan",
    "CampaignSpec",
    "EMULATOR",
    "SIMULATOR",
    "VerificationPlatform",
    "best_strategy",
    "plan_emulator_only",
    "plan_hybrid",
    "plan_simulator_only",
]
