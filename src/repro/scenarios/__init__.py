"""Declarative scenario / campaign subsystem.

Every run loop in the codebase — chunked start-up, factory calibration,
temperature calibration, datasheet characterisation, simulation-backed
DSE, the examples and the benchmarks — is expressed as
:class:`Scenario` objects executed by a :class:`Campaign`, which runs
lanes as fleets on any engine with identical, bit-exact results.  Two
orthogonal registries pick the run mechanics: *engines* (how a platform
is stepped) and *executors* (where the lanes run — in-process or sharded
across worker processes with a resumable batch manifest).
"""

from .engines import (
    ENGINE_REFERENCE,
    EngineSpec,
    engine_names,
    get_engine,
    register_engine,
    validate_engine,
)
from .scenario import Scenario, ScenarioOutcome
from .campaign import Campaign, CampaignResult, LaneOutcome
from .executor import (
    EXECUTOR_LOCAL,
    EXECUTOR_SHARDED,
    ExecutorSpec,
    executor_names,
    get_executor,
    register_executor,
    validate_executor,
)
from .manifest import (
    CampaignManifest,
    ManifestCorruptionError,
    ShardRecord,
)
from .library import (
    NoiseDensity,
    RawRateChannel,
    RunningAtEnd,
    SineResponseGain,
    TraceTailMean,
    TraceTailStd,
    TurnOnTime,
    bandwidth_probe_scenario,
    design_validation_scenarios,
    fault_matrix_scenarios,
    fault_scenario,
    noise_density_from_record,
    noise_floor_scenario,
    rate_table_scenarios,
    settled_output_scenario,
    startup_complete,
    startup_scenario,
    tail_mean,
)

__all__ = [
    "ENGINE_REFERENCE",
    "EngineSpec",
    "engine_names",
    "get_engine",
    "register_engine",
    "validate_engine",
    "EXECUTOR_LOCAL",
    "EXECUTOR_SHARDED",
    "ExecutorSpec",
    "executor_names",
    "get_executor",
    "register_executor",
    "validate_executor",
    "CampaignManifest",
    "ManifestCorruptionError",
    "ShardRecord",
    "Scenario",
    "ScenarioOutcome",
    "Campaign",
    "CampaignResult",
    "LaneOutcome",
    "NoiseDensity",
    "RawRateChannel",
    "RunningAtEnd",
    "SineResponseGain",
    "TraceTailMean",
    "TraceTailStd",
    "TurnOnTime",
    "bandwidth_probe_scenario",
    "design_validation_scenarios",
    "fault_matrix_scenarios",
    "fault_scenario",
    "noise_density_from_record",
    "noise_floor_scenario",
    "rate_table_scenarios",
    "settled_output_scenario",
    "startup_complete",
    "startup_scenario",
    "tail_mean",
]
