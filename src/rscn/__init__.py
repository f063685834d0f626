"""Incrementally grown reservoir networks with online readout adaptation."""

from .baselines import BaselineConfig, build_esn, build_scr
from .build import BuildConfig, BuildHistory, build_rscn, solve_output_weights
from .evaluate import TrialReport, emit_report, grid_search, nrmse, run_trials
from .model import (
    BLOCK_LOWER_TRIANGULAR,
    GENERAL,
    ReservoirModel,
    StateSequence,
    load_model,
    readout,
    run_reservoir,
    save_model,
)
from .online import OnlineConfig, OnlineState, online_run
from .spectral import esp_check, max_singular_value, scale_feedback
from .tasks import (
    MGParams,
    PlantParams,
    SupervisedSequence,
    TaskData,
    load_csv,
    mackey_glass,
    mg_task,
    plant_simulate,
    task_from_manifest,
)

__all__ = [
    "BLOCK_LOWER_TRIANGULAR",
    "GENERAL",
    "BaselineConfig",
    "BuildConfig",
    "BuildHistory",
    "MGParams",
    "OnlineConfig",
    "OnlineState",
    "PlantParams",
    "ReservoirModel",
    "StateSequence",
    "SupervisedSequence",
    "TaskData",
    "TrialReport",
    "build_esn",
    "build_rscn",
    "build_scr",
    "emit_report",
    "esp_check",
    "grid_search",
    "load_csv",
    "load_model",
    "mackey_glass",
    "max_singular_value",
    "mg_task",
    "nrmse",
    "online_run",
    "plant_simulate",
    "readout",
    "run_reservoir",
    "run_trials",
    "save_model",
    "scale_feedback",
    "solve_output_weights",
    "task_from_manifest",
]
