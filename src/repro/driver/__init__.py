"""Driver — partitioning specs, inference, and the figure-3 pipeline."""

from .infer import infer_array_entities
from .pipeline import (
    PipelineRun,
    build_global_env,
    check,
    run_pipeline,
    run_sequential,
)
from .report import pipeline_report

__all__ = [
    "PipelineRun", "build_global_env", "check", "infer_array_entities",
    "pipeline_report", "run_pipeline", "run_sequential",
]
