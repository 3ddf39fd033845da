"""Substrate: event-driven online simulation engine and classic policies."""

from .base import EngineError, InfeasibleOnline, JobState, LowerBoundError, Policy
from .edf import EDF, NonPreemptiveEDF, stable_machine_assignment
from .engine import OnlineEngine, min_machines, simulate, succeeds
from .doubling import (
    DoublingPolicy,
    FirstFitAssigner,
    LaminarAssigner,
    run_doubling,
)
from .llf import LLF
from .nonmigratory import (
    BestFitEDF,
    CommitAtReleasePolicy,
    DeferredEDF,
    EmptiestFitEDF,
    FirstFitEDF,
    SeededRandomFit,
    local_edf_feasible,
    machine_workload,
)

__all__ = [
    "EngineError",
    "InfeasibleOnline",
    "JobState",
    "LowerBoundError",
    "Policy",
    "EDF",
    "NonPreemptiveEDF",
    "stable_machine_assignment",
    "OnlineEngine",
    "min_machines",
    "simulate",
    "succeeds",
    "LLF",
    "DoublingPolicy",
    "FirstFitAssigner",
    "LaminarAssigner",
    "run_doubling",
    "SeededRandomFit",
    "DeferredEDF",
    "BestFitEDF",
    "CommitAtReleasePolicy",
    "EmptiestFitEDF",
    "FirstFitEDF",
    "local_edf_feasible",
    "machine_workload",
]
