"""Experiment drivers regenerating the paper's tables and figures."""

from repro.experiments import (
    ablations,
    figure4,
    figure5,
    report,
    sensitivity,
    table1,
)

__all__ = ["ablations", "figure4", "figure5", "report", "sensitivity",
           "table1"]
