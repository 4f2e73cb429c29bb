"""Experiment drivers reproducing every table and figure of the paper.

Each module exposes a ``run(scale)`` function returning an
:class:`~repro.experiments.result.ExperimentResult` whose rows mirror
the corresponding paper artifact.  ``Scale`` presets trade run time
for statistical weight, in the spirit of the artifact appendix's
"tiny" scripts.
"""

from repro.experiments.configs import (
    DEPLOYMENTS,
    BENCH,
    FULL,
    SMOKE,
    DeploymentSpec,
    Scale,
    get_execution_model,
)
from repro.experiments.result import ExperimentResult

__all__ = [
    "DEPLOYMENTS",
    "BENCH",
    "FULL",
    "SMOKE",
    "DeploymentSpec",
    "Scale",
    "get_execution_model",
    "ExperimentResult",
]
