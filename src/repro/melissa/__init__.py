"""In-process simulation of the Melissa DL on-line training framework.

Architecture (Appendix A of the paper): a *launcher* keeps the ledger of every
simulation, submits solver *clients* up to the job limit and starts them after
a batch-scheduler start delay; each client streams its trajectory time step by
time step to the *server*, which buffers samples in a *reservoir* and trains
the surrogate from random reservoir batches while steering the parameters of
not-yet-submitted simulations.

The session wiring these parts together, its configuration and its result
(``TrainingSession``, ``OnlineTrainingConfig``, ``OnlineTrainingResult``,
``run_online_training``) are imported from :mod:`repro.api`.
"""

from repro.melissa.client import SolverClient
from repro.melissa.launcher import Launcher
from repro.melissa.reservoir import Reservoir, ReservoirBatch, ReservoirEntry
from repro.melissa.server import TrainingHistory, TrainingServer
from repro.melissa.transport import InProcessTransport

__all__ = [
    "SolverClient",
    "Launcher",
    "Reservoir",
    "ReservoirBatch",
    "ReservoirEntry",
    "TrainingHistory",
    "TrainingServer",
    "InProcessTransport",
]
