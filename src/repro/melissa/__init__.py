"""In-process simulation of the Melissa DL on-line training framework.

Architecture (Appendix A of the paper): a *launcher* submits solver *clients*
through a batch *scheduler*; each client streams its trajectory time step by
time step to the *server*, which buffers samples in a *reservoir* and trains
the surrogate from random reservoir batches while steering the parameters of
not-yet-submitted simulations.

The session wiring these parts together, its configuration and its result
(``TrainingSession``, ``OnlineTrainingConfig``, ``OnlineTrainingResult``,
``run_online_training``) are imported from :mod:`repro.api`.
"""

from repro.melissa.client import ClientFactory, SolverClient
from repro.melissa.launcher import Launcher, SimulationRecord, SimulationState
from repro.melissa.reservoir import Reservoir, ReservoirBatch, ReservoirEntry
from repro.melissa.scheduler import BatchScheduler, JobState, SchedulerJob
from repro.melissa.server import SampleStatistic, TrainingHistory, TrainingServer
from repro.melissa.transport import InProcessTransport

__all__ = [
    "ClientFactory",
    "SolverClient",
    "Launcher",
    "SimulationRecord",
    "SimulationState",
    "Reservoir",
    "ReservoirBatch",
    "ReservoirEntry",
    "BatchScheduler",
    "JobState",
    "SchedulerJob",
    "SampleStatistic",
    "TrainingHistory",
    "TrainingServer",
    "InProcessTransport",
]
