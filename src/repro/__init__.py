"""repro — reproduction of "MelissaDL x Breed: Towards Data-Efficient On-line
Supervised Training of Multi-parametric Surrogates with Active Learning"
(Dymchenko, Purandare, Raffin — SC24 Workshop AI4S'24).

Package layout
--------------
``repro.api``
    The public on-line training surface: the :class:`~repro.api.workloads.Workload`
    protocol (solver + parameter bounds + scalers + surrogate geometry) with
    registered ``"heat2d"`` / ``"heat1d"`` / ``"analytic"`` scenarios, the
    serialisable :class:`~repro.api.config.OnlineTrainingConfig`
    (``to_dict``/``from_dict``), the phase-decomposed
    :class:`~repro.api.session.TrainingSession` (``submit`` → ``produce`` →
    ``receive`` → ``train`` with ``on_tick``/``on_steering``/``on_validation``
    hooks), and the ``register_workload`` / ``register_sampler`` /
    ``register_activation`` extension registries.
``repro.nn``
    NumPy reverse-mode autograd engine, dense layers, losses, optimizers
    (the PyTorch substitute).
``repro.solvers``
    Finite-difference heat-equation solvers and analytic references
    (the numerical "oracle" producing training data).
``repro.sampling``
    Parameter boxes, Halton/uniform/LHS sampling, Gaussian mixtures and
    weighted resampling.
``repro.melissa``
    In-process simulation of the Melissa DL on-line training framework
    (launcher, batch scheduler, clients, reservoir, server, steering).
``repro.breed``
    The paper's contribution: loss-deviation acquisition metric, one-step
    AMIS/PMC proposal construction, concentrate–explore mixing, and the
    steering controller.
``repro.surrogate``
    The multi-parametric direct surrogate MLP, its scalers, offline datasets
    and the fixed Halton validation set.
``repro.workflow``
    Parameter-grid study orchestration (Snakemake substitute): grids, the
    pluggable serial/process executor backends with JSONL checkpoint/resume,
    and the :class:`~repro.workflow.study.StudyRunner` driving them.
``repro.checkpoint``
    Fault-tolerant session checkpointing: versioned atomic
    ``SessionSnapshot`` directories capturing the full training-loop state
    (weights, optimizer moments, reservoir, steering statistics, RNG
    streams, client progress), a periodic ``CheckpointPolicy`` on the
    session's ``on_tick`` hook, and bit-identical mid-run resume via
    ``restore_session``/``resume_or_start``.
``repro.service``
    The long-running study service: a stdlib HTTP server over a persistent
    job store, streaming progress events, deduplicating identical
    submissions by configuration fingerprint, and resuming every in-flight
    job from its checkpoints after a restart (``python -m repro.cli serve``).
``repro.cli``
    The ``repro`` console script launching any registered experiment at any
    scale with any executor backend, plus the ``bench`` and ``serve``
    subcommands.
``repro.analysis``
    Figure/series generation: loss curves, parameter-deviation histograms and
    the loss-statistics correlation matrix.
``repro.experiments``
    One module per paper table/figure, reproducing its rows/series.
"""

__version__ = "1.10.0"

from repro.api import (
    OnlineTrainingConfig,
    OnlineTrainingResult,
    TrainingSession,
    Workload,
    register_activation,
    register_sampler,
    register_workload,
    run_online_training,
    workload_names,
)

__all__ = [
    "__version__",
    "OnlineTrainingConfig",
    "OnlineTrainingResult",
    "TrainingSession",
    "run_online_training",
    "Workload",
    "register_activation",
    "register_sampler",
    "register_workload",
    "workload_names",
]
