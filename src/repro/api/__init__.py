"""Public on-line training API: pluggable workloads, sessions and registries.

This package is the composable surface over the Melissa/Breed machinery:

* :class:`~repro.api.workloads.Workload` — one simulation scenario as a
  value: solver class and config + parameter bounds + output size + optional
  field range; built-ins: ``"heat2d"`` (the paper's case), ``"heat1d"``,
  ``"analytic"``, ``"advection1d"``, ``"advection2d"``, ``"burgers"`` and
  ``"fisher"``.
* :class:`~repro.api.config.OnlineTrainingConfig` — a fully serialisable run
  description (:meth:`to_dict` / :meth:`from_dict`) referencing workloads,
  steering methods and activations by registry name.
* :class:`~repro.api.session.TrainingSession` — the training loop decomposed
  into explicit ``submit`` / ``produce`` / ``receive`` / ``train`` /
  ``should_stop`` phases with ``on_tick`` / ``on_steering`` /
  ``on_validation`` hooks (a point's fires when the point is recorded: ticks
  later if solver workers evaluate it, in inline order and with inline values);
  :func:`~repro.api.session.run_online_training` runs one to completion.
* :func:`~repro.api.registry.register_workload`,
  :func:`~repro.api.registry.register_sampler`,
  :func:`~repro.api.registry.register_activation`,
  :func:`~repro.api.registry.register_architecture` — extension points
  (built-in surrogate architectures: ``"mlp"``, ``"residual"``,
  ``"conv2d"``).

Example
-------
>>> from repro.api import OnlineTrainingConfig, TrainingSession
>>> config = OnlineTrainingConfig(workload="heat1d", n_simulations=16,
...                               max_iterations=50, reservoir_watermark=20)
>>> session = TrainingSession(config)
>>> session.add_hook("validation", lambda s, it, loss: print(it, loss))  # doctest: +SKIP
>>> result = session.run()  # doctest: +SKIP
"""

from repro.api.registry import (
    activation_names,
    architecture_names,
    get_activation,
    get_architecture,
    get_sampler,
    get_workload,
    register_activation,
    register_architecture,
    register_sampler,
    register_workload,
    sampler_names,
    workload_names,
)
from repro.api.workloads import Heat2DWorkload, Workload
from repro.api.config import OnlineTrainingConfig
from repro.api.session import OnlineTrainingResult, TrainingSession, run_online_training

__all__ = [
    "activation_names",
    "architecture_names",
    "get_activation",
    "get_architecture",
    "get_sampler",
    "get_workload",
    "register_activation",
    "register_architecture",
    "register_sampler",
    "register_workload",
    "sampler_names",
    "workload_names",
    "Heat2DWorkload",
    "Workload",
    "OnlineTrainingConfig",
    "OnlineTrainingResult",
    "TrainingSession",
    "run_online_training",
]
