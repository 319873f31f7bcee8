"""Run configuration of the pluggable on-line training API.

:class:`OnlineTrainingConfig` is the single value object describing one
on-line training run.  Every extension point is referenced *by name* —
``workload`` (registry of :class:`~repro.api.workloads.Workload` factories),
``method`` (steering-sampler registry) and ``activation`` (NN activation
registry) — which keeps the configuration fully serialisable:
:meth:`OnlineTrainingConfig.to_dict` / :meth:`OnlineTrainingConfig.from_dict`
round-trip through plain JSON-compatible dictionaries, the substrate of study
files and distributed runners.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional, TYPE_CHECKING

from repro import nn
from repro.api import registry as _registry
from repro.api.registry import (
    get_sampler,
    get_workload,
    register_activation,
    register_architecture,
    register_sampler,
)
from repro.breed.samplers import BreedConfig, BreedSampler, RandomSampler, SteeringSampler
from repro.sampling.bounds import HEAT2D_BOUNDS, ParameterBounds
from repro.solvers.heat2d import Heat2DConfig
from repro.surrogate.model import (
    SurrogateConfig,
    build_conv_surrogate,
    build_mlp,
    build_residual_mlp,
)

# Importing the workloads module populates the workload registry with the
# built-in ``heat2d`` / ``heat1d`` / ``analytic`` entries.
import repro.api.workloads  # noqa: F401  (imported for registration side effect)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.workloads import Workload

__all__ = ["CHECKPOINT_FIELDS", "OnlineTrainingConfig", "RETIRED_FIELD"]

#: configuration fields that control mid-run snapshotting but not the training
#: mathematics — excluded from :meth:`OnlineTrainingConfig.digest` so a run is
#: fingerprint-identical whether or not it checkpoints itself
CHECKPOINT_FIELDS = frozenset(
    {"checkpoint_every", "checkpoint_dir", "checkpoint_keep", "checkpoint_compressed"}
)

#: the retired switch of the Figure-6 statistics, which every run now records:
#: ``from_dict`` and ``apply_overrides`` drop it whatever its value, so old configs,
#: snapshot manifests and HTTP submissions load, and ``digest`` hashes it as
#: ``False``, so every digest computed while it existed holds
RETIRED_FIELD = "record_sample_statistics"


# --------------------------------------------------------------------------
# Default sampler / activation registrations (the names the configuration
# below validates against).  Each registration is guarded on its own key so
# the block is idempotent under re-import and a user's earlier registration
# of one name never suppresses the other defaults.
# --------------------------------------------------------------------------

def _build_breed_sampler(bounds: ParameterBounds, config: "OnlineTrainingConfig") -> SteeringSampler:
    return BreedSampler(bounds, config.breed)


def _build_random_sampler(bounds: ParameterBounds, config: "OnlineTrainingConfig") -> SteeringSampler:
    return RandomSampler(bounds)


for _name, _factory in (("breed", _build_breed_sampler), ("random", _build_random_sampler)):
    if _name not in _registry.SAMPLERS:
        register_sampler(_name, _factory)

for _name, _factory in (("relu", nn.ReLU), ("tanh", nn.Tanh), ("leaky_relu", nn.LeakyReLU)):
    if _name not in _registry.ACTIVATIONS:
        register_activation(_name, _factory)

for _name, _factory in (
    ("mlp", build_mlp),
    ("residual", build_residual_mlp),
    ("conv2d", build_conv_surrogate),
):
    if _name not in _registry.ARCHITECTURES:
        register_architecture(_name, _factory)


@dataclass(frozen=True)
class OnlineTrainingConfig:
    """Complete configuration of one on-line training run.

    Defaults correspond to a *scaled-down* version of the paper's setup that
    runs in seconds on a single CPU core; the full-size values from Section 4
    (``grid_size=64``, ``n_timesteps=100``, ``n_simulations=800``,
    ``reservoir_watermark=300``, ``max_iterations≈5000``,
    ``n_validation_trajectories=200``) can be set explicitly.

    The scenario is selected by the ``workload`` registry key (``"heat2d"``,
    ``"heat1d"``, ``"analytic"``, or anything registered through
    :func:`repro.api.register_workload`); the 1-D workloads derive their
    resolution from the shared ``heat`` knobs unless ``workload_options``
    overrides them.
    """

    # --- steering method -------------------------------------------------
    method: str = "breed"                      # steering-sampler registry key
    breed: BreedConfig = field(default_factory=BreedConfig)
    # --- PDE / workload ---------------------------------------------------
    workload: str = "heat2d"                   # workload registry key
    heat: Heat2DConfig = field(default_factory=lambda: Heat2DConfig(grid_size=12, n_timesteps=20))
    bounds: ParameterBounds = HEAT2D_BOUNDS
    workload_options: Dict[str, Any] = field(default_factory=dict)
    n_simulations: int = 64                    # S — simulation budget
    # --- surrogate / optimisation ----------------------------------------
    hidden_size: int = 16                      # H
    n_hidden_layers: int = 1                   # L
    activation: str = "relu"
    architecture: str = "mlp"                  # surrogate-architecture registry key
    learning_rate: float = 1e-3
    batch_size: int = 128                      # B
    # --- framework --------------------------------------------------------
    job_limit: int = 10                        # m — simultaneous client jobs
    scheduler_max_start_delay: int = 2
    reservoir_capacity: int = 1000
    reservoir_watermark: int = 300
    timesteps_per_tick: int = 2                # produced per running client per tick
    train_iterations_per_tick: int = 4
    max_iterations: int = 400
    validation_period: int = 50
    n_validation_trajectories: int = 16
    # --- fault tolerance ---------------------------------------------------
    #: snapshot the full session every N training batches (0 disables)
    checkpoint_every: int = 0
    #: directory receiving the versioned session snapshots (None disables)
    checkpoint_dir: Optional[str] = None
    #: number of most-recent snapshots retained in ``checkpoint_dir``
    checkpoint_keep: int = 3
    #: write snapshot arrays with ``np.savez_compressed`` (slower, smaller)
    checkpoint_compressed: bool = False
    # --- bookkeeping -------------------------------------------------------
    seed: int = 0
    max_ticks: int = 1_000_000

    def __hash__(self) -> int:
        # The generated hash would choke on the dict-typed workload_options;
        # configs were hashable before that field existed, so keep them so.
        options = tuple((k, repr(v)) for k, v in sorted(self.workload_options.items()))
        scalars = tuple(
            getattr(self, f)
            for f in self.__dataclass_fields__
            if f not in ("workload_options",)
        )
        return hash((scalars, options))

    def __post_init__(self) -> None:
        if self.method not in _registry.SAMPLERS:
            raise ValueError(
                f"method must be one of {_registry.SAMPLERS.names()}, got {self.method!r}"
            )
        if self.workload not in _registry.WORKLOADS:
            raise ValueError(
                f"workload must be one of {_registry.WORKLOADS.names()}, got {self.workload!r}"
            )
        if self.architecture not in _registry.ARCHITECTURES:
            raise ValueError(
                f"architecture must be one of {_registry.ARCHITECTURES.names()}, "
                f"got {self.architecture!r}"
            )
        if self.n_simulations < 1:
            raise ValueError("n_simulations must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.timesteps_per_tick < 1 or self.train_iterations_per_tick < 0:
            raise ValueError("invalid per-tick settings")
        if self.reservoir_watermark > self.reservoir_capacity:
            raise ValueError("reservoir_watermark cannot exceed reservoir_capacity")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables snapshots)")
        if self.checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1")

    # ------------------------------------------------------------ factories
    def build_workload(self) -> "Workload":
        """Resolve and construct the configured :class:`Workload`."""
        return get_workload(self.workload)(self)

    def build_sampler(self, workload: "Workload" | None = None) -> SteeringSampler:
        """Resolve and construct the configured steering sampler."""
        bounds = (workload if workload is not None else self.build_workload()).bounds
        return get_sampler(self.method)(bounds, self)

    @property
    def surrogate_config(self) -> SurrogateConfig:
        """MLP architecture matching the configured workload's geometry."""
        workload = self.build_workload()
        return workload.surrogate_config(
            hidden_size=self.hidden_size,
            n_hidden_layers=self.n_hidden_layers,
            activation=self.activation,
            architecture=self.architecture,
        )

    # -------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dictionary representation (see :meth:`from_dict`)."""
        data: Dict[str, Any] = {
            "method": self.method,
            "breed": asdict(self.breed),
            "workload": self.workload,
            "heat": asdict(self.heat),
            "bounds": {
                "low": list(self.bounds.low),
                "high": list(self.bounds.high),
                "names": list(self.bounds.names),
            },
            "workload_options": dict(self.workload_options),
        }
        for name in (
            "n_simulations",
            "hidden_size",
            "n_hidden_layers",
            "activation",
            "architecture",
            "learning_rate",
            "batch_size",
            "job_limit",
            "scheduler_max_start_delay",
            "reservoir_capacity",
            "reservoir_watermark",
            "timesteps_per_tick",
            "train_iterations_per_tick",
            "max_iterations",
            "validation_period",
            "n_validation_trajectories",
            "checkpoint_every",
            "checkpoint_dir",
            "checkpoint_keep",
            "checkpoint_compressed",
            "seed",
            "max_ticks",
        ):
            data[name] = getattr(self, name)
        return data

    def digest(self) -> str:
        """Short stable fingerprint of the *training-relevant* configuration.

        The checkpoint knobs (:data:`CHECKPOINT_FIELDS`) are excluded: a run
        produces bit-identical results whether or not it snapshots itself, so
        its fingerprint — used by study resume and by snapshot/restore
        validation — must not depend on where (or how often) snapshots are
        written.  Configurations predating these fields hash identically.

        The default ``architecture="mlp"`` is likewise dropped from the
        payload, so every fingerprint computed before the architecture
        registry existed stays valid; non-default architectures *do*
        contribute (they change the training mathematics).  The
        :data:`RETIRED_FIELD` is hashed at its old default for the same reason.
        """
        import hashlib
        import json

        payload = {k: v for k, v in self.to_dict().items() if k not in CHECKPOINT_FIELDS}
        if payload.get("architecture") == "mlp":
            payload.pop("architecture")
        payload[RETIRED_FIELD] = False
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()
        ).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OnlineTrainingConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Unknown keys raise ``TypeError`` (they would silently change the run
        otherwise); nested sections may be omitted to take the defaults, and
        the :data:`RETIRED_FIELD` is dropped.
        """
        kwargs = dict(data)
        kwargs.pop(RETIRED_FIELD, None)
        if "breed" in kwargs:
            kwargs["breed"] = BreedConfig(**kwargs["breed"])
        if "heat" in kwargs:
            kwargs["heat"] = Heat2DConfig(**kwargs["heat"])
        if "bounds" in kwargs:
            bounds = kwargs["bounds"]
            kwargs["bounds"] = ParameterBounds(
                low=tuple(bounds["low"]),
                high=tuple(bounds["high"]),
                names=tuple(bounds.get("names", ())),
            )
        if "workload_options" in kwargs:
            kwargs["workload_options"] = dict(kwargs["workload_options"])
        return cls(**kwargs)
