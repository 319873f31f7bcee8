"""String registries behind the pluggable training API.

Every extension point of :mod:`repro.api` — workloads, steering samplers and
NN activations — is resolved through a named registry, so a configuration is
just strings and numbers: fully serialisable, storable in JSON/YAML study
files, and extensible from user code without touching the framework::

    from repro.api import Workload, register_workload

    @register_workload("my-pde")
    def _my_pde(config):
        return Workload(bounds, MyPdeSolver, MyPdeConfig(...), output_dim)

    run_online_training(OnlineTrainingConfig(workload="my-pde"))

Registries are deliberately dumb: a mapping from a lower-cased string key to
a factory callable, with loud errors on unknown or duplicate keys.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, TypeVar

__all__ = [
    "Registry",
    "register_workload",
    "get_workload",
    "workload_names",
    "register_sampler",
    "get_sampler",
    "sampler_names",
    "register_activation",
    "get_activation",
    "activation_names",
    "register_architecture",
    "get_architecture",
    "architecture_names",
]

F = TypeVar("F", bound=Callable)


class Registry:
    """A named string → factory mapping with decorator-style registration."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: Dict[str, Callable] = {}

    @staticmethod
    def _key(name: str) -> str:
        if not isinstance(name, str) or not name:
            raise TypeError("registry keys must be non-empty strings")
        return name.lower()

    def register(
        self, name: str, factory: Optional[F] = None, *, overwrite: bool = False
    ) -> Callable:
        """Register ``factory`` under ``name``; usable as a decorator.

        ``register(name, factory)`` registers directly; ``@register(name)``
        returns a decorator.  Duplicate keys raise unless ``overwrite=True``.
        """
        key = self._key(name)

        def _store(fn: F) -> F:
            if key in self._factories and not overwrite:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered; "
                    f"pass overwrite=True to replace it"
                )
            self._factories[key] = fn
            return fn

        if factory is None:
            return _store
        return _store(factory)

    def get(self, name: str) -> Callable:
        """The factory registered under ``name`` (``KeyError`` names the options)."""
        key = self._key(name)
        if key not in self._factories:
            raise KeyError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            )
        return self._factories[key]

    def names(self) -> List[str]:
        """Sorted (lower-cased) keys of every registered factory."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        try:
            return self._key(name) in self._factories
        except TypeError:
            return False

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Registry({self.kind!r}, {self.names()})"


#: workload name → ``factory(config) -> Workload``
WORKLOADS = Registry("workload")
#: steering-method name → ``factory(bounds, config) -> SteeringSampler``
SAMPLERS = Registry("sampler")
#: activation name → ``factory() -> nn.Module``
ACTIVATIONS = Registry("activation")
#: surrogate-architecture name → ``factory(SurrogateConfig, rng) -> nn.Module``
ARCHITECTURES = Registry("architecture")


def register_workload(name: str, factory: Optional[Callable] = None, *, overwrite: bool = False) -> Callable:
    """Register a workload factory ``factory(config) -> Workload``."""
    return WORKLOADS.register(name, factory, overwrite=overwrite)


def get_workload(name: str) -> Callable:
    """Resolve a workload factory by name (raises ``KeyError`` when unknown)."""
    return WORKLOADS.get(name)


def workload_names() -> List[str]:
    """Sorted registry keys of every registered workload (built-ins + user)."""
    return WORKLOADS.names()


def register_sampler(name: str, factory: Optional[Callable] = None, *, overwrite: bool = False) -> Callable:
    """Register a steering-sampler factory ``factory(bounds, config) -> SteeringSampler``."""
    return SAMPLERS.register(name, factory, overwrite=overwrite)


def get_sampler(name: str) -> Callable:
    """Resolve a steering-sampler factory by name (raises ``KeyError`` when unknown)."""
    return SAMPLERS.get(name)


def sampler_names() -> List[str]:
    """Sorted registry keys of every registered steering sampler."""
    return SAMPLERS.names()


def register_activation(name: str, factory: Optional[Callable] = None, *, overwrite: bool = False) -> Callable:
    """Register an activation factory ``factory() -> nn.Module``."""
    return ACTIVATIONS.register(name, factory, overwrite=overwrite)


def get_activation(name: str) -> Callable:
    """Resolve an activation factory by name (raises ``KeyError`` when unknown)."""
    return ACTIVATIONS.get(name)


def activation_names() -> List[str]:
    """Sorted registry keys of every registered NN activation."""
    return ACTIVATIONS.names()


def register_architecture(name: str, factory: Optional[Callable] = None, *, overwrite: bool = False) -> Callable:
    """Register a surrogate-architecture factory ``factory(config, rng) -> nn.Module``."""
    return ARCHITECTURES.register(name, factory, overwrite=overwrite)


def get_architecture(name: str) -> Callable:
    """Resolve a surrogate-architecture factory by name (raises ``KeyError`` when unknown)."""
    return ARCHITECTURES.get(name)


def architecture_names() -> List[str]:
    """Sorted registry keys of every registered surrogate architecture."""
    return ARCHITECTURES.names()
