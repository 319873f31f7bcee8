"""Workloads: the pluggable "physics" side of the on-line training API.

A :class:`Workload` is a value: everything the training session needs to
know about one simulation scenario, and nothing Breed would read beyond it:

* the solver class and its config, which produce trajectories (the data
  "oracle"),
* the input-parameter box ``Λ`` the steering samplers draw from,
* the surrogate output size and, for fields that do not share the
  parameters' range, the a-priori field range of the normalisation scalers.

Seven workloads ship with the reproduction, spanning four physics families:

* ``"heat2d"`` — the paper's 2-D heat PDE (implicit backward-Euler solver),
* ``"heat1d"`` — the cheaper 1-D heat PDE (implicit solver), useful for fast
  scenario studies and CI,
* ``"analytic"`` — closed-form transient 1-D solutions, a discretisation-free
  workload whose only error source is the surrogate itself,
* ``"advection1d"`` / ``"advection2d"`` — periodic advection–diffusion of a
  Gaussian pulse (explicit upwind transport, CFL-checked),
* ``"burgers"`` — the nonlinear viscous Burgers equation (Cole–Hopf
  travelling-wave initial data),
* ``"fisher"`` — the Fisher–KPP reaction–diffusion equation.

New workloads are plugged in through
:func:`repro.api.registry.register_workload`: a factory receives the full
:class:`~repro.api.config.OnlineTrainingConfig`, so it can derive its
resolution from the shared ``heat``/``workload_options`` knobs, and returns a
``Workload(...)``.  See ``docs/WORKLOADS.md`` for a step-by-step authoring
guide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.api.registry import register_workload
from repro.sampling.bounds import (
    ADVECTION1D_BOUNDS,
    ADVECTION2D_BOUNDS,
    BURGERS_BOUNDS,
    FISHER_BOUNDS,
    HEAT1D_BOUNDS,
    HEAT2D_BOUNDS,
    ParameterBounds,
)
from repro.solvers.advection import (
    AdvectionDiffusion1DConfig,
    AdvectionDiffusion1DSolver,
    AdvectionDiffusion2DConfig,
    AdvectionDiffusion2DSolver,
)
from repro.solvers.analytic import Analytic1DConfig, Analytic1DSolver
from repro.solvers.base import Solver
from repro.solvers.burgers import Burgers1DConfig, Burgers1DSolver
from repro.solvers.heat1d import Heat1DConfig, Heat1DImplicitSolver
from repro.solvers.heat2d import Heat2DImplicitSolver
from repro.solvers.reaction_diffusion import FisherKPPConfig, FisherKPPSolver
from repro.surrogate.model import SurrogateConfig
from repro.surrogate.normalization import SurrogateScalers

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.config import OnlineTrainingConfig

__all__ = ["Workload", "Heat2DWorkload"]


@dataclass(frozen=True)
class Workload:
    """One simulation scenario: solver + parameter box + surrogate geometry.

    ``solver_config`` must carry ``n_timesteps`` (time steps per trajectory,
    excluding ``t = 0``); ``output_dim`` is the flattened field length the
    solver yields.  ``field_range`` is the a-priori ``(low, high)`` range of
    the field values; left ``None``, the fields are taken to share the
    parameters' range (true of the heat workloads, whose every parameter is a
    temperature).
    """

    bounds: ParameterBounds
    solver_class: Callable[[Any], Solver]
    solver_config: Any
    output_dim: int
    field_range: Optional[Tuple[float, float]] = None

    @property
    def n_timesteps(self) -> int:
        return self.solver_config.n_timesteps

    @property
    def input_dim(self) -> int:
        """Surrogate input size: the parameter vector plus the time step."""
        return self.bounds.dim + 1

    def build_solver(self) -> Solver:
        """Construct the solver shared by every client of a run."""
        return self.solver_class(self.solver_config)

    def build_scalers(self) -> SurrogateScalers:
        """A-priori min-max scalers over the parameter box and field range."""
        if self.field_range is None:
            return SurrogateScalers.from_bounds(self.bounds, self.n_timesteps)
        return SurrogateScalers.from_field_range(self.bounds, self.n_timesteps, *self.field_range)

    def surrogate_config(
        self,
        hidden_size: int,
        n_hidden_layers: int,
        activation: str,
        architecture: str = "mlp",
    ) -> SurrogateConfig:
        """Surrogate architecture matching this workload's geometry."""
        return SurrogateConfig(
            input_dim=self.input_dim,
            output_dim=self.output_dim,
            hidden_size=hidden_size,
            n_hidden_layers=n_hidden_layers,
            activation=activation,
            architecture=architecture,
        )


class Heat2DWorkload(Workload):
    """The paper's 2-D heat PDE scenario (Appendix B.1).

    Behaves as a plain :class:`Workload`; the subclass gives profilers one
    ``build_solver`` to wrap that only the heat2d workload calls.
    """

    def build_solver(self) -> Solver:
        return super().build_solver()


# --------------------------------------------------------------------------
# Default registrations.  Factories receive the full run configuration; the
# 1-D workloads derive their resolution from the shared ``heat`` knobs
# (grid_size → n_points) unless overridden through ``workload_options``.
# --------------------------------------------------------------------------

def _options(config: "OnlineTrainingConfig", **defaults: Any) -> Dict[str, Any]:
    merged = dict(defaults)
    merged.update(config.workload_options)
    return merged


def _workload_bounds(config: "OnlineTrainingConfig", default: ParameterBounds) -> ParameterBounds:
    """Honour a user-supplied parameter box.

    The config's ``bounds`` field defaults to the 5-dim heat2d box; when left
    at that default the workload's canonical box is used.  An explicitly
    customised box must have the workload's dimensionality — anything else is
    a misconfiguration that must not be silently ignored.
    """
    if config.bounds == HEAT2D_BOUNDS:
        return default
    if config.bounds.dim != default.dim:
        raise ValueError(
            f"workload {config.workload!r} takes {default.dim} parameters "
            f"({', '.join(default.names)}); got bounds with dim={config.bounds.dim}"
        )
    return config.bounds


def _heat1d_options(config: "OnlineTrainingConfig") -> Dict[str, Any]:
    """The 1-D heat workloads' solver knobs, defaulting to the shared ``heat``."""
    return _options(
        config,
        n_points=max(config.heat.grid_size, 3),
        n_timesteps=config.heat.n_timesteps,
        dt=config.heat.dt,
        alpha=config.heat.alpha,
        length=config.heat.length,
    )


@register_workload("heat2d")
def _build_heat2d(config: "OnlineTrainingConfig") -> Heat2DWorkload:
    return Heat2DWorkload(
        bounds=_workload_bounds(config, HEAT2D_BOUNDS),
        solver_class=Heat2DImplicitSolver,
        solver_config=config.heat,
        output_dim=config.heat.grid_size**2,
    )


@register_workload("heat1d")
def _build_heat1d(config: "OnlineTrainingConfig") -> Workload:
    heat = Heat1DConfig(**_heat1d_options(config))
    return Workload(_workload_bounds(config, HEAT1D_BOUNDS), Heat1DImplicitSolver, heat, heat.n_points)


@register_workload("analytic")
def _build_analytic(config: "OnlineTrainingConfig") -> Workload:
    analytic = Analytic1DConfig(**_heat1d_options(config))
    return Workload(
        _workload_bounds(config, HEAT1D_BOUNDS), Analytic1DSolver, analytic, analytic.n_points
    )


# The multi-physics factories reuse the shared resolution/budget knobs
# (``grid_size`` → ``n_points``, ``n_timesteps``) but keep their own ``dt``
# defaults: the explicit transport schemes have CFL stability limits that the
# heat workloads' implicit ``dt`` need not satisfy.  Everything remains
# overridable through ``workload_options`` (e.g. ``{"dt": 0.001}``).  Their
# fields do not share the parameters' range, so each states its own.


@register_workload("advection1d")
def _build_advection1d(config: "OnlineTrainingConfig") -> Workload:
    advection = AdvectionDiffusion1DConfig(
        **_options(config, n_points=max(config.heat.grid_size, 4), n_timesteps=config.heat.n_timesteps)
    )
    bounds = _workload_bounds(config, ADVECTION1D_BOUNDS)
    # Field values live in [0, amplitude] (maximum principle); the other
    # parameters are geometric and must not pollute the output range.
    return Workload(
        bounds, AdvectionDiffusion1DSolver, advection, advection.n_points, (0.0, bounds.high[0])
    )


@register_workload("advection2d")
def _build_advection2d(config: "OnlineTrainingConfig") -> Workload:
    advection = AdvectionDiffusion2DConfig(
        **_options(config, grid_size=max(config.heat.grid_size, 4), n_timesteps=config.heat.n_timesteps)
    )
    bounds = _workload_bounds(config, ADVECTION2D_BOUNDS)
    return Workload(
        bounds, AdvectionDiffusion2DSolver, advection, advection.grid_size**2, (0.0, bounds.high[0])
    )


@register_workload("burgers")
def _build_burgers(config: "OnlineTrainingConfig") -> Workload:
    burgers = Burgers1DConfig(
        **_options(config, n_points=max(config.heat.grid_size, 4), n_timesteps=config.heat.n_timesteps)
    )
    bounds = _workload_bounds(config, BURGERS_BOUNDS)
    # The viscous maximum principle bounds fields by the far-field states:
    # [min u_right, max u_left] over the parameter box.
    return Workload(
        bounds, Burgers1DSolver, burgers, burgers.n_points, (bounds.low[1], bounds.high[0])
    )


@register_workload("fisher")
def _build_fisher(config: "OnlineTrainingConfig") -> Workload:
    fisher = FisherKPPConfig(
        **_options(config, n_points=max(config.heat.grid_size, 4), n_timesteps=config.heat.n_timesteps)
    )
    # [0, 1] is the invariant region of the logistic reaction.
    return Workload(
        _workload_bounds(config, FISHER_BOUNDS), FisherKPPSolver, fisher, fisher.n_points, (0.0, 1.0)
    )
