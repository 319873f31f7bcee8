"""2-D heat-equation solvers (the paper's "HeatPDE" case, Appendix B.1).

The PDE on the unit square with Dirichlet boundaries is::

    du/dt = alpha * (d²u/dx1² + d²u/dx2²)
    u(x1=0, x2, t) = T1      u(x1=L, x2, t) = T2
    u(x1, x2=0, t) = T3      u(x1, x2=L, t) = T4
    u(x, t=0)      = T0

discretised with second-order central differences on an ``M × M`` Cartesian
grid.  Two time integrators are provided:

* :class:`Heat2DImplicitSolver` — implicit (backward) Euler, the scheme used
  by the paper's in-house solver.  The linear system ``(I - dt*alpha*L) u^{n+1}
  = u^n + boundary terms`` is assembled once as a sparse matrix and
  pre-factorised with ``scipy.sparse.linalg.splu`` so each time step is a pair
  of triangular solves.  Unconditionally stable.
* :class:`Heat2DExplicitSolver` — forward Euler, used for cross-validation of
  the implicit scheme and as a cheaper option in tests (stability requires
  ``dt <= dx²/(4 alpha)``; the solver sub-cycles internally when needed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from repro.solvers.base import Solver
from repro.solvers.grid import Grid2D

__all__ = ["Heat2DConfig", "Heat2DImplicitSolver", "Heat2DExplicitSolver", "apply_dirichlet_boundaries"]


@dataclass(frozen=True)
class Heat2DConfig:
    """Discretisation configuration of the 2-D heat problem.

    Attributes
    ----------
    grid_size:
        ``M`` — number of nodes per side (the paper uses 64).
    n_timesteps:
        ``T`` — number of solver iterations per trajectory (the paper uses 100).
    dt:
        Time-step size in seconds (the paper uses 0.01 s).
    alpha:
        Thermal diffusivity (fixed to 1 m²/s in the paper).
    length:
        Physical side length of the square domain.
    """

    grid_size: int = 64
    n_timesteps: int = 100
    dt: float = 0.01
    alpha: float = 1.0
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.grid_size < 3:
            raise ValueError("grid_size must be >= 3")
        if self.n_timesteps < 1:
            raise ValueError("n_timesteps must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.length <= 0:
            raise ValueError("length must be positive")

    @property
    def grid(self) -> Grid2D:
        return Grid2D(n=self.grid_size, length=self.length)


def apply_dirichlet_boundaries(field: np.ndarray, t1: float, t2: float, t3: float, t4: float) -> np.ndarray:
    """Impose the four Dirichlet boundary temperatures on a 2-D field in place.

    Boundary layout matches the paper's Eqs. (14)–(15): ``T1`` at ``x1 = 0``,
    ``T2`` at ``x1 = L``, ``T3`` at ``x2 = 0``, ``T4`` at ``x2 = L``.  Corners
    take the value of the last boundary applied (``T3``/``T4``), matching the
    reference in-house solver's behaviour; corner choice does not affect the
    interior solution.
    """
    field[0, :] = t1
    field[-1, :] = t2
    field[:, 0] = t3
    field[:, -1] = t4
    return field


def _laplacian_interior(n: int, dx: float) -> sparse.csr_matrix:
    """5-point Laplacian on the ``(n-2)²`` interior nodes (Dirichlet)."""
    m = n - 2
    identity = sparse.identity(m, format="csr")
    # 2-D Laplacian via Kronecker sums; row-major (x1 slow, x2 fast) ordering.
    lap_2d = sparse.kron(identity, sparse.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)], [-1, 0, 1])) + sparse.kron(
        sparse.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)], [-1, 0, 1]), identity
    )
    return (lap_2d / (dx * dx)).tocsr()


def _boundary_contribution(
    n: int, dx: float, t1: float, t2: float, t3: float, t4: float
) -> np.ndarray:
    """Contribution of the Dirichlet boundary values to the interior Laplacian."""
    m = n - 2
    contrib = np.zeros((m, m), dtype=np.float64)
    # Neighbours across the x1 = 0 boundary (first interior row).
    contrib[0, :] += t1
    # Neighbours across the x1 = L boundary (last interior row).
    contrib[-1, :] += t2
    # Neighbours across the x2 = 0 boundary (first interior column).
    contrib[:, 0] += t3
    # Neighbours across the x2 = L boundary (last interior column).
    contrib[:, -1] += t4
    return contrib.reshape(-1) / (dx * dx)


class Heat2DImplicitSolver(Solver):
    """Backward-Euler finite-difference solver (pre-factorised sparse system)."""

    def __init__(self, config: Heat2DConfig | None = None) -> None:
        self.config = config if config is not None else Heat2DConfig()
        self.grid = self.config.grid
        self.n_timesteps = self.config.n_timesteps
        m = self.config.grid_size - 2
        laplacian = _laplacian_interior(self.config.grid_size, self.grid.dx)
        system = sparse.identity(m * m, format="csc") - self.config.dt * self.config.alpha * laplacian.tocsc()
        # One-time LU factorisation; every time step is then two triangular solves.
        self._lu = sparse_linalg.splu(system)

    # ------------------------------------------------------------ interface
    @property
    def field_size(self) -> int:
        return self.grid.n_total

    @property
    def parameter_dim(self) -> int:
        return 5

    def initial_field(self, parameters: Sequence[float]) -> np.ndarray:
        """Initial temperature field: interior at ``T0``, boundaries imposed."""
        t0, t1, t2, t3, t4 = self.validate_parameters(parameters)
        field = np.full(self.grid.shape, t0, dtype=np.float64)
        return apply_dirichlet_boundaries(field, t1, t2, t3, t4)

    def steps(self, parameters: Sequence[float]) -> Iterator[np.ndarray]:
        params = self.validate_parameters(parameters)
        t0, t1, t2, t3, t4 = params
        dt_alpha = self.config.dt * self.config.alpha
        boundary_term = dt_alpha * _boundary_contribution(
            self.config.grid_size, self.grid.dx, t1, t2, t3, t4
        )
        field = self.initial_field(params)
        yield field.reshape(-1).copy()
        interior = field[1:-1, 1:-1].reshape(-1).copy()
        for _ in range(self.n_timesteps):
            rhs = interior + boundary_term
            interior = self._lu.solve(rhs)
            field[1:-1, 1:-1] = interior.reshape(
                self.config.grid_size - 2, self.config.grid_size - 2
            )
            yield field.reshape(-1).copy()

    def steady_state(self, parameters: Sequence[float]) -> np.ndarray:
        """Solve the stationary (Laplace) problem directly; used for validation."""
        params = self.validate_parameters(parameters)
        _, t1, t2, t3, t4 = params
        m = self.config.grid_size - 2
        laplacian = _laplacian_interior(self.config.grid_size, self.grid.dx)
        rhs = -_boundary_contribution(self.config.grid_size, self.grid.dx, t1, t2, t3, t4)
        interior = sparse_linalg.spsolve(laplacian.tocsc(), rhs)
        field = np.zeros(self.grid.shape, dtype=np.float64)
        field[1:-1, 1:-1] = interior.reshape(m, m)
        apply_dirichlet_boundaries(field, t1, t2, t3, t4)
        return field.reshape(-1)


class Heat2DExplicitSolver(Solver):
    """Forward-Euler solver with automatic sub-cycling for stability."""

    def __init__(self, config: Heat2DConfig | None = None) -> None:
        self.config = config if config is not None else Heat2DConfig()
        self.grid = self.config.grid
        self.n_timesteps = self.config.n_timesteps
        dx = self.grid.dx
        stable_dt = dx * dx / (4.0 * self.config.alpha)
        # Sub-cycle so that each macro step dt is integrated stably.
        self._substeps = max(1, int(np.ceil(self.config.dt / (0.9 * stable_dt))))
        self._sub_dt = self.config.dt / self._substeps

    @property
    def field_size(self) -> int:
        return self.grid.n_total

    @property
    def parameter_dim(self) -> int:
        return 5

    @property
    def substeps(self) -> int:
        """Number of internal sub-steps per macro time step (>= 1)."""
        return self._substeps

    def initial_field(self, parameters: Sequence[float]) -> np.ndarray:
        t0, t1, t2, t3, t4 = self.validate_parameters(parameters)
        field = np.full(self.grid.shape, t0, dtype=np.float64)
        return apply_dirichlet_boundaries(field, t1, t2, t3, t4)

    def _step_once(self, field: np.ndarray, boundary: Tuple[float, float, float, float]) -> np.ndarray:
        """One explicit sub-step (reference form, kept for tests/debugging).

        :meth:`steps` uses the fused in-place formulation below, which
        performs this exact arithmetic without the per-sub-step temporaries.
        """
        dx2 = self.grid.dx * self.grid.dx
        lap = np.zeros_like(field)
        lap[1:-1, 1:-1] = (
            field[2:, 1:-1] + field[:-2, 1:-1] + field[1:-1, 2:] + field[1:-1, :-2] - 4.0 * field[1:-1, 1:-1]
        ) / dx2
        field = field + self._sub_dt * self.config.alpha * lap
        return apply_dirichlet_boundaries(field, *boundary)

    def steps(self, parameters: Sequence[float]) -> Iterator[np.ndarray]:
        """Yield the field at ``t = 0, 1, …, n_timesteps`` (flattened copies).

        The sub-cycled stencil update is fused: the interior Laplacian, the
        Euler update and the Dirichlet re-imposition collapse into a handful
        of ``out=``-buffered ufunc calls on two preallocated interior-sized
        scratch arrays, eliminating the three full-grid temporaries the
        straightforward expression allocates per sub-step.  The element-wise
        operation order matches :meth:`_step_once` exactly, so every yielded
        field is bit-identical (asserted in ``tests/solvers/test_heat2d.py``).
        """
        params = self.validate_parameters(parameters)
        field = self.initial_field(params)
        yield field.reshape(-1).copy()
        dx2 = self.grid.dx * self.grid.dx
        coef = self._sub_dt * self.config.alpha
        interior = field[1:-1, 1:-1]
        buf = np.empty_like(interior)
        tmp = np.empty_like(interior)
        for _ in range(self.n_timesteps):
            for _ in range(self._substeps):
                # lap = (N + S + E + W - 4·C) / dx²  — same op order as the
                # reference expression in _step_once.
                np.add(field[2:, 1:-1], field[:-2, 1:-1], out=buf)
                np.add(buf, field[1:-1, 2:], out=buf)
                np.add(buf, field[1:-1, :-2], out=buf)
                np.multiply(interior, 4.0, out=tmp)
                np.subtract(buf, tmp, out=buf)
                np.divide(buf, dx2, out=buf)
                # interior ← interior + coef·lap; the boundary rows/columns
                # are Dirichlet-pinned, so re-imposing them is a no-op.
                np.multiply(buf, coef, out=buf)
                np.add(interior, buf, out=interior)
            yield field.reshape(-1).copy()
