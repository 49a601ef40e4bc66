"""Density-based topology optimization by barrier-homotopy continuation.

The solver finds stationary points of a compliance minimization problem with
a linear elasticity constraint and box bounds on the density.  Box bounds are
handled by a primal-dual logarithmic barrier; globalization comes from
tracing the zero curve of a global homotopy with Newton correctors.
"""
from .barrier import (BarrierSchedule, BoxConstraints, DualPair, ObjectiveOracle,
                      pd_residual_box, run_pd_barrier)
from .fem import (DofMap, MaterialModel, assemble_gl_operators,
                  assemble_state_operator, assemble_traction_load,
                  default_material, make_dofmap)
from .homotopy import (HomotopyProblem, NewtonConfig, SolveTrace, StepController,
                       StepUnderflowError, global_homotopy, newton_corrector,
                       trace)
from .io_cli import (SolverConfig, parse_config, run_cli, write_density_vtk,
                     write_param_history)
from .lagrangian import Lagrangian, ProblemParams, default_params
from .mesh import (BoundarySegment, DomainSpec, EdgeTag, TriMesh, bridge_domain,
                   build_structured_mesh, dirichlet_vertex_set)
from .solver import KktPoint, KktSystem, build_system, run
from .sparse import BlockSystem, SingularMatrixError, SparseMatrix, solve_direct

__version__ = "0.1.0"

__all__ = [
    "BarrierSchedule", "BoxConstraints", "DualPair", "ObjectiveOracle",
    "pd_residual_box", "run_pd_barrier",
    "DofMap", "MaterialModel", "assemble_gl_operators", "assemble_state_operator",
    "assemble_traction_load", "default_material", "make_dofmap",
    "HomotopyProblem", "NewtonConfig", "SolveTrace", "StepController",
    "StepUnderflowError", "global_homotopy", "newton_corrector", "trace",
    "SolverConfig", "parse_config", "run_cli", "write_density_vtk",
    "write_param_history",
    "Lagrangian", "ProblemParams", "default_params",
    "BoundarySegment", "DomainSpec", "EdgeTag", "TriMesh", "bridge_domain",
    "build_structured_mesh", "dirichlet_vertex_set",
    "KktPoint", "KktSystem", "build_system", "run",
    "BlockSystem", "SingularMatrixError", "SparseMatrix", "solve_direct",
    "__version__",
]
