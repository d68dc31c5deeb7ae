"""Numerical laboratory for fully nonlinear curvature-one equations.

The package is organized around the radial annulus problem for the
sigma_k family of curvature equations and the conformal structure
surrounding it:

``symfn``
    elementary symmetric polynomials, their cones, concave curvature
    functions built from defining functions, and axiom verification;
``schouten``
    conformal curvature matrices of explicit factors (bubble, cylinder,
    radial profiles) and a small dense symmetric eigensolver;
``radial``
    the autonomous second-order reduction on the annulus: integrator,
    conserved quantity, boundary residuals, profile reconstruction;
``shooting``
    scan-and-refine boundary-value solvers: solution counting, threshold
    radius search, branch-count transition location, and the bounded-C1
    blow-up family;
``mobius``
    conformal maps with exact Jacobian data, Kelvin transforms, the
    moving-sphere radius, and the boundary-data reduction identities;
``cli``
    the ``syl`` command-line entry point.
"""

# ``cli`` is left out so that ``python -m syl.cli`` runs it fresh;
# ``from syl import cli`` still works.
from . import fd, mobius, radial, schouten, shooting, symfn
from .mobius import (
    BoundaryData,
    Dilation,
    Inversion,
    MobiusMap,
    Orthogonal,
    Translation,
    canonical_boundary_matrix,
    kelvin,
    moving_sphere_radius,
    transform_boundary_data,
    verify_reduction_identities,
)
from .radial import (
    AnnulusProblem,
    RadialState,
    Trajectory,
    integrate,
    ode_invariant,
    ode_rhs,
    reconstruct,
)
from .schouten import (
    Bubble,
    ConformalFactorSample,
    Cylinder,
    eigenvalues,
    mean_curvature_conformal,
    radial_eigenvalues,
    schouten_matrix,
)
from .shooting import (
    ScanSpec,
    ShootingResult,
    bifurcation_threshold,
    counterexample_sweep,
    cylinder_solution,
    find_r_star,
    solve_annulus,
    verify_bifurcation,
)
from .symfn import (
    ConeSpec,
    SymmetricCurvatureFunction,
    build_concave_f,
    in_gamma_k,
    sigma_k,
    sigma_k_gradient,
    sigma_root,
    verify_axioms,
)

__version__ = "0.1.0"

__all__ = [
    "cli", "fd", "mobius", "radial", "schouten", "shooting", "symfn",
    "BoundaryData", "Dilation", "Inversion", "MobiusMap", "Orthogonal",
    "Translation", "canonical_boundary_matrix", "kelvin",
    "moving_sphere_radius", "transform_boundary_data",
    "verify_reduction_identities",
    "AnnulusProblem", "RadialState", "Trajectory", "integrate",
    "ode_invariant", "ode_rhs", "reconstruct",
    "Bubble", "ConformalFactorSample", "Cylinder", "eigenvalues",
    "mean_curvature_conformal", "radial_eigenvalues", "schouten_matrix",
    "ScanSpec", "ShootingResult", "bifurcation_threshold",
    "counterexample_sweep", "cylinder_solution", "find_r_star",
    "solve_annulus", "verify_bifurcation",
    "ConeSpec", "SymmetricCurvatureFunction", "build_concave_f",
    "in_gamma_k", "sigma_k", "sigma_k_gradient", "sigma_root",
    "verify_axioms",
    "__version__",
]
