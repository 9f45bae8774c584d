"""Solver and certification toolkit for optimal control of the
Landau-Lifshitz-Bloch equation with coil-parameterized magnetic fields."""

__version__ = "0.1.0"

from .grid import Grid, Trajectory, VectorField, time_integral
from .coils import CoilSet, ControlPath, gaussian_coil, project_box, uniform_coil
from .llb import (BlowUpError, OracleError, SimConfig, blowup_times, energy_ledger, simulate,
                  simulate_galerkin)
from .tangent import LinearizationPoint, solve_tangent, taylor_remainder_order
from .adjoint import solve_adjoint, solve_costate_derivative, tracking_adjoint

__all__ = [
    "Grid", "Trajectory", "VectorField", "time_integral",
    "CoilSet", "ControlPath", "gaussian_coil", "project_box", "uniform_coil",
    "BlowUpError", "OracleError", "SimConfig", "blowup_times", "energy_ledger",
    "simulate", "simulate_galerkin", "LinearizationPoint",
    "solve_tangent", "taylor_remainder_order", "solve_adjoint",
    "solve_costate_derivative", "tracking_adjoint",
]
