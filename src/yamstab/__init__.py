"""Numerical laboratory for quantitative stability of boundary Yamabe
minimizers on cohomogeneity-one model manifolds."""

__version__ = "0.1.0"

from .model import (BoundaryData, Pole, SymmetricModel, conformal_deform,
                    make_model, sphere_area)
from .disc import DiscreteOperators, Grid, assemble_operators, build_grid, lp_norm
from .energy import (ELResidual, NormalizedState, el_residual,
                     energy_deficit, gradient, normalize, power_increment,
                     project_tangent, second_variation, yamabe_quotient)
from .minimize import (ConvergenceError, MinimizeOptions, MinimizeReport,
                       estimate_yamabe_constant, hemisphere_comparison_value,
                       minimize_energy)
from .spectrum import (KernelSplit, KernelThresholdError, SpectrumReport,
                       eigen_decompose, kernel_split)
from .lsred import (ChartError, FitRejectedError, GrowthFit,
                    InsufficientDataError, ReducedSample, ReductionChart,
                    detect_integrability, fit_growth_exponent, sample_reduced,
                    solve_corrections)
from .stability import (CoercivityData, CoercivityError, SampleSpec,
                        StabilityFit, StabilityRecord, coercivity_data,
                        fit_stability_exponent, sample_deficit_distance)

__all__ = [name for name in dir() if not name.startswith("_")]
