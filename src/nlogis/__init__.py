"""nlogis: steady states of the nonlocal logistic equation in one dimension.

Discretizes the fractional-diffusion logistic equation with a convolution
resource term on bounded, periodic and mixed (transmission) habitats, and
reproduces the survival thresholds, scaling laws, maximum principles and
constructive minimizations the model supports at desk scale.
"""

from .errors import ConvergenceError
from .grids import (
    MAX_NODES,
    Field,
    Grid,
    Kernel,
    PeriodicGrid,
    ProblemSpec,
    build_grid,
    build_kernel,
    build_periodic_grid,
    l2_norm,
    problem_spec,
    sample_function,
)
from .logistic import (
    BeatScan,
    CongruenceResult,
    CriticalRadius,
    ExtCrossing,
    SolveReport,
    beat_experiment,
    check_fitting_bounds,
    congruence_experiment,
    critical_radius,
    energy,
    energy_gradient,
    ext_crossing,
    minimize,
    solve_dirichlet,
    solve_periodic,
)
from .operators import (
    CLASSICAL_LIMIT_CONSTANT,
    NonlocalMatrix,
    TransmissionSpec,
    assemble,
    assemble_classical,
    assemble_dirichlet,
    assemble_periodic,
    assemble_transmission,
    convolution_matrix,
    transmission_spec,
)
from .spectral import (
    EigenPair,
    ScalingStudy,
    UnionStudy,
    eigen_scaling,
    first_eigenpair,
    union_eigen_study,
)
from .strategic import (
    HarmonicApproximation,
    StrategicResult,
    approximate_s_harmonic,
    build_strategic,
    minimize_with_source,
)
from .transmission import lambda_star, minimize_transmission

__version__ = "0.1.0"
