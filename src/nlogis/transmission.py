"""Mixed local/nonlocal transmission problem: eigenvalue and minimization.

The minimized functional is half the assembled quadratic form plus the
logistic bulk, while the survival threshold lambda_star is the infimum of
the undoubled form under unit L2 norm; keeping the single assembled matrix
for both uses prevents a silent factor-two mismatch between them.  The
problem is a bounded habitat like any other: solve_dirichlet solves it,
under the same residual tolerance, and energy and energy_gradient evaluate
its functional and nodal equations.
"""

from __future__ import annotations

from .logistic import SolveReport, solve_dirichlet
from .operators import TransmissionSpec, assemble_transmission
from .spectral import EigenPair, first_eigenpair

__all__ = ["lambda_star", "minimize_transmission"]


def lambda_star(tspec: TransmissionSpec) -> EigenPair:
    """First eigenvalue of the transmission form under unit L2 norm."""
    return first_eigenpair(assemble_transmission(tspec))


def minimize_transmission(tspec: TransmissionSpec) -> SolveReport:
    """Minimize form/2 + int(mu |u|^3/3 - sigma u^2/2) over both habitats.

    This is solve_dirichlet of the transmission problem: when the Hessian
    at zero is positive definite (sigma below lambda_star where sigma is
    constant) zero is returned without descending and without an
    eigenpair; otherwise the first eigenvector is the first start.
    """
    return solve_dirichlet(tspec)
