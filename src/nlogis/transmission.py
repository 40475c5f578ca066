"""Mixed local/nonlocal transmission problem: eigenvalue and minimization.

The minimized functional is half the assembled quadratic form plus the
logistic bulk, while the survival threshold lambda_star is the infimum of
the undoubled form under unit L2 norm; keeping the single assembled matrix
for both uses prevents a silent factor-two mismatch between them.  The
solve returns the SolveReport of the bounded and periodic solves, whose
dichotomy_ok flag is the positivity dichotomy across both habitats.
"""

from __future__ import annotations

import numpy as np

from .grids import Field
from .logistic import (SolveReport, _eigen_start, _spec_model, _steady_state,
                       energy_gradient)
from .operators import TransmissionSpec, assemble_transmission
from .spectral import EigenPair, first_eigenpair

__all__ = [
    "lambda_star",
    "minimize_transmission",
    "transmission_el_residual",
]


def lambda_star(tspec: TransmissionSpec) -> EigenPair:
    """First eigenvalue of the transmission form under unit L2 norm."""
    return first_eigenpair(assemble_transmission(tspec))


def minimize_transmission(tspec: TransmissionSpec) -> SolveReport:
    """Minimize form/2 + int(mu |u|^3/3 - sigma u^2/2) over both habitats.

    Shares the Dirichlet solve's core (see logistic._steady_state) and
    report: when the Hessian at zero is positive definite (sigma below
    lambda_star where sigma is constant) zero is the only minimizer and is
    returned without descending and without an eigenpair.  Otherwise the
    first eigenvector is the first start of the descent and the probe of
    its Newton steps.
    """
    op = assemble_transmission(tspec)
    model = _spec_model(tspec, op)
    return _steady_state(tspec, model, lambda: _eigen_start(
        model, op, tspec.solver_tol, 0.1 * tspec.triviality_tol),
        tspec.solver_tol, max_iter=800)


def transmission_el_residual(u: Field, tspec: TransmissionSpec) -> float:
    """Sup norm of the coupled nodal equations A u + mu |u| u - sigma u."""
    grad = energy_gradient(u, tspec, assemble_transmission(tspec))
    return float(np.max(np.abs(grad.values)))
