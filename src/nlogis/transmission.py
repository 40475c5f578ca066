"""Mixed local/nonlocal transmission problem: eigenvalue, minimization,
and the positivity dichotomy across both habitats.

The minimized functional is half the assembled quadratic form plus the
logistic bulk, while the survival threshold lambda_star is the infimum of
the undoubled form under unit L2 norm; keeping the single assembled matrix
for both uses prevents a silent factor-two mismatch between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Field
from .logistic import _EnergyModel, _eigen_start, _multistart, _zero_trivial
from .operators import TransmissionSpec, assemble_transmission
from .spectral import EigenPair, first_eigenpair

__all__ = [
    "TransmissionReport",
    "lambda_star",
    "minimize_transmission",
    "transmission_el_residual",
    "mp_check",
]


@dataclass
class TransmissionReport:
    """Outcome of one transmission-energy minimization."""

    u: Field
    energy: float
    lambda_star: float
    el_residual: float
    iterations: int
    classification: str
    positive_on_local: bool
    positive_on_nonlocal: bool
    history: list[float]


def lambda_star(tspec: TransmissionSpec, tol: float = 1e-10) -> EigenPair:
    """First eigenvalue of the transmission form under unit L2 norm."""
    return first_eigenpair(assemble_transmission(tspec), tol=tol)


def minimize_transmission(
    tspec: TransmissionSpec, max_iter: int = 800
) -> TransmissionReport:
    """Minimize form/2 + int(mu |u|^3/3 - sigma u^2/2) over both habitats."""
    op = assemble_transmission(tspec)
    model = _EnergyModel(op.a, tspec.grid.h, tspec.mu.values, -tspec.sigma.values)
    pair = first_eigenpair(op, tol=min(1e-10, tspec.solver_tol * 100))
    tiny = 0.1 * tspec.triviality_tol
    starts = [(_eigen_start(model, pair, pair.lambda_, tiny), max_iter),
              (np.full(tspec.grid.n, tiny), min(max_iter, 300))]
    u, history, iters, residual = _multistart(model, starts, tspec.solver_tol)
    u, energy_val, history, residual, classification = _zero_trivial(
        model, u, history, residual, tspec.triviality_tol
    )
    return TransmissionReport(
        u=Field(grid=tspec.grid, values=u),
        energy=energy_val,
        lambda_star=pair.lambda_,
        el_residual=residual,
        iterations=iters,
        classification=classification,
        positive_on_local=bool(
            np.all(u[tspec.grid.interval_nodes(tspec.local_id)]
                   > tspec.triviality_tol)
        ),
        positive_on_nonlocal=bool(
            np.all(u[tspec.grid.interval_nodes(tspec.nonlocal_id)]
                   > tspec.triviality_tol)
        ),
        history=history,
    )


def transmission_el_residual(u: Field, tspec: TransmissionSpec) -> float:
    """Sup norm of the coupled nodal equations A u + mu |u| u - sigma u."""
    op = assemble_transmission(tspec)
    model = _EnergyModel(op.a, tspec.grid.h, tspec.mu.values, -tspec.sigma.values)
    return float(np.max(np.abs(model.gradient(u.values))))


def mp_check(u: Field, tspec: TransmissionSpec) -> str:
    """Positivity dichotomy verdict for a nonnegative solution.

    Returns "positive-everywhere" or "identically-zero"; any mixed pattern
    (zero somewhere, positive elsewhere) is flagged as "violation".
    """
    tol = tspec.triviality_tol
    positive = u.values > tol
    if bool(np.all(positive)):
        return "positive-everywhere"
    if not bool(np.any(positive)):
        return "identically-zero"
    return "violation"
