"""Repair cost functions ``g``.

Equation 1 minimises a cost of the perturbation; the paper's "typical
function is the sum of squares of the perturbation variables" (the
squared Frobenius norm of ``Z``).  Alternatives here support the
cost-function ablation benchmark.

The quadratic costs also publish ``quadratic(order) -> Q``, the
symmetric matrix with ``cost(v) = xᵀQx`` for ``x`` the values in
``order``: the NLP then evaluates the cost and its gradient ``2Qx`` on
its own vector instead of through a name→value dict.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence

import numpy as np

Assignment = Mapping[str, float]
CostFunction = Callable[[Assignment], float]
CostGradient = Callable[[Assignment], Mapping[str, float]]


def frobenius_cost(assignment: Assignment) -> float:
    """``Σ v_k²`` — the paper's default ``‖Z‖_F²``."""
    return sum(value * value for value in assignment.values())


def frobenius_gradient(assignment: Assignment) -> Dict[str, float]:
    """``∂/∂v_k Σ v_k² = 2 v_k`` — analytic gradient of the default cost."""
    return {name: 2.0 * value for name, value in assignment.items()}


def frobenius_quadratic(order: Sequence[str]) -> np.ndarray:
    """``Q = I``: the default cost as a constant quadratic form."""
    return np.eye(len(order))


frobenius_cost.gradient = frobenius_gradient
frobenius_cost.quadratic = frobenius_quadratic


def l1_cost(assignment: Assignment) -> float:
    """``Σ |v_k|`` — sparsity-encouraging alternative."""
    return sum(abs(value) for value in assignment.values())


def max_cost(assignment: Assignment) -> float:
    """``max |v_k|`` — directly minimises the ε of Proposition 1."""
    return max((abs(value) for value in assignment.values()), default=0.0)


def weighted_quadratic_cost(weights: Mapping[str, float]) -> CostFunction:
    """``Σ w_k v_k²`` with per-variable weights.

    Lets an application make some transitions more expensive to perturb
    than others (the paper: "which part of the car controller can be
    modified").
    """

    def cost(assignment: Assignment) -> float:
        return sum(
            weights.get(name, 1.0) * value * value
            for name, value in assignment.items()
        )

    def gradient(assignment: Assignment) -> Dict[str, float]:
        return {
            name: 2.0 * weights.get(name, 1.0) * value
            for name, value in assignment.items()
        }

    def quadratic(order: Sequence[str]) -> np.ndarray:
        return np.diag([float(weights.get(name, 1.0)) for name in order])

    cost.gradient = gradient
    cost.quadratic = quadratic
    return cost


NAMED_COSTS = {
    "frobenius": frobenius_cost,
    "l1": l1_cost,
    "max": max_cost,
}


def resolve_cost(cost) -> CostFunction:
    """Accept a cost function or one of the names in :data:`NAMED_COSTS`."""
    if callable(cost):
        return cost
    try:
        return NAMED_COSTS[cost]
    except KeyError:
        raise ValueError(
            f"unknown cost {cost!r}; expected one of {sorted(NAMED_COSTS)}"
        ) from None


def resolve_cost_gradient(cost) -> Optional[CostGradient]:
    """The analytic gradient of ``cost``, or ``None``.

    Smooth costs (frobenius, weighted quadratic) publish their gradient
    as a ``.gradient`` attribute on the cost callable; non-smooth ones
    (l1, max) don't, and the NLP falls back to finite differences for
    them exactly as before.
    """
    resolved = resolve_cost(cost)
    return getattr(resolved, "gradient", None)
