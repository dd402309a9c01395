"""Feasibility decided over the whole repair region, before any solve.

The multi-start NLP answers ``infeasible`` when none of its starts
reached a feasible point: a local failure, not a proof.  This module
bounds the checked quantity over the *whole* repair region with one
robust solve, and proves infeasibility when even the best value in the
region violates the bound.  Two region builders feed the engine's
``region`` hook:

* :class:`IntervalRegion` (:meth:`ModelRepair.for_chain`).  Each
  controllable row's repair set is exactly an interval row: every entry
  lies in ``[max(margin, p − δ), min(1 − margin, p + δ)]`` and the row
  sums to one.  The NLP's variable bounds and its linear
  ``row_*_lower``, ``row_*_upper``, ``row_*_delta_lower`` and
  ``row_*_delta_upper`` rows (the last two are ``δ ∓ Σz ≥ 0``, i.e.
  ``|Σz| ≤ δ``) describe the same polytope, and every other row is a
  point interval.  Rows are
  independent, so the best value over the region is one
  :class:`~repro.mdp.interval.IntervalDTMC` solve (the rectangular
  uncertainty sets of Suilen et al., "Robust MDPs"), and it is exact.
* :class:`LiftedRegion` (:meth:`ModelRepair.from_parametric`).
  Parameter lifting (Češka et al., "Model Repair Revamped"): every state
  gets its own copy of its row's parameters.  A row of degree at most
  one in each parameter is then a convex combination of its rows at the
  box corners, and its interval hull (each entry between its least and
  greatest corner value) contains them all.  The same interval solve
  over these hulls bounds every instantiation.  The bound is sound for
  infeasibility only: the optimum need not be an instantiation.

A region proves infeasibility only when its solve converged (no row has
a strictly improving switch left) and the best value violates the bound by more than ``1e-9·max(1, |b|)``.  Every other
case answers ``None`` and the engine runs elimination and the NLP as
before.  The best value is memoised in the
:class:`~repro.checking.cache.CheckCache` under the model fingerprint,
the path formula without its bound, the direction and the region, so
tightened bounds and repeated repairs pay one solve.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

from repro.checking.cache import get_cache, parametric_fingerprint, path_query
from repro.checking.matrix import model_fingerprint
from repro.checking.parametric import ParametricDTMC
from repro.logic.pctl import ProbabilisticOperator, RewardOperator
from repro.mdp.interval import IntervalDTMC
from repro.mdp.model import DTMC, ModelValidationError
from repro.repair.robust import _reachability_form, _with_absorbing

State = Hashable

#: A best value proves infeasibility only past this relative violation.
PROOF_TOLERANCE = 1e-9
#: Rows with more parameters than this are not lifted (2^k corners each).
MAX_ROW_PARAMETERS = 4
#: A box corner's row may miss a distribution by rounding only.
_CORNER_TOLERANCE = 1e-9


class RegionProof:
    """The best value over the repair region, and the bound it violates.

    ``kind`` is ``"interval"`` (exact) or ``"lifted"`` (a sound bound).
    ``best`` is the maximum over the region for ``>``/``>=`` formulas and
    the minimum for ``<``/``<=``.
    """

    def __init__(self, kind: str, best: float, comparison: str, bound: float):
        self.kind = str(kind)
        self.best = float(best)
        self.comparison = str(comparison)
        self.bound = float(bound)

    def describe(self) -> str:
        relation = "<" if self.comparison in (">", ">=") else ">"
        return (
            f"proved infeasible: best over the repair region "
            f"{self.best:.6g} {relation} bound {self.bound:.6g} ({self.kind})"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "best": self.best,
            "comparison": self.comparison,
            "bound": self.bound,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RegionProof":
        return cls(
            payload["kind"], payload["best"], payload["comparison"], payload["bound"]
        )

    def __repr__(self) -> str:
        return (
            f"RegionProof(kind={self.kind!r}, best={self.best:.6g}, "
            f"comparison={self.comparison!r}, bound={self.bound:.6g})"
        )


def region_proof(region, formula, cache=None) -> Optional[RegionProof]:
    """A :class:`RegionProof` when ``region`` proves ``formula``
    unsatisfiable, else ``None`` (inconclusive or unsupported).

    Supported: a top-level ``P ⋈ b [φ1 U φ2]`` or ``R ⋈ b [F φ]`` with
    no step bound and label-only sub-formulas.
    """
    if not isinstance(formula, (ProbabilisticOperator, RewardOperator)):
        return None
    if getattr(formula.path, "step_bound", None) is not None:
        return None
    maximise = formula.comparison in (">", ">=")
    key = ("region",) + region.key() + (path_query(formula), maximise)
    best = get_cache(cache).region_best(
        key, lambda: region.best(formula, maximise)
    )
    tolerance = PROOF_TOLERANCE * max(1.0, abs(formula.bound))
    if maximise:
        violated = best < formula.bound - tolerance
    else:
        violated = best > formula.bound + tolerance
    if not violated:  # also for nan: an inconclusive solve
        return None
    return RegionProof(region.kind, best, formula.comparison, formula.bound)


# ----------------------------------------------------------------------
# Regions
# ----------------------------------------------------------------------
class _Region:
    """A repair region bounded by one :class:`IntervalDTMC` solve."""

    def interval_chain(self) -> Optional[IntervalDTMC]:
        raise NotImplementedError

    def best(self, formula, maximise: bool) -> float:
        """The best value over the region (``nan`` when inconclusive).

        The solve runs with tolerance 0, so it stops only when no row
        has a strictly improving switch: its value is then the optimum,
        not a residual-close approximation of it.
        """
        region = self.interval_chain()
        if region is None:
            return math.nan
        try:
            targets, avoid, kind = _reachability_form(region, formula)
        except TypeError:
            return math.nan
        if avoid:
            region = _with_absorbing(region, avoid)
        if kind == "probability":
            solve = region.reachability_values_report
        else:
            solve = region.expected_reward_values_report
        values, report = solve(targets, maximise, tolerance=0.0)
        if not report.converged or report.diverged:
            return math.nan
        return float(values[region.initial_state])


class IntervalRegion(_Region):
    """The exact repair region of :meth:`ModelRepair.for_chain`."""

    kind = "interval"

    def __init__(
        self,
        chain: DTMC,
        controllable: Iterable[State],
        max_perturbation: Optional[float],
        margin: float,
    ):
        self.chain = chain
        self.controllable = frozenset(controllable)
        self.max_perturbation = max_perturbation
        self.margin = float(margin)

    def key(self) -> Tuple:
        # The fingerprint covers states, rows, rewards and labels but not
        # the initial state, whose value is the one memoised.
        rows = tuple(sorted(self.chain.index[s] for s in self.controllable))
        return (
            self.kind,
            model_fingerprint(self.chain),
            self.chain.index[self.chain.initial_state],
            rows,
            self.max_perturbation,
            self.margin,
        )

    def _entry(self, probability: float) -> Tuple[float, float]:
        lower, upper = self.margin, 1.0 - self.margin
        if self.max_perturbation is not None:
            lower = max(lower, probability - self.max_perturbation)
            upper = min(upper, probability + self.max_perturbation)
        return lower, upper

    def interval_chain(self) -> Optional[IntervalDTMC]:
        """The region as an interval chain (``None`` if it is empty)."""
        intervals = {
            state: {
                target: (
                    self._entry(p) if state in self.controllable else (p, p)
                )
                for target, p in row.items()
            }
            for state, row in self.chain.transitions.items()
        }
        try:
            return IntervalDTMC(
                states=self.chain.states,
                intervals=intervals,
                initial_state=self.chain.initial_state,
                labels=self.chain.labels,
                state_rewards=self.chain.state_rewards,
            )
        except ModelValidationError:
            return None


class LiftedRegion(_Region):
    """Parameter lifting of a :class:`ParametricDTMC` over a box.

    Applies when every transition entry is a polynomial of degree at
    most one in each parameter, rewards are constant, a row has at most
    :data:`MAX_ROW_PARAMETERS` parameters, every parameter has a finite
    box and every box corner is a distribution; otherwise
    :meth:`interval_chain` is ``None`` and :meth:`best` is ``nan``.
    """

    kind = "lifted"

    def __init__(self, model: ParametricDTMC, variables: Sequence):
        self.model = model
        self.box = {v.name: (float(v.lower), float(v.upper)) for v in variables}

    def key(self) -> Tuple:
        return (
            self.kind,
            parametric_fingerprint(self.model),
            tuple(sorted(self.box.items())),
        )

    def interval_chain(self) -> Optional[IntervalDTMC]:
        """Each row's corner hull as an interval row: entry ``t`` ranges
        over ``[min, max]`` of its values at the row's box corners.  The
        rows' convex hulls lie inside, so the solve bounds every
        instantiation (``None`` outside the lifted fragment)."""
        model = self.model
        intervals = {}
        for state in model.states:
            corners = self._corner_rows(model.transitions[state])
            if not corners:
                return None
            intervals[state] = {
                target: (
                    max(0.0, min(corner[target] for corner in corners)),
                    min(1.0, max(corner[target] for corner in corners)),
                )
                for target in model.transitions[state]
            }
        rewards = {}
        for state in model.states:
            reward = model.state_rewards[state]
            if not reward.is_constant():
                return None
            rewards[state] = float(reward.constant_value())
        try:
            return IntervalDTMC(
                states=model.states,
                intervals=intervals,
                initial_state=model.initial_state,
                labels=model.labels,
                state_rewards=rewards,
            )
        except ModelValidationError:
            return None

    def _corner_rows(self, row) -> list:
        """The row at every corner of its parameters' box (``[]`` when
        the row is outside the lifted fragment)."""
        names = set()
        for function in row.values():
            if not function.denominator.is_constant():
                return []
            names |= function.variables()
        if len(names) > MAX_ROW_PARAMETERS or not names <= set(self.box):
            return []
        names = sorted(names)
        column = {name: i for i, name in enumerate(names)}
        # Each entry as float terms (coefficient, parameter columns).
        entries = []
        for function in row.values():
            scale = float(function.denominator.constant_value())
            terms = []
            for monomial, coefficient in function.numerator.terms.items():
                if any(exponent > 1 for _name, exponent in monomial):
                    return []
                terms.append(
                    (float(coefficient) / scale, [column[n] for n, _e in monomial])
                )
            entries.append(terms)
        corners = []
        for corner in product(*(self.box[name] for name in names)):
            probs = []
            for terms in entries:
                total = 0.0
                for value, columns in terms:
                    for c in columns:
                        value *= corner[c]
                    total += value
                probs.append(total)
            if (
                not all(map(math.isfinite, probs))
                or min(probs) < -_CORNER_TOLERANCE
                or abs(sum(probs) - 1.0) > _CORNER_TOLERANCE
            ):
                return []
            corners.append(dict(zip(row, probs)))
        return corners
