"""Interval Markov chains: convex transition uncertainty.

The related work the paper builds on (Puggelli et al., "Polynomial-Time
Verification of PCTL Properties of MDPs with Convex Uncertainties";
Sen et al.'s uncertain Markov chains) verifies models whose transition
probabilities are only known up to intervals.  Here this doubles as a
*robustness certificate for repairs*: by Proposition 1 a repair with
bound ε keeps every transition within ±ε of the repaired value, so
checking the interval chain ``[P' − ε', P' + ε']`` proves the repaired
model keeps satisfying the property under any further ε'-perturbation.

Semantics: at every step, nature picks any distribution inside the
row's intervals (the standard non-convex-adversary-free "interval MDP"
setting).  Nature's inner problem over one row is a linear program over
the interval simplex whose optimum is a vertex with a greedy closed form
(start every successor at its lower bound, then pour the free mass into
the best successors first).  All rows are lowered once into CSR arrays
(:class:`_IntervalRows`), so one greedy pick over the whole chain is a
``lexsort`` by (row, ±value) plus a segmented cumulative sum.

Robust values come from *nature-strategy iteration* (Suilen et al.,
"Robust MDPs: A Place Where AI and Formal Methods Meet"): pick nature's
greedy distribution under the current values, evaluate that member
chain exactly with a sparse linear solve, and re-pick until one more
Bellman sweep moves no value by more than the tolerance — a few rounds
where value iteration took thousands of sweeps.  Qualitative sets are
fixed first and rows switch only on strict improvement, so every
evaluated system is nonsingular and the final strategy, which is also
the extremal witness chain, attains the Bellman fixpoint.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import spsolve

from repro.mdp.model import DTMC, ModelValidationError

State = Hashable

_VI_TOLERANCE = 1e-10
_VI_MAX_ITERATIONS = 100_000
#: Any finite value crossing this threshold marks the solve as
#: divergent — expected rewards of real repair models live far below it.
_VI_DIVERGENCE_LIMIT = 1e15
#: A row switches strategy only when its Bellman gain beats this
#: fraction of the value scale, so float noise cannot cycle strategies.
_SWITCH_GAIN = 1e-12
#: Free mass a greedy fill leaves below this is float drift from the
#: running sums, not probability: it must not open a successor edge.
_FILL_DRIFT = 1e-14


class VIReport:
    """Accounting for one robust solve.

    ``iterations`` counts Bellman sweeps: every nature-strategy pick
    plus the validating sweep.  ``converged`` is True iff the validating
    sweep moved no value by more than the tolerance (or found no
    strictly improving row) before the sweep cap; ``residual`` is the
    largest value change of the last sweep.  ``diverged`` flags a
    singular or non-finite solve, or values past
    :data:`_VI_DIVERGENCE_LIMIT`, which a capped run never reports.
    """

    def __init__(
        self,
        iterations: int,
        converged: bool,
        residual: float,
        diverged: bool = False,
    ):
        self.iterations = int(iterations)
        self.converged = bool(converged)
        self.residual = float(residual)
        self.diverged = bool(diverged)

    def to_dict(self) -> Dict[str, object]:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "residual": self.residual,
            "diverged": self.diverged,
        }

    def __repr__(self) -> str:
        return (
            f"VIReport(iterations={self.iterations}, "
            f"converged={self.converged}, diverged={self.diverged})"
        )


def _epsilon_ball_row(
    row: Mapping[State, float], epsilon: float
) -> Dict[State, Tuple[float, float]]:
    """±ε interval row with bounds clamped into [0, 1].

    Structural zeros stay at exactly ``[0, 0]`` so the ε-ball preserves
    the transition graph, and a probability stored slightly above 1
    (within the DTMC's validation tolerance) cannot produce an inverted
    ``lower > upper`` interval.
    """
    ball: Dict[State, Tuple[float, float]] = {}
    for target, p in row.items():
        if p <= 0.0:
            ball[target] = (0.0, 0.0)
            continue
        lower = min(1.0, max(0.0, p - epsilon))
        upper = min(1.0, max(lower, p + epsilon))
        ball[target] = (lower, upper)
    return ball


class _IntervalRows:
    """Interval rows lowered to CSR arrays, plus nature's greedy fill.

    Row ``i`` owns entries ``indptr[i]:indptr[i + 1]`` of ``cols``,
    ``lower``, ``upper`` and ``slack``; ``free`` is the mass a row has
    left once every successor sits at its lower bound.  Every row has at
    least one entry (validation rejects empty rows).
    """

    def __init__(self, rows: List[Mapping[State, Tuple]], index: Mapping[State, int]):
        lengths = [len(row) for row in rows]
        self.num_states = len(index)
        self.indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        self.row_of = np.repeat(np.arange(len(rows)), lengths)
        self.cols = np.array([index[t] for row in rows for t in row], dtype=np.int64)
        bounds = np.array(
            [b for row in rows for b in row.values()], dtype=np.float64
        ).reshape(-1, 2)
        self.lower, self.upper = bounds[:, 0], bounds[:, 1]
        self.slack = self.upper - self.lower
        self.free = 1.0 - self.row_sum(self.lower)

    def row_sum(self, entries: np.ndarray) -> np.ndarray:
        return np.add.reduceat(entries, self.indptr[:-1])

    def row_any(self, entries: np.ndarray) -> np.ndarray:
        return np.logical_or.reduceat(entries, self.indptr[:-1])

    def pick(
        self, key: np.ndarray, maximise: bool, slack: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Nature's greedy distribution in every row at once.

        Successors are filled from their lower bounds in order of
        ``key`` (descending when ``maximise``; ties keep row order), each
        taking its slack until the row's free mass is spent.  ``slack``
        overrides the per-entry slack (zero blocks an entry).
        """
        key = key[self.cols]
        order = np.lexsort((-key if maximise else key, self.row_of))
        slack = (self.slack if slack is None else slack)[order]
        before = np.cumsum(slack) - slack
        before -= before[self.indptr[:-1]][self.row_of]
        remaining = self.free[self.row_of] - before
        remaining[remaining < _FILL_DRIFT] = 0.0
        probs = self.lower.copy()
        probs[order] += np.clip(remaining, 0.0, slack)
        return probs

    def matrix(self, probs: np.ndarray) -> sparse.csr_matrix:
        return sparse.csr_matrix(
            (probs, self.cols, self.indptr),
            shape=(len(self.indptr) - 1, self.num_states),
        )

    def distances(self, edges: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Hops from each state to ``seeds`` along the ``edges`` entries
        (``inf`` where no path exists)."""
        n = self.num_states
        sources = np.concatenate((self.cols[edges], np.full(seeds.sum(), n)))
        sinks = np.concatenate((self.row_of[edges], np.flatnonzero(seeds)))
        graph = sparse.csr_matrix(
            (np.ones(len(sources)), (sources, sinks)), shape=(n + 1, n + 1)
        )
        hops = csgraph.shortest_path(graph, unweighted=True, indices=n)
        return hops[:n] - 1.0


class IntervalDTMC:
    """A chain whose transition probabilities are intervals.

    Parameters
    ----------
    states:
        State identifiers.
    intervals:
        ``{source: {target: (lower, upper)}}``.  Row feasibility requires
        ``Σ lower ≤ 1 ≤ Σ upper`` with each ``0 ≤ lower ≤ upper ≤ 1``.
    initial_state / labels / state_rewards:
        As for :class:`~repro.mdp.DTMC`.

    Examples
    --------
    >>> imc = IntervalDTMC(
    ...     states=["a", "b"],
    ...     intervals={
    ...         "a": {"b": (0.4, 0.6), "a": (0.4, 0.6)},
    ...         "b": {"b": (1.0, 1.0)},
    ...     },
    ...     initial_state="a",
    ...     labels={"b": {"goal"}},
    ... )
    >>> round(imc.reachability_probability({"b"}, maximise=False), 6)
    1.0
    """

    def __init__(
        self,
        states,
        intervals: Mapping[State, Mapping[State, Tuple[float, float]]],
        initial_state: State,
        labels: Optional[Mapping[State, Iterable[str]]] = None,
        state_rewards: Optional[Mapping[State, float]] = None,
    ):
        self.states = list(states)
        known = set(self.states)
        if initial_state not in known:
            raise ModelValidationError(f"unknown initial state {initial_state!r}")
        self.initial_state = initial_state
        self.intervals: Dict[State, Dict[State, Tuple[float, float]]] = {}
        for state in self.states:
            row = intervals.get(state)
            if not row:
                row = {state: (1.0, 1.0)}
            lower_sum = 0.0
            upper_sum = 0.0
            cleaned: Dict[State, Tuple[float, float]] = {}
            for target, (lower, upper) in row.items():
                if target not in known:
                    raise ModelValidationError(f"unknown target {target!r}")
                if not 0.0 <= lower <= upper <= 1.0 + 1e-12:
                    raise ModelValidationError(
                        f"bad interval [{lower}, {upper}] on "
                        f"{state!r} -> {target!r}"
                    )
                cleaned[target] = (float(lower), float(min(upper, 1.0)))
                lower_sum += lower
                upper_sum += upper
            if lower_sum > 1.0 + 1e-9 or upper_sum < 1.0 - 1e-9:
                raise ModelValidationError(
                    f"row {state!r} infeasible: Σlower={lower_sum}, "
                    f"Σupper={upper_sum}"
                )
            self.intervals[state] = cleaned
        self.labels = {
            s: frozenset((labels or {}).get(s, frozenset())) for s in self.states
        }
        self.state_rewards = {
            s: float((state_rewards or {}).get(s, 0.0)) for s in self.states
        }
        self._kernel: Optional[_IntervalRows] = None
        #: ``(values, maximise, probs, solved)`` of the last solve: its
        #: final strategy is the witness :meth:`extremal_chain` returns.
        self._witness = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_dtmc(chain: DTMC, epsilon: float) -> "IntervalDTMC":
        """Blow a concrete chain up into ±ε intervals (clamped to [0,1]).

        Structural zeros stay zero — matching Equation 3's
        structure-preservation and Proposition 1's perturbation model.
        """
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        intervals = {
            s: _epsilon_ball_row(row, epsilon)
            for s, row in chain.transitions.items()
        }
        return IntervalDTMC(
            states=chain.states,
            intervals=intervals,
            initial_state=chain.initial_state,
            labels=chain.labels,
            state_rewards=chain.state_rewards,
        )

    def contains(self, chain: DTMC, tolerance: float = 1e-9) -> bool:
        """Whether a concrete chain's transitions lie inside the intervals."""
        if chain.states != self.states:
            return False
        for state in self.states:
            row = self.intervals[state]
            for target in set(chain.transitions[state]) | set(row):
                probability = chain.probability(state, target)
                lower, upper = row.get(target, (0.0, 0.0))
                if probability < lower - tolerance or probability > upper + tolerance:
                    return False
        return True

    def states_with_atom(self, atom: str):
        """All states labelled with ``atom``."""
        return frozenset(s for s, props in self.labels.items() if atom in props)

    # ------------------------------------------------------------------
    # Lowered rows and qualitative analysis
    # ------------------------------------------------------------------
    def _rows(self) -> _IntervalRows:
        if self._kernel is None:
            index = {s: i for i, s in enumerate(self.states)}
            self._kernel = _IntervalRows(
                [self.intervals[s] for s in self.states], index
            )
        return self._kernel

    def _adversarial_trap_states(self, targets: np.ndarray, closure: bool = True):
        """States from which some member chain avoids ``targets`` forever.

        A target-avoiding *trap* is a set ``C`` of non-target states in
        which every member state (a) has all its mandatory mass
        (lower bounds) inside ``C`` and (b) can feasibly place its whole
        unit of mass inside ``C`` (``Σ_{t∈C} upper ≥ 1``).  The greatest
        such ``C`` comes from the obvious shrinking fixpoint — these are
        exactly the states whose minimal reachability is 0.  With
        ``closure`` a state joins when it can be steered into the trap
        along any possible (upper-bound-positive) path.  Masks in, mask
        out.
        """
        rows = self._rows()
        trap = ~targets
        while True:
            inside = trap[rows.cols]
            mandatory_inside = ~rows.row_any((rows.lower > 0) & ~inside)
            feasible = rows.row_sum(np.where(inside, rows.upper, 0.0)) >= 1.0 - 1e-12
            shrunk = trap & mandatory_inside & feasible
            if (shrunk == trap).all():
                break
            trap = shrunk
        if not closure:
            return trap
        edges = (rows.upper > 0) & ~targets[rows.row_of]
        return np.isfinite(rows.distances(edges, trap))

    def _nature_prob1_states(self, targets: np.ndarray) -> np.ndarray:
        """States from which *some* member chain reaches surely.

        Greatest fixpoint: keep a state while it can feasibly put all
        its mass inside the kept set (no mandatory leakage) *and* still
        has a possibly-positive path to the targets inside the set.
        """
        rows = self._rows()
        kept = np.ones(len(self.states), dtype=bool)
        while True:
            inside = kept[rows.cols]
            reach = np.isfinite(
                rows.distances((rows.upper > 0) & kept[rows.row_of], targets)
            )
            no_leak = ~rows.row_any((rows.lower > 0) & ~inside)
            feasible = rows.row_sum(np.where(inside, rows.upper, 0.0)) >= 1.0 - 1e-12
            updated = targets | (kept & no_leak & feasible & reach)
            if (updated == kept).all():
                return kept
            kept = updated

    # ------------------------------------------------------------------
    # Nature-strategy iteration
    # ------------------------------------------------------------------
    def _solve(
        self, targets, maximise: bool, reward: bool, max_iterations, tolerance
    ) -> Tuple[Dict[State, float], VIReport]:
        """Robust reachability (``reward=False``) or expected reward.

        Fixed before any solve: the targets; for min-reachability the
        nature trap (value 0); for rewards the states where reward can
        diverge (``inf``) — for the worst case wherever *some* member
        chain misses the targets with positive probability, for the best
        case wherever *every* member chain does.  Max-reachability zeroes
        the states a picked chain cannot lead to the targets.  Min-reward
        starts from a strategy that reaches the targets surely and stays
        proper, as rows switch only on strict improvement: PRISM's Rmin,
        the least expected reward over strategies that reach the targets.
        """
        rows = self._rows()
        cap = _VI_MAX_ITERATIONS if max_iterations is None else max_iterations
        tol = _VI_TOLERANCE if tolerance is None else tolerance
        targets = set(targets)
        target = np.fromiter((s in targets for s in self.states), dtype=bool)
        if reward:
            rewards = np.array([self.state_rewards[s] for s in self.states])
            if maximise:
                infinite = self._adversarial_trap_states(target)
            else:
                infinite = ~self._nature_prob1_states(target)
            values = np.where(infinite, np.inf, 0.0)
            solved = ~(target | infinite)
        else:
            rewards = np.zeros(len(self.states))
            values = target.astype(np.float64)
            solved = ~target
            if not maximise:
                solved &= ~self._adversarial_trap_states(target, closure=False)
        # Entries into infinite states carry no mass in finite rows (the
        # qualitative sets guarantee a zero lower bound there).
        slack = np.where(np.isinf(values)[rows.cols], 0.0, rows.slack)
        work = np.where(np.isinf(values), 0.0, values)

        def evaluate(probs: np.ndarray) -> Optional[np.ndarray]:
            matrix = rows.matrix(probs)
            live = solved
            if not reward:
                edges = (probs > 0) & solved[rows.row_of]
                live = solved & np.isfinite(rows.distances(edges, target))
            result = np.where(solved, 0.0, work)
            live = np.flatnonzero(live)
            if len(live):
                block = matrix[live]
                system = sparse.identity(len(live)) - block[:, live]
                rhs = rewards[live] + block @ result
                result[live] = np.atleast_1d(spsolve(system.tocsc(), rhs))
            bounded = np.abs(result).max() <= _VI_DIVERGENCE_LIMIT  # False on nan
            return result if bounded else None

        iterations, residual = 0, np.inf
        converged = diverged = False
        probs = None
        if cap >= 1:
            iterations = 1
            if reward and not maximise:
                # Start from a strategy that reaches the targets surely:
                # every row leans toward a successor one hop closer.
                edges = (slack + rows.lower > 0) & solved[rows.row_of]
                hops = rows.distances(edges, target)
                probs = rows.pick(hops, False, slack)
            else:
                probs = rows.pick(work, maximise, slack)
        while probs is not None:
            evaluated = evaluate(probs)
            if evaluated is None:
                diverged = True
                break
            previous, work = work, evaluated
            if iterations >= cap:
                residual = float(np.abs(work - previous)[solved].max(initial=0.0))
                break
            iterations += 1
            candidate = rows.pick(work, maximise, slack)
            best = rewards + rows.matrix(candidate) @ work
            current = rewards + rows.matrix(probs) @ work
            residual = float(np.abs(best - work)[solved].max(initial=0.0))
            gain = best - current if maximise else current - best
            scale = 1.0 + np.abs(work[solved]).max(initial=0.0)
            switch = solved & (gain > _SWITCH_GAIN * scale)
            if residual <= tol or not switch.any():
                converged = True
                break
            probs = np.where(switch[rows.row_of], candidate, probs)
        final = np.where(np.isinf(values), values, work)
        if not reward:
            final = np.clip(final, 0.0, 1.0)
        result = dict(zip(self.states, final.tolist()))
        self._witness = (
            None if probs is None else (dict(result), maximise, probs, solved)
        )
        return result, VIReport(iterations, converged, residual, diverged)

    def extremal_chain(
        self, values: Mapping[State, float], maximise: bool
    ) -> DTMC:
        """Nature's extremal member chain for a solved value vector.

        For the values the last solve returned, the witness is that
        solve's final nature strategy, which attains them exactly; any
        other row (and any other value vector) freezes nature's greedy
        distribution under ``values``.  Row feasibility
        (``Σ lower ≤ 1 ≤ Σ upper``) guarantees the rows sum to one
        (normalised here against float drift).
        """
        rows = self._rows()
        key = np.array([values[s] for s in self.states], dtype=np.float64)
        probs = rows.pick(key, maximise)
        memo = self._witness
        if memo is not None and memo[1] == maximise and memo[0] == dict(values):
            probs = np.where(memo[3][rows.row_of], memo[2], probs)
        probs = probs / rows.row_sum(probs)[rows.row_of]
        transitions: Dict[State, Dict[State, float]] = {s: {} for s in self.states}
        for row, col, p in zip(rows.row_of, rows.cols, probs.tolist()):
            if p > 0.0:
                transitions[self.states[row]][self.states[col]] = p
        return DTMC(
            states=self.states,
            transitions=transitions,
            initial_state=self.initial_state,
            labels=self.labels,
            state_rewards=self.state_rewards,
        )

    def reachability_values_report(
        self,
        targets: Set[State],
        maximise: bool,
        max_iterations: Optional[int] = None,
        tolerance: Optional[float] = None,
    ) -> Tuple[Dict[State, float], VIReport]:
        """Robust reachability values plus convergence accounting."""
        return self._solve(targets, maximise, False, max_iterations, tolerance)

    def reachability_values(
        self, targets: Set[State], maximise: bool
    ) -> Dict[State, float]:
        """Per-state robust reachability probability (min or max)."""
        values, _report = self.reachability_values_report(targets, maximise)
        return values

    def reachability_probability(
        self, targets: Set[State], maximise: bool
    ) -> float:
        """Robust reachability probability at the initial state."""
        return self.reachability_values(targets, maximise)[self.initial_state]

    def expected_reward_values_report(
        self,
        targets: Set[State],
        maximise: bool,
        max_iterations: Optional[int] = None,
        tolerance: Optional[float] = None,
    ) -> Tuple[Dict[State, float], VIReport]:
        """Robust expected rewards plus convergence accounting: ``inf``
        where reward can diverge, decided by qualitative graph analysis
        (see :meth:`_solve`), not by numeric thresholds."""
        return self._solve(targets, maximise, True, max_iterations, tolerance)

    def expected_reward_values(
        self, targets: Set[State], maximise: bool
    ) -> Dict[State, float]:
        """Per-state robust expected reward to reach ``targets``."""
        values, _report = self.expected_reward_values_report(targets, maximise)
        return values

    def expected_reward(self, targets: Set[State], maximise: bool) -> float:
        """Robust expected reward at the initial state."""
        return self.expected_reward_values(targets, maximise)[self.initial_state]

    def __repr__(self) -> str:
        return f"IntervalDTMC(|S|={len(self.states)})"


class IntervalMDP:
    """An MDP with interval transition uncertainty (convex MDP).

    The Puggelli et al. setting the paper's related work builds on:
    the controller picks actions, nature picks any distribution inside
    the chosen action's intervals.  Robust value iteration solves the
    resulting zero-sum step game on the same lowered rows as
    :class:`IntervalDTMC` (one row per state-action choice), reducing
    over actions as :class:`~repro.checking.matrix.MDPMatrix` does.

    Parameters
    ----------
    states:
        State identifiers.
    intervals:
        ``{state: {action: {target: (lower, upper)}}}``.
    initial_state / labels:
        As for :class:`~repro.mdp.MDP`.
    """

    def __init__(
        self,
        states,
        intervals: Mapping[State, Mapping[object, Mapping[State, Tuple[float, float]]]],
        initial_state: State,
        labels: Optional[Mapping[State, Iterable[str]]] = None,
    ):
        self.states = list(states)
        known = set(self.states)
        if initial_state not in known:
            raise ModelValidationError(f"unknown initial state {initial_state!r}")
        self.initial_state = initial_state
        self.intervals: Dict[State, Dict[object, Dict[State, Tuple[float, float]]]] = {}
        for state in self.states:
            action_map = intervals.get(state)
            if not action_map:
                raise ModelValidationError(f"state {state!r} enables no action")
            rows = {}
            for action, row in action_map.items():
                lower_sum = sum(bounds[0] for bounds in row.values())
                upper_sum = sum(bounds[1] for bounds in row.values())
                for target, (lower, upper) in row.items():
                    if target not in known:
                        raise ModelValidationError(f"unknown target {target!r}")
                    if not 0.0 <= lower <= upper <= 1.0 + 1e-12:
                        raise ModelValidationError(
                            f"bad interval on {state!r}/{action!r} -> {target!r}"
                        )
                if lower_sum > 1.0 + 1e-9 or upper_sum < 1.0 - 1e-9:
                    raise ModelValidationError(
                        f"row {state!r}/{action!r} infeasible"
                    )
                rows[action] = {
                    t: (float(l), float(min(u, 1.0))) for t, (l, u) in row.items()
                }
            self.intervals[state] = rows
        self.labels = {
            s: frozenset((labels or {}).get(s, frozenset())) for s in self.states
        }

    @staticmethod
    def from_mdp(mdp, epsilon: float) -> "IntervalMDP":
        """Blow a concrete MDP up into ±ε intervals (structure kept)."""
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        intervals = {
            s: {a: _epsilon_ball_row(dist, epsilon) for a, dist in rows.items()}
            for s, rows in mdp.transitions.items()
        }
        return IntervalMDP(
            states=mdp.states,
            intervals=intervals,
            initial_state=mdp.initial_state,
            labels=mdp.labels,
        )

    def actions(self, state: State):
        """Actions enabled in ``state``."""
        return list(self.intervals[state])

    def states_with_atom(self, atom: str):
        """All states labelled with ``atom``."""
        return frozenset(s for s, props in self.labels.items() if atom in props)

    def reachability_values(
        self,
        targets: Set[State],
        controller_maximises: bool,
        nature_maximises: bool,
    ) -> Dict[State, float]:
        """Robust reachability: controller over actions, nature inside
        the chosen action's intervals.

        The four combinations cover PRISM-style semantics on convex
        MDPs; the usual robust verification pairs an optimistic
        controller with a pessimistic nature
        (``controller_maximises=True, nature_maximises=False``).
        """
        index = {s: i for i, s in enumerate(self.states)}
        rows = _IntervalRows(
            [row for s in self.states for row in self.intervals[s].values()], index
        )
        groups = np.cumsum([0] + [len(self.intervals[s]) for s in self.states])
        reduce = np.maximum if controller_maximises else np.minimum
        targets = set(targets)
        target = np.fromiter((s in targets for s in self.states), dtype=bool)
        values = target.astype(np.float64)
        for _ in range(_VI_MAX_ITERATIONS):
            choices = rows.matrix(rows.pick(values, nature_maximises)) @ values
            updated = np.where(target, 1.0, reduce.reduceat(choices, groups[:-1]))
            delta = np.abs(updated - values).max()
            values = updated
            if delta < _VI_TOLERANCE:
                break
        return dict(zip(self.states, np.clip(values, 0.0, 1.0).tolist()))

    def reachability_probability(
        self,
        targets: Set[State],
        controller_maximises: bool = True,
        nature_maximises: bool = False,
    ) -> float:
        """Robust reachability at the initial state."""
        return self.reachability_values(
            targets, controller_maximises, nature_maximises
        )[self.initial_state]

    def __repr__(self) -> str:
        return f"IntervalMDP(|S|={len(self.states)})"


def robustness_certificate(
    chain: DTMC,
    formula,
    epsilon: float,
) -> bool:
    """Certify that every ε-perturbation of ``chain`` satisfies ``formula``.

    Checks the ±ε interval chain (structure preserved) against the
    adversarial bound — nature maximises the checked quantity for an
    upper-bound formula and minimises it for a lower bound — through
    :func:`repro.repair.robust.robust_verify`, on the non-nested
    ``P ⋈ b [φ1 U φ2]`` / ``R ⋈ b [F φ]`` fragment of the repairs.  A
    solve that cannot certify (capped or divergent) answers ``False``.

    Combined with Model Repair this closes the trust loop: a repair with
    Proposition 1 bound ε whose certificate holds at ε' stays trusted
    under any further drift up to ε'.
    """
    from repro.repair.robust import _reachability_form, robust_verify

    _reachability_form(chain, formula)  # TypeError outside the fragment
    certificate = robust_verify(chain, formula, epsilon, want_witness=False)
    return certificate.robust and certificate.holds
