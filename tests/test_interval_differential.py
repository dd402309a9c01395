"""Nature-strategy iteration against a Gauss-Seidel value-iteration oracle.

The interval solver in :mod:`repro.mdp.interval` evaluates nature's
vertex strategies exactly instead of sweeping values to a tolerance.
The oracle below is the dict-based robust value iteration it replaced —
per-state greedy inner optimum, Gauss-Seidel sweeps, set-based
qualitative analysis — run to a 1e-13 sweep tolerance.  Both must agree
to 1e-9 (relative for rewards) on random small interval chains:

* reachability, nature maximising and minimising, including until
  formulas whose ``¬φ1 ∧ ¬φ2`` states are made absorbing first
  (:func:`repro.repair.robust._with_absorbing`);
* expected reward, nature maximising and minimising, on chains whose
  rewards are all positive (no zero-reward cycles, where the oracle's
  least fixpoint and the solver's Rmin semantics part ways).

The solver's witness chain must lie inside the intervals and attain the
value under the dense concrete checker.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.api import check_model
from repro.logic import parse_pctl
from repro.mdp import DTMC, IntervalDTMC, random_dtmc
from repro.repair.robust import _with_absorbing

ORACLE_TOLERANCE = 1e-13
ORACLE_MAX_SWEEPS = 1_000_000
AGREEMENT = 1e-9


# ----------------------------------------------------------------------
# Oracle: the dict-based robust value iteration
# ----------------------------------------------------------------------
def _inner_optimum(row, values, maximise):
    expectation = sum(lower * values[t] for t, (lower, _upper) in row.items())
    remaining = 1.0 - sum(lower for lower, _upper in row.values())
    for target in sorted(row, key=lambda t: values[t], reverse=maximise):
        if remaining <= 0:
            break
        take = min(row[target][1] - row[target][0], remaining)
        expectation += take * values[target]
        remaining -= take
    return expectation


def _trap_states(imc, targets):
    candidates = set(imc.states) - targets
    changed = True
    while changed:
        changed = False
        for state in list(candidates):
            row = imc.intervals[state]
            mandatory_inside = all(
                t in candidates for t, (lower, _upper) in row.items() if lower > 0
            )
            mass = sum(upper for t, (_lower, upper) in row.items() if t in candidates)
            if not (mandatory_inside and mass >= 1.0 - 1e-12):
                candidates.discard(state)
                changed = True
    reachable = set(candidates)
    changed = True
    while changed:
        changed = False
        for state in imc.states:
            if state in reachable or state in targets:
                continue
            row = imc.intervals[state]
            if any(t in reachable and upper > 0 for t, (_l, upper) in row.items()):
                reachable.add(state)
                changed = True
    return reachable


def _prob1_states(imc, targets):
    kept = set(imc.states)
    while True:
        reach = set(targets)
        changed = True
        while changed:
            changed = False
            for state in kept - reach:
                row = imc.intervals[state]
                if any(t in reach and upper > 0 for t, (_l, upper) in row.items()):
                    reach.add(state)
                    changed = True
        updated = set(targets)
        for state in kept - targets:
            row = imc.intervals[state]
            no_leak = all(t in kept or lower == 0 for t, (lower, _u) in row.items())
            mass = sum(upper for t, (_lower, upper) in row.items() if t in kept)
            if no_leak and mass >= 1.0 - 1e-12 and state in reach:
                updated.add(state)
        if updated == kept:
            return updated
        kept = updated


def oracle_reachability(imc, targets, maximise):
    values = {s: (1.0 if s in targets else 0.0) for s in imc.states}
    for _ in range(ORACLE_MAX_SWEEPS):
        delta = 0.0
        for state in imc.states:
            if state in targets:
                continue
            updated = _inner_optimum(imc.intervals[state], values, maximise)
            delta = max(delta, abs(updated - values[state]))
            values[state] = updated
        if delta < ORACLE_TOLERANCE:
            return values
    raise AssertionError("oracle did not converge")


def oracle_reward(imc, targets, maximise):
    if maximise:
        infinite = _trap_states(imc, targets)
    else:
        infinite = set(imc.states) - _prob1_states(imc, targets)
    values = {s: (math.inf if s in infinite else 0.0) for s in imc.states}
    finite = [s for s in imc.states if s not in targets and s not in infinite]
    for _ in range(ORACLE_MAX_SWEEPS):
        delta = 0.0
        for state in finite:
            row = {
                t: bounds
                for t, bounds in imc.intervals[state].items()
                if values[t] != math.inf
            }
            updated = imc.state_rewards[state] + _inner_optimum(
                row, values, maximise
            )
            delta = max(delta, abs(updated - values[state]))
            values[state] = updated
        if delta < ORACLE_TOLERANCE:
            return values
    raise AssertionError("oracle did not converge")


# ----------------------------------------------------------------------
# Random interval chains
# ----------------------------------------------------------------------
def _interval_chain(size, density, seed, epsilon, until):
    chain = random_dtmc(size, density=density, seed=seed, num_labels=2)
    targets = (set(chain.states_with_atom("l0")) | {size - 1}) - {0}
    chain = DTMC(
        states=chain.states,
        transitions=chain.transitions,
        initial_state=0,
        labels={
            s: set(chain.labels[s]) | ({"goal"} if s in targets else set())
            for s in chain.states
        },
        state_rewards={s: 0.1 + r for s, r in chain.state_rewards.items()},
    )
    imc = IntervalDTMC.from_dtmc(chain, epsilon)
    if until:
        avoid = set(chain.states_with_atom("l1")) - targets
        imc = _with_absorbing(imc, avoid)
    return imc, targets


def _assert_witness(imc, values, maximise, formula):
    witness = imc.extremal_chain(values, maximise)
    assert imc.contains(witness)
    attained = check_model(witness, parse_pctl(formula), engine="dense").value
    expected = values[imc.initial_state]
    assert attained == pytest.approx(expected, rel=AGREEMENT, abs=AGREEMENT)


@given(
    size=st.integers(3, 7),
    density=st.sampled_from([0.3, 0.6]),
    seed=st.integers(0, 10_000),
    epsilon=st.floats(0.0, 0.1),
    maximise=st.booleans(),
    until=st.booleans(),
)
# Float drift in nature's greedy fill once left ~3e-17 of mass on a
# goal edge, so the minimising witness reached the goal surely.
@example(size=3, density=0.6, seed=94, epsilon=0.09375, maximise=False, until=False)
@settings(max_examples=60, deadline=None)
def test_reachability_matches_oracle(size, density, seed, epsilon, maximise, until):
    imc, targets = _interval_chain(size, density, seed, epsilon, until)
    values, report = imc.reachability_values_report(targets, maximise)
    assert report.converged and not report.diverged
    expected = oracle_reachability(imc, targets, maximise)
    for state in imc.states:
        assert values[state] == pytest.approx(expected[state], abs=AGREEMENT)
    _assert_witness(imc, values, maximise, 'P>=0 [ F "goal" ]')


@given(
    size=st.integers(3, 7),
    density=st.sampled_from([0.3, 0.6]),
    seed=st.integers(0, 10_000),
    epsilon=st.floats(0.0, 0.1),
    maximise=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_expected_reward_matches_oracle(size, density, seed, epsilon, maximise):
    imc, targets = _interval_chain(size, density, seed, epsilon, until=False)
    values, report = imc.expected_reward_values_report(targets, maximise)
    assert report.converged and not report.diverged
    expected = oracle_reward(imc, targets, maximise)
    for state in imc.states:
        if math.isinf(expected[state]):
            assert math.isinf(values[state])
        else:
            assert values[state] == pytest.approx(
                expected[state], rel=AGREEMENT, abs=AGREEMENT
            )
    if math.isfinite(values[imc.initial_state]):
        _assert_witness(imc, values, maximise, 'R>=0 [ F "goal" ]')
