"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from repro.learning.irl import TabularFeatureMap
from repro.mdp import DTMC, MDP, chain_dtmc, random_dtmc, random_mdp


# ----------------------------------------------------------------------
# Build guard: the sparse/dense equivalence suite must actually run
# ----------------------------------------------------------------------
# The sparse CSR engine is the default, so a silently-skipped
# equivalence suite (e.g. a missing scipy making someone add a skipif)
# would let the two engines drift apart unnoticed.  Fail the whole run
# if any equivalence test was collected but skipped.
_SPARSE_EQUIVALENCE_SKIPS: list = []


def pytest_runtest_logreport(report):
    if report.skipped and "test_checking_sparse" in report.nodeid:
        _SPARSE_EQUIVALENCE_SKIPS.append(report.nodeid)


def pytest_sessionfinish(session, exitstatus):
    if _SPARSE_EQUIVALENCE_SKIPS and exitstatus == 0:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.write_line(
                "ERROR: sparse/dense equivalence tests were skipped "
                f"({len(_SPARSE_EQUIVALENCE_SKIPS)}); the build requires them "
                "to run: " + ", ".join(_SPARSE_EQUIVALENCE_SKIPS[:5]),
                red=True,
            )
        session.exitstatus = 1


# ----------------------------------------------------------------------
# Reward Repair's shortcut MDP
# ----------------------------------------------------------------------
@pytest.fixture
def shortcut_mdp() -> MDP:
    """A risky shortcut through 'danger' vs a safe detour to 'goal'."""
    return MDP(
        states=["start", "danger", "detour", "goal", "end"],
        transitions={
            "start": {
                "shortcut": {"danger": 1.0},
                "around": {"detour": 1.0},
            },
            "danger": {"go": {"goal": 1.0}},
            "detour": {"go": {"goal": 1.0}},
            "goal": {"go": {"end": 1.0}},
            "end": {"go": {"end": 1.0}},
        },
        initial_state="start",
        labels={"danger": {"unsafe"}, "goal": {"target"}},
    )


@pytest.fixture
def shortcut_features() -> TabularFeatureMap:
    # f = (on the risky shortcut, at the goal)
    return TabularFeatureMap(
        {
            "start": [0.0, 0.0],
            "danger": [1.0, 0.0],
            "detour": [0.0, 0.0],
            "goal": [0.0, 1.0],
            "end": [0.0, 0.0],
        }
    )


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
def small_fractions():
    """Fractions with small numerators/denominators (fast exact math)."""
    return st.fractions(
        min_value=Fraction(-8), max_value=Fraction(8), max_denominator=8
    )


def variable_names():
    """A small pool of variable names so products share variables."""
    return st.sampled_from(["x", "y", "z"])


def polynomials(max_terms: int = 4, max_exponent: int = 3):
    """Random sparse polynomials over x, y, z."""
    from repro.symbolic import Polynomial

    monomial = st.lists(
        st.tuples(variable_names(), st.integers(1, max_exponent)),
        max_size=2,
    ).map(lambda pairs: tuple(sorted(dict(pairs).items())))
    term = st.tuples(monomial, small_fractions())
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum(
            (
                Polynomial({mono: coeff})
                for mono, coeff in terms
                if coeff != 0
            ),
            Polynomial.zero(),
        )
    )


def seeds():
    """Seeds for random-model strategies."""
    return st.integers(0, 10_000)


# ----------------------------------------------------------------------
# Model fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def simple_chain() -> DTMC:
    """Five-state forward chain with a labelled goal."""
    return chain_dtmc(5, forward_probability=0.8)


@pytest.fixture
def two_path_chain() -> DTMC:
    """A chain with a safe and an unsafe absorbing end.

    From ``start``: 0.6 to ``good`` (absorbing, "safe"), 0.3 to ``bad``
    (absorbing, "unsafe"), 0.1 self-loop.  Closed-form reachability:
    Pr(F safe) = 0.6 / 0.9 = 2/3.
    """
    return DTMC(
        states=["start", "good", "bad"],
        transitions={
            "start": {"good": 0.6, "bad": 0.3, "start": 0.1},
            "good": {"good": 1.0},
            "bad": {"bad": 1.0},
        },
        initial_state="start",
        labels={"good": {"safe"}, "bad": {"unsafe"}},
        state_rewards={"start": 1.0},
    )


@pytest.fixture
def two_action_mdp() -> MDP:
    """A two-action MDP with known Pmax/Pmin for reaching the goal.

    Action "a" reaches ``goal`` with probability 0.9, action "b" with
    probability 0.2 (else ``trap``).
    """
    return MDP(
        states=["s", "goal", "trap"],
        transitions={
            "s": {
                "a": {"goal": 0.9, "trap": 0.1},
                "b": {"goal": 0.2, "trap": 0.8},
            },
            "goal": {"a": {"goal": 1.0}},
            "trap": {"a": {"trap": 1.0}},
        },
        initial_state="s",
        labels={"goal": {"goal"}, "trap": {"trap"}},
    )


@pytest.fixture
def random_chain_factory():
    """Factory for seeded random chains."""
    return lambda n=6, seed=0: random_dtmc(n, seed=seed)


@pytest.fixture
def random_mdp_factory():
    """Factory for seeded random MDPs."""
    return lambda n=5, seed=0: random_mdp(n, seed=seed)
