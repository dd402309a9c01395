"""Corpus round-trips: every family survives PRISM ⇄ JSON ⇄ PRISM.

The corpus is defined *through* the PRISM importer (the canonical model
is the re-parsed render), so each family must round-trip losslessly:
PRISM source → :func:`parse_prism` → :mod:`repro.io.json_io` payload →
model → PRISM again, with identical transition structure and — the part
the benchmarks rely on — identical verdicts under the sparse engine at
every hop.
"""

import pytest

from repro.checking.dtmc import DTMCModelChecker
from repro.corpus import (
    FAMILIES,
    family_names,
    get_family,
    random_dtmc,
    random_mdp,
)
from repro.io.json_io import dtmc_from_dict, dtmc_to_dict
from repro.io.prism import dtmc_to_prism
from repro.io.prism_parser import parse_prism
from repro.repair.engine import solve_repair

SMALLEST = [(name, FAMILIES[name].sizes[0]) for name in sorted(FAMILIES)]


def round_trip(model):
    """model → json payload → model → PRISM → model."""
    from_json = dtmc_from_dict(dtmc_to_dict(model))
    return parse_prism(dtmc_to_prism(from_json))


class TestGenerators:
    def test_random_dtmc_rows_are_stochastic(self):
        chain = random_dtmc(states=20, seed=3)
        for state in chain.states:
            total = sum(chain.transitions[state].values())
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_random_dtmc_is_seed_deterministic(self):
        assert (
            random_dtmc(states=15, seed=8).transitions
            == random_dtmc(states=15, seed=8).transitions
        )
        assert (
            random_dtmc(states=15, seed=8).transitions
            != random_dtmc(states=15, seed=9).transitions
        )

    def test_random_dtmc_goal_is_reachable(self):
        chain = random_dtmc(states=12, seed=5)
        value = (
            DTMCModelChecker(chain, engine="sparse")
            .check(FAMILIES["random"].formula(12))
            .value
        )
        assert 0.0 < float(value) <= 1.0

    def test_random_mdp_has_actions_everywhere(self):
        mdp = random_mdp(states=10, actions=3, seed=2)
        for state in mdp.states:
            assert mdp.actions(state)


class TestFamilyRoundTrips:
    @pytest.mark.parametrize("name,size", SMALLEST)
    def test_prism_json_prism_preserves_structure(self, name, size):
        family = FAMILIES[name]
        model = family.model(size)
        again = round_trip(model)
        assert again.states == model.states
        assert again.initial_state == model.initial_state
        assert again.labels == model.labels
        for state in model.states:
            for target, probability in model.transitions[state].items():
                assert float(again.transitions[state][target]) == (
                    pytest.approx(float(probability), abs=1e-9)
                )

    @pytest.mark.parametrize("name,size", SMALLEST)
    def test_verdict_identity_under_sparse_engine(self, name, size):
        family = FAMILIES[name]
        formula = family.formula(size)
        model = family.model(size)
        direct = DTMCModelChecker(model, engine="sparse").check(formula)
        replayed = DTMCModelChecker(round_trip(model), engine="sparse").check(
            formula
        )
        assert replayed.holds == direct.holds
        assert float(replayed.value) == pytest.approx(
            float(direct.value), rel=1e-9
        )

    @pytest.mark.parametrize("name,size", SMALLEST)
    def test_formula_is_not_already_satisfied(self, name, size):
        family = FAMILIES[name]
        checker = DTMCModelChecker(family.model(size), engine="sparse")
        assert not checker.check(family.formula(size)).holds

    def test_random_family_seed_changes_model(self):
        family = FAMILIES["random"]
        assert family.seeded
        assert (
            family.model(12, seed=1).transitions
            != family.model(12, seed=2).transitions
        )


class TestFamilyRegistry:
    def test_family_names_sorted_and_complete(self):
        assert family_names() == sorted(FAMILIES)
        assert len(FAMILIES) >= 4

    def test_get_family_round_trips(self):
        for name in family_names():
            assert get_family(name).name == name

    def test_get_family_unknown_lists_options(self):
        with pytest.raises(KeyError) as excinfo:
            get_family("nonesuch")
        assert "grid" in str(excinfo.value)

    def test_size_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            FAMILIES["grid"].prism_source(1)

    def test_describe_with_size_reports_dimensions(self):
        info = FAMILIES["refuel"].describe(8)
        assert info["states"] == 9
        assert info["variables"] >= 2
        assert info["kind"] == "probability"

    @pytest.mark.parametrize("name,size", SMALLEST)
    def test_variable_count_in_dispatch_bound_regime(self, name, size):
        assert 2 <= FAMILIES[name].variable_count(size) <= 9


class TestCorpusRepairs:
    def test_refuel_repair_succeeds_and_verifies(self):
        outcome = solve_repair(FAMILIES["refuel"].repair(8).problem())
        assert outcome.status == "repaired"
        assert outcome.verified
