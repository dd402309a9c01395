"""The shared repair core (Propositions 1–4, once).

Model, Data, Reward and CTMC rate repair are all instances of one
scheme: parametric model checking turns ``M_Z |= φ`` into rational
constraints, which feed a minimal-cost nonlinear program whose solution
is instantiated and concretely re-verified.  This package owns that
scheme; the flavour modules reduce to thin problem-builders:

:class:`RepairProblem` / :class:`ParametricSpec`
    The declarative shape: variables, parametric/rational constraints,
    pluggable cost, margin handling, flavour hooks.
:func:`solve_repair` / :class:`EngineOutcome`
    The single driver: already-satisfied short-circuit → region check →
    cached parametric elimination → multi-start NLP solve → concrete
    re-verification → ε-bound computation.
:class:`RepairResult`
    The result base every flavour's result class subclasses, with the
    canonical ``to_dict()``/``from_dict()`` JSON form used by the
    service layer and the CLI.
:class:`RobustRepair` / :class:`RobustRepairResult` /
:class:`RobustCertificate` / :func:`robust_verify`
    The interval-uncertainty flavour (:mod:`repro.repair.robust`):
    wraps any model/data-repair builder so the repaired model is
    certified against every chain in a ±ε interval ball, with graceful
    degradation to the nominal check on non-convergence.
:class:`RegionProof` / :class:`IntervalRegion` / :class:`LiftedRegion`
    Feasibility over the whole repair region
    (:mod:`repro.repair.region`): the engine's region check proves
    ``infeasible`` before any elimination or NLP solve when even the
    best value over the region violates the bound.
:class:`CegisRepair` / :class:`CegisRepairResult`
    The counterexample-guided flavour (:mod:`repro.repair.cegis`):
    grows a working set of localized constraints from smallest
    counterexamples instead of eliminating the full parametric chain,
    scaling repair past the global-elimination wall.

See ``docs/repair_engine.md`` for the architecture and how to add a
new repair variant; ``docs/robust_repair.md`` for the robust flavour;
``docs/cegis_repair.md`` for the CEGIS loop.
"""

from repro.repair.engine import EngineOutcome, solve_repair
from repro.repair.problem import (
    DEFAULT_SAFETY_MARGIN,
    ParametricSpec,
    RepairProblem,
)
from repro.repair.results import RepairResult
from repro.repair.robust import (
    RobustCertificate,
    RobustRepair,
    RobustRepairResult,
    robust_verify,
)
from repro.repair.region import (
    IntervalRegion,
    LiftedRegion,
    RegionProof,
    region_proof,
)
from repro.repair.cegis import (
    CegisIteration,
    CegisRepair,
    CegisRepairResult,
)

__all__ = [
    "DEFAULT_SAFETY_MARGIN",
    "CegisIteration",
    "CegisRepair",
    "CegisRepairResult",
    "EngineOutcome",
    "IntervalRegion",
    "LiftedRegion",
    "ParametricSpec",
    "RepairProblem",
    "RegionProof",
    "RepairResult",
    "RobustCertificate",
    "RobustRepair",
    "RobustRepairResult",
    "region_proof",
    "robust_verify",
    "solve_repair",
]
