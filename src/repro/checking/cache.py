"""Memoization layer for concrete and parametric model checking.

Repair is an optimisation loop: ``ModelRepair``/``DataRepair`` re-check
the *same* formula against the *same* model (or its parametric lift)
many times — once per multi-start NLP solve, once per candidate
verification.  The expensive pieces (parametric state elimination,
linear solves) depend only on the model's content and the formula, so a
content-addressed cache turns every repeat into a dictionary lookup.

``CheckCache`` keys entries by

* ``(model fingerprint, formula, engine)`` for concrete checking
  results (:func:`repro.checking.matrix.model_fingerprint` — SHA-256 of
  state order, transition bytes, rewards and labelling), and
* ``("parametric", parametric fingerprint, query, method)`` for the
  closed-form :class:`~repro.checking.parametric.ParametricConstraint`
  produced by state elimination / fraction-free Gauss — ``query`` is the
  path formula (plus the reward label) without comparison and bound, so
  re-checking one model under a tightened bound reuses the elimination
  — and
* ``("corridor", parametric fingerprint, formula, order, sorted
  corridor)`` for corridor-restricted constraints, with the companion
  ``("corridor-snapshot", …)`` key holding the resumable
  :class:`~repro.checking.parametric.EliminationSnapshot` so warm runs
  and wider corridors skip the interior re-elimination, and
* ``("region", kind, fingerprint, region, query, direction)`` for the
  best value over a repair region (:mod:`repro.repair.region`), shared
  across bounds like the parametric closed form.

Mutating a model never invalidates a *wrong* entry: models are
effectively immutable (updates go through ``with_transitions`` /
``with_rewards``, which build new objects), and the fingerprint is
recomputed from content, so a changed model simply maps to a fresh key.

PCTL formula objects define structural ``__eq__``/``__hash__``, so they
are used directly as key components.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple

from repro.checking.matrix import model_fingerprint
from repro.checking.parametric import (
    EliminationSnapshot,
    ParametricConstraint,
    ParametricDTMC,
    corridor_elimination,
    parametric_constraint,
)
from repro.logic.pctl import ProbabilisticOperator, RewardOperator, StateFormula

Key = Tuple[Hashable, ...]


class CheckCache:
    """Content-addressed LRU memo for checking results.

    The memo is bounded: once ``max_entries`` is reached the least
    recently *used* entry is evicted (a hit refreshes recency), so a
    long batch sweep cannot grow memory without bound while the hot
    ``(model, φ)`` pairs of an active repair stay resident.  An optional
    ``backing`` store (any object with ``get(key) -> value | None`` and
    ``put(key, value)``, e.g. :class:`repro.service.store.ResultStore`)
    turns the cache into a write-through layer over a persistent store,
    so identical work is shared across processes and across runs.

    Examples
    --------
    >>> cache = CheckCache()
    >>> cache.get_or_compute(("k",), lambda: 42)
    42
    >>> cache.get_or_compute(("k",), lambda: 0)  # hit, thunk not called
    42
    >>> cache.stats()
    {'hits': 1, 'misses': 1, 'entries': 1, 'evictions': 0, 'backing_hits': 0, 'parametric_eliminations': 0, 'elimination_states': 0, 'elimination_fill_in': 0, 'elimination_reuse_hits': 0, 'elimination_ms': 0, 'region_solves': 0, 'region_hits': 0}
    """

    def __init__(self, max_entries: int = 4096, backing=None):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self._store: Dict[Key, object] = {}
        self.max_entries = max_entries
        self.backing = backing
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.backing_hits = 0
        self.parametric_eliminations = 0
        #: Elimination-effort counters (states removed, fill-in entries
        #: created, corridor/snapshot reuses, wall-clock milliseconds) —
        #: surfaced in ``RepairResult.solver_stats`` and the runtime
        #: telemetry deltas.
        self.elimination_states = 0
        self.elimination_fill_in = 0
        self.elimination_reuse_hits = 0
        self.elimination_ms = 0.0
        #: Repair-region solves run and served from the memo.
        self.region_solves = 0
        self.region_hits = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def _insert(self, key: Key, value: object) -> None:
        if key not in self._store and len(self._store) >= self.max_entries:
            # Evict the least recently used entry (hits re-append, so the
            # front of the insertion-ordered dict is the coldest key).
            self._store.pop(next(iter(self._store)))
            self.evictions += 1
        self._store[key] = value

    def get_or_compute(self, key: Key, compute: Callable[[], object]) -> object:
        """The cached value under ``key``, computing (and storing) on miss."""
        if key in self._store:
            self.hits += 1
            # Refresh recency: move the key to the back of the dict.
            value = self._store.pop(key)
            self._store[key] = value
            return value
        if self.backing is not None:
            stored = self.backing.get(key)
            if stored is not None:
                self.hits += 1
                self.backing_hits += 1
                self._insert(key, stored)
                return stored
        self.misses += 1
        value = compute()
        self._insert(key, value)
        if self.backing is not None:
            self.backing.put(key, value)
        return value

    def _lookup(self, key: Key) -> Optional[object]:
        """Like :meth:`get_or_compute` without the compute: ``None`` on miss.

        A hit counts (and refreshes recency) exactly as in
        :meth:`get_or_compute`; a miss counts nothing — the caller
        decides whether a computation follows.
        """
        if key in self._store:
            self.hits += 1
            value = self._store.pop(key)
            self._store[key] = value
            return value
        if self.backing is not None:
            stored = self.backing.get(key)
            if stored is not None:
                self.hits += 1
                self.backing_hits += 1
                self._insert(key, stored)
                return stored
        return None

    def clear(self) -> None:
        """Drop every entry and reset the counters (backing is untouched)."""
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.backing_hits = 0
        self.parametric_eliminations = 0
        self.elimination_states = 0
        self.elimination_fill_in = 0
        self.elimination_reuse_hits = 0
        self.elimination_ms = 0.0
        self.region_solves = 0
        self.region_hits = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters (used by the cache-reuse assertions)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._store),
            "evictions": self.evictions,
            "backing_hits": self.backing_hits,
            "parametric_eliminations": self.parametric_eliminations,
            "elimination_states": self.elimination_states,
            "elimination_fill_in": self.elimination_fill_in,
            "elimination_reuse_hits": self.elimination_reuse_hits,
            "elimination_ms": int(self.elimination_ms),
            "region_solves": self.region_solves,
            "region_hits": self.region_hits,
        }

    def __len__(self) -> int:
        return len(self._store)

    # ------------------------------------------------------------------
    # Domain-specific helpers
    # ------------------------------------------------------------------
    def concrete_key(self, model, formula: StateFormula, engine: str) -> Key:
        """Key for a concrete checking result."""
        return (model_fingerprint(model), formula, engine)

    def parametric_key(
        self, model: ParametricDTMC, formula: StateFormula, method: str
    ) -> Key:
        """Key for a parametric closed form: the path formula (with the
        reward label), not the comparison or bound it is checked against."""
        return (
            "parametric",
            parametric_fingerprint(model),
            path_query(formula),
            method,
        )

    def _record_elimination(self, stats: Dict[str, int], seconds: float) -> None:
        self.parametric_eliminations += 1
        self.elimination_states += int(stats.get("eliminated", 0))
        self.elimination_fill_in += int(stats.get("fill_in", 0))
        self.elimination_ms += seconds * 1000.0

    def parametric_constraint(
        self,
        model: ParametricDTMC,
        formula: StateFormula,
        method: str = "gauss",
        order: str = "min-degree",
    ) -> ParametricConstraint:
        """Memoised :func:`repro.checking.parametric.parametric_constraint`.

        Repeated calls with a content-identical model and the same
        formula perform exactly one symbolic reduction; later calls are
        cache hits (observable through :meth:`stats`).  The
        ``parametric_eliminations`` counter records how many eliminations
        this cache actually performed — a warm persistent store keeps it
        at zero across whole batches.

        ``order`` picks the elimination order for ``method="eliminate"``;
        ``"gauss"`` reduces its constant rows in min-degree order
        whatever ``order`` says.  Both methods count the states they
        eliminate in ``elimination_states`` / ``elimination_fill_in``.
        ``order`` is deliberately absent from the key: every order
        produces the same closed form, so whichever runs first is the
        one shared.  The bound is absent too: the
        closed form is shared across bounds and returned rebound to this
        ``formula``'s comparison and bound
        (:meth:`~repro.checking.parametric.ParametricConstraint.rebound`).
        """
        key = self.parametric_key(model, formula, method)

        def eliminate() -> ParametricConstraint:
            stats: Dict[str, int] = {}
            started = time.perf_counter()
            constraint = parametric_constraint(
                model, formula, method=method, order=order, stats=stats
            )
            self._record_elimination(stats, time.perf_counter() - started)
            # Lower the closed form once and wrap the one-row stacked
            # kernel around the same table, so both are memoised (and,
            # with a persistent backing, pickled) beside the elimination
            # — warm runs then skip the elimination *and* every lowering.
            constraint.compiled()
            constraint.stacked()
            return constraint

        shared = self.get_or_compute(key, eliminate)
        return shared.rebound(formula.comparison, formula.bound)

    def corridor_key(
        self,
        model: ParametricDTMC,
        formula: StateFormula,
        restriction: Iterable,
        order: str,
    ) -> Key:
        """Key for a corridor-restricted constraint (sorted corridor)."""
        corridor = tuple(sorted(repr(state) for state in set(restriction)))
        return (
            "corridor",
            parametric_fingerprint(model),
            formula,
            order,
            corridor,
        )

    def corridor_constraint(
        self,
        model: ParametricDTMC,
        formula: StateFormula,
        restriction: Iterable,
        order: str = "min-degree",
        snapshot: Optional[EliminationSnapshot] = None,
    ) -> Tuple[ParametricConstraint, Optional[EliminationSnapshot]]:
        """Memoised :func:`repro.checking.parametric.corridor_elimination`.

        Returns ``(constraint, snapshot)``.  Constraint and snapshot are
        content-addressed under the model fingerprint plus the sorted
        corridor, write-through to any persistent backing — so a warm
        service run (or a same-fingerprint job in another process)
        reuses both without re-eliminating.  On a miss the reduction
        resumes from ``snapshot`` when it matches a narrower corridor of
        the same reduction; ``elimination_reuse_hits`` counts both exact
        corridor hits and snapshot-seeded resumptions.
        """
        key = self.corridor_key(model, formula, restriction, order)
        snapshot_key = ("corridor-snapshot",) + key[1:]
        cached = self._lookup(key)
        if cached is not None:
            self.elimination_reuse_hits += 1
            stored = self._lookup(snapshot_key)
            return cached, (stored if stored is not None else snapshot)
        self.misses += 1
        stats: Dict[str, int] = {}
        started = time.perf_counter()
        constraint, produced = corridor_elimination(
            model,
            formula,
            restriction,
            snapshot=snapshot,
            order=order,
            stats=stats,
        )
        self._record_elimination(stats, time.perf_counter() - started)
        if stats.get("resumed"):
            self.elimination_reuse_hits += 1
        constraint.compiled()
        constraint.stacked()
        self._insert(key, constraint)
        if self.backing is not None:
            self.backing.put(key, constraint)
        if produced is not None:
            self._insert(snapshot_key, produced)
            if self.backing is not None:
                self.backing.put(snapshot_key, produced)
        return constraint, produced

    def region_best(self, key: Key, solve: Callable[[], float]) -> float:
        """Memoised best value over a repair region (``nan`` when the
        solve was inconclusive); counts ``region_solves``/``region_hits``."""
        solves = self.region_solves

        def counted() -> float:
            self.region_solves += 1
            return solve()

        best = self.get_or_compute(key, counted)
        if self.region_solves == solves:
            self.region_hits += 1
        return best

    def stacked_kernel(self, constraints):
        """Memoised fused kernel over an ordered constraint list.

        A single constraint reuses its own cached one-row kernel
        (:meth:`ParametricConstraint.stacked` — already pickled beside
        the elimination); multiple constraints merge their lowered tables
        into one :class:`~repro.symbolic.compile.StackedConstraintKernel`
        under a content-addressed key, so same-fingerprint repair
        problems (and same-fingerprint service jobs in a batch) share
        one merge.
        """
        constraints = list(constraints)
        if not constraints:
            return None
        if len(constraints) == 1:
            return constraints[0].stacked()
        key: Key = ("stacked",) + tuple(
            (c.text(), float(c._sign), float(c.bound))
            for c in constraints
        )

        def build():
            from repro.symbolic.compile import StackedConstraintKernel

            return StackedConstraintKernel(
                [(c.function, c._sign, c.bound) for c in constraints]
            )

        return self.get_or_compute(key, build)


def cached_check(
    model,
    formula: StateFormula,
    engine: str = "sparse",
    cache: Optional["CheckCache"] = None,
):
    """Memoised concrete model check (DTMC or MDP).

    Same contract as ``DTMCModelChecker(model, engine).check(formula)``
    (resp. ``MDPModelChecker``), but repeated checks of a
    content-identical model return the stored
    :class:`~repro.checking.result.ModelCheckingResult`.
    """
    from repro.checking.dtmc import DTMCModelChecker
    from repro.checking.mdp import MDPModelChecker
    from repro.mdp.model import DTMC

    store = get_cache(cache)
    key = store.concrete_key(model, formula, engine)
    checker_class = DTMCModelChecker if isinstance(model, DTMC) else MDPModelChecker
    return store.get_or_compute(
        key, lambda: checker_class(model, engine).check(formula)
    )


def path_query(formula: StateFormula) -> Tuple:
    """The part of a formula a cached value depends on: the path formula
    (plus the reward label), not the comparison or bound."""
    if isinstance(formula, RewardOperator):
        return ("R", formula.label, formula.path)
    if isinstance(formula, ProbabilisticOperator):
        return ("P", formula.path)
    return (formula,)


def parametric_fingerprint(model: ParametricDTMC) -> str:
    """Stable content fingerprint of a parametric chain.

    Rational functions print deterministically (sorted monomials with
    exact :class:`~fractions.Fraction` coefficients), so hashing the
    textual transition matrix — plus state order, initial state, rewards
    and labelling — identifies the model up to symbolic content.

    Memoised on the model object: parametric chains are immutable by
    convention (updates build new objects), and rendering every rational
    function is measurable on warm repairs that re-fingerprint the same
    lift each round.
    """
    cached = getattr(model, "_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(repr(model.states).encode("utf-8"))
    digest.update(repr(model.initial_state).encode("utf-8"))
    for state in model.states:
        row = model.transitions[state]
        for target in row:
            digest.update(f"{target!r}->{row[target]!s}".encode("utf-8"))
            digest.update(b"\x01")
        digest.update(str(model.state_rewards[state]).encode("utf-8"))
        digest.update(repr(sorted(model.labels[state])).encode("utf-8"))
        digest.update(b"\x00")
    fingerprint = digest.hexdigest()
    try:
        model._fingerprint = fingerprint
    except AttributeError:  # slotted/frozen model stand-ins: skip the memo
        pass
    return fingerprint


#: Process-wide default cache; repairs share it so a ``ModelRepair`` and a
#: ``DataRepair`` over the same lifted model reuse one closed form.
GLOBAL_CACHE = CheckCache()


def get_cache(cache: Optional[CheckCache] = None) -> CheckCache:
    """``cache`` if given, else the process-wide :data:`GLOBAL_CACHE`."""
    return cache if cache is not None else GLOBAL_CACHE


def set_global_cache(cache: CheckCache) -> CheckCache:
    """Replace the process-wide cache (returns the previous one).

    Used by the batch service's worker processes to install a cache
    backed by the shared on-disk result store, so every repair in the
    process — including ones that default to the global cache — reads
    and writes the persistent layer.
    """
    global GLOBAL_CACHE
    previous = GLOBAL_CACHE
    GLOBAL_CACHE = cache
    return previous
